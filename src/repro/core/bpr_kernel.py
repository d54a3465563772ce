"""The BPR/WARP training kernel (see ``repro.core.bpr``).

Factors are float32. WARP negatives are *pre-drawn*: multi-trial
candidate blocks are drawn up front and scored with one einsum each, and
each row's first margin violator is one ``argmax`` over the whole block
plus one pick of the entry it points at, instead of a per-trial Python
loop. Factor rows are gathered with ``ndarray.take``, which is cheaper
than fancy indexing; a batch gathers its users' and positive items'
rows once and reuses them in the update. Updates are ``np.bincount``
segment sums rather than the slow ``np.add.at``. A sampled negative the
user has already read is rejected by one lookup in a packed bitset of
every ``(user, item)`` interaction, built once per fit
(:func:`seen_bitset`). Training is deterministic given the seed, and a
fit is bit-identical to one through the kernel's frozen predecessor in
``tests/core/bpr_kernel_oracle.py``; the contract is tabulated in
``docs/determinism.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.bpr import BPRConfig

#: Rejection-redraw rounds for negative sampling. Each user has read a
#: small fraction of the catalogue, so a handful of rounds resolve all
#: but a vanishing fraction of collisions.
RESAMPLE_ROUNDS = 4

#: ``_BIT[k]`` is the mask of bit ``k`` within a byte of a seen bitset.
_BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


# ----------------------------------------------------------------------
# negative sampling
# ----------------------------------------------------------------------


def seen_bitset(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Pack sorted ``user * n_items + item`` keys into a membership bitset.

    Bit ``key % 8`` of byte ``key // 8`` is set for every key, so the
    bitset takes ``n_keys / 8`` bytes (``n_users * n_items / 8``: ~0.6 MB
    for 2k users × 2.2k books, ~12.5 MB at the paper preset) and answers
    a membership query with one byte lookup and a bit mask
    (:func:`is_seen`) instead of a binary search over the keys. ``keys``
    must be sorted, as
    :meth:`~repro.core.interactions.InteractionMatrix.interaction_keys`
    returns them, and lie in ``[0, n_keys)``.
    """
    bits = np.zeros((n_keys + 7) // 8, dtype=np.uint8)
    if len(keys):
        byte = keys >> 3
        starts = np.flatnonzero(np.r_[True, byte[1:] != byte[:-1]])
        bits[byte[starts]] = np.bitwise_or.reduceat(_BIT[keys & 7], starts)
    return bits


def is_seen(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each ``user * n_items + item`` key is set in ``seen``.

    ``seen`` is a :func:`seen_bitset`; every key of a valid
    ``(user, item)`` pair lies inside it, the last item of the last user
    included, so no position needs clamping. ``keys`` may have any
    shape; the result has the same one.
    """
    return (seen.take(keys >> 3) & _BIT.take(keys & 7)) != 0


def sample_unseen(
    users: np.ndarray,
    seen: np.ndarray,
    n_items: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one candidate negative per user, rejecting read books.

    ``seen`` is the fit's :func:`seen_bitset`. A user who has read all
    but one item may exhaust the :data:`RESAMPLE_ROUNDS` redraw rounds
    without hitting the single unseen item. Survivor collisions keep
    their last draw: the pair trains "positive vs itself", whose
    gradient contribution on the shared item factor cancels to the
    regularisation pull alone — a rare, unbiased, near-no-op update
    rather than a bias towards any particular negative (pinned in
    ``tests/core/test_bpr_kernel.py``).

    The RNG call sequence is one full-width draw plus one redraw per
    round over the colliding subset.
    """
    candidates = rng.integers(0, n_items, size=len(users), dtype=np.int64)
    for _ in range(RESAMPLE_ROUNDS):
        collides = is_seen(seen, users * np.int64(n_items) + candidates)
        if not collides.any():
            break
        candidates[collides] = rng.integers(
            0, n_items, size=int(collides.sum()), dtype=np.int64
        )
    return candidates


# repro: tier[float32]
def predraw_candidates(
    users: np.ndarray,
    seen: np.ndarray,
    n_items: int,
    max_trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the full ``(batch, max_trials)`` WARP candidate matrix up front.

    Rejection-of-seen runs on the whole matrix against the fit's
    :func:`seen_bitset`: colliding entries are redrawn for
    :data:`RESAMPLE_ROUNDS` rounds, and any survivor is *masked invalid*
    instead of looping further (the kernel skips invalid slots when
    searching for the first violator).

    Returns:
        ``(candidates, valid)`` — an int64 candidate matrix and a
        boolean mask of the entries that are genuinely unseen.
    """
    shape = (len(users), max_trials)
    candidates = rng.integers(0, n_items, size=shape, dtype=np.int64)
    base = users * np.int64(n_items)
    # One full-matrix membership test, then redraw rounds that touch
    # only the (vanishing) colliding subset of the flat matrix.
    colliding = np.flatnonzero(is_seen(seen, base[:, None] + candidates))
    flat = candidates.reshape(-1)
    for _ in range(RESAMPLE_ROUNDS):
        if colliding.size == 0:
            break
        redrawn = rng.integers(0, n_items, size=colliding.size, dtype=np.int64)
        flat[colliding] = redrawn
        keys = base.take(colliding // max_trials) + redrawn
        colliding = colliding[is_seen(seen, keys)]
    valid = np.ones(shape, dtype=bool)
    valid.reshape(-1)[colliding] = False
    return candidates, valid


def stable_neg_sigmoid(x: np.ndarray) -> np.ndarray:
    """``sigma(-x) = 1 / (1 + e^x)`` without overflow warnings.

    The naive form overflows ``np.exp`` (a ``RuntimeWarning``, an error
    under the test suite's ``filterwarnings``) once ``x`` exceeds ~709.
    This split evaluates ``exp`` on ``-|x|`` only, which never
    overflows:

    - ``x <= 0``: ``1 / (1 + e^x)`` — the exponent equals ``-|x|``, so
      the result is bit-identical to the naive form;
    - ``x > 0``: ``e^-x / (1 + e^-x)``, algebraically equal and within
      one ulp of the naive form wherever the latter is finite.

    Preserves the input dtype (float32 stays float32).
    """
    z = np.exp(-np.abs(x))
    return np.where(x > 0.0, z, x.dtype.type(1.0)) / (x.dtype.type(1.0) + z)


# ----------------------------------------------------------------------
# scatter updates
# ----------------------------------------------------------------------


# repro: tier[float32]
def scatter_add(
    target: np.ndarray, indices: np.ndarray, updates: np.ndarray
) -> None:
    """``target[indices] += updates`` with duplicate indices accumulated.

    A drop-in replacement for ``np.add.at(target, indices, updates)``
    built from one :func:`np.bincount` segment-sum per factor column —
    an order of magnitude faster than the buffered ufunc ``.at`` path
    for the wide-and-short update matrices SGD batches produce.

    ``np.bincount`` accumulates in float64 regardless of input dtype, so
    a float32 ``target`` sees each batch's duplicate-summation performed
    at higher precision before the single rounding on add-back. The
    rounded column sums are added back in one pass over ``target``
    rather than one strided pass per column; each element gets the same
    single add either way.
    """
    n_rows = target.shape[0]
    sums = np.empty((target.shape[1], n_rows), dtype=target.dtype)
    for column in range(target.shape[1]):
        sums[column] = np.bincount(
            indices, weights=updates[:, column], minlength=n_rows
        ).astype(target.dtype, copy=False)
    target += sums.T


# repro: tier[float32]
def _apply_updates(
    V: np.ndarray,
    P: np.ndarray,
    users: np.ndarray,
    items: np.ndarray,
    negatives: np.ndarray,
    Vu: np.ndarray,
    Pi: np.ndarray,
    Pn: np.ndarray,
    weight: np.ndarray,
    config: "BPRConfig",
) -> None:
    """The float32 segment-sum update step.

    ``Vu``, ``Pi`` and ``Pn`` are the factor rows of ``users``, ``items``
    and ``negatives`` as gathered before any update of this batch.
    Positive and negative item updates are written into one buffer, so
    each batch pays two segment-sum passes (one per factor matrix).
    """
    lr = V.dtype.type(config.learning_rate)
    reg = V.dtype.type(config.regularization)
    n = len(users)
    w = weight[:, None]
    scatter_add(V, users, lr * (w * (Pi - Pn) - reg * Vu))
    item_updates = np.empty((2 * n, Vu.shape[1]), dtype=V.dtype)
    w_vu = w * Vu
    np.multiply(lr, w_vu - reg * Pi, out=item_updates[:n])
    # -(w·Vu) equals (-w)·Vu bit for bit: negation is exact.
    np.multiply(lr, -w_vu - reg * Pn, out=item_updates[n:])
    scatter_add(P, np.concatenate([items, negatives]), item_updates)


# ----------------------------------------------------------------------
# batch kernels
# ----------------------------------------------------------------------


# repro: tier[float32]
def train_batch(
    V: np.ndarray,
    P: np.ndarray,
    users: np.ndarray,
    items: np.ndarray,
    seen: np.ndarray,
    n_items: int,
    rng: np.random.Generator,
    config: "BPRConfig",
) -> tuple[float, int]:
    """One float32 SGD step over pre-drawn negatives.

    WARP sampling pre-draws multi-trial candidate blocks
    (:func:`predraw_candidates`), scores each block with a single
    batched einsum, and locates each row's first margin violator with
    one ``argmax`` over the block — no per-trial Python loop. A row's
    trial count is the violator's overall column index + 1 (the WARP
    "draws needed"); rows none of whose ``max_trials`` pre-drawn
    candidates violate are skipped. ``seen`` is the fit's
    :func:`seen_bitset`.
    """
    batch = len(users)
    Vu = V.take(users, axis=0)
    Pi = P.take(items, axis=0)
    pos_scores = np.einsum("ij,ij->i", Vu, Pi)

    if config.sampler == "uniform":
        negatives = sample_unseen(users, seen, n_items, rng)
        Pn = P.take(negatives, axis=0)
        weight = stable_neg_sigmoid(pos_scores - np.einsum("ij,ij->i", Vu, Pn))
        _apply_updates(V, P, users, items, negatives, Vu, Pi, Pn, weight, config)
        return float(batch), batch

    # Pre-draw candidate blocks of doubling width for still-open rows:
    # each block is one multi-trial draw + rejection, one gather, one
    # einsum, and one argmax. WARP resolves most rows within a couple of
    # trials, so drawing and scoring the full ``(batch, max_trials)``
    # matrix up front would do ~max_trials / mean_trials times the
    # necessary work; the doubling schedule keeps the Python loop at
    # O(log max_trials) iterations while paying only for the trials rows
    # actually consume. The open rows' users, factor rows and thresholds
    # shrink with them, so later rounds gather only from what is left.
    negatives = np.zeros(batch, dtype=np.int64)
    trials = np.zeros(batch, dtype=np.int64)
    open_rows = np.arange(batch)
    open_users, open_Vu = users, Vu
    open_thresholds = pos_scores - V.dtype.type(config.margin)
    drawn, width = 0, 4
    while drawn < config.max_trials and open_rows.size:
        width = min(width, config.max_trials - drawn)
        block, valid = predraw_candidates(open_users, seen, n_items, width, rng)
        block_scores = np.einsum("bf,btf->bt", open_Vu, P.take(block, axis=0))
        violating = block_scores > open_thresholds[:, None]
        violating &= valid
        # argmax is the first True of a row, or 0 for a row without one;
        # picking that entry tells the two apart.
        first = violating.argmax(axis=1)
        hit = violating[np.arange(open_rows.size), first]
        hits = np.flatnonzero(hit)
        first = first.take(hits)
        hit_rows = open_rows.take(hits)
        trials[hit_rows] = drawn + first + 1
        negatives[hit_rows] = block[hits, first]
        drawn, width = drawn + width, width * 2
        misses = np.flatnonzero(~hit)
        open_rows = open_rows.take(misses)
        open_users = open_users.take(misses)
        open_Vu = open_Vu.take(misses, axis=0)
        open_thresholds = open_thresholds.take(misses)
    rows = np.flatnonzero(trials)
    if rows.size == 0:
        return 0.0, 0
    trials = trials.take(rows)
    rank_estimate = np.maximum((n_items - 1) / trials, 1.0)
    weight = (np.log1p(rank_estimate) / np.log1p(n_items - 1)).astype(V.dtype)
    negatives = negatives.take(rows)
    _apply_updates(
        V, P, users.take(rows), items.take(rows), negatives,
        Vu.take(rows, axis=0), Pi.take(rows, axis=0),
        P.take(negatives, axis=0), weight, config,
    )
    return float(trials.sum()), int(rows.size)
