"""The BPR training kernel as it stood before its gathers were reworked.

``train_batch`` below, with the ``predraw_candidates``, ``is_seen``,
``_apply_updates`` and ``scatter_add`` it calls, is the earlier
:mod:`repro.core.bpr_kernel` step, frozen verbatim: fancy-index
gathers, a re-gather of every factor row in the update, per-round
boolean masks over the full batch, each row's first violator found by
masking the 2-D block, and one strided add-back per factor column. The
current kernel runs the same float32 arithmetic on the same RNG draws
in the same order, so a fit through either must give the same factors
bit for bit
(``tests/core/test_bpr_kernel.py::TestFrozenKernelBitIdentity``). The
helpers the rework left as they were (``sample_unseen`` and
``stable_neg_sigmoid``) are shared with the kernel.
Do not modernise this code: its whole value is staying bit-equal to the
earlier kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.bpr_kernel import (
    _BIT,
    RESAMPLE_ROUNDS,
    sample_unseen,
    stable_neg_sigmoid,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.bpr import BPRConfig


def is_seen(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each ``user * n_items + item`` key is set in ``seen``.

    ``seen`` is a :func:`seen_bitset`; every key of a valid
    ``(user, item)`` pair lies inside it, the last item of the last user
    included, so no position needs clamping.
    """
    return (seen[keys >> 3] & _BIT[keys & 7]) != 0


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
    total = shape[0] * max_trials
    candidates = rng.integers(0, n_items, size=total, dtype=np.int64)
    base = np.repeat(users * np.int64(n_items), max_trials)
    # One full-matrix membership test, then redraw rounds that touch
    # only the (vanishing) colliding subset.
    colliding = np.flatnonzero(is_seen(seen, base + candidates))
    for _ in range(RESAMPLE_ROUNDS):
        if colliding.size == 0:
            break
        candidates[colliding] = rng.integers(
            0, n_items, size=colliding.size, dtype=np.int64
        )
        keys = base[colliding] + candidates[colliding]
        colliding = colliding[is_seen(seen, keys)]
    valid = np.ones(total, dtype=bool)
    valid[colliding] = False
    return candidates.reshape(shape), valid.reshape(shape)


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
    at higher precision before the single rounding on add-back.
    """
    n_rows = target.shape[0]
    for column in range(target.shape[1]):
        target[:, column] += np.bincount(
            indices, weights=updates[:, column], minlength=n_rows
        ).astype(target.dtype, copy=False)



# repro: tier[float32]
def _apply_updates(
    V: np.ndarray,
    P: np.ndarray,
    users: np.ndarray,
    items: np.ndarray,
    negatives: np.ndarray,
    weight: np.ndarray,
    config: "BPRConfig",
) -> None:
    """The float32 segment-sum update step.

    Positive and negative item updates concatenate into a single
    :func:`scatter_add` over ``P`` so each batch pays two segment-sum
    passes (one per factor matrix).
    """
    lr = V.dtype.type(config.learning_rate)
    reg = V.dtype.type(config.regularization)
    Vu = V[users]
    Pi = P[items]
    Pn = P[negatives]
    w = weight[:, None]
    scatter_add(V, users, lr * (w * (Pi - Pn) - reg * Vu))
    scatter_add(
        P,
        np.concatenate([items, negatives]),
        np.concatenate([lr * (w * Vu - reg * Pi), lr * (-w * Vu - reg * Pn)]),
    )


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
    batched einsum, and locates each row's first margin violator with a
    vectorised ``argmax`` — no per-trial Python loop. A row's trial
    count is the violator's overall column index + 1 (the WARP "draws
    needed"); rows none of whose ``max_trials`` pre-drawn candidates
    violate are skipped. ``seen`` is the fit's :func:`seen_bitset`.
    """
    batch = len(users)
    Vu = V[users]
    pos_scores = np.einsum("ij,ij->i", Vu, P[items])

    if config.sampler == "uniform":
        negatives = sample_unseen(users, seen, n_items, rng)
        neg_scores = np.einsum("ij,ij->i", Vu, P[negatives])
        weight = stable_neg_sigmoid(pos_scores - neg_scores)
        _apply_updates(V, P, users, items, negatives, weight, config)
        return float(batch), batch

    margin = V.dtype.type(config.margin)
    thresholds = pos_scores - margin
    # Pre-draw candidate blocks of doubling width for still-unresolved
    # rows: each block is one multi-trial draw + rejection, one gather,
    # one einsum, and one argmax. WARP resolves most rows within a
    # couple of trials, so drawing and scoring the full
    # ``(batch, max_trials)`` matrix up front would do
    # ~max_trials / mean_trials times the necessary work; the doubling
    # schedule keeps the Python loop at O(log max_trials) iterations
    # while paying only for the trials rows actually consume.
    negatives = np.zeros(batch, dtype=np.int64)
    trials = np.zeros(batch, dtype=np.int64)
    unresolved = np.arange(batch)
    drawn, width = 0, 4
    while drawn < config.max_trials and unresolved.size:
        width = min(width, config.max_trials - drawn)
        block, valid = predraw_candidates(
            users[unresolved], seen, n_items, width, rng
        )
        block_scores = np.einsum("bf,btf->bt", Vu[unresolved], P[block])
        violating = valid & (block_scores > thresholds[unresolved, None])
        hit = violating.any(axis=1)
        hit_rows = unresolved[hit]
        first = np.argmax(violating[hit], axis=1)
        trials[hit_rows] = drawn + first + 1
        negatives[hit_rows] = block[hit, first]
        unresolved = unresolved[~hit]
        drawn, width = drawn + width, width * 2
    rows = np.flatnonzero(trials)
    if rows.size == 0:
        return 0.0, 0
    rank_estimate = np.maximum((n_items - 1) / trials[rows], 1.0)
    weight = (np.log1p(rank_estimate) / np.log1p(n_items - 1)).astype(V.dtype)
    _apply_updates(
        V, P, users[rows], items[rows], negatives[rows], weight, config
    )
    return float(trials[rows].sum()), int(rows.size)

