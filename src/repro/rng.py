"""Seeded random-number helpers.

All stochastic components of the library (synthetic data generation, the
Random Items baseline, BPR negative sampling, train/test splitting) draw
their randomness through this module so that a single integer seed makes an
entire experiment reproducible.

The helpers wrap :class:`numpy.random.Generator`; child streams are derived
with :func:`numpy.random.SeedSequence.spawn` semantics via
:func:`derive_rng`, so two components seeded from the same parent never share
a stream.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import ConfigurationError

DEFAULT_SEED = 20230101
"""Default seed used across the library (an arbitrary fixed constant)."""


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an integer seed, an existing generator (returned unchanged, which
    lets callers thread one stream through a pipeline), or ``None`` for the
    library default seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_rng(seed: int | None, *scope: str) -> np.random.Generator:
    """Derive an independent generator for a named component.

    ``scope`` strings (for example ``("bpr", "negatives")``) are hashed into
    the seed material, so distinct components obtain independent streams from
    the same experiment seed while remaining fully deterministic.
    """
    if seed is None:
        seed = DEFAULT_SEED
    material = [seed]
    for name in scope:
        material.append(zlib.crc32(name.encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(material))


def task_seeds(seed: int | None, scope: str, count: int) -> list[int]:
    """Derive ``count`` per-task integer seeds from ``(seed, scope)``.

    The seeds are drawn in the parent before any task runs and depend
    only on the arguments, so task ``i`` gets the same seed whichever
    process runs it and in whatever order. The corpus generator seeds
    its chunks this way, and the grid search its per-cell tracers.

    Args:
        seed: the experiment seed (``None`` selects the library default).
        scope: a task-family label, e.g. ``"grid.cells"``; distinct
            scopes get independent seed streams from the same seed.
        count: number of tasks (``>= 0``).

    Returns:
        ``count`` independent seeds in ``[0, 2**31 - 1)``.

    Raises:
        ConfigurationError: when ``count`` is negative.
    """
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    rng = derive_rng(seed, "parallel", scope)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]
