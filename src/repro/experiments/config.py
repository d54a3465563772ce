"""Experiment configuration and scale presets.

The paper's merged dataset is 2 332 books × 43 531 users × ~1 M readings.
Three presets trade fidelity for runtime:

- ``small`` — seconds; used by the test suite and quick sanity runs.
- ``default`` — tens of seconds; the documented results in EXPERIMENTS.md
  come from this scale. Keeps the paper's catalogue-to-holdout ratio so the
  baseline KPI magnitudes land near the published ones.
- ``paper`` — minutes; full published dataset dimensions (6 079 BCT +
  37 452 Anobii users).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.bpr import BPRConfig
from repro.datasets.world import WorldConfig
from repro.errors import ConfigurationError
from repro.pipeline.merge import MergeConfig
from repro.rng import DEFAULT_SEED


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on."""

    scale: str = "default"
    seed: int = DEFAULT_SEED
    k: int = 20
    world: WorldConfig = field(default_factory=WorldConfig)
    merge: MergeConfig = field(default_factory=lambda: MergeConfig(min_book_readings=20))
    bpr: BPRConfig = field(default_factory=BPRConfig)
    closest_fields: tuple[str, ...] = ("author", "genres")
    n_jobs: int = 1
    """Worker processes for the hyper-parameter grid search's cells;
    ``1`` = in-process, ``-1`` = all CPUs. The grid's output is
    bit-identical for every value (see ``docs/determinism.md``)."""

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """The same configuration with a different world seed."""
        return replace(self, seed=seed, world=replace(self.world, seed=seed))


def _small() -> ExperimentConfig:
    return ExperimentConfig(
        scale="small",
        world=WorldConfig(
            n_books=400,
            n_authors=160,
            n_bct_users=160,
            n_anobii_users=900,
        ),
        merge=MergeConfig(min_user_readings=10, min_book_readings=8),
        bpr=BPRConfig(epochs=8),
    )


def _default() -> ExperimentConfig:
    return ExperimentConfig(scale="default")


def _paper() -> ExperimentConfig:
    return ExperimentConfig(
        scale="paper",
        world=WorldConfig(
            n_books=4300,
            n_authors=1300,
            n_bct_users=6079,
            n_anobii_users=37452,
        ),
        merge=MergeConfig(min_user_readings=10, min_book_readings=100),
        bpr=BPRConfig(),
    )


SCALES = {
    "small": _small,
    "default": _default,
    "paper": _paper,
}


def config_for_scale(
    scale: str,
    seed: int | None = None,
    n_jobs: int | None = None,
) -> ExperimentConfig:
    """Build the preset for ``scale``, optionally reseeded; ``n_jobs``
    sets the grid search's worker processes."""
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        )
    config = SCALES[scale]()
    if seed is not None:
        config = config.with_seed(seed)
    if n_jobs is not None:
        config = replace(config, n_jobs=n_jobs)
    return config
