"""Shared fixtures: one tiny world, pipeline output, and split per session.

Dataset generation and model fitting dominate test runtime, so everything
derived from the default tiny configuration is session-scoped and
treated as read-only by tests. Tests that need a differently-shaped world
build their own (see ``make_world``).
"""

from __future__ import annotations

import pytest

from repro.core import BPR, BPRConfig
from repro.datasets import WorldConfig, generate_sources
from repro.eval import split_readings
from repro.experiments import ExperimentContext
from repro.experiments.config import ExperimentConfig
from repro.pipeline import MergeConfig, SourceView, build_merged_dataset, run_merge

TINY_WORLD = WorldConfig(
    n_books=220,
    n_authors=90,
    n_bct_users=90,
    n_anobii_users=380,
    seed=424242,
)

TINY_MERGE = MergeConfig(min_user_readings=10, min_book_readings=5)

TINY_BPR = BPRConfig(epochs=6, seed=1)

#: Series whose value is a wall-clock measurement (``eval.fit_seconds``,
#: ``bpr.batch_seconds``, ``bpr.samples_per_second``, ...) — the one
#: legitimate difference between two runs of the same computation.
TIMING_MARKERS = ("seconds", "duration", "latency", "per_second")


def strip_timing_series(snapshot: dict) -> dict:
    """A metrics snapshot without its wall-clock series."""
    return {
        kind: {
            name: series
            for name, series in snapshot[kind].items()
            if not any(marker in name for marker in TIMING_MARKERS)
        }
        for kind in ("counters", "gauges", "histograms")
    }


@pytest.fixture(scope="session")
def tiny_sources():
    """Raw BCT + Anobii dumps of the tiny world (read-only)."""
    return generate_sources(TINY_WORLD)


@pytest.fixture(scope="session")
def tiny_world(tiny_sources):
    return tiny_sources.world


@pytest.fixture(scope="session")
def tiny_merged(tiny_sources):
    """The merged dataset of the tiny world (read-only)."""
    merged, _ = build_merged_dataset(
        tiny_sources.bct, tiny_sources.anobii, TINY_MERGE
    )
    return merged


@pytest.fixture()
def tiny_dataset_dir(tmp_path, tiny_sources):
    """The tiny world's merged dataset, written by the merge's own writer
    into a fresh directory (each test gets its own copy to damage)."""
    directory = tmp_path / "dataset"
    run_merge(
        SourceView(tiny_sources.bct, tiny_sources.anobii),
        TINY_MERGE,
        output_dir=directory,
    )
    return directory


@pytest.fixture(scope="session")
def tiny_merge_report(tiny_sources):
    _, report = build_merged_dataset(
        tiny_sources.bct, tiny_sources.anobii, TINY_MERGE
    )
    return report


@pytest.fixture(scope="session")
def tiny_split(tiny_merged):
    """The paper's train/val/test split over the tiny dataset (read-only)."""
    return split_readings(tiny_merged)


@pytest.fixture(scope="session")
def tiny_bpr(tiny_split, tiny_merged):
    """A fitted BPR model on the tiny dataset (read-only)."""
    model = BPR(TINY_BPR)
    model.fit(tiny_split.train, tiny_merged)
    return model


@pytest.fixture(scope="session")
def tiny_context():
    """An ExperimentContext over the tiny configuration (read-only)."""
    config = ExperimentConfig(
        scale="small",
        seed=TINY_WORLD.seed,
        world=TINY_WORLD,
        merge=TINY_MERGE,
        bpr=TINY_BPR,
    )
    return ExperimentContext(config)
