"""The Section-3 preprocessing pipeline.

Order of operations, as in the paper:

1. Quarantine malformed source rows and apply the source-level filters:
   Italian monographs/manuscripts for BCT, Italian book items for Anobii,
   and the positive-feedback filter (rating >= 3). The reports live in
   :mod:`repro.pipeline.cleaning`.
2. :mod:`repro.pipeline.genres` — clean the crowd-voted genres (drop
   ubiquitous and rare labels, entropy-guided aggregation, top-4 with
   vote-proportional probabilities).
3. :mod:`repro.pipeline.merge` — align the catalogues on a normalised
   (title, author) key, build the unified Readings table, apply the
   activity filters (users >= 10 readings, books above the popularity
   floor), and emit a validated :class:`repro.datasets.MergedDataset`.
4. :mod:`repro.pipeline.stats` — dataset characterisation used by Figs 1-2.

Steps 1-3 are one merge (:func:`~repro.pipeline.merge.run_merge`) that
streams the events in two passes. :func:`build_merged_dataset` runs it
over in-memory sources (a :class:`~repro.pipeline.merge.SourceView`);
:mod:`repro.pipeline.streaming` runs it over a sharded corpus on disk
(:func:`~repro.pipeline.streaming.merge_sharded_corpus`), with peak
memory bounded by one shard. Given an ``output_dir``, the merge writes
the one on-disk merged dataset, and
:func:`~repro.pipeline.merge.load_merged_corpus` reloads it.
"""

from repro.pipeline.cleaning import QuarantinedRow, QuarantineReport
from repro.pipeline.genres import GenreModel, build_genre_model
from repro.pipeline.merge import (
    MergeConfig,
    MergeReport,
    SourceView,
    StreamingMergeResult,
    build_merged_dataset,
    load_merged_corpus,
    run_merge,
)
from repro.pipeline.streaming import merge_sharded_corpus
from repro.pipeline import stats

__all__ = [
    "QuarantinedRow",
    "QuarantineReport",
    "GenreModel",
    "build_genre_model",
    "MergeConfig",
    "MergeReport",
    "build_merged_dataset",
    "run_merge",
    "SourceView",
    "StreamingMergeResult",
    "load_merged_corpus",
    "merge_sharded_corpus",
    "stats",
]
