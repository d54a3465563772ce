"""Streaming merge: the Section-3 merge over a sharded corpus on disk.

:func:`merge_sharded_corpus` runs the one merge,
:func:`repro.pipeline.merge.run_merge`, over the shards of a
:class:`~repro.datasets.corpus.ShardedCorpus`: peak memory is bounded by
the catalogue plus a single shard, not the corpus. Its result is
assembled in memory, or, given an ``output_dir``, written back out
through the merge's own writer as merged readings shards under a
checksum manifest (the out-of-core mode), reloadable via
:func:`~repro.pipeline.merge.load_merged_corpus`.

``tests/pipeline/test_streaming_merge.py`` checks the merge against the
per-row oracle over the materialised corpus, refuses a swapped input
shard, round-trips the out-of-core output, and caps peak RSS against the
shard size.
"""

from __future__ import annotations

from pathlib import Path

from repro.datasets.corpus import ShardedCorpus
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pipeline.merge import MergeConfig, StreamingMergeResult, run_merge


def merge_sharded_corpus(
    corpus: ShardedCorpus,
    config: MergeConfig | None = None,
    *,
    output_dir: str | Path | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> StreamingMergeResult:
    """Run the merge pipeline over a sharded corpus without materialising it.

    The same merge as ``build_merged_dataset(*corpus.materialise(), config)``
    — same merged tables, same :class:`~repro.pipeline.merge.MergeReport`,
    same metrics series — but peak memory is bounded by the catalogue plus
    a single shard, not the corpus. With ``output_dir`` the merged
    readings are written there as npz shards plus ``books.csv`` /
    ``genres.csv`` under a checksum manifest instead of being assembled in
    memory (the result's ``dataset`` is ``None``); reload with
    :func:`~repro.pipeline.merge.load_merged_corpus`.

    The corpus is re-hashed against its manifests first
    (:meth:`~repro.datasets.corpus.ShardedCorpus.verify`), so a corrupt,
    truncated or swapped shard raises a
    :class:`~repro.errors.PersistenceError` such as
    :class:`~repro.errors.ChecksumMismatchError` before any row is merged.
    """
    corpus.verify()
    return run_merge(
        corpus, config, output_dir=output_dir, tracer=tracer, metrics=metrics
    )
