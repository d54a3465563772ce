"""Streaming merge: the Section-3 merge over a sharded corpus on disk.

:func:`merge_sharded_corpus` runs the one merge,
:func:`repro.pipeline.merge.run_merge`, over the shards of a
:class:`~repro.datasets.corpus.ShardedCorpus`: peak memory is bounded by
the catalogue plus a single shard, not the corpus. Its result is either
assembled in memory (``materialise=True``) or written back out as merged
readings shards under a checksum manifest (``output_dir=...``, the
out-of-core mode), reloadable via :func:`load_merged_corpus`.

``tests/pipeline/test_streaming_merge.py`` checks the merge against the
per-row oracle over the materialised corpus, refuses a swapped input
shard, round-trips the out-of-core output, and caps peak RSS against the
shard size.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from repro.datasets.corpus import ShardedCorpus
from repro.datasets.merged import MergedDataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pipeline.merge import (
    SOURCE_NAMES,
    MergeConfig,
    MergedRows,
    StreamingMergeResult,
    readings_table,
    run_merge,
)
from repro.resilience.artefacts import verify_manifest, write_manifest
from repro.tables import read_csv, write_csv
from repro.tables.io import read_npz_columns, write_npz_columns

#: Manifest ``kind`` of a streamed merge output directory.
MERGED_CORPUS_KIND = "merged-corpus"


def merge_sharded_corpus(
    corpus: ShardedCorpus,
    config: MergeConfig | None = None,
    *,
    materialise: bool = True,
    output_dir: str | Path | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> StreamingMergeResult:
    """Run the merge pipeline over a sharded corpus without materialising it.

    The same merge as ``build_merged_dataset(*corpus.materialise(), config)``
    — same merged tables (when ``materialise=True``), same
    :class:`~repro.pipeline.merge.MergeReport`, same metrics series — but
    peak memory is bounded by the catalogue plus a single shard, not the
    corpus. With ``output_dir`` the merged readings are written back out
    as npz shards plus ``books.csv`` / ``genres.csv`` under a checksum
    manifest instead of (or in addition to) being assembled in memory;
    reload with :func:`load_merged_corpus`.

    The corpus is re-hashed against its manifests first
    (:meth:`~repro.datasets.corpus.ShardedCorpus.verify`), so a corrupt,
    truncated or swapped shard raises a
    :class:`~repro.errors.PersistenceError` such as
    :class:`~repro.errors.ChecksumMismatchError` before any row is merged.
    """
    corpus.verify()
    config = config or MergeConfig()
    write = None
    if output_dir is not None:
        write = partial(_write_merged_corpus, Path(output_dir), config)
    return run_merge(
        corpus, config, materialise=materialise, write=write,
        tracer=tracer, metrics=metrics,
    )


def _write_merged_corpus(out_dir: Path, config: MergeConfig, rows: MergedRows) -> Path:
    """Write the merged readings as npz shards + csv catalogues + manifest."""
    corpus = rows.corpus
    out_dir.mkdir(parents=True, exist_ok=True)
    user_ids = np.concatenate(
        [
            np.asarray(corpus.bct_user_ids, dtype=str)
            if len(corpus.bct_user_ids)
            else np.asarray([], dtype="U1"),
            np.asarray(corpus.anobii_user_ids, dtype=str)
            if len(corpus.anobii_user_ids)
            else np.asarray([], dtype="U1"),
        ]
    )
    files: list[Path] = []
    users_path = out_dir / "users.npz"
    write_npz_columns(users_path, {"user_id": user_ids})
    files.append(users_path)

    epoch_days = {
        0: int(corpus.bct_epoch.astype("datetime64[D]").astype(np.int64)),
        1: int(corpus.anobii_epoch.astype("datetime64[D]").astype(np.int64)),
    }
    shard_rows: list[int] = []
    for index, (source, shard, final, book_ids) in enumerate(rows.shards()):
        n = int(final.sum())
        users = shard["user"][final]
        if source == 1:
            users = users + np.int32(rows.n_bct_users)
        path = out_dir / f"readings-{index:05d}.npz"
        write_npz_columns(
            path,
            {
                "user": users,
                "book_id": book_ids,
                "day": shard["day"][final].astype(np.int64) + epoch_days[source],
                "source": np.full(n, source, dtype=np.int8),
            },
        )
        files.append(path)
        shard_rows.append(n)

    books_path = out_dir / "books.csv"
    write_csv(rows.books, books_path)
    files.append(books_path)
    genres_path = out_dir / "genres.csv"
    write_csv(rows.genres, genres_path)
    files.append(genres_path)

    write_manifest(
        out_dir,
        files,
        kind=MERGED_CORPUS_KIND,
        extra={
            "merged": {
                "readings": rows.n_readings,
                "shards": len(shard_rows),
                "shard_rows": shard_rows,
                "books": rows.books.num_rows,
                "min_user_readings": config.min_user_readings,
                "min_book_readings": config.min_book_readings,
            }
        },
    )
    return out_dir


def load_merged_corpus(path: str | Path) -> MergedDataset:
    """Reload a merged corpus written by ``merge_sharded_corpus(output_dir=...)``.

    Verifies every file against the output's checksum manifest first
    (:class:`~repro.errors.PersistenceError` on a missing, truncated or
    altered file), then rebuilds the same
    :class:`~repro.datasets.MergedDataset` the materialised path produces
    (validated), reading the readings shards in order.
    """
    path = Path(path)
    manifest = verify_manifest(path, kind=MERGED_CORPUS_KIND)
    meta = manifest.get("merged", {})
    user_ids = np.asarray(
        read_npz_columns(path / "users.npz")["user_id"].tolist(), dtype=object
    )
    user_parts, book_parts, date_parts, source_parts = [], [], [], []
    for index in range(int(meta.get("shards", 0))):
        shard = read_npz_columns(path / f"readings-{index:05d}.npz")
        if not len(shard["user"]):
            continue
        user_parts.append(user_ids[shard["user"]])
        book_parts.append(shard["book_id"])
        date_parts.append(shard["day"].astype("datetime64[D]"))
        source_parts.append(SOURCE_NAMES[shard["source"].astype(np.int64)])
    merged = MergedDataset(
        books=read_csv(path / "books.csv"),
        readings=readings_table(user_parts, book_parts, date_parts, source_parts),
        genres=read_csv(path / "genres.csv"),
    )
    merged.validate()
    return merged
