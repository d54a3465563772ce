"""Paper-scale out-of-core corpus: seed-sharded generation + npz shards.

The real BCT/Anobii corpora are 5.5 M loans / 52 M ratings — far beyond
what :func:`repro.datasets.synthetic.generate_sources` (which materialises
every row as Python objects) can emit. This module scales the synthetic
world to millions of events without ever holding the corpus in memory:

- **Chunked, seed-sharded generation.** Events are produced in fixed-size
  chunks whose seeds derive up front via :func:`~repro.rng.task_seeds` —
  one seed per chunk, a pure function of the chunk *index*. Shards are
  contiguous chunk groups (:func:`chunk_slices`), so the concatenation of
  all shards is byte-identical for any shard count: the scale-invariance
  contract (``docs/determinism.md``), pinned by
  ``tests/datasets/test_synthetic_properties.py``.
- **Columnar npz shards behind the crash-safe machinery.** Every artefact
  (catalogue + event shards) is written with
  :func:`~repro.tables.io.write_npz_columns` (atomic temp+fsync+rename)
  and fingerprinted by a SHA-256 manifest; a top-level corpus manifest
  (shard count, row counts, schema version) is written *last*, so a crash
  at any point leaves prior shards verifiable and the corpus visibly
  incomplete (``tests/resilience/test_corpus_chaos.py``).
- **Streaming consumers.** :class:`ShardedCorpus` iterates shards as raw
  column arrays; :func:`repro.pipeline.streaming.merge_sharded_corpus`
  runs the Section-3 pipeline over them without materialising the tables.

Event shards store only numeric columns (user *indices* into the id
tables, external book/item ids, day offsets) so they load without pickle;
the typed :class:`~repro.tables.Table` views are reconstructed on demand.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.datasets.anobii import AnobiiDataset
from repro.datasets.bct import BCTDataset
from repro.datasets.models import (
    ANOBII_ITEMS_SCHEMA,
    ANOBII_RATINGS_SCHEMA,
    BCT_BOOKS_SCHEMA,
    BCT_LOANS_SCHEMA,
)
from repro.datasets.synthetic import (
    ABANDON_MAX_DAYS,
    ANOBII_ID_BASE,
    BCT_ID_BASE,
    ENGAGED_DURATION_LOG_MEAN,
    ENGAGED_DURATION_LOG_SIGMA,
    MAX_LOAN_DAYS,
    _generate_anobii,
    _generate_bct,
)
from repro.datasets.world import LatentWorld, WorldConfig
from repro.errors import (
    ChecksumMismatchError,
    ConfigurationError,
    DatasetError,
    ManifestMissingError,
    PersistenceError,
)
from repro.resilience.artefacts import (
    MANIFEST_NAME,
    read_manifest,
    verify_manifest,
    write_manifest,
)
from repro.rng import derive_rng, make_rng, task_seeds
from repro.tables import Table, concat_tables
from repro.tables.io import read_npz_columns, write_npz_columns

#: Stamped into the corpus manifest; bump on incompatible shard layout.
CORPUS_SCHEMA_VERSION = 1

#: Manifest ``kind`` tags (a shard manifest cannot vouch for a corpus).
CORPUS_KIND = "sharded-corpus"
CATALOGUE_KIND = "corpus-catalogue"
SHARD_KIND = "corpus-shard"

#: Share of loans drawn from the engaged-reading duration distribution.
CORPUS_ENGAGED_SHARE = 0.72

#: Positive star distribution, matching the in-memory generator.
_POSITIVE_STARS = np.asarray([3, 4, 5], dtype=np.int64)
_POSITIVE_STAR_P = np.asarray([0.20, 0.45, 0.35])

_LOAN_COLUMNS = ("loan_id", "user", "book_id", "day", "duration")
_RATING_COLUMNS = ("rating_id", "user", "item_id", "day", "rating")


@dataclass(frozen=True)
class CorpusConfig:
    """Shape of a sharded corpus; every field feeds the seed derivation.

    The catalogue comes from the same :class:`LatentWorld` the in-memory
    generator uses (same genres, popularity, match overlap); only the
    event streams are generated out-of-core. ``rows_per_chunk`` fixes the
    generation unit — it, not ``n_shards``, determines what each RNG
    stream produces, which is why the corpus is row-identical across
    shard counts.
    """

    n_books: int = 2000
    n_authors: int = 600
    n_bct_users: int = 2000
    n_anobii_users: int = 8000
    n_loans: int = 100_000
    n_ratings: int = 100_000
    n_shards: int = 8
    rows_per_chunk: int = 65_536
    seed: int = 20230331
    negative_rating_share: float = 0.18
    user_activity_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.n_loans < 0 or self.n_ratings < 0:
            raise DatasetError("event counts must be >= 0")
        if self.n_loans and self.n_bct_users < 1:
            raise DatasetError("n_bct_users must be >= 1 to generate loans")
        if self.n_ratings and self.n_anobii_users < 1:
            raise DatasetError("n_anobii_users must be >= 1 to generate ratings")
        if self.n_shards < 1:
            raise DatasetError("n_shards must be >= 1")
        if self.rows_per_chunk < 1:
            raise DatasetError("rows_per_chunk must be >= 1")
        if not 0.0 <= self.negative_rating_share <= 1.0:
            raise DatasetError("negative_rating_share must be in [0, 1]")

    def digest(self) -> str:
        """SHA-256 over the config fields — stamps every shard manifest."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chunk_bounds(n_rows: int, rows_per_chunk: int) -> list[tuple[int, int]]:
    """Global ``[start, stop)`` row ranges of the fixed-size generation chunks."""
    n_chunks = math.ceil(n_rows / rows_per_chunk) if n_rows else 0
    return [
        (i * rows_per_chunk, min((i + 1) * rows_per_chunk, n_rows))
        for i in range(n_chunks)
    ]


def chunk_slices(n_items: int, n_chunks: int) -> list[slice]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous slices.

    Chunk sizes differ by at most one item and concatenating the slices
    in order reproduces ``range(n_items)`` exactly.

    Args:
        n_items: number of items to cover (``>= 0``).
        n_chunks: requested chunk count (``>= 1``); capped at ``n_items``.

    Returns:
        A list of ``slice`` objects covering ``range(n_items)`` in order.

    Raises:
        ConfigurationError: when ``n_items < 0`` or ``n_chunks < 1``.
    """
    if n_items < 0:
        raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
    if n_chunks < 1:
        raise ConfigurationError(f"n_chunks must be >= 1, got {n_chunks}")
    n_chunks = min(n_chunks, n_items)
    if n_chunks == 0:
        return []
    base, extra = divmod(n_items, n_chunks)
    slices = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def shard_plan(
    n_rows: int, rows_per_chunk: int, n_shards: int
) -> list[list[tuple[int, int]]]:
    """Group the chunks of ``n_rows`` into at most ``n_shards`` shards.

    Chunk boundaries depend only on ``rows_per_chunk``; shards are
    contiguous chunk runs (:func:`chunk_slices`), so changing ``n_shards``
    regroups — never regenerates — the same chunks.
    """
    bounds = chunk_bounds(n_rows, rows_per_chunk)
    if not bounds:
        return []
    return [bounds[s] for s in chunk_slices(len(bounds), n_shards)]


@dataclass
class CorpusModel:
    """The in-memory part of a corpus: catalogues + sampling distributions.

    Cheap to build at any scale — its size is O(books + users), never
    O(events) — and a pure function of the config.
    """

    config: CorpusConfig
    world: LatentWorld
    books: Table
    items: Table
    bct_latent: np.ndarray
    bct_book_cum: np.ndarray
    anobii_latent: np.ndarray
    anobii_book_cum: np.ndarray
    bct_user_cum: np.ndarray
    anobii_user_cum: np.ndarray
    bct_epoch: np.datetime64 = field(default=np.datetime64("2012-01-01"))
    anobii_epoch: np.datetime64 = field(default=np.datetime64("2014-01-01"))
    bct_horizon: int = 0
    anobii_horizon: int = 0


def build_corpus_model(config: CorpusConfig) -> CorpusModel:
    """Build the catalogues and sampling distributions for ``config``.

    The latent world is instantiated with zero users — the catalogue side
    (titles, authors, genres, popularity, BCT/Anobii membership) does not
    depend on them — and the corpus draws its own user population with
    lognormal activity weights, so catalogue cost stays independent of
    how many million events the corpus emits.
    """
    world = LatentWorld(
        WorldConfig(
            n_books=config.n_books,
            n_authors=config.n_authors,
            n_bct_users=0,
            n_anobii_users=0,
            seed=config.seed,
        )
    )
    books = _generate_bct(world).books
    items = _generate_anobii(world).items

    popularity = world.book_popularity * world.genre_shares[world.book_genre]
    bct_latent = np.flatnonzero(world.book_in_bct)
    anobii_latent = np.flatnonzero(world.book_in_anobii)

    rng = derive_rng(config.seed, "corpus", "user-activity")
    bct_user_w = rng.lognormal(0.0, config.user_activity_sigma, config.n_bct_users)
    anobii_user_w = rng.lognormal(
        0.0, config.user_activity_sigma, config.n_anobii_users
    )

    bct_years = world.config.bct_years
    anobii_years = world.config.anobii_years
    return CorpusModel(
        config=config,
        world=world,
        books=books,
        items=items,
        bct_latent=bct_latent,
        bct_book_cum=np.cumsum(popularity[bct_latent]),
        anobii_latent=anobii_latent,
        anobii_book_cum=np.cumsum(popularity[anobii_latent]),
        bct_user_cum=np.cumsum(bct_user_w),
        anobii_user_cum=np.cumsum(anobii_user_w),
        bct_epoch=np.datetime64(f"{bct_years[0]}-01-01"),
        anobii_epoch=np.datetime64(f"{anobii_years[0]}-01-01"),
        bct_horizon=(bct_years[1] - bct_years[0] + 1) * 365,
        anobii_horizon=(anobii_years[1] - anobii_years[0] + 1) * 365,
    )


def _weighted_draw(
    rng: np.random.Generator, cum: np.ndarray, n: int
) -> np.ndarray:
    """Draw ``n`` indices proportional to the weights behind ``cum``."""
    draws = rng.random(n) * cum[-1]
    idx = np.searchsorted(cum, draws, side="right")
    return np.minimum(idx, len(cum) - 1)


def loan_chunk(
    model: CorpusModel, start: int, stop: int, chunk_seed: int
) -> dict[str, np.ndarray]:
    """Generate loans ``[start, stop)`` — a pure function of the arguments.

    Columns: ``loan_id`` (globally unique, strictly increasing), ``user``
    (index into the BCT user ids), ``book_id`` (external id), ``day``
    (offset from the BCT epoch), ``duration`` (days until return; drawn
    from the engaged/abandoned mixture of the in-memory generator).
    """
    rng = make_rng(chunk_seed)
    n = stop - start
    users = _weighted_draw(rng, model.bct_user_cum, n).astype(np.int32)
    books = model.bct_latent[_weighted_draw(rng, model.bct_book_cum, n)]
    days = rng.integers(0, model.bct_horizon, size=n).astype(np.int32)
    engaged = rng.random(n) < CORPUS_ENGAGED_SHARE
    long_days = np.clip(
        np.rint(
            rng.lognormal(ENGAGED_DURATION_LOG_MEAN, ENGAGED_DURATION_LOG_SIGMA, n)
        ),
        ABANDON_MAX_DAYS + 1,
        MAX_LOAN_DAYS,
    )
    short_days = rng.integers(1, ABANDON_MAX_DAYS + 1, size=n)
    return {
        "loan_id": start + np.arange(n, dtype=np.int64),
        "user": users,
        "book_id": (BCT_ID_BASE + books).astype(np.int64),
        "day": days,
        "duration": np.where(engaged, long_days, short_days).astype(np.int16),
    }


def rating_chunk(
    model: CorpusModel, start: int, stop: int, chunk_seed: int
) -> dict[str, np.ndarray]:
    """Generate ratings ``[start, stop)`` — a pure function of the arguments.

    Columns: ``rating_id``, ``user`` (index into the Anobii user ids),
    ``item_id`` (external id), ``day`` (offset from the Anobii epoch),
    ``rating`` (1-5 stars with the in-memory generator's mixture).
    """
    rng = make_rng(chunk_seed)
    n = stop - start
    users = _weighted_draw(rng, model.anobii_user_cum, n).astype(np.int32)
    books = model.anobii_latent[_weighted_draw(rng, model.anobii_book_cum, n)]
    days = rng.integers(0, model.anobii_horizon, size=n).astype(np.int32)
    negative = rng.random(n) < model.config.negative_rating_share
    positive_stars = rng.choice(_POSITIVE_STARS, size=n, p=_POSITIVE_STAR_P)
    negative_stars = rng.integers(1, 3, size=n)
    return {
        "rating_id": start + np.arange(n, dtype=np.int64),
        "user": users,
        "item_id": (ANOBII_ID_BASE + books).astype(np.int64),
        "day": days,
        "rating": np.where(negative, negative_stars, positive_stars).astype(np.int8),
    }


def _shard_arrays(
    model: CorpusModel,
    chunks: list[tuple[int, int]],
    seeds: list[int],
    chunk_fn,
    column_names: tuple[str, ...],
) -> dict[str, np.ndarray]:
    parts = [
        chunk_fn(model, start, stop, seed) for (start, stop), seed in zip(chunks, seeds)
    ]
    return {
        name: np.concatenate([part[name] for part in parts])
        for name in column_names
    }


def generate_loan_shards(
    model: CorpusModel, n_shards: int | None = None
) -> Iterator[dict[str, np.ndarray]]:
    """Yield the loan shards of ``model`` as raw column arrays.

    Pure generation — nothing touches disk; the writer and the property
    tests share this path.
    """
    config = model.config
    shards = shard_plan(
        config.n_loans, config.rows_per_chunk, n_shards or config.n_shards
    )
    n_chunks = len(chunk_bounds(config.n_loans, config.rows_per_chunk))
    seeds = task_seeds(config.seed, "corpus.loans", n_chunks)
    offset = 0
    for chunks in shards:
        chunk_seeds = seeds[offset : offset + len(chunks)]
        offset += len(chunks)
        yield _shard_arrays(model, chunks, chunk_seeds, loan_chunk, _LOAN_COLUMNS)


def generate_rating_shards(
    model: CorpusModel, n_shards: int | None = None
) -> Iterator[dict[str, np.ndarray]]:
    """Yield the rating shards of ``model`` as raw column arrays."""
    config = model.config
    shards = shard_plan(
        config.n_ratings, config.rows_per_chunk, n_shards or config.n_shards
    )
    n_chunks = len(chunk_bounds(config.n_ratings, config.rows_per_chunk))
    seeds = task_seeds(config.seed, "corpus.ratings", n_chunks)
    offset = 0
    for chunks in shards:
        chunk_seeds = seeds[offset : offset + len(chunks)]
        offset += len(chunks)
        yield _shard_arrays(model, chunks, chunk_seeds, rating_chunk, _RATING_COLUMNS)


def _table_to_columns(table: Table) -> dict[str, np.ndarray]:
    """Pickle-free columns of a catalogue table (str -> fixed-width unicode)."""
    columns: dict[str, np.ndarray] = {}
    for name in table.column_names:
        array = table[name]
        if array.dtype == object:
            array = np.asarray([str(value) for value in array.tolist()])
        columns[name] = array
    return columns


def _columns_to_table(columns: dict[str, np.ndarray], schema) -> Table:
    """Rebuild a typed table from npz columns (unicode -> Python str)."""
    converted = {
        name: array.tolist() if array.dtype.kind == "U" else array
        for name, array in columns.items()
    }
    return Table.from_columns(converted, schema=schema)


class ShardedCorpusWriter:
    """Write a sharded corpus to a directory, crash-safely.

    Layout (flat, so every artefact's manifest resolves against the
    corpus root)::

        corpus/
          books.npz     + books.npz.manifest.json     (BCT catalogue)
          items.npz     + items.npz.manifest.json     (Anobii catalogue)
          loans-00000.npz   + .manifest.json          (event shards ...)
          ratings-00000.npz + .manifest.json
          MANIFEST.json                               (corpus manifest, last)

    Every file goes through ``atomic_write`` and gets its own SHA-256
    manifest *immediately*, so a crash at any injected fault site leaves
    all previously written shards verifiable; the corpus-level
    ``MANIFEST.json`` is written last and is the marker that the corpus is
    complete. ``write(resume=True)`` re-verifies existing shards (config
    digest + checksums) and regenerates only what is missing or corrupt.
    """

    def __init__(self, root: str | Path, config: CorpusConfig) -> None:
        self.root = Path(root)
        self.config = config

    def write(self, resume: bool = False) -> "ShardedCorpus":
        """Generate and persist every artefact; returns the opened corpus."""
        config = self.config
        model = build_corpus_model(config)
        self.root.mkdir(parents=True, exist_ok=True)
        digest = config.digest()

        files: list[Path] = []
        files.append(
            self._write_artefact(
                "books.npz", _table_to_columns(model.books),
                CATALOGUE_KIND, digest, resume,
            )
        )
        files.append(
            self._write_artefact(
                "items.npz", _table_to_columns(model.items),
                CATALOGUE_KIND, digest, resume,
            )
        )

        loan_rows: list[int] = []
        for index, shard in enumerate(generate_loan_shards(model)):
            loan_rows.append(len(shard["loan_id"]))
            files.append(
                self._write_artefact(
                    f"loans-{index:05d}.npz", shard, SHARD_KIND, digest, resume
                )
            )
        rating_rows: list[int] = []
        for index, shard in enumerate(generate_rating_shards(model)):
            rating_rows.append(len(shard["rating_id"]))
            files.append(
                self._write_artefact(
                    f"ratings-{index:05d}.npz", shard, SHARD_KIND, digest, resume
                )
            )

        write_manifest(
            self.root,
            files,
            kind=CORPUS_KIND,
            extra={
                "corpus": {
                    "schema_version": CORPUS_SCHEMA_VERSION,
                    "config_sha256": digest,
                    "seed": config.seed,
                    "n_loans": config.n_loans,
                    "n_ratings": config.n_ratings,
                    "n_bct_users": config.n_bct_users,
                    "n_anobii_users": config.n_anobii_users,
                    "loan_shards": len(loan_rows),
                    "rating_shards": len(rating_rows),
                    "loan_shard_rows": loan_rows,
                    "rating_shard_rows": rating_rows,
                    "rows_per_chunk": config.rows_per_chunk,
                    "bct_epoch": str(model.bct_epoch),
                    "anobii_epoch": str(model.anobii_epoch),
                }
            },
        )
        return ShardedCorpus(self.root)

    def _write_artefact(
        self,
        name: str,
        columns: dict[str, np.ndarray],
        kind: str,
        digest: str,
        resume: bool,
    ) -> Path:
        path = self.root / name
        if resume and self._intact(path, kind, digest):
            return path
        write_npz_columns(path, columns)
        write_manifest(
            path,
            [path],
            kind=kind,
            extra={"corpus": {"config_sha256": digest}},
        )
        return path

    @staticmethod
    def _intact(path: Path, kind: str, digest: str) -> bool:
        """True when an existing artefact verifies and matches the config."""
        if not path.exists():
            return False
        try:
            manifest = verify_manifest(path, kind=kind)
        except PersistenceError:
            return False
        return manifest.get("corpus", {}).get("config_sha256") == digest


class ShardedCorpus:
    """Read-side handle on a corpus directory written by the writer.

    Exposes the catalogues as typed tables and the event shards either as
    raw column arrays (:meth:`iter_loan_shards` — the streaming pipeline's
    input) or as typed per-shard tables; :meth:`materialise` rebuilds the
    full in-memory :class:`BCTDataset`/:class:`AnobiiDataset` pair, which
    the equivalence tests compare against the streaming path.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        manifest_path = self.root / MANIFEST_NAME
        if not manifest_path.exists():
            raise ManifestMissingError(
                f"{self.root} has no corpus manifest ({MANIFEST_NAME}); "
                "incomplete or not a sharded corpus"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        self.meta: dict = manifest.get("corpus", {})
        self._bct_user_ids: np.ndarray | None = None
        self._anobii_user_ids: np.ndarray | None = None

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    @property
    def n_loans(self) -> int:
        return int(self.meta.get("n_loans", 0))

    @property
    def n_ratings(self) -> int:
        return int(self.meta.get("n_ratings", 0))

    @property
    def loan_shard_paths(self) -> list[Path]:
        count = int(self.meta.get("loan_shards", 0))
        return [self.root / f"loans-{i:05d}.npz" for i in range(count)]

    @property
    def rating_shard_paths(self) -> list[Path]:
        count = int(self.meta.get("rating_shards", 0))
        return [self.root / f"ratings-{i:05d}.npz" for i in range(count)]

    @property
    def bct_epoch(self) -> np.datetime64:
        return np.datetime64(self.meta["bct_epoch"])

    @property
    def anobii_epoch(self) -> np.datetime64:
        return np.datetime64(self.meta["anobii_epoch"])

    def verify(self) -> dict:
        """Hash every artefact once, against the corpus manifest, then
        check that each artefact's own manifest has the right kind and
        records the same bytes and SHA-256; returns the corpus manifest.

        Raises what :func:`~repro.resilience.artefacts.verify_manifest`
        raises; :class:`~repro.errors.ChecksumMismatchError` when an
        artefact manifest disagrees with the corpus manifest, and
        :class:`~repro.errors.PersistenceError` when the corpus manifest
        does not list an artefact.
        """
        manifest = verify_manifest(self.root, kind=CORPUS_KIND)
        listed = manifest.get("files", {})
        artefacts = [
            (self.root / "books.npz", CATALOGUE_KIND),
            (self.root / "items.npz", CATALOGUE_KIND),
        ] + [
            (path, SHARD_KIND)
            for path in self.loan_shard_paths + self.rating_shard_paths
        ]
        for path, kind in artefacts:
            expected = listed.get(path.name)
            if expected is None:
                raise PersistenceError(
                    f"{path} is not listed in the corpus manifest"
                )
            files = read_manifest(path, kind=kind).get("files", {})
            entry = files.get(path.name, {})
            if any(entry.get(key) != expected[key] for key in ("bytes", "sha256")):
                raise ChecksumMismatchError(
                    f"{path}: its manifest disagrees with the corpus "
                    "manifest on bytes or sha256"
                )
        return manifest

    # ------------------------------------------------------------------
    # user id spaces
    # ------------------------------------------------------------------

    @property
    def bct_user_ids(self) -> np.ndarray:
        """External BCT user ids, indexed by the shards' ``user`` column."""
        if self._bct_user_ids is None:
            count = int(self.meta.get("n_bct_users", 0))
            self._bct_user_ids = np.asarray(
                [f"bct_u{i:06d}" for i in range(count)], dtype=object
            )
        return self._bct_user_ids

    @property
    def anobii_user_ids(self) -> np.ndarray:
        """External Anobii user ids, indexed by the shards' ``user`` column."""
        if self._anobii_user_ids is None:
            count = int(self.meta.get("n_anobii_users", 0))
            self._anobii_user_ids = np.asarray(
                [f"anobii_u{i:06d}" for i in range(count)], dtype=object
            )
        return self._anobii_user_ids

    # ------------------------------------------------------------------
    # shard access
    # ------------------------------------------------------------------

    def bct_books(self) -> Table:
        """The BCT catalogue table."""
        return _columns_to_table(
            read_npz_columns(self.root / "books.npz"), BCT_BOOKS_SCHEMA
        )

    def anobii_items(self) -> Table:
        """The Anobii catalogue table."""
        return _columns_to_table(
            read_npz_columns(self.root / "items.npz"), ANOBII_ITEMS_SCHEMA
        )

    def iter_loan_shards(
        self, names: tuple[str, ...] | None = None
    ) -> Iterator[dict[str, np.ndarray]]:
        """Yield each loan shard's raw column arrays, in shard order.

        ``names`` restricts the read to those columns — unselected ones
        are never decompressed, which is how the streaming merge's emit
        pass keeps its working set below the shard size.
        """
        for path in self.loan_shard_paths:
            yield read_npz_columns(path, names)

    def iter_rating_shards(
        self, names: tuple[str, ...] | None = None
    ) -> Iterator[dict[str, np.ndarray]]:
        """Yield each rating shard's raw column arrays, in shard order."""
        for path in self.rating_shard_paths:
            yield read_npz_columns(path, names)

    def loans_table(self, shard: dict[str, np.ndarray]) -> Table:
        """Typed :data:`BCT_LOANS_SCHEMA` view of one loan shard."""
        loan_date = self.bct_epoch + shard["day"].astype("timedelta64[D]")
        return Table.from_columns(
            {
                "loan_id": shard["loan_id"],
                "user_id": self.bct_user_ids[shard["user"]],
                "book_id": shard["book_id"],
                "loan_date": loan_date,
                "return_date": loan_date
                + shard["duration"].astype("timedelta64[D]"),
            },
            schema=BCT_LOANS_SCHEMA,
        )

    def ratings_table(self, shard: dict[str, np.ndarray]) -> Table:
        """Typed :data:`ANOBII_RATINGS_SCHEMA` view of one rating shard."""
        return Table.from_columns(
            {
                "rating_id": shard["rating_id"],
                "user_id": self.anobii_user_ids[shard["user"]],
                "item_id": shard["item_id"],
                "rating": shard["rating"].astype(np.int64),
                "rating_date": self.anobii_epoch
                + shard["day"].astype("timedelta64[D]"),
            },
            schema=ANOBII_RATINGS_SCHEMA,
        )

    def materialise(self) -> tuple[BCTDataset, AnobiiDataset]:
        """Load the whole corpus into memory as typed source datasets.

        The in-memory reference the streaming equivalence tests compare
        against — only call this at test/bench scale.
        """
        loan_tables = [self.loans_table(s) for s in self.iter_loan_shards()]
        rating_tables = [self.ratings_table(s) for s in self.iter_rating_shards()]
        loans = (
            concat_tables(loan_tables)
            if loan_tables
            else Table.empty(BCT_LOANS_SCHEMA)
        )
        ratings = (
            concat_tables(rating_tables)
            if rating_tables
            else Table.empty(ANOBII_RATINGS_SCHEMA)
        )
        return (
            BCTDataset(books=self.bct_books(), loans=loans),
            AnobiiDataset(items=self.anobii_items(), ratings=ratings),
        )
