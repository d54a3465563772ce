"""Unit tests for the corpus generator's chunking helper and for
:meth:`ShardedCorpus.verify`."""

import json
import shutil

import pytest

from repro.datasets.corpus import (
    CorpusConfig,
    ShardedCorpus,
    ShardedCorpusWriter,
    chunk_slices,
)
from repro.errors import (
    ArtefactVersionError,
    ChecksumMismatchError,
    ConfigurationError,
    ManifestMissingError,
    PersistenceError,
    TruncatedArtefactError,
)
from repro.resilience.artefacts import MANIFEST_NAME, manifest_path_for


class TestChunkSlices:
    @pytest.mark.parametrize("n_items,n_chunks", [
        (0, 1), (1, 1), (5, 2), (10, 3), (3, 10), (100, 7),
    ])
    def test_covers_range_in_order(self, n_items, n_chunks):
        slices = chunk_slices(n_items, n_chunks)
        flat = [i for piece in slices for i in range(n_items)[piece]]
        assert flat == list(range(n_items))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [
            piece.stop - piece.start for piece in chunk_slices(100, 7)
        ]
        assert max(sizes) - min(sizes) <= 1

    def test_caps_chunks_at_items(self):
        assert len(chunk_slices(3, 10)) == 3

    def test_empty(self):
        assert chunk_slices(0, 4) == []

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            chunk_slices(-1, 2)
        with pytest.raises(ConfigurationError):
            chunk_slices(5, 0)


CONFIG = CorpusConfig(
    n_books=60,
    n_authors=20,
    n_bct_users=15,
    n_anobii_users=30,
    n_loans=500,
    n_ratings=300,
    n_shards=2,
    rows_per_chunk=256,
    seed=11,
)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus") / "corpus"
    ShardedCorpusWriter(root, CONFIG).write()
    return root


@pytest.fixture()
def corpus_copy(written, tmp_path):
    copy = tmp_path / "corpus"
    shutil.copytree(written, copy)
    return copy


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestVerify:
    """``verify`` hashes each artefact once, against the corpus manifest,
    and checks every artefact manifest against that manifest's entry."""

    def test_intact_corpus_returns_its_manifest(self, written):
        manifest = ShardedCorpus(written).verify()
        assert manifest["kind"] == "sharded-corpus"
        assert manifest["corpus"]["config_sha256"] == CONFIG.digest()

    @pytest.mark.parametrize("name", ["books.npz", "loans-00001.npz"])
    def test_artefact_digest_disagreeing_with_corpus_raises(
        self, corpus_copy, name
    ):
        def edit(manifest):
            manifest["files"][name]["sha256"] = "0" * 64

        _edit_manifest(manifest_path_for(corpus_copy / name), edit)
        with pytest.raises(ChecksumMismatchError, match=name):
            ShardedCorpus(corpus_copy).verify()

    def test_artefact_bytes_disagreeing_with_corpus_raises(self, corpus_copy):
        def edit(manifest):
            manifest["files"]["ratings-00000.npz"]["bytes"] -= 1

        _edit_manifest(
            manifest_path_for(corpus_copy / "ratings-00000.npz"), edit
        )
        with pytest.raises(ChecksumMismatchError):
            ShardedCorpus(corpus_copy).verify()

    def test_artefact_manifest_of_another_kind_raises(self, corpus_copy):
        def edit(manifest):
            manifest["kind"] = "corpus-catalogue"

        _edit_manifest(manifest_path_for(corpus_copy / "loans-00000.npz"), edit)
        with pytest.raises(ArtefactVersionError):
            ShardedCorpus(corpus_copy).verify()

    def test_missing_artefact_manifest_raises(self, corpus_copy):
        manifest_path_for(corpus_copy / "items.npz").unlink()
        with pytest.raises(ManifestMissingError):
            ShardedCorpus(corpus_copy).verify()

    def test_artefact_missing_from_corpus_manifest_raises(self, corpus_copy):
        def edit(manifest):
            del manifest["files"]["loans-00000.npz"]

        _edit_manifest(corpus_copy / MANIFEST_NAME, edit)
        with pytest.raises(PersistenceError, match="not listed"):
            ShardedCorpus(corpus_copy).verify()

    def test_truncated_shard_raises(self, corpus_copy):
        shard = corpus_copy / "loans-00000.npz"
        shard.write_bytes(shard.read_bytes()[:-64])
        with pytest.raises(TruncatedArtefactError):
            ShardedCorpus(corpus_copy).verify()
