"""Corruption coverage: every broken artefact fails with a precise error."""

import json

import numpy as np
import pytest

from repro.app.persistence import BPR_KIND, load_bpr, save_bpr
from repro.errors import (
    ArtefactVersionError,
    ChecksumMismatchError,
    ManifestMissingError,
    PersistenceError,
    TruncatedArtefactError,
)
from repro.pipeline.merge import MERGED_CORPUS_KIND, load_merged_corpus
from repro.resilience.artefacts import (
    MANIFEST_NAME,
    manifest_path_for,
    write_manifest,
)


@pytest.fixture()
def saved_model(tmp_path, tiny_bpr, tiny_split):
    path = tmp_path / "model.npz"
    save_bpr(tiny_bpr, tiny_split.train, path)
    return path


def rewrite_npz(path, **overrides):
    """Rewrite the archive with some arrays replaced, manifest kept valid."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays.update(overrides)
    with path.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    write_manifest(path, [path], kind=BPR_KIND)


class TestModelCorruption:
    def test_roundtrip_is_clean(self, saved_model, tiny_bpr):
        model, train = load_bpr(saved_model)
        assert np.array_equal(model.item_factors, tiny_bpr.item_factors)
        assert train.n_users == len(train.users)

    def test_truncated_archive(self, saved_model):
        blob = saved_model.read_bytes()
        saved_model.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedArtefactError, match="truncated"):
            load_bpr(saved_model)

    def test_flipped_bytes_same_length(self, saved_model):
        blob = bytearray(saved_model.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        saved_model.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError, match="corrupt"):
            load_bpr(saved_model)

    def test_missing_manifest(self, saved_model):
        manifest_path_for(saved_model).unlink()
        with pytest.raises(ManifestMissingError, match="manifest"):
            load_bpr(saved_model)

    def test_future_manifest_version(self, saved_model):
        manifest_path = manifest_path_for(saved_model)
        manifest = json.loads(manifest_path.read_text())
        manifest["manifest_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtefactVersionError, match="manifest_version 99"):
            load_bpr(saved_model)

    def test_kind_mismatch(self, saved_model):
        manifest_path = manifest_path_for(saved_model)
        manifest = json.loads(manifest_path.read_text())
        manifest["kind"] = MERGED_CORPUS_KIND
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtefactVersionError, match="expected 'bpr-model'"):
            load_bpr(saved_model)

    def test_future_format_version(self, saved_model):
        rewrite_npz(
            saved_model,
            format_version=np.asarray([99], dtype=np.int64),
        )
        with pytest.raises(ArtefactVersionError, match="format version 99"):
            load_bpr(saved_model)

    def test_tampered_item_factor_shape(self, saved_model):
        with np.load(saved_model, allow_pickle=False) as archive:
            item_factors = archive["item_factors"]
        rewrite_npz(saved_model, item_factors=item_factors[:-3])
        with pytest.raises(PersistenceError, match="item factors"):
            load_bpr(saved_model)

    def test_tampered_user_factor_shape(self, saved_model):
        with np.load(saved_model, allow_pickle=False) as archive:
            user_factors = archive["user_factors"]
        rewrite_npz(saved_model, user_factors=user_factors[:, :-1])
        with pytest.raises(PersistenceError, match="user factors"):
            load_bpr(saved_model)

    def test_inconsistent_csr_lengths(self, saved_model):
        with np.load(saved_model, allow_pickle=False) as archive:
            data = archive["train_data"]
        rewrite_npz(saved_model, train_data=data[:-5])
        with pytest.raises(PersistenceError, match="disagree"):
            load_bpr(saved_model)

    def test_non_monotonic_indptr(self, saved_model):
        with np.load(saved_model, allow_pickle=False) as archive:
            indptr = archive["train_indptr"].copy()
        indptr[1], indptr[2] = indptr[2] + 1, indptr[1]
        rewrite_npz(saved_model, train_indptr=indptr)
        with pytest.raises(PersistenceError, match="monotonic"):
            load_bpr(saved_model)

    def test_out_of_range_indices(self, saved_model):
        with np.load(saved_model, allow_pickle=False) as archive:
            indices = archive["train_indices"].copy()
        indices[0] = 10_000_000
        rewrite_npz(saved_model, train_indices=indices)
        with pytest.raises(PersistenceError, match="outside"):
            load_bpr(saved_model)

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no saved model"):
            load_bpr(tmp_path / "nope.npz")


class TestDatasetCorruption:
    """The merged dataset as the merge's writer leaves it, then damaged."""

    def test_roundtrip_is_clean(self, tiny_dataset_dir, tiny_merged):
        loaded = load_merged_corpus(tiny_dataset_dir)
        assert list(loaded.books["book_id"]) == list(
            tiny_merged.books["book_id"]
        )

    def test_truncated_csv(self, tiny_dataset_dir):
        books = tiny_dataset_dir / "books.csv"
        blob = books.read_bytes()
        books.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(TruncatedArtefactError, match="truncated"):
            load_merged_corpus(tiny_dataset_dir)

    def test_checksum_mismatched_csv(self, tiny_dataset_dir):
        books = tiny_dataset_dir / "books.csv"
        blob = bytearray(books.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        books.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError, match="books.csv"):
            load_merged_corpus(tiny_dataset_dir)

    def test_missing_manifest(self, tiny_dataset_dir):
        (tiny_dataset_dir / MANIFEST_NAME).unlink()
        with pytest.raises(ManifestMissingError):
            load_merged_corpus(tiny_dataset_dir)

    def test_missing_table(self, tiny_dataset_dir):
        (tiny_dataset_dir / "genres.csv").unlink()
        with pytest.raises(PersistenceError, match="genres.csv"):
            load_merged_corpus(tiny_dataset_dir)

    def test_kind_mismatch(self, tiny_dataset_dir):
        manifest_path = tiny_dataset_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["kind"] = BPR_KIND
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtefactVersionError, match="expected 'merged-corpus'"):
            load_merged_corpus(tiny_dataset_dir)
