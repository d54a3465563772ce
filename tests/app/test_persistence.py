"""Tests for dataset/model persistence.

A merged dataset reaches disk only through the merge's own writer
(``run_merge(..., output_dir=...)``, the ``tiny_dataset_dir`` fixture) and
comes back only through :func:`repro.pipeline.merge.load_merged_corpus`.
"""

import json
import zipfile

import numpy as np
import pytest

from repro.app.lifecycle import ModelStore
from repro.app.persistence import (
    BPR_FORMAT_VERSION,
    BPR_KIND,
    load_bpr,
    save_bpr,
)
from repro.app.service import (
    SERVED_BY_PRIMARY,
    RecommendationRequest,
    RecommendationService,
)
from repro.core.bpr import BPR, BPRConfig
from repro.errors import ManifestMissingError, PersistenceError
from repro.pipeline.merge import load_merged_corpus
from repro.resilience.artefacts import atomic_write, write_manifest


class TestDatasetRoundtrip:
    def test_roundtrip_preserves_tables(self, tiny_merged, tiny_dataset_dir):
        loaded = load_merged_corpus(tiny_dataset_dir)
        assert loaded.books == tiny_merged.books
        assert loaded.readings == tiny_merged.readings
        assert loaded.genres == tiny_merged.genres

    def test_loaded_dataset_validates(self, tiny_dataset_dir):
        load_merged_corpus(tiny_dataset_dir).validate()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ManifestMissingError, match="no checksum manifest"):
            load_merged_corpus(tmp_path / "nowhere")

    def test_partial_directory(self, tiny_dataset_dir):
        (tiny_dataset_dir / "genres.csv").unlink()
        with pytest.raises(PersistenceError, match="genres.csv"):
            load_merged_corpus(tiny_dataset_dir)


class TestBPRRoundtrip:
    def test_scores_identical_after_reload(self, tiny_bpr, tiny_split, tmp_path):
        path = tmp_path / "model.npz"
        save_bpr(tiny_bpr, tiny_split.train, path)
        loaded, train = load_bpr(path)
        users = np.asarray([0, 1, 2])
        assert np.allclose(
            loaded.score_users(users), tiny_bpr.score_users(users)
        )

    def test_train_matrix_restored(self, tiny_bpr, tiny_split, tmp_path):
        path = tmp_path / "model.npz"
        save_bpr(tiny_bpr, tiny_split.train, path)
        _, train = load_bpr(path)
        assert train.n_users == tiny_split.train.n_users
        assert train.users == tiny_split.train.users
        assert np.array_equal(
            train.user_items(0), tiny_split.train.user_items(0)
        )

    def test_config_restored(self, tiny_bpr, tiny_split, tmp_path):
        path = tmp_path / "model.npz"
        save_bpr(tiny_bpr, tiny_split.train, path)
        loaded, _ = load_bpr(path)
        assert loaded.config == tiny_bpr.config

    def test_recommendations_survive_reload(self, tiny_bpr, tiny_split, tmp_path):
        path = tmp_path / "model.npz"
        save_bpr(tiny_bpr, tiny_split.train, path)
        loaded, _ = load_bpr(path)
        assert (
            loaded.recommend(0, 5).tolist() == tiny_bpr.recommend(0, 5).tolist()
        )

    def test_suffix_added_when_missing(self, tiny_bpr, tiny_split, tmp_path):
        bare = tmp_path / "model"
        save_bpr(tiny_bpr, tiny_split.train, bare)  # numpy appends .npz
        loaded, _ = load_bpr(bare)
        assert loaded.is_fitted

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no saved model"):
            load_bpr(tmp_path / "ghost.npz")


def _compress_types(path) -> set:
    with zipfile.ZipFile(path) as archive:
        return {member.compress_type for member in archive.infolist()}


class TestArchiveLayout:
    def test_publish_stores_every_member_uncompressed(
        self, tmp_path, tiny_bpr, tiny_split
    ):
        version = ModelStore(tmp_path / "store").publish(
            tiny_bpr, tiny_split.train
        )
        assert _compress_types(version.model_path) == {zipfile.ZIP_STORED}


def _rewrite_config(path, float64: bool = False, **retired) -> None:
    """Rewrite a saved model as an older build stored it: a compressed
    archive, ``retired`` config fields merged into its config, float64
    factors when ``float64``, and a fresh manifest over the bytes."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    config = json.loads(str(arrays["config"][0]))
    config.update(retired)
    arrays["config"] = np.asarray([json.dumps(config)], dtype=np.str_)
    if float64:
        for name in ("user_factors", "item_factors"):
            arrays[name] = arrays[name].astype(np.float64)
    with atomic_write(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    write_manifest(
        path, [path], kind=BPR_KIND, extra={"format_version": BPR_FORMAT_VERSION}
    )


def _as_float64_era_artefact(path) -> None:
    """Rewrite a saved model as builds that trained on the float64 kernel
    stored it: float64 factors and a config naming the training tier
    (``"kernel": "reference"``) and the worker count."""
    _rewrite_config(path, float64=True, kernel="reference", workers=1)


def _publish_old(store_root, model, train, rewrite):
    store = ModelStore(store_root)
    version = store.publish(model, train)
    rewrite(version.model_path)
    assert _compress_types(version.model_path) == {zipfile.ZIP_DEFLATED}
    return store, version


def _check_loads(store, version, fitted, dtype):
    store.verify(version)
    model, _ = store.load()
    assert not hasattr(model.config, "kernel")
    assert not hasattr(model.config, "workers")
    assert model.config == fitted.config
    assert model.user_factors.dtype == dtype


def _check_hot_swap(store, version, fitted, train, merged):
    service = RecommendationService(fitted, train, merged)
    assert service.refresh_from_store(store)
    user = str(train.users.ids[0])
    response = service.recommend_response(
        RecommendationRequest(user_id=user, k=5)
    )
    assert response.model_version == version.name
    assert response.served_by == SERVED_BY_PRIMARY
    assert len(response.books) == 5


def _check_warm_start(store, train):
    previous, _ = store.load()
    model = BPR(BPRConfig(epochs=2, seed=4))
    model.fit(train, warm_start=previous)
    assert model.user_factors.dtype == np.float32
    assert store.publish(model, train).name == "v000002"
    assert store.load()[0].user_factors.dtype == np.float32


class TestRetiredKernelKey:
    """Models published before the float32 kernel became the only one
    store ``"kernel"`` in their config, and every model published while
    HogWild training existed stores ``"workers"``; they must keep
    loading. All of them, and every version published before archives
    were stored uncompressed, are compressed archives."""

    @pytest.fixture()
    def old_store(self, tmp_path, tiny_bpr, tiny_split):
        return _publish_old(
            tmp_path / "store", tiny_bpr, tiny_split.train,
            _as_float64_era_artefact,
        )

    @pytest.fixture()
    def compressed_store(self, tmp_path, tiny_bpr, tiny_split):
        return _publish_old(
            tmp_path / "store", tiny_bpr, tiny_split.train, _rewrite_config
        )

    @pytest.fixture()
    def hogwild_store(self, tmp_path, tiny_bpr, tiny_split):
        return _publish_old(
            tmp_path / "store", tiny_bpr, tiny_split.train,
            lambda path: _rewrite_config(path, workers=2),
        )

    def test_loads_and_verifies(self, old_store, tiny_bpr):
        _check_loads(*old_store, tiny_bpr, np.float64)

    def test_hot_swap_serves_it(self, old_store, tiny_bpr, tiny_split, tiny_merged):
        _check_hot_swap(*old_store, tiny_bpr, tiny_split.train, tiny_merged)

    def test_warm_starts_a_fit(self, old_store, tiny_split):
        _check_warm_start(old_store[0], tiny_split.train)

    def test_workers_archive_loads_and_verifies(self, hogwild_store, tiny_bpr):
        _check_loads(*hogwild_store, tiny_bpr, np.float32)

    def test_workers_archive_hot_swap_serves_it(
        self, hogwild_store, tiny_bpr, tiny_split, tiny_merged
    ):
        _check_hot_swap(*hogwild_store, tiny_bpr, tiny_split.train, tiny_merged)

    def test_workers_archive_warm_starts_a_fit(self, hogwild_store, tiny_split):
        _check_warm_start(hogwild_store[0], tiny_split.train)

    def test_compressed_archive_loads_and_verifies(
        self, compressed_store, tiny_bpr
    ):
        _check_loads(*compressed_store, tiny_bpr, np.float32)

    def test_compressed_archive_hot_swap_serves_it(
        self, compressed_store, tiny_bpr, tiny_split, tiny_merged
    ):
        _check_hot_swap(
            *compressed_store, tiny_bpr, tiny_split.train, tiny_merged
        )

    def test_compressed_archive_warm_starts_a_fit(
        self, compressed_store, tiny_split
    ):
        _check_warm_start(compressed_store[0], tiny_split.train)

    def test_workers_is_no_longer_a_config_field(self):
        with pytest.raises(TypeError):
            BPRConfig(workers=2)
