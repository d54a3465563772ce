"""The streaming merge over a sharded corpus equals the per-row oracle.

:func:`repro.pipeline.streaming.merge_sharded_corpus` promises the *same*
merged dataset, :class:`MergeReport` and metrics series as the per-row
oracle (``tests/pipeline/merge_oracle.py``) over the materialised corpus
— the only allowed difference is peak memory. These tests pin that
promise on a small sharded corpus, across config variants, and through
the npz round-trip of the out-of-core output mode; the RSS regression at
the bottom caps the streaming path's memory appetite against the shard
size.
"""

import shutil

import pytest

from repro.datasets.corpus import CorpusConfig, ShardedCorpus, ShardedCorpusWriter
from repro.errors import ChecksumMismatchError, PersistenceError
from repro.obs.metrics import MetricsRegistry
from repro.perf.rss import measure_phase_rss, reset_peak_rss
from repro.pipeline.merge import MergeConfig, load_merged_corpus
from repro.pipeline.streaming import merge_sharded_corpus

from tests.conftest import strip_timing_series
from tests.pipeline.merge_oracle import assert_same_merge, oracle_merge

CORPUS = CorpusConfig(
    n_books=220,
    n_authors=90,
    n_bct_users=60,
    n_anobii_users=150,
    n_loans=4000,
    n_ratings=3500,
    n_shards=3,
    rows_per_chunk=512,
    seed=424243,
)

MERGE = MergeConfig(min_user_readings=5, min_book_readings=8)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded-corpus")
    return ShardedCorpusWriter(root / "corpus", CORPUS).write()


@pytest.fixture(scope="module")
def sources(corpus):
    return corpus.materialise()


@pytest.fixture(scope="module")
def reference(sources):
    return oracle_merge(*sources, MERGE)


class TestStreamingEquivalence:
    def test_dataset_and_report_identical(self, corpus, reference):
        result = merge_sharded_corpus(corpus, MERGE)
        assert result.dataset is not None
        assert_same_merge((result.dataset, result.report), reference)

    def test_metrics_identical_up_to_timing(self, corpus, sources):
        oracle = MetricsRegistry()
        oracle_merge(*sources, MERGE, metrics=oracle)
        streaming = MetricsRegistry()
        merge_sharded_corpus(corpus, MERGE, metrics=streaming)
        assert strip_timing_series(streaming.snapshot()) == strip_timing_series(
            oracle.snapshot()
        )

    @pytest.mark.parametrize(
        "variant",
        [
            MergeConfig(min_user_readings=5, min_book_readings=8,
                        min_loan_days=7),
            MergeConfig(min_user_readings=2, min_book_readings=2),
        ],
    )
    def test_config_variants_identical(self, corpus, sources, variant):
        result = merge_sharded_corpus(corpus, variant)
        assert_same_merge(
            (result.dataset, result.report), oracle_merge(*sources, variant)
        )

    def test_readings_share_the_corpus_objects(self, corpus):
        """The merged columns point at one ``source`` label per source and
        at the corpus's own user id objects, not at a copy per reading."""
        readings = merge_sharded_corpus(corpus, MERGE).dataset.readings
        labels = {id(label) for label in readings["source"]}
        assert len(labels) == len(set(readings["source"])) == 2
        corpus_ids = {
            id(user_id)
            for user_id in (*corpus.bct_user_ids, *corpus.anobii_user_ids)
        }
        assert {id(user_id) for user_id in readings["user_id"]} <= corpus_ids


class TestCorruptInput:
    def test_swapped_input_shard_is_refused(self, corpus, tmp_path):
        """A loan shard copied over another fails the corpus checksums
        before any row is merged, instead of merging the wrong events."""
        copy = tmp_path / "corpus"
        shutil.copytree(corpus.root, copy)
        shutil.copyfile(copy / "loans-00000.npz", copy / "loans-00001.npz")
        with pytest.raises(ChecksumMismatchError):
            merge_sharded_corpus(ShardedCorpus(copy), MERGE)


class TestOutOfCoreOutput:
    def test_roundtrip_matches_reference(self, corpus, reference, tmp_path):
        expected_merged, expected_report = reference
        result = merge_sharded_corpus(corpus, MERGE, output_dir=tmp_path / "merged")
        assert result.dataset is None
        assert result.report == expected_report
        loaded = load_merged_corpus(tmp_path / "merged")
        assert_same_merge((loaded, expected_report), reference)

    def test_output_is_manifested(self, corpus, tmp_path):
        from repro.resilience.artefacts import verify_manifest

        merge_sharded_corpus(corpus, MERGE, output_dir=tmp_path / "merged")
        manifest = verify_manifest(tmp_path / "merged")
        assert manifest["merged"]["readings"] > 0

    def test_swapped_shard_is_refused(self, corpus, tmp_path):
        """A shard copied over another fails the manifest check on load."""
        out = tmp_path / "merged"
        merge_sharded_corpus(corpus, MERGE, output_dir=out)
        shutil.copyfile(out / "readings-00000.npz", out / "readings-00001.npz")
        with pytest.raises(PersistenceError):
            load_merged_corpus(out)


class TestStreamingRss:
    def test_merge_rss_bounded_by_shard_size(self, tmp_path):
        """Streaming a 1M-row merge costs < 4x the largest single shard.

        The merge writes its output as ``repro generate`` does, given an
        ``output_dir`` and nothing else. The regression this pins: the
        streaming path must never quietly
        materialise the corpus (the old ``from_pairs``/``Counter`` paths
        were O(events) in Python objects). Peak attribution needs the
        resettable ``VmHWM`` source — skip where the kernel refuses.
        """
        if not reset_peak_rss():
            pytest.skip("per-phase VmHWM reset unsupported on this kernel")
        config = CorpusConfig(
            n_books=800,
            n_authors=250,
            n_bct_users=2000,
            n_anobii_users=8000,
            n_loans=600_000,
            n_ratings=400_000,
            n_shards=2,
            seed=77,
        )
        corpus = ShardedCorpusWriter(tmp_path / "corpus", config).write()
        largest = max(
            path.stat().st_size
            for path in corpus.loan_shard_paths + corpus.rating_shard_paths
        )
        assert largest > 1_000_000  # the budget unit is a real shard
        _, rss = measure_phase_rss(
            lambda: merge_sharded_corpus(
                corpus, MergeConfig(), output_dir=tmp_path / "merged"
            )
        )
        assert rss.source == "vmhwm"
        assert rss.delta_bytes < 4 * largest, (
            f"streaming merge peak delta {rss.delta_bytes / 1e6:.1f} MB "
            f"exceeds 4x largest shard ({largest / 1e6:.1f} MB)"
        )
