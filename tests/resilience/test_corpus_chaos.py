"""Corpus chaos: a crash anywhere in the sharded write leaves no lies.

``ShardedCorpusWriter`` routes every byte through ``atomic_write`` and
gives each artefact its own SHA-256 manifest immediately, with the
corpus-level ``MANIFEST.json`` written last. These tests enumerate the
writer's crash points with a dry-run
:class:`~tests.resilience.faults.FaultInjector` (counting ``fault_check``
calls without firing), then crash a fresh write at every (site,
call-index) pair and assert the wreckage is honest:

- no temp files leak;
- every artefact that *has* a manifest still verifies;
- the corpus manifest is absent (it is the completion marker), so
  opening the directory fails loudly;
- ``write(resume=True)`` finishes the job, reusing every intact shard.

The operator surface is covered too: ``python -m repro health`` exits 1
on a truncated/corrupt shard and 0 once it is regenerated.
"""

import pytest

from repro.cli import main as cli_main
from repro.datasets.corpus import (
    CorpusConfig,
    ShardedCorpus,
    ShardedCorpusWriter,
    shard_plan,
)
from repro.errors import ManifestMissingError
from tests.resilience.faults import (
    SITE_IO_READ,
    SITE_IO_RENAME,
    SITE_IO_WRITE,
    FaultInjector,
    InjectedFaultError,
)

pytestmark = pytest.mark.chaos

CONFIG = CorpusConfig(
    n_books=80,
    n_authors=25,
    n_bct_users=20,
    n_anobii_users=40,
    n_loans=600,
    n_ratings=400,
    n_shards=2,
    rows_per_chunk=256,
    seed=99,
)

#: Artefacts a fresh write produces: 2 catalogues + the event shards.
N_ARTEFACTS = 2 + len(
    shard_plan(CONFIG.n_loans, CONFIG.rows_per_chunk, CONFIG.n_shards)
) + len(shard_plan(CONFIG.n_ratings, CONFIG.rows_per_chunk, CONFIG.n_shards))

# Each artefact = data file + its own manifest (one write + one rename
# apiece), plus the corpus MANIFEST.json last. A fresh write never
# reads, so io.read must not appear. The enumeration test asserts the
# dry run finds exactly this, so new fault sites force this table (and
# the crash matrix below) to grow with them.
EXPECTED_WRITE_SITES = {
    SITE_IO_WRITE: 2 * N_ARTEFACTS + 1,
    SITE_IO_RENAME: 2 * N_ARTEFACTS + 1,
}

CRASH_POINTS = [
    (site, index)
    for site, count in sorted(EXPECTED_WRITE_SITES.items())
    for index in range(count)
]


def crash_script(site, call_index):
    """A script that fires ``site`` on its ``call_index``-th invocation."""
    return {site: [False] * call_index + [True]}


def assert_no_temp_files(directory):
    leftovers = [
        p.relative_to(directory)
        for p in directory.rglob("*")
        if ".tmp" in p.name
    ]
    assert leftovers == [], f"interrupted write leaked temp files: {leftovers}"


def assert_manifested_artefacts_verify(root):
    """Every artefact that got as far as a manifest must still verify."""
    from repro.resilience.artefacts import verify_manifest

    for manifest in root.glob("*.manifest.json"):
        artefact = manifest.with_name(manifest.name[: -len(".manifest.json")])
        verify_manifest(artefact)  # raises on corruption


class TestWriterCrashPoints:
    def test_dry_run_enumerates_every_fault_site(self, tmp_path):
        injector = FaultInjector()
        with injector.injecting():
            ShardedCorpusWriter(tmp_path / "corpus", CONFIG).write()
        assert dict(injector.checked) == EXPECTED_WRITE_SITES

    @pytest.mark.parametrize("site,call_index", CRASH_POINTS)
    def test_crash_leaves_prior_shards_verifiable(self, tmp_path, site, call_index):
        root = tmp_path / "corpus"
        injector = FaultInjector(script=crash_script(site, call_index))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                ShardedCorpusWriter(root, CONFIG).write()

        assert_no_temp_files(root)
        assert_manifested_artefacts_verify(root)
        # the corpus manifest is written last: a crash anywhere earlier
        # means the directory is visibly incomplete, never half-trusted
        assert not (root / "MANIFEST.json").exists()
        with pytest.raises(ManifestMissingError):
            ShardedCorpus(root)

        # resume completes the corpus and the result fully verifies
        corpus = ShardedCorpusWriter(root, CONFIG).write(resume=True)
        corpus.verify()
        assert corpus.n_loans == CONFIG.n_loans
        assert corpus.n_ratings == CONFIG.n_ratings

    def test_resume_reuses_intact_artefacts(self, tmp_path):
        root = tmp_path / "corpus"
        # crash halfway through the shard writes
        crash_at = N_ARTEFACTS  # call index: beyond the catalogues
        injector = FaultInjector(script=crash_script(SITE_IO_WRITE, crash_at))
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                ShardedCorpusWriter(root, CONFIG).write()

        counting = FaultInjector()
        with counting.injecting():
            ShardedCorpusWriter(root, CONFIG).write(resume=True)
        # strictly fewer writes than a fresh run: intact artefacts were
        # verified (reads) instead of regenerated
        assert counting.checked[SITE_IO_WRITE] < EXPECTED_WRITE_SITES[SITE_IO_WRITE]
        assert counting.checked[SITE_IO_READ] > 0

    def test_resume_regenerates_on_config_change(self, tmp_path):
        from dataclasses import replace

        root = tmp_path / "corpus"
        ShardedCorpusWriter(root, CONFIG).write()
        changed = replace(CONFIG, seed=CONFIG.seed + 1)
        corpus = ShardedCorpusWriter(root, changed).write(resume=True)
        corpus.verify()
        assert corpus.meta["config_sha256"] == changed.digest()


class TestHealthCli:
    def test_health_passes_on_complete_corpus(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        ShardedCorpusWriter(root, CONFIG).write()
        assert cli_main(["health", str(root)]) == 0
        assert "status: ok" in capsys.readouterr().out

    def test_health_fails_on_truncated_shard_until_regenerated(
        self, tmp_path, capsys
    ):
        root = tmp_path / "corpus"
        corpus = ShardedCorpusWriter(root, CONFIG).write()
        shard = corpus.loan_shard_paths[0]
        shard.write_bytes(shard.read_bytes()[:-64])

        assert cli_main(["health", str(root)]) == 1
        assert "FAIL" in capsys.readouterr().out

        ShardedCorpusWriter(root, CONFIG).write(resume=True)
        assert cli_main(["health", str(root)]) == 0
