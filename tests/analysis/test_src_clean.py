"""Tier-1 gate: the analyzer runs clean over the repository's own src/.

Every invariant the rules enforce — seeded randomness, the layer DAG,
lock discipline, exception hygiene, docs integrity — holds for the
codebase itself. A finding here means either the code regressed or a
new rule surfaced a real issue; fix it or justify it with an inline
``# repro: allow[rule-id]`` pragma, never by relaxing this test.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_check

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The trees gated against the committed baseline.
AUX_TREES = [
    REPO_ROOT / name for name in ("scripts", "benchmarks", "examples")
]


def test_src_has_no_findings():
    result = run_check([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.ok, "\n" + result.render_text()


def test_src_run_covers_the_whole_package():
    result = run_check([REPO_ROOT / "src"], root=REPO_ROOT)
    # A collapse of the file walk would pass the clean gate vacuously.
    assert result.files_checked > 50


def test_scripts_and_benchmarks_clean_modulo_baseline():
    """The auxiliary trees stay clean beyond the committed baseline.

    ``check-baseline.json`` grandfathers the load generator's catch-all
    request handler; anything *new* in scripts/, benchmarks/ or
    examples/ must be fixed (or justified inline), never silently
    accumulated.
    """
    result = run_check(
        AUX_TREES,
        root=REPO_ROOT,
        baseline=REPO_ROOT / "check-baseline.json",
    )
    assert result.ok, "\n" + result.render_text()
    assert result.files_checked > 15


def test_committed_baseline_carries_no_dead_fingerprints():
    """Every baselined fingerprint still matches a live finding.

    A fixed finding must leave the baseline too, so the file never
    grows stale entries that could mask a regression with the same
    message elsewhere.
    """
    from repro.analysis import load_baseline

    result = run_check(AUX_TREES, root=REPO_ROOT)
    live = {finding.fingerprint for finding in result.findings}
    assert load_baseline(REPO_ROOT / "check-baseline.json") <= live
