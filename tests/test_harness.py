"""The test harness itself: a failing property test reports its example.

The suite runs under ``filterwarnings = ["error"]``. A warning raised
inside a pytest plugin's reporting hook then aborts the whole session
with ``INTERNALERROR`` (exit 3) instead of reporting the failure, and
hypothesis's report — the falsifying example the property-based oracles
exist to produce — is lost. This runs a deliberately failing ``@given``
test in a child pytest under the repository's own configuration.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(value):
    assert value != value
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "-c", str(REPO_ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider",
            "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = completed.stdout + completed.stderr
    assert "INTERNALERROR" not in output, output
    assert completed.returncode == 1, output
    assert "Falsifying example" in output, output
