"""The analyzer runs on the standard library alone.

``repro check`` imports nothing outside the standard library, so it can
gate a checkout before numpy and scipy are installed. Its two writers,
the incremental cache and the baseline file, go through the shared
:func:`repro.resilience.artefacts.atomic_write`, which keeps to the
standard library too. This test runs the analyzer, a cached run and a
baseline write in a child interpreter where importing numpy or scipy
fails.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from .conftest import build_tree

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = textwrap.dedent(
    """
    import sys
    from pathlib import Path


    class BlockNumericStack:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("numpy", "scipy"):
                raise ImportError(f"{name} is blocked in this test")
            return None


    sys.meta_path.insert(0, BlockNumericStack())

    import repro.analysis
    import repro.analysis.cache
    import repro.analysis.suppress
    from repro.analysis import run_check
    from repro.analysis.suppress import write_baseline

    root = Path(sys.argv[1])
    cache = root / ".cache"
    cold = run_check([root / "pkg"], root=root, cache_dir=cache)
    warm = run_check([root / "pkg"], root=root, cache_dir=cache)
    assert not cold.from_cache and warm.from_cache
    assert [f.fingerprint for f in warm.findings] == [
        f.fingerprint for f in cold.findings
    ]
    write_baseline(cold.all_findings, root / "baseline.json")
    loaded = [m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")]
    assert not loaded, loaded
    print(len(cold.findings), len(list(cache.glob("*.json"))))
    """
)


def test_check_cache_and_baseline_without_numpy_or_scipy(tmp_path):
    root = build_tree(
        tmp_path / "proj",
        {
            "pkg/__init__.py": '"""Fixture package."""\n',
            "pkg/mod.py": '''\
                """Mod."""

                import numpy as np

                def draw():
                    """Draw."""
                    return np.random.default_rng(7)
            ''',
        },
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(root)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    findings, entries = map(int, done.stdout.split())
    assert findings == 1  # seed-lineage: a generator outside repro.rng
    assert entries == 1
    assert (root / "baseline.json").exists()
