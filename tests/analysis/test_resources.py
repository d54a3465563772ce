"""``resource-lifetime``: handle lifetimes and atomic-write fixtures."""

from __future__ import annotations

import pytest

PKG = {"pkg/__init__.py": '"""Fixture package."""\n'}

RULE = ["resource-lifetime"]


def findings(check_tree, files, **kwargs):
    return check_tree({**PKG, **files}, rule_ids=RULE, **kwargs).findings


def module(body: str) -> dict[str, str]:
    import textwrap

    return {
        "pkg/mod.py": (
            '"""Mod."""\n\nimport numpy as np\n\n'
            + textwrap.dedent(body)
        ),
    }


class TestHandleLifetimes:
    def test_unowned_np_load_is_flagged(self, check_tree):
        found = findings(check_tree, module('''\
            def load(path, out):
                """Load."""
                archive = np.load(path)
                out.value = archive["x"]
            '''))
        assert len(found) == 1
        assert "never closed, returned, or handed off" in found[0].message

    def test_witness_names_binding_and_scope(self, check_tree):
        (finding,) = findings(check_tree, module('''\
            def load(path, out):
                """Load."""
                archive = np.load(path)
                out.value = archive["x"]
            '''))
        notes = [step.note for step in finding.witness]
        assert notes == [
            "np.load archive/memmap bound to `archive` here",
            "no close()/return/hand-off of `archive` in load()",
        ]

    def test_with_block_is_clean(self, check_tree):
        assert not findings(check_tree, module('''\
            def load(path):
                """Load."""
                with np.load(path) as archive:
                    return archive["x"]
            '''))

    def test_explicit_close_is_clean(self, check_tree):
        assert not findings(check_tree, module('''\
            def load(path):
                """Load."""
                archive = np.load(path)
                data = archive["x"]
                archive.close()
                return data
            '''))

    def test_returned_handle_transfers_ownership(self, check_tree):
        assert not findings(check_tree, module('''\
            def acquire(path):
                """Open and hand the memmap to the caller."""
                block = np.load(path, mmap_mode="r")
                return block
            '''))

    def test_self_store_requires_close_on_owner(self, check_tree):
        found = findings(check_tree, module('''\
            class Store:
                """Keeps a memmap resident without a release path."""

                def __init__(self, path):
                    """Init."""
                    self.block = np.load(path, mmap_mode="r")
            '''))
        assert len(found) == 1
        assert "exposes no close()" in found[0].message

    def test_self_store_with_close_is_clean(self, check_tree):
        assert not findings(check_tree, module('''\
            class Store:
                """Keeps a memmap resident behind close()."""

                def __init__(self, path):
                    """Init."""
                    self.block = np.load(path, mmap_mode="r")

                def close(self):
                    """Release."""
                    self.block = None
            '''))

    def test_anonymous_mmap_is_exempt(self, check_tree):
        assert not findings(check_tree, module('''\
            import mmap

            def shared(n):
                """Anonymous buffer — reclaimed with the array by GC."""
                buf = mmap.mmap(-1, n)
                return np.frombuffer(buf, dtype=np.uint8)
            '''))


class TestAtomicWrites:
    def test_write_text_is_flagged(self, check_tree):
        found = findings(check_tree, module('''\
            def dump(path, payload):
                """Dump."""
                path.write_text(payload)
            '''))
        assert len(found) == 1
        assert "route it through repro.resilience.artefacts.atomic_write" \
            in found[0].message

    def test_write_mode_open_is_flagged(self, check_tree):
        found = findings(check_tree, module('''\
            def dump(path, payload):
                """Dump."""
                with open(path, "w") as handle:
                    handle.write(payload)
            '''))
        assert len(found) == 1
        assert "write-mode open('w') bypasses atomic_write" \
            in found[0].message

    def test_read_mode_open_is_clean(self, check_tree):
        assert not findings(check_tree, module('''\
            def slurp(path):
                """Slurp."""
                with open(path, "r") as handle:
                    return handle.read()
            '''))

    def test_np_save_onto_bare_path_is_flagged(self, check_tree):
        found = findings(check_tree, module('''\
            def dump(arr):
                """Dump."""
                target = "out.npy"
                np.save(target, arr)
            '''))
        assert len(found) == 1
        assert "onto a bare path bypasses atomic_write" in found[0].message

    def test_np_save_into_atomic_handle_is_clean(self, check_tree):
        assert not findings(check_tree, module('''\
            from repro.resilience.artefacts import atomic_write

            def dump(path, arr):
                """Dump."""
                with atomic_write(path, "wb") as handle:
                    np.save(handle, arr)
            '''))

    def test_pragma_suppresses(self, check_tree):
        result = check_tree({**PKG, **module('''\
            def dump(path, payload):
                """Dump."""
                # repro: allow[resource-lifetime] — fixture justification
                path.write_text(payload)
            ''')}, rule_ids=RULE)
        assert result.ok
        assert result.suppressed == 1


class TestSrcRegressions:
    """Pin the real fixes this rule surfaced in the shipping code."""

    @pytest.fixture(scope="class")
    def repo(self):
        from pathlib import Path

        return Path(__file__).resolve().parents[2]

    def test_load_bpr_context_manages_its_archive(self, repo):
        source = (repo / "src/repro/app/persistence.py").read_text(
            encoding="utf-8"
        )
        assert "with np.load(path, allow_pickle=False) as archive:" in source
