"""``lock-order``: cycle, mixed-reachability and mixed-guard fixtures."""

from __future__ import annotations

PKG = {"pkg/__init__.py": '"""Fixture package."""\n'}

RULE = ["lock-order"]


def findings(check_tree, files, **kwargs):
    return check_tree({**PKG, **files}, rule_ids=RULE, **kwargs).findings


CYCLE = {
    "pkg/ab.py": '''\
        """Two lock owners calling into each other under their locks."""

        import threading


        class Alpha:
            """Holds its lock while poking Beta."""

            def __init__(self, beta: "Beta"):
                """Init."""
                self._lock = threading.Lock()
                self.beta = beta

            def poke(self):
                """Poke."""
                with self._lock:
                    self.beta.nudge()


        class Beta:
            """Holds its lock while poking Alpha."""

            def __init__(self, alpha: "Alpha"):
                """Init."""
                self._lock = threading.Lock()
                self.alpha = alpha

            def nudge(self):
                """Nudge."""
                with self._lock:
                    self.alpha.poke()
    ''',
}


class TestCycles:
    def test_two_class_cycle_is_flagged(self, check_tree):
        found = findings(check_tree, CYCLE)
        assert len(found) == 1
        assert "lock-order cycle" in found[0].message
        assert "Alpha" in found[0].message and "Beta" in found[0].message

    def test_cycle_witness_walks_both_acquisitions(self, check_tree):
        (finding,) = findings(check_tree, CYCLE)
        notes = " / ".join(step.note for step in finding.witness)
        assert "Alpha.poke() holds Alpha._lock" in notes
        assert "calls Beta.nudge() while holding it" in notes
        assert "Beta.nudge() holds Beta._lock" in notes

    def test_consistent_one_way_nesting_is_clean(self, check_tree):
        assert not findings(check_tree, {
            "pkg/ab.py": '''\
                """Alpha nests Beta; Beta never calls back — a DAG."""

                import threading


                class Alpha:
                    """Outer lock."""

                    def __init__(self, beta: "Beta"):
                        """Init."""
                        self._lock = threading.Lock()
                        self.beta = beta

                    def poke(self):
                        """Poke."""
                        with self._lock:
                            self.beta.nudge()


                class Beta:
                    """Inner lock."""

                    def __init__(self):
                        """Init."""
                        self._lock = threading.Lock()
                        self.count = 0

                    def nudge(self):
                        """Nudge."""
                        with self._lock:
                            self.count += 1
            ''',
        })

    def test_edge_through_same_class_helper_is_found(self, check_tree):
        """The locked region extends through same-class helpers."""
        found = findings(check_tree, {
            "pkg/ab.py": '''\
                """The cycle hides one hop behind a helper method."""

                import threading


                class Alpha:
                    """Outer."""

                    def __init__(self, beta: "Beta"):
                        """Init."""
                        self._lock = threading.Lock()
                        self.beta = beta

                    def poke(self):
                        """Poke."""
                        with self._lock:
                            self._relay()

                    def _relay(self):
                        """Helper called with the lock held."""
                        self.beta.nudge()


                class Beta:
                    """Inner."""

                    def __init__(self, alpha: "Alpha"):
                        """Init."""
                        self._lock = threading.Lock()
                        self.alpha = alpha

                    def nudge(self):
                        """Nudge."""
                        with self._lock:
                            self.alpha.poke()
            ''',
        })
        assert len(found) == 1
        assert "lock-order cycle" in found[0].message

    def test_callback_indirection_creates_no_edge(self, check_tree):
        """Dynamic dispatch must under-approximate, never fabricate."""
        assert not findings(check_tree, {
            "pkg/ab.py": '''\
                """The call back into Alpha goes through a callback."""

                import threading


                class Alpha:
                    """Outer."""

                    def __init__(self, beta: "Beta"):
                        """Init."""
                        self._lock = threading.Lock()
                        self.beta = beta

                    def poke(self):
                        """Poke."""
                        with self._lock:
                            self.beta.fire()


                class Beta:
                    """Fires opaque callbacks under its lock."""

                    def __init__(self, listeners):
                        """Init."""
                        self._lock = threading.Lock()
                        self.listeners = listeners

                    def fire(self):
                        """Fire."""
                        with self._lock:
                            for listener in self.listeners:
                                listener()
            ''',
        })


class TestMixedReachability:
    MIXED = {
        "pkg/svc.py": '''\
            """A helper mutating guarded state, reached both ways."""

            import threading


            class Service:
                """Owns a lock but lets _bump escape it on one path."""

                def __init__(self):
                    """Init."""
                    self._lock = threading.Lock()
                    self.hits = 0

                def record(self):
                    """Locked entry point."""
                    with self._lock:
                        self._bump()

                def touch(self):
                    """Unlocked entry point."""
                    self._bump()

                def _bump(self):
                    """Mutates guarded state without acquiring."""
                    self.hits = self.hits + 1
        ''',
    }

    def test_mixed_reachability_is_flagged(self, check_tree):
        found = findings(check_tree, self.MIXED)
        assert len(found) == 1
        finding = found[0]
        assert "self.hits is mutated without Service._lock" in finding.message
        assert "with the lock held" in finding.message
        assert "without it" in finding.message

    def test_witness_names_both_call_sites(self, check_tree):
        (finding,) = findings(check_tree, self.MIXED)
        notes = [step.note for step in finding.witness]
        assert notes[0] == "unguarded mutation of self.hits in Service._bump()"
        assert "reached with the lock held from Service.record()" in notes[1]
        assert "reached without the lock from Service.touch()" in notes[2]

    def test_locked_suffix_convention_is_honoured(self, check_tree):
        """``*_locked`` helpers assert the caller holds the lock."""
        assert not findings(check_tree, {
            "pkg/svc.py": '''\
                """The helper declares its contract in its name."""

                import threading


                class Service:
                    """Owns a lock; helper is suffixed _locked."""

                    def __init__(self):
                        """Init."""
                        self._lock = threading.Lock()
                        self.hits = 0

                    def record(self):
                        """Locked entry point."""
                        with self._lock:
                            self._bump_locked()

                    def _bump_locked(self):
                        """Caller must hold the lock."""
                        self.hits = self.hits + 1
            ''',
        })

    def test_line_hit_by_both_checks_is_reported_once(self, check_tree):
        """The helper's write is also a mixed-guard site; one finding."""
        files = dict(self.MIXED)
        files["pkg/svc.py"] = files["pkg/svc.py"].replace(
            "    with self._lock:\n"
            "                        self._bump()",
            "    with self._lock:\n"
            "                        self.hits += 1\n"
            "                        self._bump()",
        )
        assert "self.hits += 1" in files["pkg/svc.py"]
        found = findings(check_tree, files)
        assert len(found) == 1
        assert "reaches both with the lock held" in found[0].message

    def test_pragma_suppresses(self, check_tree):
        files = dict(self.MIXED)
        files["pkg/svc.py"] = files["pkg/svc.py"].replace(
            "self.hits = self.hits + 1",
            "self.hits = self.hits + 1  "
            "# repro: allow[lock-order] — fixture justification",
        )
        result = check_tree({**PKG, **files}, rule_ids=RULE)
        assert result.ok
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# mixed guard: one attribute, locked on one path and bare on another
# ----------------------------------------------------------------------

MIXED_GUARD = """\
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def hit(self):
        with self._lock:
            self.count += 1

    def reset(self):
        self.count = 0
"""

CONSISTENT = """\
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def hit(self):
        with self._lock:
            self.count += 1

    def reset(self):
        with self._lock:
            self.count = 0
"""

LOCKED_SUFFIX = """\
import threading


class Machine:
    def __init__(self):
        self._lock = threading.Lock()
        self.state = "closed"

    def trip(self):
        with self._lock:
            self.state = "open"
            self._reopen_locked()

    def _reopen_locked(self):
        self.state = "half-open"
"""

INHERITED = """\
import threading


class Base:
    def __init__(self):
        self._lock = threading.Lock()


class Child(Base):
    def __init__(self):
        super().__init__()
        self.value = 0

    def bump(self):
        with self._lock:
            self.value += 1

    def clear(self):
        self.value = 0
"""


class TestMixedGuardFlags:
    def test_mixed_mutation_is_flagged(self, check_tree):
        result = check_tree({"mod.py": MIXED_GUARD}, rule_ids=RULE)
        assert [f.line for f in result.findings] == [14]
        finding = result.findings[0]
        assert finding.rule == "lock-order"
        assert "'Stats.count' is mutated in 'reset'" in finding.message
        assert "outside 'with self._lock'" in finding.message
        assert "under the lock at line 11" in finding.message

    def test_inherited_lock_ownership_is_enforced(self, check_tree):
        result = check_tree({"mod.py": INHERITED}, rule_ids=RULE)
        assert [f.line for f in result.findings] == [19]
        assert "'Child.value' is mutated in 'clear'" in result.findings[0].message


class TestMixedGuardClean:
    def test_consistent_locking_is_clean(self, check_tree):
        result = check_tree({"mod.py": CONSISTENT}, rule_ids=RULE)
        assert result.ok, result.render_text()

    def test_locked_suffix_counts_as_locked_context(self, check_tree):
        result = check_tree({"mod.py": LOCKED_SUFFIX}, rule_ids=RULE)
        assert result.ok, result.render_text()

    def test_constructor_mutation_is_exempt(self, check_tree):
        # __init__ assigns guarded attributes lock-free: legal, the
        # instance is not shared yet.
        result = check_tree({"mod.py": CONSISTENT}, rule_ids=RULE)
        assert result.ok

    def test_lockless_class_is_ignored(self, check_tree):
        source = (
            "class Plain:\n"
            "    def set(self, v):\n"
            "        self.value = v\n"
        )
        result = check_tree({"mod.py": source}, rule_ids=RULE)
        assert result.ok


class TestMixedGuardSuppression:
    def test_inline_pragma_silences(self, check_tree):
        patched = MIXED_GUARD.replace(
            "    def reset(self):\n        self.count = 0",
            "    def reset(self):\n"
            "        self.count = 0  "
            "# repro: allow[lock-order] — single-threaded",
        )
        result = check_tree({"mod.py": patched}, rule_ids=RULE)
        assert result.ok
        assert result.suppressed == 1
