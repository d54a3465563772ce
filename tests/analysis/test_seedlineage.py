"""``seed-lineage``: flag/no-flag fixtures and witness-path goldens.

The lineage fixtures trace generators through the dataflow layer; the
hazard fixtures cover global numpy seeding, stdlib ``random`` and
wall-clock reads, which the rule flags wherever they appear.
"""

from __future__ import annotations

import pytest

PKG = {"pkg/__init__.py": '"""Fixture package."""\n'}

RULE = ["seed-lineage"]


def findings(check_tree, files, **kwargs):
    return check_tree({**PKG, **files}, rule_ids=RULE, **kwargs).findings


class TestRawConstruction:
    def test_raw_default_rng_is_flagged(self, check_tree):
        found = findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                import numpy as np

                def draw():
                    """Draw."""
                    return np.random.default_rng(7)
            ''',
        })
        assert [f.rule for f in found] == ["seed-lineage"]
        assert "outside the seed lineage" in found[0].message

    def test_make_rng_is_sanctioned(self, check_tree):
        assert not findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                from repro.rng import make_rng

                def draw():
                    """Draw."""
                    return make_rng(7)
            ''',
        })

    def test_pragma_suppresses(self, check_tree):
        result = check_tree({**PKG, "pkg/mod.py": '''\
            """Mod."""

            import numpy as np

            def draw():
                """Draw."""
                # repro: allow[seed-lineage] — fixture justification
                return np.random.default_rng(7)
        '''}, rule_ids=RULE)
        assert result.ok
        assert result.suppressed == 1


class TestInterproceduralTrace:
    FILES = {
        "pkg/mod.py": '''\
            """Mod."""

            import numpy as np

            def draw():
                """Draw."""
                rng = np.random.default_rng(1234)
                return helper(rng)

            def helper(gen):
                """Help."""
                return gen.integers(0, 10)
        ''',
    }

    def test_stochastic_use_traces_to_raw_constructor(self, check_tree):
        found = findings(check_tree, self.FILES)
        trace = [f for f in found if "traces back" in f.message]
        assert len(trace) == 1
        assert trace[0].line == 12

    def test_witness_path_golden(self, check_tree):
        """The full def-use + call chain is attached to the finding."""
        (finding,) = [
            f for f in findings(check_tree, self.FILES)
            if "traces back" in f.message
        ]
        notes = [step.note for step in finding.witness]
        assert notes == [
            "produced by numpy.random.default_rng()",
            "`rng` bound here",
            "draw() passes `gen` to helper()",
            "generator consumed by .integers() in helper()",
        ]
        assert [step.line for step in finding.witness] == [7, 7, 8, 12]

    def test_unknown_lineage_degrades_silently(self, check_tree):
        """A generator from an unresolvable caller is never flagged."""
        assert not findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                def helper(gen):
                    """Help — gen arrives from outside the project."""
                    return gen.integers(0, 10)
            ''',
        })

    def test_sanctioned_lineage_is_clean(self, check_tree):
        assert not findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                from repro.rng import derive_rng

                def draw(seed):
                    """Draw."""
                    rng = derive_rng(seed, "pkg", "draw")
                    return helper(rng)

                def helper(gen):
                    """Help."""
                    return gen.integers(0, 10)
            ''',
        })


class TestPoolBoundary:
    def test_generator_crossing_pool_is_flagged(self, check_tree):
        found = findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                from concurrent.futures import ProcessPoolExecutor

                from repro.rng import make_rng

                def run(tasks):
                    """Run."""
                    rng = make_rng(0)
                    with ProcessPoolExecutor() as executor:
                        return list(executor.map(work, tasks, rng))

                def work(task, rng):
                    """Work."""
                    return task
            ''',
        })
        assert len(found) == 1
        assert (
            "crosses the ProcessPoolExecutor.map() task boundary"
            in found[0].message
        )

    def test_task_seeds_crossing_pool_is_clean(self, check_tree):
        assert not findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                from concurrent.futures import ProcessPoolExecutor

                from repro.rng import task_seeds

                def run(tasks, seed):
                    """Run."""
                    seeds = task_seeds(seed, "pkg.tasks", len(tasks))
                    with ProcessPoolExecutor() as executor:
                        return list(executor.map(work, tasks, seeds))

                def work(task, seed):
                    """Work."""
                    return task
            ''',
        })

    def test_raw_generator_submitted_to_bound_executor_is_flagged(
        self, check_tree
    ):
        """``.submit`` counts too, on an executor bound by assignment
        through a module alias; the raw constructor is flagged as well."""
        found = findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                import concurrent.futures as cf

                import numpy as np

                def run(task):
                    """Run."""
                    rng = np.random.default_rng(1)
                    executor = cf.ProcessPoolExecutor(max_workers=2)
                    return executor.submit(work, task, rng).result()

                def work(task, rng):
                    """Work."""
                    return task
            ''',
        })
        messages = sorted(f.message for f in found)
        assert len(messages) == 2
        assert "crosses the ProcessPoolExecutor.submit() task boundary" in (
            messages[0]
        )
        assert "outside the seed lineage" in messages[1]

    def test_thread_pool_is_not_a_boundary(self, check_tree):
        assert not findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                from concurrent.futures import ThreadPoolExecutor

                from repro.rng import make_rng

                def run(tasks):
                    """Run."""
                    rng = make_rng(0)
                    with ThreadPoolExecutor() as executor:
                        return list(executor.map(work, tasks, rng))

                def work(task, rng):
                    """Work."""
                    return task
            ''',
        })


class TestSeedSource:
    @pytest.mark.parametrize("expr", ["os.getpid()", "time.time_ns()"])
    def test_volatile_seed_is_flagged(self, check_tree, expr):
        found = findings(check_tree, {
            "pkg/mod.py": f'''\
                """Mod."""

                import os
                import time

                from repro.rng import make_rng

                def draw():
                    """Draw."""
                    return make_rng({expr})
            ''',
        })
        assert len(found) == 1
        assert "not a config value" in found[0].message

    def test_config_seed_is_clean(self, check_tree):
        assert not findings(check_tree, {
            "pkg/mod.py": '''\
                """Mod."""

                from repro.rng import make_rng

                def draw(config_seed):
                    """Draw."""
                    return make_rng(config_seed)
            ''',
        })


class TestScopeReuse:
    def test_reused_constant_scope_is_flagged_at_second_site(
        self, check_tree
    ):
        found = findings(check_tree, {
            "pkg/a.py": '''\
                """A."""

                from repro.rng import derive_rng

                def first(seed):
                    """First."""
                    return derive_rng(seed, "stream", 1)
            ''',
            "pkg/b.py": '''\
                """B."""

                from repro.rng import derive_rng

                def second(seed):
                    """Second."""
                    return derive_rng(seed, "stream", 1)
            ''',
        })
        assert len(found) == 1
        assert found[0].path == "pkg/b.py"
        assert "already used at pkg/a.py:7" in found[0].message
        # The witness names both derivation sites.
        assert [s.path for s in found[0].witness] == [
            "pkg/a.py", "pkg/b.py",
        ]

    def test_distinct_scopes_are_clean(self, check_tree):
        assert not findings(check_tree, {
            "pkg/a.py": '''\
                """A."""

                from repro.rng import derive_rng

                def first(seed):
                    """First."""
                    return derive_rng(seed, "stream", 1)

                def second(seed):
                    """Second."""
                    return derive_rng(seed, "stream", 2)
            ''',
        })

    def test_dynamic_scope_components_are_not_compared(self, check_tree):
        assert not findings(check_tree, {
            "pkg/a.py": '''\
                """A."""

                from repro.rng import derive_rng

                def stream(seed, task):
                    """Per-task stream — dynamic component."""
                    return derive_rng(seed, "task", task)

                def other(seed, task):
                    """Another per-task stream."""
                    return derive_rng(seed, "task", task)
            ''',
        })


# ----------------------------------------------------------------------
# hazards: legacy numpy state, stdlib random, wall-clock reads
# ----------------------------------------------------------------------

BAD = """\
import random
import numpy as np
import time
from datetime import datetime


def stochastic():
    np.random.seed(0)
    state = np.random.RandomState(3)
    generator = np.random.default_rng()
    started = time.time()
    stamp = datetime.now()
    return random.random(), state, generator, started, stamp
"""

GOOD = """\
import time

from repro.rng import make_rng


def seeded(seed):
    generator = make_rng(seed)
    started = time.perf_counter()
    return generator, started
"""

#: Every RNG and clock hazard at once, module level included.
RNG_AND_CLOCK = """\
import random
import time
from datetime import datetime

import numpy as np
from numpy.random import RandomState

G = np.random.default_rng()


def stochastic():
    np.random.seed(0)
    legacy = np.random.RandomState(3)
    unseeded = np.random.default_rng()
    seeded = np.random.default_rng(5)
    imported = RandomState(1)
    started = time.time()
    stamp = datetime.now()
    return legacy, unseeded, seeded, imported, started, stamp
"""


class TestHazardFlags:
    def test_bad_fixture_flags_every_sin(self, check_tree):
        result = check_tree({"mod.py": BAD}, rule_ids=RULE)
        assert [f.line for f in result.findings] == [1, 8, 9, 10, 11, 12]
        messages = [finding.message for finding in result.findings]
        assert any("stdlib 'random'" in m for m in messages)
        assert any("seeds process-global numpy state" in m for m in messages)
        assert any(
            "numpy.random.RandomState() creates a generator outside" in m
            for m in messages
        )
        assert any(
            "numpy.random.default_rng() creates a generator outside" in m
            for m in messages
        )
        assert any("time.time() reads the wall clock" in m for m in messages)
        assert any("datetime.now() reads the wall clock" in m for m in messages)
        assert all(finding.rule == "seed-lineage" for finding in result.findings)

    def test_from_time_import_time_flagged(self, check_tree):
        result = check_tree(
            {"mod.py": "from time import time\n"}, rule_ids=RULE
        )
        assert len(result.findings) == 1
        assert "'from time import time'" in result.findings[0].message

    @pytest.mark.parametrize("name", ["seed", "RandomState"])
    def test_from_numpy_random_import_flagged(self, check_tree, name):
        result = check_tree(
            {"mod.py": f"from numpy.random import {name}\n"}, rule_ids=RULE
        )
        assert len(result.findings) == 1
        assert name in result.findings[0].message

    def test_every_rng_and_clock_line_flagged_once(self, check_tree):
        result = check_tree({"mod.py": RNG_AND_CLOCK}, rule_ids=RULE)
        lines = [f.line for f in result.findings]
        assert lines == [1, 6, 8, 12, 13, 14, 15, 16, 17, 18]
        assert len(set(lines)) == len(lines) == 10


class TestHazardClean:
    def test_good_fixture_is_clean(self, check_tree):
        result = check_tree({"mod.py": GOOD}, rule_ids=RULE)
        assert result.ok, result.render_text()

    def test_perf_timers_allowlisted(self, check_tree):
        source = (
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.monotonic()\n"
            "c = time.process_time()\n"
            "time.sleep(0)\n"
        )
        result = check_tree({"mod.py": source}, rule_ids=RULE)
        assert result.ok, result.render_text()

    def test_repro_rng_may_construct_generators(self, check_tree):
        source = (
            "import numpy as np\n"
            "g = np.random.default_rng()\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n"
        )
        result = check_tree(
            {"repro/__init__.py": "", "repro/rng.py": source}, rule_ids=RULE
        )
        assert result.ok, result.render_text()
        # The same code anywhere else starts an unsanctioned lineage.
        result = check_tree({"other.py": source}, rule_ids=RULE)
        assert [f.line for f in result.findings] == [2, 4]


class TestHazardSuppression:
    def test_inline_pragma_silences(self, check_tree):
        source = (
            "import numpy as np\n"
            "np.random.seed(0)  # repro: allow[seed-lineage] — fixture\n"
        )
        result = check_tree({"mod.py": source}, rule_ids=RULE)
        assert result.ok
        assert result.suppressed == 1
