"""The layering rule: DAG direction, spec coverage, and cycle detection."""

from __future__ import annotations

from repro.analysis import LayeringRule, LayerSpec
from repro.analysis.rules.layering import DEFAULT_SPEC

#: Flat fixture architecture: ``low`` below ``high``.
SPEC = LayerSpec(
    layers=(
        ("low", ("low",)),
        ("high", ("high",)),
    ),
)


def rules(spec=SPEC):
    return [LayeringRule(spec)]


class TestDirection:
    def test_downward_import_is_legal(self, check_tree):
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/base.py": "VALUE = 1\n",
                "high/__init__.py": "",
                "high/top.py": "from low import base\n",
            },
            rules=rules(),
        )
        assert result.ok, result.render_text()

    def test_upward_import_is_flagged(self, check_tree):
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/base.py": "from high import top\n",
                "high/__init__.py": "",
                "high/top.py": "VALUE = 1\n",
            },
            rules=rules(),
        )
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "layering"
        assert finding.path == "low/base.py"
        assert (
            "layer 'low' module 'low.base' may not import 'high.top' "
            "from higher layer 'high'" in finding.message
        )

    def test_unmapped_module_is_flagged(self, check_tree):
        result = check_tree(
            {"rogue/__init__.py": "", "rogue/mod.py": "VALUE = 1\n"},
            rules=rules(),
        )
        assert any(
            "belongs to no declared layer" in finding.message
            for finding in result.findings
        )

    def test_override_rehomes_a_module(self, check_tree):
        spec = LayerSpec(
            layers=SPEC.layers,
            overrides={"low.driver": "high"},
        )
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/base.py": "VALUE = 1\n",
                "low/driver.py": "from high import top\n",
                "high/__init__.py": "",
                "high/top.py": "VALUE = 2\n",
            },
            rules=rules(spec),
        )
        assert result.ok, result.render_text()


class TestCycles:
    def test_injected_cycle_is_detected(self, check_tree):
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/alpha.py": "from low import beta\n",
                "low/beta.py": "from low import alpha\n",
            },
            rules=rules(),
        )
        cycles = [
            finding
            for finding in result.findings
            if "import cycle" in finding.message
        ]
        assert len(cycles) == 1
        assert (
            cycles[0].message
            == "import cycle: low.alpha -> low.beta -> low.alpha"
        )
        assert cycles[0].path == "low/alpha.py"

    def test_three_module_cycle_is_detected(self, check_tree):
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/a.py": "from low import b\n",
                "low/b.py": "from low import c\n",
                "low/c.py": "from low import a\n",
            },
            rules=rules(),
        )
        assert any(
            "import cycle: low.a -> low.b -> low.c -> low.a"
            == finding.message
            for finding in result.findings
        )

    def test_acyclic_tree_is_clean(self, check_tree):
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/alpha.py": "from low import beta\n",
                "low/beta.py": "VALUE = 1\n",
            },
            rules=rules(),
        )
        assert result.ok, result.render_text()

    def test_type_checking_back_reference_is_not_a_cycle(self, check_tree):
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/alpha.py": "from low import beta\n",
                "low/beta.py": """\
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from low import alpha
                    """,
            },
            rules=rules(),
        )
        assert result.ok, result.render_text()

    def test_type_checking_else_branch_still_counts(self, check_tree):
        result = check_tree(
            {
                "low/__init__.py": "",
                "low/alpha.py": "from low import beta\n",
                "low/beta.py": """\
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        VALUE = 1
                    else:
                        from low import alpha
                    """,
            },
            rules=rules(),
        )
        assert any(
            "import cycle: low.alpha -> low.beta -> low.alpha"
            == finding.message
            for finding in result.findings
        )


class TestDefaultSpec:
    def test_real_packages_map_to_layers(self):
        assert DEFAULT_SPEC.layer_of("repro.errors")[0] == "foundation"
        assert DEFAULT_SPEC.layer_of("repro.core.bpr")[0] == "core"
        assert DEFAULT_SPEC.layer_of("repro.app.service")[0] == "app"
        assert DEFAULT_SPEC.layer_of("repro.cli")[0] == "drivers"

    def test_overrides_rehome_demo_and_faults(self):
        assert DEFAULT_SPEC.layer_of("repro.obs.demo")[0] == "drivers"
        assert DEFAULT_SPEC.layer_of("repro.resilience.faults")[0] == "core"

    def test_foreign_modules_are_unmapped(self):
        assert DEFAULT_SPEC.layer_of("numpy.random") is None
