"""Golden tests for the flow-aware RPL01x rules, witness chains included.

Each rule gets (a) a firing fixture whose chain is pinned step by step
— the chain is the part users debug from, so it is part of the
contract — and (b) a clean fixture proving the rule stays silent on
the sanctioned idiom.
"""

from __future__ import annotations

from repro.analysis.flow_rules import flow_checkers
from repro.analysis.runner import lint_sources


def flow_lint(sources: dict[str, str]):
    """Run ONLY the flow rules (no syntactic layer, no baseline)."""
    return lint_sources(
        sources, checkers=[], flow=True, flow_checkers=flow_checkers()
    )


def by_rule(report, rule):
    return [f for f in report.new if f.rule == rule]


class TestRPL010TransitiveTaint:
    HELPER = (
        "def make_work(offset):\n"
        "    return lambda row: row + offset\n"
    )
    DRIVER = (
        "from repro.helpers import make_work\n"
        "\n"
        "def run(executor, rows):\n"
        "    work = make_work(3)\n"
        "    return list(executor.map(work, rows))\n"
    )

    def sources(self):
        return {
            "src/repro/helpers.py": self.HELPER,
            "src/repro/driver.py": self.DRIVER,
        }

    def test_syntactic_layer_misses_the_transitive_closure(self):
        # Acceptance fixture: RPL001 sees only a bare name at the map
        # site and stays silent; the closure is two hops away.
        report = lint_sources(self.sources())  # default checkers, no flow
        assert [f for f in report.new if f.rule in ("RPL001", "RPL010")] == []

    def test_flow_pass_catches_it_with_full_chain(self):
        report = flow_lint(self.sources())
        findings = by_rule(report, "RPL010")
        assert len(findings) == 1
        f = findings[0]
        assert f.path == "src/repro/driver.py"
        assert f.line == 5  # the map site
        notes = [note for _, _, note in f.chain]
        files = [path for path, _, _ in f.chain]
        assert any("lambda defined here" in n for n in notes)
        assert any("make_work()" in n for n in notes)
        assert notes[-1] == "shipped to executor.map here"
        assert "src/repro/helpers.py" in files  # chain crosses modules

    def test_literal_lambda_stays_rpl001s(self):
        # One incident, one rule: the literal shape belongs to RPL001.
        sources = {
            "src/repro/driver.py": (
                "def run(executor, rows):\n"
                "    return list(executor.map(lambda r: r, rows))\n"
            )
        }
        flow_only = flow_lint(sources)
        assert by_rule(flow_only, "RPL010") == []
        syntactic = lint_sources(sources)
        assert [f.rule for f in syntactic.new] == ["RPL001"]

    def test_module_level_function_is_clean(self):
        report = flow_lint(
            {
                "src/repro/driver.py": (
                    "def work(row):\n    return row\n"
                    "def run(executor, rows):\n"
                    "    return list(executor.map(work, rows))\n"
                )
            }
        )
        assert by_rule(report, "RPL010") == []


class TestRPL012LockOrder:
    TWO_LOCK_CYCLE = (
        "import threading\n"
        "a_lock = threading.Lock()\n"
        "b_lock = threading.Lock()\n"
        "def path_one():\n"
        "    with a_lock:\n"
        "        with b_lock:\n"
        "            pass\n"
        "def path_two():\n"
        "    with b_lock:\n"
        "        with a_lock:\n"
        "            pass\n"
    )

    def test_two_lock_cycle_fixture_flagged(self):
        # Acceptance fixture: opposite acquisition orders in two
        # functions of one module.
        report = flow_lint({"src/repro/locks.py": self.TWO_LOCK_CYCLE})
        findings = by_rule(report, "RPL012")
        assert len(findings) == 1
        f = findings[0]
        assert "lock-order cycle" in f.message
        assert "repro.locks.a_lock" in f.message
        assert "repro.locks.b_lock" in f.message
        notes = [note for _, _, note in f.chain]
        assert any("acquired while holding" in n for n in notes)

    def test_cycle_through_a_callee_flagged(self):
        report = flow_lint(
            {
                "src/repro/locks.py": (
                    "import threading\n"
                    "a_lock = threading.Lock()\n"
                    "b_lock = threading.Lock()\n"
                    "def inner():\n"
                    "    with b_lock:\n"
                    "        pass\n"
                    "def path_one():\n"
                    "    with a_lock:\n"
                    "        inner()\n"
                    "def path_two():\n"
                    "    with b_lock:\n"
                    "        with a_lock:\n"
                    "            pass\n"
                )
            }
        )
        findings = by_rule(report, "RPL012")
        assert len(findings) == 1
        notes = [note for _, _, note in findings[0].chain]
        assert any("call into inner()" in n for n in notes)

    def test_consistent_order_is_clean(self):
        report = flow_lint(
            {
                "src/repro/locks.py": (
                    "import threading\n"
                    "a_lock = threading.Lock()\n"
                    "b_lock = threading.Lock()\n"
                    "def path_one():\n"
                    "    with a_lock:\n"
                    "        with b_lock:\n"
                    "            pass\n"
                    "def path_two():\n"
                    "    with a_lock:\n"
                    "        with b_lock:\n"
                    "            pass\n"
                )
            }
        )
        assert by_rule(report, "RPL012") == []

    def test_self_locks_qualified_by_class(self):
        # Same attribute name on two classes = two distinct locks; no
        # false cycle between Pool._lock and Cache._lock orderings that
        # are each internally consistent.
        report = flow_lint(
            {
                "src/repro/m.py": (
                    "class Pool:\n"
                    "    def grab(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                    "class Cache:\n"
                    "    def grab(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                )
            }
        )
        assert by_rule(report, "RPL012") == []


class TestFlowFindingsShareTheFramework:
    def test_flow_findings_respect_suppressions(self):
        report = flow_lint(
            {
                "src/repro/m.py": (
                    "def make():\n"
                    "    return lambda x: x\n"
                    "def run(executor, items):\n"
                    "    work = make()\n"
                    "    # repro-lint: disable=RPL010 -- only ever handed a\n"
                    "    # thread executor, so nothing is pickled.\n"
                    "    return executor.map(work, items)\n"
                )
            }
        )
        assert by_rule(report, "RPL010") == []
        assert report.suppressed_count == 1

    def test_chain_renders_in_text_output(self):
        from repro.analysis.reporting import render_text

        report = flow_lint(
            {
                "src/repro/helpers.py": TestRPL010TransitiveTaint.HELPER,
                "src/repro/driver.py": TestRPL010TransitiveTaint.DRIVER,
            }
        )
        text = render_text(report)
        assert "via src/repro/helpers.py:2: lambda defined here" in text
