"""Block-scoped disable/enable pragmas: the nesting stack discipline."""

from __future__ import annotations

from repro.analysis.runner import lint_sources
from repro.analysis.suppressions import is_suppressed, parse_suppressions


class TestBlockScopes:
    def test_disable_enable_covers_the_region(self):
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL002 -- audited",
                "for x in set(a):",
                "    pass",
                "for y in set(b):",
                "# repro-lint: enable=RPL002",
                "for z in set(c):",
            ]
        )
        for line in (2, 3, 4):
            assert is_suppressed(table, line, "RPL002"), line
        assert not is_suppressed(table, 6, "RPL002")

    def test_scope_is_rule_scoped(self):
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL002",
                "x = hash(s)",
                "# repro-lint: enable=RPL002",
            ]
        )
        assert is_suppressed(table, 2, "RPL002")
        assert not is_suppressed(table, 2, "RPL005")

    def test_nested_same_rule_inner_enable_keeps_outer_open(self):
        # The stack fix: the inner enable closes only the inner scope.
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL002 -- outer",   # 1
                "a = 1",                                    # 2
                "# repro-lint: disable=RPL002 -- inner",   # 3
                "b = 2",                                    # 4
                "# repro-lint: enable=RPL002",              # 5 closes inner
                "c = 3",                                    # 6 outer still on
                "# repro-lint: enable=RPL002",              # 7 closes outer
                "d = 4",                                    # 8
            ]
        )
        for line in (2, 4, 6):
            assert is_suppressed(table, line, "RPL002"), line
        assert not is_suppressed(table, 8, "RPL002")

    def test_bare_enable_closes_innermost_scope_only(self):
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL001",  # 1 outer
                "# repro-lint: disable=RPL002",  # 2 inner
                "x = 1",                          # 3
                "# repro-lint: enable",           # 4 closes inner (RPL002)
                "y = 2",                          # 5
                "# repro-lint: enable",           # 6 closes outer (RPL001)
                "z = 3",                          # 7
            ]
        )
        assert is_suppressed(table, 3, "RPL001")
        assert is_suppressed(table, 3, "RPL002")
        assert is_suppressed(table, 5, "RPL001")
        assert not is_suppressed(table, 5, "RPL002")
        assert not is_suppressed(table, 7, "RPL001")

    def test_named_enable_skips_scopes_without_that_rule(self):
        # enable=RPL002 must reach past an inner RPL001-only scope.
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL002",  # 1
                "# repro-lint: disable=RPL001",  # 2
                "x = 1",                          # 3
                "# repro-lint: enable=RPL002",    # 4 closes scope 1
                "y = 2",                          # 5 RPL001 scope unclosed
            ]
        )
        assert not is_suppressed(table, 5, "RPL002")
        # The RPL001 scope was never enabled: degrades to next-code-line
        # (line 3), so line 5 is NOT covered.
        assert is_suppressed(table, 3, "RPL001")
        assert not is_suppressed(table, 5, "RPL001")

    def test_unclosed_scope_degrades_to_next_code_line(self):
        # A forgotten enable must not disable the rule file-wide.
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL002 -- oops, no enable",
                "for x in set(a):",
                "    pass",
                "for y in set(b):",
            ]
        )
        assert is_suppressed(table, 2, "RPL002")
        assert not is_suppressed(table, 4, "RPL002")

    def test_multi_rule_scope_closed_per_rule(self):
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL001,RPL002",  # 1
                "x = 1",                                 # 2
                "# repro-lint: enable=RPL001",           # 3
                "y = 2",                                 # 4
                "# repro-lint: enable=RPL002",           # 5
                "z = 3",                                 # 6
            ]
        )
        assert is_suppressed(table, 2, "RPL001")
        assert is_suppressed(table, 2, "RPL002")
        assert not is_suppressed(table, 4, "RPL001")
        assert is_suppressed(table, 4, "RPL002")
        assert not is_suppressed(table, 6, "RPL002")

    def test_end_to_end_through_the_runner(self):
        report = lint_sources(
            {
                "repro/psl/mod.py": (
                    "# repro-lint: disable=RPL002 -- ordering audited\n"
                    "def f(a, b):\n"
                    "    for x in set(a):\n"
                    "        pass\n"
                    "    for y in set(b):\n"
                    "        pass\n"
                    "# repro-lint: enable=RPL002\n"
                    "def g(c):\n"
                    "    for z in set(c):\n"
                    "        pass\n"
                )
            }
        )
        # Both loops inside the block are suppressed; the one after the
        # enable is reported.
        assert report.suppressed_count == 2
        assert [f.rule for f in report.findings] == ["RPL002"]
        assert report.findings[0].line == 9
