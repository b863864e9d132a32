"""Framework-layer tests: suppressions, reporters, the runner."""

from __future__ import annotations

import json

import pytest

from repro.analysis.findings import Finding
from repro.analysis.reporting import (
    LintReport,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.runner import lint_sources
from repro.analysis.suppressions import is_suppressed, parse_suppressions
from repro.analysis.visitor import ModuleInfo


def finding(rule="RPL002", path="src/repro/psl/x.py", line=3, message="m"):
    return Finding(rule=rule, message=message, path=path, line=line)


class TestSuppressionParsing:
    def test_trailing_pragma_rule_scoped(self):
        table = parse_suppressions(
            ["x = 1", "y = hash(x)  # repro-lint: disable=RPL002"]
        )
        assert is_suppressed(table, 2, "RPL002")
        assert not is_suppressed(table, 2, "RPL001")
        assert not is_suppressed(table, 1, "RPL002")

    def test_multiple_rules_in_one_pragma(self):
        table = parse_suppressions(["f()  # repro-lint: disable=RPL001,RPL005"])
        assert is_suppressed(table, 1, "RPL001")
        assert is_suppressed(table, 1, "RPL005")
        assert not is_suppressed(table, 1, "RPL002")

    def test_bare_disable_covers_all_rules(self):
        table = parse_suppressions(["f()  # repro-lint: disable"])
        for rule in ("RPL001", "RPL002", "RPL005", "RPL010", "RPL012"):
            assert is_suppressed(table, 1, rule)

    def test_comment_only_pragma_shields_next_code_line(self):
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL002 -- reason",
                "for x in s:",
            ]
        )
        assert is_suppressed(table, 2, "RPL002")

    def test_comment_block_pragma_skips_to_first_code_line(self):
        table = parse_suppressions(
            [
                "# repro-lint: disable=RPL002 -- a long",
                "# justification over two lines.",
                "for x in s:",
            ]
        )
        assert is_suppressed(table, 3, "RPL002")
        assert not is_suppressed(table, 4, "RPL002")

    def test_unrelated_comments_do_not_suppress(self):
        table = parse_suppressions(["# just a note", "for x in s:"])
        assert table == {}


class TestReporters:
    def _report(self):
        return LintReport(
            findings=[finding(line=7), Finding("RPL001", "m", "src/repro/e.py", 1)],
            suppressed_count=2,
            files_scanned=4,
        )

    def test_json_schema(self):
        payload = json.loads(render_json(self._report()))
        assert payload["version"] == 3
        assert payload["tool"] == "repro-lint"
        assert payload["files_scanned"] == 4
        assert payload["summary"] == {
            "findings": 2,
            "suppressed": 2,
            "by_rule": {"RPL001": 1, "RPL002": 1},
        }
        assert payload["parse_errors"] == []
        assert len(payload["findings"]) == 2
        for item in payload["findings"]:
            assert set(item) == {"rule", "message", "file", "line", "col"}

    def test_text_report_lists_new_findings_and_summary(self):
        text = render_text(self._report())
        assert "src/repro/psl/x.py:7:0: RPL002 m" in text
        assert "src/repro/e.py:1:0: RPL001 m" in text
        assert "2 finding(s) (2 suppressed) in 4 file(s)" in text

    def test_exit_codes(self):
        assert LintReport().exit_code == 0
        assert LintReport(findings=[finding()]).exit_code == 1
        assert LintReport(parse_errors=["x.py: bad"]).exit_code == 1

    def test_github_annotations(self):
        report = LintReport(
            findings=[
                Finding("RPL001", "lambda passed to executor.map", "src/repro/a.py", 4)
            ],
            parse_errors=["broken.py: invalid syntax"],
            files_scanned=2,
        )
        text = render_github(report)
        assert (
            "::error file=src/repro/a.py,line=4,col=1,"
            "title=repro-lint RPL001::lambda passed to executor.map" in text
        )
        assert "::warning title=repro-lint::broken.py: invalid syntax" in text

    def test_github_annotation_escaping(self):
        report = LintReport(
            findings=[Finding("RPL002", "50% of\nruns", "a.py", 1)]
        )
        text = render_github(report)
        assert "50%25 of%0Aruns" in text


class TestRunner:
    def test_suppressed_findings_are_counted_not_reported(self):
        report = lint_sources(
            {
                "repro/psl/mod.py": (
                    "for x in set(items):  # repro-lint: disable=RPL002\n"
                    "    pass\n"
                )
            }
        )
        assert report.findings == []
        assert report.suppressed_count == 1

    def test_syntax_error_becomes_parse_error(self):
        report = lint_sources({"repro/psl/broken.py": "def f(:\n"})
        assert report.exit_code == 1
        assert "broken.py" in report.parse_errors[0]

    def test_module_info_scope_matching(self):
        module = ModuleInfo.from_source("src/repro/psl/sharding.py", "x = 1\n")
        assert module.matches(("*repro/psl/*.py",))
        assert not module.matches(("*repro/selection/*.py",))
