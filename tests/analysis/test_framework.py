"""Framework-layer tests: suppressions, baseline ratchet, reporters."""

from __future__ import annotations

import json

import pytest

from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    baseline_from_findings,
)
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


class TestBaselineRatchet:
    def test_grandfathered_within_count(self):
        baseline = Baseline([BaselineEntry("src/repro/psl/x.py", "RPL002", 1)])
        new, old = baseline.apply([finding()])
        assert new == []
        assert len(old) == 1 and old[0].baselined

    def test_excess_findings_are_new(self):
        baseline = Baseline([BaselineEntry("src/repro/psl/x.py", "RPL002", 1)])
        new, old = baseline.apply([finding(line=3), finding(line=9)])
        assert len(new) == 1 and len(old) == 1

    def test_rule_mismatch_is_new(self):
        baseline = Baseline([BaselineEntry("src/repro/psl/x.py", "RPL001", 1)])
        new, old = baseline.apply([finding(rule="RPL002")])
        assert len(new) == 1 and old == []

    def test_path_suffix_matching_tolerates_invocation_dir(self):
        baseline = Baseline([BaselineEntry("src/repro/psl/x.py", "RPL002", 1)])
        new, old = baseline.apply(
            [finding(path="/abs/checkout/src/repro/psl/x.py")]
        )
        assert new == [] and len(old) == 1

    def test_fixing_a_site_never_fails(self):
        baseline = Baseline([BaselineEntry("src/repro/psl/x.py", "RPL002", 5)])
        new, old = baseline.apply([])
        assert new == [] and old == []

    def test_roundtrip_and_note_preserved(self, tmp_path):
        original = Baseline(
            [BaselineEntry("a.py", "RPL005", 1, note="thread pool")]
        )
        path = tmp_path / "baseline.json"
        original.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == original.entries
        regenerated = baseline_from_findings(
            [finding(rule="RPL005", path="a.py")], previous=loaded
        )
        assert regenerated.entries[0].note == "thread pool"

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestBaselineRewrite:
    """--write-baseline semantics: prune stale entries, keep out-of-scope."""

    def test_zero_count_entry_for_scanned_file_is_pruned(self):
        previous = Baseline(
            [BaselineEntry("src/repro/psl/x.py", "RPL002", 3, note="old")]
        )
        rewritten = baseline_from_findings(
            [],  # the site was fixed: no findings remain
            previous=previous,
            scanned_files=["src/repro/psl/x.py"],
        )
        assert rewritten.entries == []

    def test_count_ratchets_down_to_current(self):
        previous = Baseline([BaselineEntry("src/repro/psl/x.py", "RPL002", 5)])
        rewritten = baseline_from_findings(
            [finding(line=3)],
            previous=previous,
            scanned_files=["src/repro/psl/x.py"],
        )
        assert len(rewritten.entries) == 1
        assert rewritten.entries[0].count == 1

    def test_out_of_scope_entries_are_carried_over(self):
        previous = Baseline(
            [
                BaselineEntry("src/repro/psl/x.py", "RPL002", 2),
                BaselineEntry("src/repro/other.py", "RPL005", 1, note="pool"),
            ]
        )
        rewritten = baseline_from_findings(
            [finding(line=3)],
            previous=previous,
            scanned_files=["src/repro/psl/x.py"],  # other.py NOT scanned
        )
        by_file = {e.file: e for e in rewritten.entries}
        assert by_file["src/repro/psl/x.py"].count == 1  # ratcheted
        assert by_file["src/repro/other.py"].count == 1  # untouched
        assert by_file["src/repro/other.py"].note == "pool"

    def test_whole_tree_rewrite_drops_everything_stale(self):
        previous = Baseline(
            [
                BaselineEntry("a.py", "RPL001", 1),
                BaselineEntry("b.py", "RPL002", 2),
            ]
        )
        rewritten = baseline_from_findings(
            [finding(rule="RPL002", path="b.py")],
            previous=previous,
            scanned_files=None,  # whole-tree rewrite: everything in scope
        )
        assert [(e.file, e.rule, e.count) for e in rewritten.entries] == [
            ("b.py", "RPL002", 1)
        ]


class TestReporters:
    def _report(self):
        return LintReport(
            new=[finding(line=7)],
            baselined=[
                Finding("RPL005", "m", "src/repro/e.py", 1, baselined=True)
            ],
            suppressed_count=2,
            files_scanned=4,
        )

    def test_json_schema(self):
        payload = json.loads(render_json(self._report()))
        assert payload["version"] == 2
        assert payload["tool"] == "repro-lint"
        assert payload["files_scanned"] == 4
        assert payload["flow"] is False
        assert payload["summary"] == {
            "new": 1,
            "baselined": 1,
            "suppressed": 2,
            "by_rule": {"RPL002": 1},
        }
        assert payload["parse_errors"] == []
        assert len(payload["findings"]) == 2
        for item in payload["findings"]:
            assert set(item) == {
                "rule", "message", "file", "line", "col", "baselined",
                "chain",
            }
        flags = {item["rule"]: item["baselined"] for item in payload["findings"]}
        assert flags == {"RPL002": False, "RPL005": True}

    def test_json_chain_structure(self):
        report = LintReport(
            new=[
                Finding(
                    "RPL010",
                    "m",
                    "src/repro/a.py",
                    4,
                    chain=(("src/repro/b.py", 9, "defined here"),),
                )
            ]
        )
        payload = json.loads(render_json(report))
        assert payload["findings"][0]["chain"] == [
            {"file": "src/repro/b.py", "line": 9, "note": "defined here"}
        ]

    def test_text_report_lists_new_findings_and_summary(self):
        text = render_text(self._report())
        assert "src/repro/psl/x.py:7:0: RPL002 m" in text
        assert "1 finding(s) (1 baselined, 2 suppressed) in 4 file(s)" in text

    def test_exit_codes(self):
        assert LintReport().exit_code == 0
        assert LintReport(new=[finding()]).exit_code == 1
        assert LintReport(parse_errors=["x.py: bad"]).exit_code == 1

    def test_github_annotations(self):
        report = LintReport(
            new=[
                Finding(
                    "RPL010",
                    "taints 100% of workers",
                    "src/repro/a.py",
                    4,
                    chain=(("src/repro/b.py", 9, "lambda defined here"),),
                )
            ],
            parse_errors=["broken.py: invalid syntax"],
            files_scanned=2,
        )
        text = render_github(report)
        assert (
            "::error file=src/repro/a.py,line=4,col=1,"
            "title=repro-lint RPL010::" in text
        )
        assert "[witness: src/repro/b.py:9 lambda defined here]" in text
        assert "::warning title=repro-lint::broken.py: invalid syntax" in text

    def test_github_annotation_escaping(self):
        report = LintReport(
            new=[Finding("RPL002", "50% of\nruns", "a.py", 1)]
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
        assert report.new == []
        assert report.suppressed_count == 1

    def test_syntax_error_becomes_parse_error(self):
        report = lint_sources({"repro/psl/broken.py": "def f(:\n"})
        assert report.exit_code == 1
        assert "broken.py" in report.parse_errors[0]

    def test_module_info_scope_matching(self):
        module = ModuleInfo.from_source("src/repro/psl/sharding.py", "x = 1\n")
        assert module.matches(("*repro/psl/*.py",))
        assert not module.matches(("*repro/selection/*.py",))
