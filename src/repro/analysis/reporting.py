"""Text, JSON, and GitHub-annotation reporters for repro-lint results."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

REPORT_VERSION = 3
TOOL_NAME = "repro-lint"


@dataclass
class LintReport:
    """Everything one lint run produced; findings sorted by the runner."""

    findings: list[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.parse_errors else 0

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> str:
        return (
            f"{TOOL_NAME}: {len(self.findings)} finding(s) "
            f"({self.suppressed_count} suppressed) "
            f"in {self.files_scanned} file(s)"
        )

    def to_json(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "tool": TOOL_NAME,
            "files_scanned": self.files_scanned,
            "summary": {
                "findings": len(self.findings),
                "suppressed": self.suppressed_count,
                "by_rule": self.rule_counts(),
            },
            "parse_errors": list(self.parse_errors),
            "findings": [f.to_json() for f in self.findings],
        }


def render_json(report: LintReport) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"


def render_text(report: LintReport) -> str:
    lines = [f"error: {error}" for error in report.parse_errors]
    lines.extend(str(finding) for finding in report.findings)
    lines.append(report.summary())
    return "\n".join(lines) + "\n"


def _annotation_escape(text: str) -> str:
    """Escape per GitHub workflow-command rules (%, CR, LF in messages)."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(report: LintReport) -> str:
    """GitHub Actions annotation format: findings appear inline on PRs.

    One ``::error`` line per finding, ``::warning`` for parse errors,
    then the human summary — GitHub ignores non-command lines, so the
    output stays readable in the raw log too.
    """
    lines = [
        f"::warning title={TOOL_NAME}::{_annotation_escape(error)}"
        for error in report.parse_errors
    ]
    for finding in report.findings:
        lines.append(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title={TOOL_NAME} {finding.rule}::"
            f"{_annotation_escape(finding.message)}"
        )
    lines.append(report.summary())
    return "\n".join(lines) + "\n"
