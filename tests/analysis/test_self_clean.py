"""Meta-test: the shipped tree must lint clean.

This runs the same repro-lint pass as the CI lint job in-process, so
tier-1 guards the process-map and determinism invariants even if the
CI lint job's configuration drifts.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_benchmarks_lint_clean():
    report = lint_paths([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
    assert report.parse_errors == []
    assert report.findings == [], "\n".join(str(f) for f in report.findings)
