"""Drive the repro-lint pass: collect modules, run checkers, filter.

Two entry points:

* :func:`lint_paths` — files/directories on disk (the CLI path).
* :func:`lint_sources` — in-memory ``{path: source}`` mappings, used by
  the test fixtures so each checker can be exercised without touching
  the real tree.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.checkers import Checker, default_checkers
from repro.analysis.findings import Finding
from repro.analysis.reporting import LintReport
from repro.analysis.suppressions import is_suppressed, parse_suppressions
from repro.analysis.visitor import ModuleInfo


def collect_files(paths) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    # De-dup while keeping the sorted-within-argument order stable.
    seen: dict[Path, None] = {}
    for f in files:
        seen.setdefault(f, None)
    return list(seen)


def _run(
    modules: list[ModuleInfo],
    checkers: list[Checker],
    parse_errors: list[str],
) -> LintReport:
    raw: list[Finding] = []
    for module in modules:
        for checker in checkers:
            if checker.applies_to(module):
                raw.extend(checker.check(module))

    suppression_tables = {
        module.path: parse_suppressions(module.lines) for module in modules
    }
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        table = suppression_tables.get(finding.path, {})
        if is_suppressed(table, finding.line, finding.rule):
            suppressed += 1
        else:
            kept.append(finding)

    return LintReport(
        findings=sorted(kept, key=lambda f: (f.path, f.line, f.rule)),
        suppressed_count=suppressed,
        files_scanned=len(modules),
        parse_errors=parse_errors,
    )


def lint_sources(
    sources: dict[str, str],
    checkers: list[Checker] | None = None,
) -> LintReport:
    """Lint in-memory sources keyed by (possibly fake) module paths."""
    modules = []
    parse_errors = []
    for path, source in sources.items():
        try:
            modules.append(ModuleInfo.from_source(path, source))
        except SyntaxError as exc:
            parse_errors.append(f"{path}: {exc.msg} (line {exc.lineno})")
    return _run(
        modules,
        checkers if checkers is not None else default_checkers(),
        parse_errors,
    )


def lint_paths(paths, checkers: list[Checker] | None = None) -> LintReport:
    """Lint files/directories on disk."""
    sources = {
        str(file): file.read_text(encoding="utf-8")
        for file in collect_files(paths)
    }
    return lint_sources(sources, checkers=checkers)
