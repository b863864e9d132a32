"""Drive the repro-lint pass: collect modules, run checkers, partition.

Two entry points:

* :func:`lint_paths` — files/directories on disk (the CLI path).
* :func:`lint_sources` — in-memory ``{path: source}`` mappings, used by
  the test fixtures so each checker can be exercised without touching
  the real tree.

Both take ``flow=True`` to stack the whole-program RPL01x pass (call
graph + dataflow engine, :mod:`repro.analysis.flow_rules`) on top of
the per-module syntactic rules.  Flow findings run through the same
suppression and baseline machinery as syntactic ones.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.baseline import Baseline
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
            raise FileNotFoundError(str(path))
    # De-dup while keeping the sorted-within-argument order stable.
    seen: dict[Path, None] = {}
    for f in files:
        seen.setdefault(f, None)
    return list(seen)


def _run_flow(modules: list[ModuleInfo], flow_checkers_list) -> list[Finding]:
    """The whole-program pass: one Project + engine, every flow rule."""
    from repro.analysis.callgraph import Project
    from repro.analysis.dataflow import DataflowEngine

    project = Project.from_modules(modules)
    engine = DataflowEngine(project)
    findings: list[Finding] = []
    for checker in flow_checkers_list:
        findings.extend(checker.check_project(project, engine))
    return findings


def _run(
    modules: list[ModuleInfo],
    checkers: list[Checker],
    baseline: Baseline | None,
    parse_errors: list[str],
    flow: bool = False,
    flow_checkers: list | None = None,
) -> LintReport:
    raw: list[Finding] = []
    for module in modules:
        for checker in checkers:
            if checker.applies_to(module):
                raw.extend(checker.check(module))

    if flow:
        if flow_checkers is None:
            from repro.analysis.flow_rules import flow_checkers as _default_flow

            flow_checkers = _default_flow()
        raw.extend(_run_flow(modules, flow_checkers))

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

    if baseline is not None:
        new, grandfathered = baseline.apply(kept)
    else:
        new, grandfathered = sorted(
            kept, key=lambda f: (f.path, f.line, f.rule)
        ), []

    return LintReport(
        new=new,
        baselined=grandfathered,
        suppressed_count=suppressed,
        files_scanned=len(modules),
        parse_errors=parse_errors,
        flow=flow,
    )


def lint_sources(
    sources: dict[str, str],
    checkers: list[Checker] | None = None,
    baseline: Baseline | None = None,
    flow: bool = False,
    flow_checkers: list | None = None,
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
        baseline,
        parse_errors,
        flow=flow,
        flow_checkers=flow_checkers,
    )


def lint_paths(
    paths,
    checkers: list[Checker] | None = None,
    baseline: Baseline | None = None,
    flow: bool = False,
    flow_checkers: list | None = None,
) -> LintReport:
    """Lint files/directories on disk."""
    files = collect_files(paths)
    sources: dict[str, str] = {}
    for file in files:
        sources[str(file)] = file.read_text(encoding="utf-8")
    return lint_sources(
        sources,
        checkers=checkers,
        baseline=baseline,
        flow=flow,
        flow_checkers=flow_checkers,
    )
