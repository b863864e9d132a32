"""repro-lint: static checks for the invariants the codebase lives by.

Two layers (see docs/lint.md):

* **Syntactic** (RPL001, RPL002, RPL005,
  :mod:`repro.analysis.checkers`) — fast per-module AST pattern matches.
* **Flow** (RPL010, RPL012, :mod:`repro.analysis.flow_rules`) — a
  whole-program call graph (:mod:`repro.analysis.callgraph`) plus a
  forward dataflow engine (:mod:`repro.analysis.dataflow`) that follow
  values through calls; findings carry witnessing call chains.

Entry points: ``repro lint [--flow]`` (CLI) or
:func:`repro.analysis.runner.lint_paths` (in-process, as the self-clean
meta-test uses).
"""

from repro.analysis.baseline import Baseline, BaselineEntry, baseline_from_findings
from repro.analysis.callgraph import FunctionId, FunctionInfo, Project
from repro.analysis.checkers import ALL_RULES, Checker, default_checkers
from repro.analysis.dataflow import (
    BOTTOM,
    AbstractValue,
    DataflowEngine,
    FACTS,
    Summary,
    join,
    join_all,
)
from repro.analysis.findings import Finding
from repro.analysis.flow_rules import FLOW_RULES, FlowChecker, flow_checkers
from repro.analysis.reporting import (
    LintReport,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.runner import lint_paths, lint_sources
from repro.analysis.visitor import ModuleInfo

__all__ = [
    "ALL_RULES",
    "AbstractValue",
    "BOTTOM",
    "Baseline",
    "BaselineEntry",
    "Checker",
    "DataflowEngine",
    "FACTS",
    "FLOW_RULES",
    "Finding",
    "FlowChecker",
    "FunctionId",
    "FunctionInfo",
    "LintReport",
    "ModuleInfo",
    "Project",
    "Summary",
    "baseline_from_findings",
    "default_checkers",
    "flow_checkers",
    "join",
    "join_all",
    "lint_paths",
    "lint_sources",
    "render_github",
    "render_json",
    "render_text",
]
