"""repro-lint: static checks for the invariants the codebase lives by.

Two syntactic rules (:mod:`repro.analysis.checkers`, see docs/lint.md),
each a per-module AST pattern match:

* RPL001 — callables shipped to process pools must be module-level;
* RPL002 — no hash-order-dependent iteration or ``hash()`` in the
  fingerprint, grounding and selection paths.

Entry points: ``repro lint`` (CLI) or
:func:`repro.analysis.runner.lint_paths` (in-process, as the self-clean
meta-test uses).
"""

from repro.analysis.checkers import ALL_RULES, Checker, default_checkers
from repro.analysis.findings import Finding
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
    "Checker",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "default_checkers",
    "lint_paths",
    "lint_sources",
    "render_github",
    "render_json",
    "render_text",
]
