"""Structured findings emitted by the repro lint checkers.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately flat and JSON-able: the reporters serialize findings
verbatim, and tests compare them structurally.
"""

from __future__ import annotations

from dataclasses import dataclass


def normalize_path(path: str) -> str:
    """Forward-slash form of *path* (findings compare across platforms)."""
    return str(path).replace("\\", "/")


@dataclass(frozen=True)
class Finding:
    """One rule violation: where it is, which rule, and why it matters."""

    rule: str  # "RPL001" or "RPL002"
    message: str
    path: str  # normalized (forward slashes), as scanned
    line: int  # 1-based
    col: int = 0  # 0-based, like ast

    def located(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "file": self.path,
            "line": self.line,
            "col": self.col,
        }

    def __str__(self) -> str:
        return f"{self.located()}: {self.rule} {self.message}"
