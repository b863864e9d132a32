"""Structured findings emitted by the repro lint checkers.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately flat and JSON-able: the reporters serialize findings
verbatim, the baseline matches them by ``(file, rule)``, and tests
compare them structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def normalize_path(path: str) -> str:
    """Forward-slash form of *path* (findings compare across platforms)."""
    return str(path).replace("\\", "/")


@dataclass(frozen=True)
class Finding:
    """One rule violation: where it is, which rule, and why it matters."""

    rule: str  # "RPL001"..."RPL012"
    message: str
    path: str  # normalized (forward slashes), as scanned
    line: int  # 1-based
    col: int = 0  # 0-based, like ast
    #: Witness call chain for flow (RPL01x) findings: ordered
    #: ``(path, line, note)`` steps from where the fact was born to the
    #: flagged site.  Empty for the syntactic RPL00x rules.
    chain: tuple[tuple[str, int, str], ...] = ()
    #: True once the baseline grandfathers this finding (set by the runner).
    baselined: bool = field(default=False, compare=False)

    def located(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def chain_text(self) -> list[str]:
        """The witness chain as indented reporter lines."""
        return [
            f"    via {normalize_path(path)}:{line}: {note}"
            for path, line, note in self.chain
        ]

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "chain": [
                {"file": normalize_path(path), "line": line, "note": note}
                for path, line, note in self.chain
            ],
            "baselined": self.baselined,
        }

    def __str__(self) -> str:
        body = f"{self.located()}: {self.rule} {self.message}"
        if self.chain:
            body = "\n".join([body, *self.chain_text()])
        return body
