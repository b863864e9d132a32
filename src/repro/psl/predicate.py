"""PSL predicates and ground atoms."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Predicate:
    """A PSL predicate with a fixed arity."""

    name: str
    arity: int

    def __call__(self, *args: object) -> "GroundAtom":
        """Build a ground atom: ``Friend("alice", "bob")``."""
        if len(args) != self.arity:
            raise ValueError(
                f"predicate {self.name}/{self.arity} applied to {len(args)} arguments"
            )
        return GroundAtom(self, tuple(args))

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class GroundAtom:
    """A predicate applied to constants (plain hashable python values)."""

    predicate: Predicate
    arguments: tuple[object, ...]

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.arguments)
        return f"{self.predicate.name}({inner})"
