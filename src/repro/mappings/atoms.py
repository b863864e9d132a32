"""Relational atoms ``R(t1, ..., tk)`` over variables and constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.datamodel.values import Constant
from repro.mappings.terms import Term, Variable, is_variable


@dataclass(frozen=True, slots=True)
class Atom:
    """An atom over a relation, with variable or constant terms."""

    relation: str
    terms: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """Variables occurring in this atom, in position order (with repeats)."""
        return tuple(t for t in self.terms if is_variable(t))

    def rename(self, substitution: Mapping[Variable, Term]) -> "Atom":
        """Apply a variable substitution, returning a new atom."""
        return Atom(
            self.relation,
            tuple(substitution.get(t, t) if is_variable(t) else t for t in self.terms),
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({inner})"


def atom(relation: str, *terms: object) -> Atom:
    """Convenience constructor: strings become variables, others constants.

    ``atom("proj", "P", "E", 7)`` builds ``proj(P, E, 7)`` with variables
    P, E and constant 7.  Pass :class:`Constant`/:class:`Variable` objects
    directly to override the heuristic (e.g. string-valued constants).
    """
    wrapped: list[Term] = []
    for t in terms:
        if isinstance(t, (Variable, Constant)):
            wrapped.append(t)
        elif isinstance(t, str):
            wrapped.append(Variable(t))
        else:
            wrapped.append(Constant(t))
    return Atom(relation, tuple(wrapped))
