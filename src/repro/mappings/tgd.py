"""Source-to-target tuple-generating dependencies (st tgds).

An st tgd has the form::

    forall x:  phi(x)  ->  exists y:  psi(x, y)

where ``phi`` (the *body*) is a conjunction of atoms over the source
schema and ``psi`` (the *head*) is a conjunction of atoms over the target
schema.  A tgd is *full* when the head uses no existential variables.

``size`` follows the paper's complexity measure, reconstructed from the
appendix example (size(theta1)=3, size(theta3)=4): number of atoms plus
number of existential variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import MappingError
from repro.mappings.atoms import Atom
from repro.mappings.terms import Term, Variable, is_variable

if TYPE_CHECKING:
    from repro.chase.engine import ChasePlan


@dataclass(frozen=True)
class StTgd:
    """An st tgd ``body -> head`` with an optional human-readable name."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.body:
            raise MappingError(f"tgd {self.name!r} has an empty body")
        if not self.head:
            raise MappingError(f"tgd {self.name!r} has an empty head")

    # -- variable classification ------------------------------------------

    @cached_property
    def universal_variables(self) -> frozenset[Variable]:
        """Variables occurring in the body (universally quantified)."""
        found: set[Variable] = set()
        for a in self.body:
            found.update(a.variables)
        return frozenset(found)

    @cached_property
    def existential_variables(self) -> frozenset[Variable]:
        """Head variables that do not occur in the body."""
        found: set[Variable] = set()
        for a in self.head:
            found.update(a.variables)
        return frozenset(found - self.universal_variables)

    @cached_property
    def exported_variables(self) -> frozenset[Variable]:
        """Universal variables that actually reach the head."""
        found: set[Variable] = set()
        for a in self.head:
            found.update(a.variables)
        return frozenset(found & self.universal_variables)

    @cached_property
    def chase_plan(self) -> "ChasePlan":
        """This tgd compiled for the chase, built on first use.

        Derived state, like the variable sets above, but left out of
        pickles (:meth:`__getstate__`): it is rebuilt on demand, and a
        tgd pickles to the same bytes whether or not it was ever chased.
        """
        # The chase imports this module, so its plan is imported late.
        from repro.chase.engine import ChasePlan

        return ChasePlan(self)

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "chase_plan" in state:
            state = {k: v for k, v in state.items() if k != "chase_plan"}
        return state

    @property
    def is_full(self) -> bool:
        """True iff the tgd has no existential variables."""
        return not self.existential_variables

    # -- measures ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Paper's size measure: #atoms + #existential variables."""
        return len(self.body) + len(self.head) + len(self.existential_variables)

    # -- structural operations ----------------------------------------------

    def rename(self, substitution: Mapping[Variable, Term]) -> "StTgd":
        """Apply a variable substitution to body and head."""
        return StTgd(
            tuple(a.rename(substitution) for a in self.body),
            tuple(a.rename(substitution) for a in self.head),
            self.name,
        )

    def canonical(self) -> "StTgd":
        """Rename variables and order atoms canonically for structural dedup.

        Atoms are sorted by a variable-name-independent signature (relation
        name, arity, constant positions), variables are then renamed
        ``v0, v1, ...`` in order of first occurrence scanning sorted body
        atoms then sorted head atoms, and the name is dropped.  Two tgds
        that differ only in variable names or in the order of conjuncts
        become equal.  (If the same relation occurs several times within
        one conjunction the form is not guaranteed to be unique; the
        library's generators never produce such tgds.)
        """

        def signature(a: Atom) -> tuple:
            return (
                a.relation,
                a.arity,
                tuple(
                    repr(t) if not is_variable(t) else "?" for t in a.terms
                ),
            )

        body = tuple(sorted(self.body, key=signature))
        head = tuple(sorted(self.head, key=signature))
        order: dict[Variable, Variable] = {}
        for a in (*body, *head):
            for t in a.terms:
                if is_variable(t) and t not in order:
                    order[t] = Variable(f"V{len(order)}")
        return StTgd(
            tuple(a.rename(order) for a in body),
            tuple(a.rename(order) for a in head),
            "",
        )

    def source_relations(self) -> frozenset[str]:
        """Names of relations used in the body."""
        return frozenset(a.relation for a in self.body)

    def target_relations(self) -> frozenset[str]:
        """Names of relations used in the head."""
        return frozenset(a.relation for a in self.head)

    def validate_against(self, source_schema, target_schema) -> None:
        """Check all atoms name schema relations with correct arities."""
        for a in self.body:
            rel = source_schema.get(a.relation)
            if rel.arity != a.arity:
                raise MappingError(f"body atom {a} has arity {a.arity}, expected {rel.arity}")
        for a in self.head:
            rel = target_schema.get(a.relation)
            if rel.arity != a.arity:
                raise MappingError(f"head atom {a} has arity {a.arity}, expected {rel.arity}")

    def __repr__(self) -> str:
        body = " & ".join(repr(a) for a in self.body)
        head = " & ".join(repr(a) for a in self.head)
        label = f"{self.name}: " if self.name else ""
        return f"{label}{body} -> {head}"


def total_size(tgds: Iterable[StTgd]) -> int:
    """Sum of :attr:`StTgd.size` over a collection of tgds."""
    return sum(t.size for t in tgds)
