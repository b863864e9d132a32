"""Executable form of Theorem 1: mapping selection is NP-hard.

The appendix proves NP-hardness of selection with full st tgds (Eq. 4)
by reduction from SET COVER.  This module makes the reduction runnable:

* :func:`reduce_set_cover` builds, from a SET COVER instance
  (universe U, family R, bound n), the mapping-selection instance of the
  proof: source relations R_i/2, target U/2, candidates
  ``R_i(X, Y) -> U(X, Y)``, J = U x D and I = union R_i x D with the
  auxiliary domain D = {1, ..., m+1}, m = 2n.

* :func:`decide_set_cover_via_selection` solves the produced selection
  problem optimally and answers the SET COVER question by checking
  F(M) <= m — exercising both directions of the equivalence the proof
  establishes.

The tests confirm the round-trip against a direct SET COVER solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Sequence

from repro.datamodel.instance import Instance, fact
from repro.mappings.atoms import atom
from repro.mappings.tgd import StTgd
from repro.selection.exact import solve_milp
from repro.selection.metrics import SelectionProblem, build_selection_problem
from repro.selection.objective import ObjectiveWeights


@dataclass(frozen=True)
class SetCoverInstance:
    """(U, R, n): does some sub-family of at most n sets cover U?"""

    universe: frozenset
    family: tuple[frozenset, ...]
    bound: int


@dataclass
class ReducedProblem:
    """The mapping-selection instance produced by the reduction."""

    problem: SelectionProblem
    threshold: int  # m = 2n of the proof


def reduce_set_cover(instance: SetCoverInstance) -> ReducedProblem:
    """Construct the proof's mapping-selection instance (polynomial size)."""
    m = 2 * instance.bound
    domain = list(range(1, m + 2))

    source = Instance()
    candidates: list[StTgd] = []
    for i, subset in enumerate(instance.family):
        name = f"R{i}"
        for x in sorted(subset, key=repr):
            for y in domain:
                source.add(fact(name, x, y))
        candidates.append(
            StTgd(
                (atom(name, "X", "Y"),),
                (atom("U", "X", "Y"),),
                name=f"theta{i}",
            )
        )

    target = Instance(
        fact("U", x, y) for x in sorted(instance.universe, key=repr) for y in domain
    )
    problem = build_selection_problem(source, target, candidates)
    return ReducedProblem(problem, m)


def decide_set_cover_via_selection(instance: SetCoverInstance) -> bool:
    """Answer SET COVER by optimally solving the reduced selection problem.

    Uses weights (1, 1, 1); each candidate has size 2 and makes no errors,
    exactly as in the proof, so F(M) <= 2n iff a cover of size <= n exists.
    """
    reduced = reduce_set_cover(instance)
    result = solve_milp(reduced.problem, ObjectiveWeights())
    return result.objective <= reduced.threshold


def decide_set_cover_directly(instance: SetCoverInstance) -> bool:
    """Brute-force SET COVER decision, for cross-checking the reduction."""
    sets: Sequence[frozenset] = instance.family
    for k in range(0, instance.bound + 1):
        for combo in combinations(range(len(sets)), k):
            union: set[Hashable] = set()
            for i in combo:
                union |= sets[i]
            if union >= instance.universe:
                return True
    return False
