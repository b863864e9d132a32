"""Problem reductions applied before optimization (Section III-C).

Two sound simplifications shrink a selection problem without changing
which selections are optimal:

* **certain unexplained tuples** — J facts no candidate covers contribute
  a constant ``w_explains`` each to *every* selection's objective; they
  can be removed and accounted for as an offset.

* **useless candidates** — candidates that cover nothing can only add
  errors and size (weights are non-negative), so no optimal selection
  contains them (they are never *strictly* beneficial; under positive
  weights any optimum including them can be improved or matched by
  dropping them).

:func:`preprocess` applies both and returns an index mapping so
selections over the reduced problem translate back to the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.selection.metrics import SelectionProblem, restrict_problem
from repro.selection.objective import DEFAULT_WEIGHTS, ObjectiveWeights


@dataclass
class PreprocessResult:
    """A reduced problem plus the bookkeeping to undo the reduction."""

    problem: SelectionProblem
    objective_offset: Fraction
    kept_candidates: list[int]  # reduced index -> original index
    dropped_candidates: list[int]
    dropped_facts: list

    def translate(self, selected_reduced) -> frozenset[int]:
        """Map a selection over the reduced problem to original indices."""
        return frozenset(self.kept_candidates[i] for i in selected_reduced)


def drop_certain_unexplained(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> tuple[SelectionProblem, Fraction, list]:
    """Remove J facts with zero cover under every candidate.

    Returns (reduced problem, constant objective offset, removed facts).
    """
    inert = problem.certain_unexplained()
    if not inert:
        return problem, Fraction(0), []
    reduced = restrict_problem(problem, problem.coverable_facts())
    offset = weights.explains * Fraction(len(inert))
    return reduced, offset, inert


def drop_useless_candidates(
    problem: SelectionProblem,
) -> tuple[SelectionProblem, list[int], list[int]]:
    """Remove candidates whose cover table is empty.

    Returns (reduced problem, kept original indices, dropped indices).
    """
    kept = [i for i in range(problem.num_candidates) if problem.covers[i]]
    dropped = [i for i in range(problem.num_candidates) if not problem.covers[i]]
    if not dropped:
        return problem, list(range(problem.num_candidates)), []
    reduced = SelectionProblem(
        candidates=[problem.candidates[i] for i in kept],
        source=problem.source,
        target=problem.target,
        j_facts=problem.j_facts,
        covers=[problem.covers[i] for i in kept],
        error_facts=[problem.error_facts[i] for i in kept],
        sizes=[problem.sizes[i] for i in kept],
        chase_by_candidate=[problem.chase_by_candidate[i] for i in kept]
        if problem.chase_by_candidate
        else [],
    )
    return reduced, kept, dropped


def preprocess(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> PreprocessResult:
    """Apply both reductions; optimal value = reduced optimum + offset."""
    no_inert, offset, dropped_facts = drop_certain_unexplained(problem, weights)
    reduced, kept, dropped = drop_useless_candidates(no_inert)
    return PreprocessResult(
        problem=reduced,
        objective_offset=offset,
        kept_candidates=kept,
        dropped_candidates=dropped,
        dropped_facts=dropped_facts,
    )
