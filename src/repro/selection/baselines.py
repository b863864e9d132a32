"""Naive baselines: select everything, select nothing, coverage top-k.

These bracket the quality spectrum in the evaluation: *all candidates*
maximizes recall of the exchanged data but pays for every spurious
candidate the correspondence noise introduced, while *top-k by coverage*
ignores errors and size entirely.
"""

from __future__ import annotations

from repro.selection.exact import SelectionResult
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    ObjectiveWeights,
    objective_evaluator,
)


def select_all(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """The trivial baseline M = C."""
    selected = frozenset(range(problem.num_candidates))
    return SelectionResult(selected, objective_evaluator(problem, weights)(selected))


def select_none(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """The trivial baseline M = {} (the overfitting guard of the appendix)."""
    return SelectionResult(frozenset(), objective_evaluator(problem, weights)([]))


def solve_independent(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """Per-candidate (non-collective) selection — the paper's strawman.

    Each candidate is scored in isolation: include theta iff
    ``F({theta}) < F({})``, i.e. its standalone coverage gain beats its
    own errors plus size.  Because candidates are judged independently,
    overlapping candidates double-count coverage they share — exactly the
    failure mode the *collective* formulation exists to avoid.  The
    returned objective is the true F of the resulting set.
    """
    evaluate = objective_evaluator(problem, weights)
    baseline = evaluate([])
    selected = frozenset(
        i for i in range(problem.num_candidates) if evaluate([i]) < baseline
    )
    return SelectionResult(selected, evaluate(selected))


def select_top_k_coverage(
    problem: SelectionProblem,
    k: int,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """Pick the k candidates with the largest total cover mass."""
    mass = problem.objective_index().cover_mass().tolist()
    ranked = sorted(range(problem.num_candidates), key=lambda i: (-mass[i], i))
    selected = frozenset(ranked[: max(0, k)])
    return SelectionResult(selected, objective_evaluator(problem, weights)(selected))
