"""Non-collective baselines: select every candidate, or judge each alone.

*All candidates* maximizes recall of the exchanged data but pays for
every spurious candidate the correspondence noise introduced.  The
*independent* baseline keeps each candidate that lowers F on its own,
so overlapping candidates double-count the coverage they share.
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

