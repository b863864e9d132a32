"""Greedy baseline for mapping selection.

Forward selection: repeatedly add the candidate with the most negative
objective delta; stop when no addition improves F.  A backward pass then
drops candidates whose removal improves F (useful when an early pick is
subsumed by later ones).  This is the natural local-search
baseline the collective method is compared against.
"""

from __future__ import annotations

from repro.selection.exact import SelectionResult
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    ObjectiveWeights,
)


def solve_greedy(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """Greedy forward selection, then backward elimination."""
    inc = IncrementalObjective(problem, weights)
    remaining = set(range(problem.num_candidates))

    improved = True
    while improved and remaining:
        improved = False
        best_delta = None
        best_candidate = None
        # sorted(): ties on delta break toward the lowest candidate
        # index instead of set order, keeping picks reproducible.
        for i in sorted(remaining):
            delta = inc.delta_add(i)
            if delta < 0 and (best_delta is None or delta < best_delta):
                best_delta = delta
                best_candidate = i
        if best_candidate is not None:
            inc.add(best_candidate)
            remaining.discard(best_candidate)
            improved = True

    changed = True
    while changed:
        changed = False
        for i in sorted(inc.selected):
            before = inc.value
            inc.remove(i)
            if inc.value < before:
                changed = True
            else:
                inc.add(i)

    return SelectionResult(inc.selected, inc.value)
