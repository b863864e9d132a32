"""Greedy baseline for mapping selection.

Forward selection: repeatedly add the candidate with the most negative
objective delta; stop when no addition improves F.  A backward pass then
drops candidates whose removal improves F (useful when an early pick is
subsumed by later ones).  This is the natural local-search
baseline the collective method is compared against.

Each forward round prices every candidate in one numpy pass
(:meth:`~repro.selection.objective.IncrementalObjective.add_deltas`):
exact integer deltas over one positive denominator, int64 while the
weighted counts provably fit in it and Python ints past that bound, so
the argmin picks the same candidate an exact ``Fraction`` comparison
would.
"""

from __future__ import annotations

import numpy as np

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

    while problem.num_candidates:
        deltas = inc.add_deltas()
        # argmin takes the first minimum: ties on delta break toward the
        # lowest candidate index, keeping picks reproducible.
        best = int(np.argmin(deltas))
        if not deltas[best] < 0:
            break
        inc.add(best)

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
