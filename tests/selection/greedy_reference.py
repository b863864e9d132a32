"""Greedy with one ``Fraction`` delta per candidate, the reference for
:func:`repro.selection.greedy.solve_greedy`.

``reference_greedy`` prices each remaining candidate on its own
(``delta_add``, a few small numpy calls and a ``Fraction``) and keeps
the first strictly smallest negative delta in ascending index order.
The one-pass greedy must pick the same candidates and reach the same
exact objective.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.selection.exact import SelectionResult
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    ObjectiveWeights,
)


class ReferenceIncrementalObjective(IncrementalObjective):
    def delta_add(self, i: int) -> Fraction:
        """Change in F if candidate *i* were added (without mutating)."""
        if self._mask[i]:
            return Fraction(0)
        index = self._index
        facts, nums = index.cover_row(i)
        gain = int(np.maximum(nums - self._best[facts], 0).sum())
        new_errors = int(np.count_nonzero(self._owners[index.error_row(i)] == 0))
        return self._scaled.value(-gain, new_errors, int(index.sizes[i]))


def reference_greedy(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """Greedy forward selection, then backward elimination."""
    inc = ReferenceIncrementalObjective(problem, weights)
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
