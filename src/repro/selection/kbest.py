"""Enumerating the k best selections.

The paper motivates mapping selection as part of an interactive design
loop: a designer inspects the proposed mapping and may prefer a close
runner-up.  This module enumerates the **k lowest-objective selections**
exactly, by exhausting the branch-and-bound search tree with a bound
against the current k-th best value instead of the single incumbent.

Intended for the candidate-set sizes where exact solving is viable
(|C| up to ~25); for larger problems enumerate on the preprocessed
problem (:mod:`repro.selection.preprocess`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from repro.selection.exact import SelectionResult, decision_order, suffix_best
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    ObjectiveWeights,
)


@dataclass(frozen=True)
class KBestResult:
    """The k best selections in ascending objective order."""

    selections: tuple[SelectionResult, ...]

    @property
    def best(self) -> SelectionResult:
        return self.selections[0]

    def __iter__(self):
        return iter(self.selections)

    def __len__(self) -> int:
        return len(self.selections)


class _KBestSearch:
    """B&B enumerating every selection within the evolving k-th-best bound."""

    def __init__(self, problem: SelectionProblem, k: int, weights: ObjectiveWeights):
        self._k = k
        index = problem.objective_index()
        self._order = decision_order(index)
        self._suffix_best = suffix_best(index, self._order)
        self._incremental = IncrementalObjective(problem, weights)
        # Max-heap (negated values) of the best k (value, selection) found.
        self._heap: list[tuple[Fraction, frozenset[int]]] = []
        self._seen: set[frozenset[int]] = set()

    def _offer(self, value: Fraction, selection: frozenset[int]) -> None:
        if selection in self._seen:
            return
        self._seen.add(selection)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, (-value, selection))
        elif -self._heap[0][0] > value:
            heapq.heapreplace(self._heap, (-value, selection))

    def _bound(self) -> Fraction | None:
        """Current pruning threshold: the k-th best value (None if < k found)."""
        if len(self._heap) < self._k:
            return None
        return -self._heap[0][0]

    def run(self) -> KBestResult:
        self._dfs(0)
        ranked = sorted(((-v, s) for v, s in self._heap))
        return KBestResult(
            tuple(SelectionResult(selection, value) for value, selection in ranked)
        )

    def _dfs(self, depth: int) -> None:
        inc = self._incremental
        self._offer(inc.value, inc.selected)
        if depth == len(self._order):
            return
        bound = self._bound()
        if bound is not None and inc.bound(self._suffix_best[depth]) > bound:
            return
        i = self._order[depth]
        inc.add(i)
        self._dfs(depth + 1)
        inc.remove(i)
        self._dfs(depth + 1)


def solve_k_best(
    problem: SelectionProblem,
    k: int,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> KBestResult:
    """The k selections with the lowest exact objective, best first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _KBestSearch(problem, k, weights).run()
