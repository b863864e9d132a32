"""Exact solvers for mapping selection.

Mapping selection is NP-hard (Theorem 1; reduction in
:mod:`repro.theory.set_cover_reduction`), so exact solving is only viable
for small candidate sets.  Two strategies are provided:

* :func:`solve_exhaustive` — enumerate all 2^n subsets (n <= ~18) under
  the reference :func:`~repro.selection.objective.objective_value`, the
  oracle the tests hold the indexed searches to;
* :func:`solve_branch_and_bound` — depth-first search with an admissible
  lower bound that assumes every still-undecided candidate contributes
  its coverage for free, run on the problem's integer index
  (:mod:`repro.selection.index`).  Orders of magnitude faster in practice
  and the default for the evaluation's "exact" baseline.

Both return provably optimal selections for the exact objective of
:mod:`repro.selection.objective`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from repro.selection.index import ObjectiveIndex
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    ObjectiveWeights,
    objective_value,
)


@dataclass(frozen=True)
class SelectionResult:
    """A selection (candidate indices) plus its objective value."""

    selected: frozenset[int]
    objective: Fraction

    def tgds(self, problem: SelectionProblem) -> list:
        """The selected st tgds, in index order."""
        return [problem.candidates[i] for i in sorted(self.selected)]


def solve_exhaustive(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
    max_candidates: int = 18,
) -> SelectionResult:
    """Optimal selection by enumerating every subset of candidates."""
    n = problem.num_candidates
    if n > max_candidates:
        raise ValueError(
            f"exhaustive search over {n} candidates would enumerate 2^{n} subsets; "
            f"use solve_branch_and_bound instead"
        )
    best: frozenset[int] = frozenset()
    best_value = objective_value(problem, [], weights)
    indices = range(n)
    for k in range(1, n + 1):
        for subset in combinations(indices, k):
            value = objective_value(problem, subset, weights)
            if value < best_value:
                best_value = value
                best = frozenset(subset)
    return SelectionResult(best, best_value)


def decision_order(index: ObjectiveIndex) -> list[int]:
    """Candidates by descending total cover: they tighten the bound fastest."""
    mass = index.cover_mass().tolist()
    return sorted(range(index.num_candidates), key=lambda i: -mass[i])


def suffix_best(index: ObjectiveIndex, order: list[int]) -> np.ndarray:
    """``suffix[k][t]``: best cover numerator of fact t among ``order[k:]``.

    ``suffix[len(order)]`` is all zeros.
    """
    suffix = np.zeros((len(order) + 1, index.num_facts), dtype=np.int64)
    for k in range(len(order) - 1, -1, -1):
        suffix[k] = suffix[k + 1]
        facts, nums = index.cover_row(order[k])
        suffix[k, facts] = np.maximum(suffix[k + 1, facts], nums)
    return suffix


class _BranchAndBound:
    """DFS over include/exclude decisions with an admissible bound.

    The bound at depth k is the objective if every fact's cover also
    reached the best cover among the undecided candidates ``order[k:]``
    for free.
    """

    def __init__(self, problem: SelectionProblem, weights: ObjectiveWeights):
        index = problem.objective_index()
        self._order = decision_order(index)
        self._suffix_best = suffix_best(index, self._order)
        self._incremental = IncrementalObjective(problem, weights)
        self._best_value = self._incremental.value
        self._best_set: frozenset[int] = frozenset()
        self._nodes = 0

    def solve(self) -> SelectionResult:
        self._dfs(0)
        return SelectionResult(self._best_set, self._best_value)

    def _dfs(self, depth: int) -> None:
        self._nodes += 1
        inc = self._incremental
        if inc.value < self._best_value:
            self._best_value = inc.value
            self._best_set = inc.selected
        if depth == len(self._order):
            return
        if inc.bound(self._suffix_best[depth]) >= self._best_value:
            return
        i = self._order[depth]
        # Branch 1: include candidate i (only promising when it covers anything
        # or the caller uses negative weights, which ObjectiveWeights forbids).
        inc.add(i)
        self._dfs(depth + 1)
        inc.remove(i)
        # Branch 2: exclude candidate i.
        self._dfs(depth + 1)

    @property
    def nodes_explored(self) -> int:
        return self._nodes


def solve_branch_and_bound(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """Provably optimal selection via branch and bound."""
    return _BranchAndBound(problem, weights).solve()
