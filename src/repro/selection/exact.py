"""Exact solvers for mapping selection.

Mapping selection is NP-hard (Theorem 1; reduction in
:mod:`repro.theory.set_cover_reduction`).  Two exact solvers are
provided:

* :func:`solve_exhaustive` — enumerate all 2^n subsets (n <= ~18) under
  the reference :func:`~repro.selection.objective.objective_value`, the
  literal oracle the tests hold :func:`solve_milp` to;
* :func:`solve_milp` — F(M) as an uncapacitated facility-location MILP,
  built from the problem's integer index (:mod:`repro.selection.index`)
  and solved by HiGHS (``scipy.optimize.milp``).  Every value it returns
  is proven optimal; otherwise it raises.  It is the evaluation's
  "exact" baseline.

The MILP, in the integer units of :class:`~repro.selection.index.ScaledWeights`
(D times F), has a binary ``in_θ`` per candidate, a continuous
``y_e ∈ [0, 1]`` per cover entry e = (θ, t) and a continuous
``err_f ∈ [0, 1]`` per distinct error fact f::

    minimise   w_expl·(|J|·L − Σ_e num_e·y_e) + w_err·Σ_f err_f
             + w_size·Σ_θ size_θ·in_θ
    subject to y_e ≤ in_θ              per cover entry
               Σ_{e ∋ t} y_e ≤ 1       per J fact t
               err_f ≥ in_θ            per error entry (θ, f)

With ``in`` integral the best ``y`` puts each fact's weight on its
largest selected cover and the best ``err`` is the error indicator, so
the MILP optimum is F*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from repro.errors import SelectionError
from repro.selection.index import ScaledWeights
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    ObjectiveWeights,
    objective_evaluator,
    objective_value,
)

#: Wall-clock budget of one HiGHS solve, in seconds.
TIME_LIMIT_S = 60


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
            f"use solve_milp instead"
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


def solve_milp(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """Proven-optimal selection from the facility-location MILP.

    HiGHS runs with ``mip_rel_gap=0`` and a :data:`TIME_LIMIT_S` budget.
    The selection is ``in > 0.5``; its F comes from the exact index
    evaluator, never from HiGHS's float objective.  Every F is a multiple
    of 1/D, so F is optimal once ``D·F − const − dual_bound < 1`` in the
    MILP's integer units: no smaller multiple fits above HiGHS's (float)
    dual bound.  Raises :class:`SelectionError` if the budget runs out or
    that proof fails.
    """
    # Imported here: scipy.optimize adds about 40 MB of RSS to every
    # process that imports repro, and only this solver needs it.
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    evaluate = objective_evaluator(problem, weights)
    index = problem.objective_index()
    n = index.num_candidates
    if n == 0:
        # milp rejects an empty cost vector; F(∅) is the only selection.
        return SelectionResult(frozenset(), evaluate([]))
    scaled = ScaledWeights.of(weights, index.denominator)
    cover_entries, error_entries = len(index.cover_fact), len(index.error_fact)
    # Variables: in_θ, then y_e per cover entry, then err_f per error fact.
    cost = np.concatenate(
        (
            scaled.size * index.sizes,
            -scaled.explains * index.cover_num,
            np.full(index.num_error_facts, scaled.errors),
        )
    ).astype(float)
    const = scaled.explains * index.full_cover
    y = n + np.arange(cover_entries)
    err = n + cover_entries + index.error_fact
    # Rows: y_e − in_θ ≤ 0, then Σ_{e∋t} y_e ≤ 1, then in_θ − err_f ≤ 0.
    cover_rows = np.arange(cover_entries)
    fact_rows = cover_entries + index.cover_fact
    error_rows = cover_entries + index.num_facts + np.arange(error_entries)
    rows = np.concatenate((cover_rows, cover_rows, fact_rows, error_rows, error_rows))
    cols = np.concatenate((y, index.cover_owner, y, index.error_owner, err))
    vals = np.repeat(
        [1.0, -1.0, 1.0, 1.0, -1.0],
        [cover_entries, cover_entries, cover_entries, error_entries, error_entries],
    )
    upper = np.repeat([0.0, 1.0, 0.0], [cover_entries, index.num_facts, error_entries])
    matrix = coo_array((vals, (rows, cols)), shape=(len(upper), len(cost))).tocsr()
    integrality = np.zeros(len(cost))
    integrality[:n] = 1
    res = milp(
        cost,
        integrality=integrality,
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(matrix, -np.inf, upper),
        options={"time_limit": TIME_LIMIT_S, "mip_rel_gap": 0},
    )
    if res.x is None:
        raise SelectionError(f"HiGHS found no selection: {res.message}")
    selected = frozenset(np.flatnonzero(res.x[:n] > 0.5).tolist())
    value = evaluate(selected)
    scaled_value = value.numerator * (scaled.denominator // value.denominator)
    bound = res.mip_dual_bound
    if res.status != 0 or not scaled_value - const - bound < 1:
        raise SelectionError(
            f"MILP optimum not proven ({res.message}): incumbent F = {value}, "
            f"dual bound F >= {(const + bound) / scaled.denominator}"
        )
    return SelectionResult(selected, value)
