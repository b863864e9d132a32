"""Two test references for the collective HL-MRF.

* :func:`ground_term_by_term` expands each block of the frozen
  dict-walking plan (``tests/collective_plan_reference.py``) through the
  dict-keyed :meth:`HingeLossMRF.add_potential` /
  :meth:`HingeLossMRF.add_constraint` calls, one term at a time, with no
  ``add_term_block`` merge.  The index-built block merge
  (:func:`~repro.selection.collective.ground_collective`) must give a
  ``mrf_fingerprint``-equal MRF.
* :func:`lp_relaxation_optimum` writes the collective relaxation as a
  linear program straight from the :class:`SelectionProblem` tables
  (``covers``, ``error_facts``, ``sizes``), sharing no code with the
  grounding, and solves it with HiGHS.  ADMM's converged energy on the
  collective MRF must equal it (:func:`assert_admm_solves_the_lp`).
"""

from __future__ import annotations

import numpy as np

from repro.psl.admm import AdmmSettings, AdmmSolver
from repro.psl.hlmrf import HingeLossMRF
from repro.selection.collective import CollectiveSettings, GroundedCollective
from repro.selection.exact import solve_milp
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import DEFAULT_WEIGHTS, ObjectiveWeights
from tests.collective_plan_reference import plan_collective_grounding

#: ADMM tolerances tight enough to compare its energy with an exact LP.
TIGHT_ADMM = AdmmSettings(max_iterations=50000, epsilon_abs=1e-7, epsilon_rel=1e-6)


def ground_term_by_term(
    problem: SelectionProblem, settings: CollectiveSettings | None = None
) -> HingeLossMRF:
    """The collective MRF, built one dict-keyed term at a time."""
    plan = plan_collective_grounding(problem, settings)
    mrf = HingeLossMRF()
    for atom in plan.targets:
        mrf.variable_index(atom)
    for shard in plan.shards:
        result = shard.build()
        block = result.block
        for rows, weights in ((block.hinges, block.weights), (block.caps, None)):
            for t in range(len(rows)):
                entries = range(rows.ptr[t], rows.ptr[t + 1])
                coefficients = {
                    result.atoms[rows.var[k]]: float(rows.coeff[k]) for k in entries
                }
                offset = float(rows.offset[t])
                if weights is not None:
                    mrf.add_potential(coefficients, offset, float(weights[t]))
                else:
                    mrf.add_constraint(coefficients, offset)
    return mrf


def lp_relaxation_optimum(
    problem: SelectionProblem, weights: ObjectiveWeights = DEFAULT_WEIGHTS
) -> float:
    """The optimum of the collective LP relaxation (linear hinges).

    Variables, all in [0, 1]: ``in`` per candidate, ``explained`` per J
    fact some candidate covers, ``errorOf`` per error fact two or more
    candidates create.  Constraints: ``explained(t) <= sum covers*in``
    and ``in(theta) <= errorOf(e)`` for each owner theta of e.  Private
    errors and size fold into each candidate's cost.  J facts nobody
    covers are a constant outside the LP.
    """
    from scipy.optimize import linprog

    n = problem.num_candidates
    coverers: dict = {}
    for i, table in enumerate(problem.covers):
        for t, degree in table.items():
            coverers.setdefault(t, []).append((i, float(degree)))
    owners: dict = {}
    for i, facts in enumerate(problem.error_facts):
        for f in facts:
            owners.setdefault(f, []).append(i)
    shared = [who for who in owners.values() if len(who) > 1]

    w_explains, w_errors = float(weights.explains), float(weights.errors)
    cost = [float(weights.size) * size for size in problem.sizes]
    for who in owners.values():
        if len(who) == 1:
            cost[who[0]] += w_errors
    num_vars = n + len(coverers) + len(shared)
    c = np.zeros(num_vars)
    c[:n] = cost
    c[n : n + len(coverers)] = -w_explains
    c[n + len(coverers) :] = w_errors

    rows = []
    for k, support in enumerate(coverers.values()):
        row = np.zeros(num_vars)
        row[n + k] = 1.0
        for i, degree in support:
            row[i] -= degree
        rows.append(row)
    for k, who in enumerate(shared):
        for i in who:
            row = np.zeros(num_vars)
            row[i] = 1.0
            row[n + len(coverers) + k] = -1.0
            rows.append(row)
    constant = w_explains * len(coverers)
    if not num_vars:
        return constant
    a_ub = np.array(rows) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
    assert result.success, result.message
    return float(result.fun) + constant


def uncoverable_facts(problem: SelectionProblem) -> int:
    """J facts no candidate covers: unexplained under every selection."""
    covered = set()
    for table in problem.covers:
        covered.update(table)
    return sum(1 for t in problem.j_facts if t not in covered)


def assert_admm_solves_the_lp(
    problem: SelectionProblem, weights: ObjectiveWeights
) -> None:
    """ADMM's converged energy is the LP optimum, which bounds F from below.

    The LP plus the uncoverable facts' constant is a relaxation of F, so
    it never exceeds the exact MILP's optimum.
    """
    mrf = GroundedCollective(problem, CollectiveSettings(weights=weights)).mrf
    result = AdmmSolver(mrf, TIGHT_ADMM).solve()
    lp = lp_relaxation_optimum(problem, weights)
    assert result.converged
    assert abs(result.energy - lp) <= 1e-5 * max(1.0, abs(lp)), (result.energy, lp)
    relaxed = lp + float(weights.explains) * uncoverable_facts(problem)
    assert relaxed <= float(solve_milp(problem, weights).objective) + 1e-9
