"""Tests for the non-collective (independent) baseline.

The independent scorer judges each candidate alone, so overlapping
candidates double-count shared coverage — the motivating failure mode of
the paper's *collective* formulation.
"""

import pytest

from repro.datamodel.instance import Instance, fact
from repro.mappings.parser import parse_tgds
from repro.selection.baselines import solve_independent
from repro.selection.collective import solve_collective
from repro.selection.exact import solve_milp
from repro.selection.metrics import build_selection_problem


def _overlapping_problem():
    """Two redundant candidates, each individually worthwhile.

    r1 and r2 hold the same ten tuples; both candidates copy them to u.
    Individually each one is a clear win (coverage 10 vs size 2), so the
    independent scorer takes both — paying double size for coverage the
    collective scorer knows is shared.
    """
    rows = range(10)
    source = Instance(
        [fact("r1", i) for i in rows] + [fact("r2", i) for i in rows]
    )
    target = Instance([fact("u", i) for i in rows])
    tgds = parse_tgds("r1(X) -> u(X)\nr2(X) -> u(X)")
    return build_selection_problem(source, target, tgds)


def test_independent_double_selects_redundant_candidates():
    problem = _overlapping_problem()
    independent = solve_independent(problem)
    assert independent.selected == frozenset({0, 1})


def test_collective_avoids_redundancy():
    problem = _overlapping_problem()
    collective = solve_collective(problem)
    exact = solve_milp(problem)
    assert len(collective.selected) == 1
    assert collective.objective == exact.objective
    independent = solve_independent(problem)
    assert collective.objective < independent.objective


def test_independent_skips_individually_bad_candidates():
    source = Instance([fact("r", 1)])
    target = Instance([fact("u", 2)])  # candidate creates only errors
    problem = build_selection_problem(source, target, parse_tgds("r(X) -> u(X)"))
    assert solve_independent(problem).selected == frozenset()


def test_independent_reports_true_objective():
    from repro.selection.objective import objective_value

    problem = _overlapping_problem()
    result = solve_independent(problem)
    assert result.objective == objective_value(problem, result.selected)


def test_on_generated_scenario_collective_weakly_dominates():
    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario

    for seed in (1, 2, 3):
        scenario = generate_scenario(
            ScenarioConfig(num_primitives=3, seed=seed, pi_corresp=75)
        )
        problem = scenario.selection_problem()
        assert (
            solve_collective(problem).objective
            <= solve_independent(problem).objective
        )
