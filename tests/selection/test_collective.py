"""Unit tests for the collective (PSL) selector."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from repro.examples_data import paper_example
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.admm import AdmmSettings
from repro.errors import InferenceError
from repro.psl.sharding import mrf_fingerprint
from repro.psl.predicate import GroundAtom
from repro.selection.collective import (
    EXPLAINED_PREDICATE,
    IN_PREDICATE,
    CollectiveSettings,
    GroundedCollective,
    ground_collective,
    solve_collective,
)
from repro.selection.exact import solve_milp
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import DEFAULT_WEIGHTS, ObjectiveWeights
from tests.collective_reference import assert_admm_solves_the_lp, ground_term_by_term


@pytest.fixture(scope="module")
def problems():
    base = paper_example()
    extended = paper_example(extra_projects=5)
    return (
        build_selection_problem(base.source, base.target, base.candidates),
        build_selection_problem(extended.source, extended.target, extended.candidates),
    )


def test_collective_matches_exact_on_paper_example(problems):
    for problem in problems:
        collective = solve_collective(problem)
        exact = solve_milp(problem)
        assert collective.objective == exact.objective
        assert collective.selected == exact.selected


def test_fractional_state_reported(problems):
    result = solve_collective(problems[1])
    assert set(result.fractional) == {0, 1}
    assert all(0.0 <= v <= 1.0 for v in result.fractional.values())
    # theta3 should carry clearly more fractional mass than theta1.
    assert result.fractional[1] > result.fractional[0]


def test_diagnostics_populated(problems):
    result = solve_collective(problems[0])
    assert result.converged
    assert result.iterations > 0
    assert result.num_potentials > 0
    assert result.num_constraints > 0


def test_program_structure(problems):
    problem = problems[0]
    mrf, plan = ground_collective(problem)
    assert plan.targets[: problem.num_candidates] == tuple(
        GroundAtom(IN_PREDICATE, (i,)) for i in range(problem.num_candidates)
    )
    assert mrf_fingerprint(mrf) == mrf_fingerprint(ground_term_by_term(problem))
    # 2 coverable J facts -> 2 explained vars; + 2 in vars.
    assert mrf.num_variables == 4
    # 2 coverage potentials + 2 candidate priors (errors+size folded together).
    assert len(mrf.potentials) == 4
    assert len(mrf.constraints) == 2


def test_rounding_without_local_search(problems):
    settings = CollectiveSettings(rounding_local_search=False)
    result = solve_collective(problems[1], settings)
    # Threshold sweep alone already finds the optimum here.
    assert result.selected == frozenset({1})


def test_weights_flow_into_relaxation(problems):
    from fractions import Fraction

    heavy_size = CollectiveSettings(weights=ObjectiveWeights(size=Fraction(100)))
    result = solve_collective(problems[1], heavy_size)
    assert result.selected == frozenset()


def test_custom_admm_settings_respected(problems):
    settings = CollectiveSettings(admm=AdmmSettings(max_iterations=1))
    result = solve_collective(problems[0], settings)
    assert result.iterations == 1
    assert not result.converged
    # Rounding against the exact objective still yields a sane selection.
    assert result.objective <= 12


def test_shared_error_facts_use_mediator_variable():
    """Two full tgds creating the same ground error fact pay it once."""
    from repro.datamodel.instance import Instance, fact
    from repro.mappings.parser import parse_tgds

    source = Instance([fact("r", 1), fact("s", 1)])
    target = Instance([fact("u", 2)])  # u(1) will be an error for both
    tgds = parse_tgds("r(X) -> u(X)\ns(X) -> u(X)")
    problem = build_selection_problem(source, target, tgds)
    assert problem.union_error_facts([0, 1]) == {fact("u", 1)}

    mrf, _ = ground_collective(problem)
    assert mrf_fingerprint(mrf) == mrf_fingerprint(ground_term_by_term(problem))
    # mediator errorOf var present: 2 in + 1 errorOf (no coverable facts)
    assert mrf.num_variables == 3
    result = solve_collective(problem)
    exact = solve_milp(problem)
    assert result.objective == exact.objective


def test_warm_started_collective_chains_state():
    from repro.examples_data import paper_example
    from repro.psl.admm import AdmmSettings
    from repro.selection.collective import (
        CollectiveSettings,
        WarmStartedCollective,
        solve_collective,
    )
    from repro.selection.metrics import build_selection_problem

    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    settings = CollectiveSettings(admm=AdmmSettings(check_every=1))

    cold = solve_collective(problem, settings)
    warm = WarmStartedCollective(settings)
    first = warm(problem)
    second = warm(problem)  # same structure: full ADMM state carries over
    assert first.selected == cold.selected
    assert second.selected == cold.selected
    assert second.iterations < first.iterations
    # The payload is the chained ADMM state; a new solver resumes from it.
    assert warm.payload is second.admm_state
    resumed = WarmStartedCollective(settings, payload=warm.payload)(problem)
    assert resumed.selected == cold.selected
    assert resumed.iterations < first.iterations


def test_warm_started_collective_chains_aux_state():
    # The chained payload is the full ADMM state: its consensus vector
    # holds the auxiliary explained/errorOf atoms beside the
    # memberships, so a chained call resumes every atom.
    from repro.selection.collective import WarmStartedCollective

    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    warm = WarmStartedCollective()
    first = warm(problem)
    plan = GroundedCollective(problem).plan
    auxiliary = plan.targets[problem.num_candidates :]
    assert any(atom.predicate == EXPLAINED_PREDICATE for atom in auxiliary)
    assert warm.payload is first.admm_state
    assert len(warm.payload.z) == len(plan.targets)
    second = warm(problem)
    assert second.selected == first.selected


@pytest.mark.parametrize("field, value", [("z", np.nan), ("u", np.inf)])
def test_non_finite_warm_state_is_rejected(field, value):
    # Regression: a NaN consensus entry (or an infinite dual) ran the
    # whole iteration budget, returned NaN, and solve_collective rounded
    # that to a selection without an error.
    import dataclasses

    problem = generate_scenario(
        ScenarioConfig(num_primitives=4, rows_per_relation=12, pi_errors=25, seed=1)
    ).selection_problem()
    grounded = GroundedCollective(problem)
    state = solve_collective(problem, grounded=grounded).admm_state
    bad = getattr(state, field).copy()
    bad[0] = value
    poisoned = dataclasses.replace(state, **{field: bad})
    assert poisoned.matches(grounded.solver.arrays)
    with pytest.raises(InferenceError, match="warm_state must be finite"):
        grounded.solver.solve(warm_state=poisoned)
    with pytest.raises(InferenceError, match="warm_state must be finite"):
        solve_collective(problem, grounded=grounded, warm_state=poisoned)
    # A state of another shape is still ignored: the solve starts cold.
    other = solve_collective(_corresp_noise_problem(4, 1)).admm_state
    assert not other.matches(grounded.solver.arrays)
    cold = solve_collective(problem, grounded=grounded)
    resumed = solve_collective(problem, grounded=grounded, warm_state=other)
    assert resumed.selected == cold.selected
    assert resumed.iterations == cold.iterations


def _corresp_noise_problem(num_primitives: int, seed: int):
    return generate_scenario(
        ScenarioConfig(num_primitives=num_primitives, pi_corresp=50, seed=seed)
    ).selection_problem()


def test_artifact_of_another_problem_is_rejected():
    # Regression: an artifact grounded for another problem used to be
    # rounded as if it were this problem's relaxation, returning a wrong
    # selection without an error.
    problem = _corresp_noise_problem(6, 2)
    foreign = GroundedCollective(_corresp_noise_problem(4, 1))
    with pytest.raises(InferenceError, match="another selection problem"):
        solve_collective(problem, grounded=foreign)
    # Problems are matched by identity, as the grounding cache does: an
    # equal rebuild of the artifact's own problem is another problem.
    with pytest.raises(InferenceError):
        solve_collective(_corresp_noise_problem(4, 1), grounded=foreign)
    own = solve_collective(problem, grounded=GroundedCollective(problem))
    assert own.objective == solve_collective(problem).objective


def test_sharded_ground_matches_default_solve(problems):
    for problem in problems:
        cached = solve_collective(problem)
        grounded = GroundedCollective(problem)
        fresh = solve_collective(problem, grounded=grounded)
        assert fresh.selected == cached.selected
        assert fresh.objective == cached.objective
        assert grounded.splice_stats is None  # a fresh ground, not a splice


# -- the relaxation against an exact LP ----------------------------------------

#: The paper's unit weights and a setting that moves all three.
LP_WEIGHTS = (
    DEFAULT_WEIGHTS,
    ObjectiveWeights(Fraction(2), Fraction(1, 2), Fraction(1, 3)),
)


@pytest.mark.parametrize("weights", LP_WEIGHTS)
def test_admm_energy_matches_lp_relaxation_on_paper_examples(problems, weights):
    for problem in problems:
        assert_admm_solves_the_lp(problem, weights)


@functools.cache
def _noisy_problem(primitives):
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=primitives,
            seed=1,
            rows_per_relation=10,
            pi_corresp=50,
            pi_errors=50,
            pi_unexplained=50,
        )
    )
    return build_selection_problem(scenario.source, scenario.target, scenario.candidates)


@pytest.mark.parametrize("weights", LP_WEIGHTS)
@pytest.mark.parametrize("primitives", (6, 12, 24, 48))
def test_admm_energy_matches_lp_relaxation_on_ibench(primitives, weights):
    assert_admm_solves_the_lp(_noisy_problem(primitives), weights)
