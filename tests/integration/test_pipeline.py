"""End-to-end integration tests: the paper's pipeline on whole scenarios."""

import pytest

from repro.evaluation.harness import run_methods
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.collective import solve_collective
from repro.selection.exact import solve_milp
from repro.selection.greedy import solve_greedy
from repro.selection.objective import objective_value


def _runs(scenario):
    return {r.method: r for r in run_methods(scenario)}


@pytest.fixture(scope="module")
def clean_runs():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=4, seed=100, rows_per_relation=15)
    )
    return _runs(scenario)


@pytest.fixture(scope="module")
def noisy_runs():
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=4,
            seed=100,
            rows_per_relation=15,
            pi_corresp=75,
            pi_errors=10,
            pi_unexplained=10,
        )
    )
    return _runs(scenario)


def test_clean_scenario_collective_is_near_gold(clean_runs):
    assert clean_runs["collective"].data.f1 >= 0.85
    assert clean_runs["gold"].data.f1 == pytest.approx(1.0)


def test_collective_never_loses_to_all_candidates_on_objective(clean_runs, noisy_runs):
    for runs in (clean_runs, noisy_runs):
        assert runs["collective"].objective <= runs["all-candidates"].objective


def test_noise_reduces_all_candidates_precision(noisy_runs):
    assert noisy_runs["all-candidates"].data.precision < 1.0
    # ... while its recall stays perfect: it applies every candidate.
    assert noisy_runs["all-candidates"].data.recall == pytest.approx(1.0)


def test_collective_beats_all_candidates_f1_under_corresp_noise(noisy_runs):
    assert noisy_runs["collective"].data.f1 >= noisy_runs["all-candidates"].data.f1


def _assert_collective_tracks_exact(config):
    problem = generate_scenario(config).selection_problem()
    exact = solve_milp(problem)
    collective = solve_collective(problem)
    greedy = solve_greedy(problem)
    for result in (exact, collective, greedy):
        assert result.objective == objective_value(problem, result.selected)
    assert exact.objective <= collective.objective <= greedy.objective * 2
    # Relative optimality gap within 10% on scenarios of this size.
    if exact.objective > 0:
        gap = float(collective.objective - exact.objective) / float(exact.objective)
        assert gap <= 0.10


def test_collective_tracks_exact_optimum_on_medium_scenario():
    _assert_collective_tracks_exact(
        ScenarioConfig(num_primitives=3, seed=42, rows_per_relation=10, pi_corresp=50)
    )


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("primitives", (3, 4, 6, 8))
def test_collective_tracks_exact_optimum_at_noise_25(primitives, seed):
    _assert_collective_tracks_exact(
        ScenarioConfig(
            num_primitives=primitives,
            seed=seed,
            rows_per_relation=10,
            pi_corresp=25,
            pi_errors=25,
            pi_unexplained=25,
        )
    )


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("primitives", (24, 48))
def test_collective_tracks_exact_optimum_at_paper_scale(primitives, seed):
    # Every noise level at 50: the scale and noise where collective
    # rounding can land above the optimum.
    _assert_collective_tracks_exact(
        ScenarioConfig(
            num_primitives=primitives,
            seed=seed,
            rows_per_relation=10,
            pi_corresp=50,
            pi_errors=50,
            pi_unexplained=50,
        )
    )


@pytest.mark.parametrize("kind", ["CP", "ADD", "DL", "ADL", "ME", "VP", "VNM"])
def test_every_primitive_kind_survives_the_full_pipeline(kind):
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=2,
            primitive_kinds=(kind,),
            seed=7,
            rows_per_relation=12,
            pi_corresp=50,
        )
    )
    runs = _runs(scenario)
    assert runs["gold"].data.f1 == pytest.approx(1.0)
    assert runs["collective"].data.f1 > 0.5


def test_scalability_smoke_sixteen_primitives():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=16, seed=3, rows_per_relation=5)
    )
    problem = scenario.selection_problem()
    result = solve_collective(problem)
    assert result.converged
    assert result.objective > 0
