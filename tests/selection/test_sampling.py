"""Tests for J-sampling."""

import hashlib

import pytest

from repro.datamodel.instance import Instance
from repro.errors import SelectionError
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.collective import CollectiveSettings, solve_collective
from repro.selection.metrics import problem_fingerprint
from repro.selection.objective import objective_value
from repro.selection.sampling import sample_selection_problem


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(
        ScenarioConfig(num_primitives=3, seed=17, rows_per_relation=20, pi_corresp=50)
    )


def test_rate_one_is_the_full_problem(scenario):
    sampled = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=1.0
    )
    assert sampled.sampled_facts == sampled.total_facts == len(scenario.target)
    assert sampled.weights.explains == 1


def test_invalid_rates_rejected(scenario):
    for rate in (0.0, -0.5, 1.5):
        with pytest.raises(SelectionError):
            sample_selection_problem(
                scenario.source, scenario.target, scenario.candidates, rate=rate
            )


def test_sampling_shrinks_j(scenario):
    sampled = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=0.25
    )
    assert sampled.sampled_facts == round(len(scenario.target) * 0.25)
    assert len(sampled.problem.j_facts) == sampled.sampled_facts


def test_weights_scaled_by_inverse_rate(scenario):
    sampled = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=0.5
    )
    expected = len(scenario.target) / sampled.sampled_facts
    assert float(sampled.weights.explains) == pytest.approx(expected)
    assert sampled.weights.errors == 1
    assert sampled.weights.size == 1


def test_deterministic_under_seed(scenario):
    a = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=0.5, seed=3
    )
    b = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=0.5, seed=3
    )
    assert a.problem.j_facts == b.problem.j_facts


def test_sampled_selection_recovers_most_of_gold(scenario):
    """At a healthy rate the sampled problem selects (nearly) the same M."""
    full = solve_collective(scenario.selection_problem())
    sampled = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=0.5, seed=1
    )
    result = solve_collective(
        sampled.problem, CollectiveSettings(weights=sampled.weights)
    )
    overlap = len(result.selected & full.selected)
    denominator = max(1, len(full.selected))
    assert overlap / denominator >= 0.6


def test_sampled_objective_estimates_full(scenario):
    """The rescaled sampled objective approximates the full objective."""
    problem_full = scenario.selection_problem()
    selection = frozenset(scenario.gold_indices)
    full_value = float(objective_value(problem_full, selection))
    sampled = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=0.5, seed=2
    )
    estimate = float(objective_value(sampled.problem, selection, sampled.weights))
    assert estimate == pytest.approx(full_value, rel=0.35)


#: ``problem_fingerprint`` SHA-256s of the fixture's sampled problem at
#: ``seed=3``, keyed by rate.  Computed when sampling ran its own chase
#: loop and matched covers against the sample only; sampling is now the
#: full build restricted to the sampled facts.
PINNED_SAMPLED_FINGERPRINTS = {
    1.0: "8da9e932a2f2744cab7e5e5028d77a1e8859e7768388a4b8a5d2070f28f95fef",
    0.5: "c4ac99de7a776c31630b9ef1a3251856151984c41d21355b5ca334947faafbda",
    0.25: "951e5f41ba0d0d0f3021f6331171f66f49a63dccf3304c6781d759638fa2e7dc",
}


@pytest.mark.parametrize("rate", sorted(PINNED_SAMPLED_FINGERPRINTS, reverse=True))
def test_sampled_fingerprint_is_pinned(scenario, rate):
    sampled = sample_selection_problem(
        scenario.source, scenario.target, scenario.candidates, rate=rate, seed=3
    )
    digest = hashlib.sha256(problem_fingerprint(sampled.problem)).hexdigest()
    assert digest == PINNED_SAMPLED_FINGERPRINTS[rate]


@pytest.mark.parametrize("rate", [1.0, 0.5, 0.1])
def test_empty_target_samples_to_the_empty_problem(scenario, rate):
    sampled = sample_selection_problem(
        scenario.source, Instance(), scenario.candidates, rate=rate
    )
    full = sample_selection_problem(
        scenario.source, Instance(), scenario.candidates, rate=1.0
    )
    assert sampled.problem.j_facts == []
    assert (sampled.sampled_facts, sampled.total_facts, sampled.rate) == (0, 0, 1.0)
    assert sampled.weights == full.weights
    assert problem_fingerprint(sampled.problem) == problem_fingerprint(full.problem)
