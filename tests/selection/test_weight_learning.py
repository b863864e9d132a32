"""Tests for structured-perceptron weight learning."""

from fractions import Fraction

import pytest

from repro.datamodel.instance import Instance, fact
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.mappings.parser import parse_tgds
from repro.selection.exact import solve_milp
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights, objective_value
from repro.selection.weight_learning import (
    feature_vector,
    learn_weights,
    training_pairs_from_scenarios,
)


def _size_sensitive_problem():
    """Gold prefers the big joint candidate; unit weights prefer nothing.

    Four target facts, one candidate covering all of them at size 4, and
    a tiny instance so coverage barely outweighs size under unit weights.
    Lowering w_size (or raising w_expl) makes the candidate win.
    """
    source = Instance([fact("r", i, i) for i in range(2)])
    target = Instance(
        [fact("u", i, i) for i in range(2)] + [fact("v", i) for i in range(2)]
    )
    tgds = parse_tgds("r(X, Y) -> u(X, Y) & v(X)")
    return build_selection_problem(source, target, tgds)


def test_feature_vector_matches_breakdown():
    problem = _size_sensitive_problem()
    phi = feature_vector(problem, frozenset({0}))
    assert phi == (Fraction(0), Fraction(0), Fraction(3))
    phi_empty = feature_vector(problem, frozenset())
    assert phi_empty == (Fraction(4), Fraction(0), Fraction(0))


def test_perceptron_learns_to_prefer_gold():
    problem = _size_sensitive_problem()
    gold = frozenset({0})
    # Start from weights under which the empty set wins.
    bad = ObjectiveWeights(size=Fraction(3))
    assert objective_value(problem, [], bad) < objective_value(problem, gold, bad)

    result = learn_weights([(problem, gold)], epochs=50, initial=bad)
    learned = result.weights
    assert objective_value(problem, gold, learned) <= objective_value(
        problem, [], learned
    )
    assert result.converged


def test_no_update_when_gold_already_optimal():
    problem = _size_sensitive_problem()
    gold = solve_milp(problem).selected
    result = learn_weights([(problem, gold)], epochs=5)
    assert result.mistakes_per_epoch[0] == 0
    assert result.converged


def test_weights_stay_positive():
    problem = _size_sensitive_problem()
    # An adversarial gold (the empty set when the candidate is clearly good)
    # pushes w_explains down; the floor keeps all weights positive.
    result = learn_weights(
        [(problem, frozenset())], epochs=30, learning_rate=5.0
    )
    assert result.weights.explains > 0
    assert result.weights.errors > 0
    assert result.weights.size > 0


def test_learning_on_generated_scenarios_reduces_mistakes():
    scenarios = [
        generate_scenario(
            ScenarioConfig(num_primitives=2, rows_per_relation=6, pi_corresp=50, seed=s)
        )
        for s in (1, 2, 3)
    ]
    training = training_pairs_from_scenarios(scenarios)
    result = learn_weights(training, epochs=15)
    # Mistake count must not increase from first to last epoch.
    assert result.mistakes_per_epoch[-1] <= result.mistakes_per_epoch[0]


def test_averaged_weights_are_fractions():
    problem = _size_sensitive_problem()
    result = learn_weights([(problem, frozenset({0}))], epochs=3)
    for w in (result.weights.explains, result.weights.errors, result.weights.size):
        assert isinstance(w, Fraction)
