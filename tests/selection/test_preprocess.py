"""Unit tests for the Section III-C problem reductions."""

from fractions import Fraction

import pytest

from repro.datamodel.instance import Instance, fact
from repro.examples_data import paper_example
from repro.mappings.parser import parse_tgds
from repro.selection.exact import solve_milp
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights, objective_value
from repro.selection.preprocess import (
    drop_certain_unexplained,
    drop_useless_candidates,
    preprocess,
)


@pytest.fixture(scope="module")
def paper_problem():
    ex = paper_example(extra_projects=5)
    return build_selection_problem(ex.source, ex.target, ex.candidates)


def test_drop_certain_unexplained_offset(paper_problem):
    reduced, offset, dropped = drop_certain_unexplained(paper_problem)
    assert offset == 2  # the two inert J facts
    assert len(dropped) == 2
    assert len(reduced.j_facts) == len(paper_problem.j_facts) - 2
    # Objective identity: F_original(M) = F_reduced(M) + offset.
    for selection in ([], [0], [1], [0, 1]):
        assert objective_value(paper_problem, selection) == (
            objective_value(reduced, selection) + offset
        )


def test_drop_certain_unexplained_noop_when_all_covered():
    source = Instance([fact("r", 1)])
    target = Instance([fact("u", 1)])
    problem = build_selection_problem(source, target, parse_tgds("r(X) -> u(X)"))
    reduced, offset, dropped = drop_certain_unexplained(problem)
    assert offset == 0 and not dropped
    assert reduced is problem


def test_drop_useless_candidates():
    source = Instance([fact("r", 1)])
    target = Instance([fact("u", 1)])
    tgds = parse_tgds("r(X) -> u(X)\nr(X) -> v(X)")  # second covers nothing
    problem = build_selection_problem(source, target, tgds)
    reduced, kept, dropped = drop_useless_candidates(problem)
    assert kept == [0]
    assert dropped == [1]
    assert reduced.num_candidates == 1


def test_preprocess_preserves_optimum(paper_problem):
    result = preprocess(paper_problem)
    reduced_opt = solve_milp(result.problem)
    original_opt = solve_milp(paper_problem)
    assert reduced_opt.objective + result.objective_offset == original_opt.objective
    assert result.translate(reduced_opt.selected) == original_opt.selected


def test_preprocess_on_generated_scenario():
    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario

    scenario = generate_scenario(
        ScenarioConfig(num_primitives=3, seed=9, pi_corresp=50, pi_unexplained=25)
    )
    problem = scenario.selection_problem()
    result = preprocess(problem)
    reduced_opt = solve_milp(result.problem)
    original_opt = solve_milp(problem)
    assert reduced_opt.objective + result.objective_offset == original_opt.objective
    assert objective_value(problem, result.translate(reduced_opt.selected)) == (
        original_opt.objective
    )


def test_preprocess_respects_weights(paper_problem):
    weights = ObjectiveWeights(explains=Fraction(3))
    result = preprocess(paper_problem, weights)
    assert result.objective_offset == 6  # 2 inert facts * weight 3


def test_translate_maps_indices():
    source = Instance([fact("r", 1)])
    target = Instance([fact("u", 1)])
    tgds = parse_tgds("r(X) -> v(X)\nr(X) -> u(X)")  # first is useless
    problem = build_selection_problem(source, target, tgds)
    result = preprocess(problem)
    assert result.kept_candidates == [1]
    assert result.translate({0}) == frozenset({1})
