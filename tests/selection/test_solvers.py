"""Unit tests for exact, greedy, and baseline solvers."""

from fractions import Fraction

import pytest

from repro.datamodel.instance import Instance, fact
from repro.errors import SelectionError
from repro.examples_data import paper_example
from repro.mappings.parser import parse_tgds
from repro.selection import exact
from repro.selection.baselines import select_all
from repro.selection.exact import solve_exhaustive, solve_milp
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights, objective_value


@pytest.fixture(scope="module")
def paper_problem():
    ex = paper_example()
    return build_selection_problem(ex.source, ex.target, ex.candidates)


@pytest.fixture(scope="module")
def extended_problem():
    ex = paper_example(extra_projects=5)
    return build_selection_problem(ex.source, ex.target, ex.candidates)


def _set_cover_style_problem():
    """Candidates with overlapping coverage: greedy-vs-exact territory."""
    source = Instance(
        [fact("r1", i) for i in range(4)]
        + [fact("r2", i) for i in (0, 1)]
        + [fact("r3", i) for i in (2, 3)]
    )
    target = Instance([fact("u", i) for i in range(4)])
    candidates = parse_tgds(
        "r1(X) -> u(X)\n"
        "r2(X) -> u(X)\n"
        "r3(X) -> u(X)"
    )
    return build_selection_problem(source, target, candidates)


def test_exhaustive_finds_appendix_optimum(paper_problem):
    result = solve_exhaustive(paper_problem)
    assert result.selected == frozenset()
    assert result.objective == 4


def test_branch_and_bound_matches_exhaustive(paper_problem, extended_problem):
    for problem in (paper_problem, extended_problem):
        assert (
            solve_milp(problem).objective
            == solve_exhaustive(problem).objective
        )


def test_exhaustive_rejects_large_candidate_sets(paper_problem):
    with pytest.raises(ValueError, match="solve_milp"):
        solve_exhaustive(paper_problem, max_candidates=1)


def test_milp_on_zero_candidates_returns_the_empty_selection():
    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, [])
    result = solve_milp(problem)
    assert result.selected == frozenset()
    assert result.objective == objective_value(problem, []) == len(problem.j_facts)


def test_milp_raises_instead_of_returning_an_unproven_selection(
    extended_problem, monkeypatch
):
    monkeypatch.setattr(exact, "TIME_LIMIT_S", 1e-9)
    with pytest.raises(SelectionError, match="Time limit"):
        solve_milp(extended_problem)


def test_exact_prefers_single_covering_candidate():
    problem = _set_cover_style_problem()
    result = solve_milp(problem)
    assert result.selected == frozenset({0})  # r1 covers everything, size 2


def test_greedy_on_paper_example(paper_problem, extended_problem):
    assert solve_greedy(paper_problem).selected == frozenset()
    assert solve_greedy(extended_problem).selected == frozenset({1})


def test_greedy_never_worse_than_empty(paper_problem):
    greedy_value = solve_greedy(paper_problem).objective
    assert greedy_value <= objective_value(paper_problem, [])


def test_greedy_backward_pass_removes_subsumed():
    problem = _set_cover_style_problem()
    result = solve_greedy(problem)
    # r1 alone is optimal; backward pass must not leave r2/r3 behind.
    assert result.selected == frozenset({0})


def test_greedy_breaks_objective_ties_toward_lowest_index():
    # Two identical candidates: every delta ties; the pick must be the
    # lower index, not whichever a set yields first.
    source = Instance([fact("r", i) for i in range(3)])
    target = Instance([fact("u", i) for i in range(3)])
    candidates = parse_tgds("r(X) -> u(X)\nr(X) -> u(X)")
    problem = build_selection_problem(source, target, candidates)
    result = solve_greedy(problem)
    assert result.selected == frozenset({0})


def test_greedy_matches_exact_on_small_instances(paper_problem):
    assert (
        solve_greedy(paper_problem).objective
        == solve_milp(paper_problem).objective
    )


def test_select_all(paper_problem):
    all_result = select_all(paper_problem)
    assert all_result.selected == frozenset({0, 1})
    assert all_result.objective == 12


def test_weighted_objective_changes_optimum(extended_problem):
    # Making size extremely expensive drives the optimum back to {}.
    heavy_size = ObjectiveWeights(size=Fraction(100))
    result = solve_milp(extended_problem, heavy_size)
    assert result.selected == frozenset()
    # Making coverage dominant selects theta3 even at base size weight.
    heavy_cover = ObjectiveWeights(explains=Fraction(100))
    result = solve_milp(extended_problem, heavy_cover)
    assert 1 in result.selected


def test_selection_result_tgds_accessor(extended_problem):
    result = solve_milp(extended_problem)
    tgds = result.tgds(extended_problem)
    assert [t.name for t in tgds] == ["t3"]


def test_branch_and_bound_on_wider_random_problem():
    import random

    rng = random.Random(5)
    source = Instance([fact(f"r{i}", j) for i in range(8) for j in range(4)])
    target = Instance(
        [fact("u", j) for j in range(4)] + [fact("v", j) for j in range(4)]
    )
    tgds = parse_tgds(
        "\n".join(
            f"r{i}(X) -> {'u' if rng.random() < 0.5 else 'v'}(X)" for i in range(8)
        )
    )
    problem = build_selection_problem(source, target, tgds)
    assert (
        solve_milp(problem).objective
        == solve_exhaustive(problem).objective
    )
