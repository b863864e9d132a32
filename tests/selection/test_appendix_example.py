"""Regression tests against the exact numbers of the paper's appendix.

The appendix (Section I) reports, for the reduced candidate set
C' = {theta1, theta3} on the running example:

    M            sum(1-explains)  sum(error)  size   Eq. (9)
    {}           4                0           0      4
    {theta1}     3 1/3            1           3      7 1/3
    {theta3}     2                2           4      8
    {th1, th3}   2                3           7      12

and that after adding five more ML-like projects the optimum flips from
{} to {theta3}.  These tests pin our reconstruction of the Eq. (9)
semantics to those numbers.
"""

from fractions import Fraction

import pytest

from repro.examples_data import paper_example
from repro.mappings.parser import parse_tgd
from repro.selection.index import ScaledWeights
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    objective_breakdown,
    objective_value,
)


@pytest.fixture(scope="module")
def problem():
    ex = paper_example()
    return build_selection_problem(ex.source, ex.target, ex.candidates)


THETA1, THETA3 = 0, 1


def test_empty_selection_scores_four(problem):
    b = objective_breakdown(problem, [])
    assert b.unexplained == 4
    assert b.errors == 0
    assert b.size == 0
    assert b.total == 4


def test_theta1_scores_seven_and_a_third(problem):
    b = objective_breakdown(problem, [THETA1])
    assert b.unexplained == Fraction(10, 3)
    assert b.errors == 1
    assert b.size == 3
    assert b.total == Fraction(22, 3)


def test_theta3_scores_eight(problem):
    b = objective_breakdown(problem, [THETA3])
    assert b.unexplained == 2
    assert b.errors == 2
    assert b.size == 4
    assert b.total == 8


def test_both_candidates_score_twelve(problem):
    b = objective_breakdown(problem, [THETA1, THETA3])
    assert b.unexplained == 2
    assert b.errors == 3
    assert b.size == 7
    assert b.total == 12


def test_appendix_preference_order(problem):
    values = {
        frozenset(): objective_value(problem, []),
        frozenset({THETA1}): objective_value(problem, [THETA1]),
        frozenset({THETA3}): objective_value(problem, [THETA3]),
        frozenset({THETA1, THETA3}): objective_value(problem, [THETA1, THETA3]),
    }
    assert (
        values[frozenset()]
        < values[frozenset({THETA1})]
        < values[frozenset({THETA3})]
        < values[frozenset({THETA1, THETA3})]
    )


def test_candidate_sizes_match_paper(problem):
    assert problem.sizes == [3, 4]


def test_theta1_cover_degrees(problem):
    ml_task = next(t for t in problem.j_facts if repr(t).startswith("task(ML"))
    assert problem.covers[THETA1][ml_task] == Fraction(2, 3)
    assert problem.covers[THETA3][ml_task] == Fraction(1)


def test_theta3_covers_org_fully(problem):
    org_111 = next(t for t in problem.j_facts if repr(t).startswith("org(111"))
    assert problem.covers[THETA3][org_111] == Fraction(1)
    assert org_111 not in problem.covers[THETA1]


def test_error_fact_counts(problem):
    assert len(problem.error_facts[THETA1]) == 1
    assert len(problem.error_facts[THETA3]) == 2


def test_five_extra_projects_flip_optimum_to_theta3():
    ex = paper_example(extra_projects=5)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    values = {
        frozenset(): objective_value(problem, []),
        frozenset({THETA1}): objective_value(problem, [THETA1]),
        frozenset({THETA3}): objective_value(problem, [THETA3]),
        frozenset({THETA1, THETA3}): objective_value(problem, [0, 1]),
    }
    best = min(values, key=values.get)
    assert best == frozenset({THETA3})


def test_incremental_objective_matches_batch(problem):
    inc = IncrementalObjective(problem)
    assert inc.value == objective_value(problem, [])
    inc.add(THETA1)
    assert inc.value == objective_value(problem, [THETA1])
    inc.add(THETA3)
    assert inc.value == objective_value(problem, [THETA1, THETA3])
    inc.remove(THETA1)
    assert inc.value == objective_value(problem, [THETA3])
    inc.remove(THETA3)
    assert inc.value == objective_value(problem, [])


def test_add_deltas_price_each_unselected_candidate():
    # The appendix candidates plus an org-only theta2, so one candidate
    # is still unselected after two adds.
    ex = paper_example()
    theta2 = parse_tgd("t2: proj(P, E, C) -> org(O, C)")
    problem = build_selection_problem(ex.source, ex.target, [*ex.candidates, theta2])
    denominator = ScaledWeights.of(
        DEFAULT_WEIGHTS, problem.objective_index().denominator
    ).denominator

    def replay(first):
        inc = IncrementalObjective(problem)
        for i in first:
            inc.add(i)
        return inc

    for first in ((), (THETA1, THETA3)):
        deltas = replay(first).add_deltas()
        assert [deltas[i] for i in first] == [0] * len(first)
        for i in sorted(set(range(problem.num_candidates)) - set(first)):
            inc = replay(first)
            before = inc.value
            inc.add(i)
            assert inc.value - before == Fraction(int(deltas[i]), denominator)


def test_certain_unexplained_are_the_two_inert_facts(problem):
    inert = problem.certain_unexplained()
    assert len(inert) == 2
    names = {repr(t) for t in inert}
    assert any("Search" in n for n in names)
    assert any("Oracle" in n for n in names)
