"""Differential tests: the integer objective index against the reference.

Every fast path (the index evaluator, rounding on it, greedy on the
incremental objective) must reproduce the reference Eq. (9) value of
:func:`objective_value` exactly, or a strict-``<`` search would accept
different steps.  The exact MILP is built from the same index and
scores its selection with the index evaluator; its pinned optima below
date from the search code the index replaced.
"""

import functools
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ScenarioConfig, generate_scenario, solve_collective
from repro.errors import SelectionError
from repro.examples_data import paper_example
from repro.ibench.config import ALL_PRIMITIVES
from repro.psl.rounding import round_solution
from repro.selection.exact import solve_milp
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import build_selection_problem, problem_fingerprint
from repro.selection.objective import (
    IncrementalObjective,
    ObjectiveWeights,
    objective_evaluator,
    objective_value,
)
from tests.integration.test_properties import selection_problems, weights_strategy

IBENCH_SIZES = (6, 12, 24)


@functools.cache
def ibench_problem(primitives: int):
    # With all three noise kinds on, candidates share ground error facts,
    # so the distinct-error count differs from the per-candidate sum.
    config = ScenarioConfig(
        num_primitives=primitives, rows_per_relation=20,
        pi_corresp=25, pi_errors=25, pi_unexplained=25, seed=primitives,
    )
    return generate_scenario(config).selection_problem()


def draw_selection(data, problem) -> frozenset[int]:
    n = problem.num_candidates
    return frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))


@given(selection_problems(), weights_strategy, st.data())
@settings(max_examples=60, deadline=None)
def test_index_value_equals_reference_on_random_problems(problem, weights, data):
    selected = draw_selection(data, problem)
    evaluate = objective_evaluator(problem, weights)
    assert evaluate(selected) == objective_value(problem, selected, weights)


@given(st.sampled_from(IBENCH_SIZES), weights_strategy, st.data())
@settings(max_examples=40, deadline=None)
def test_index_value_equals_reference_on_ibench(primitives, weights, data):
    problem = ibench_problem(primitives)
    selected = draw_selection(data, problem)
    evaluate = objective_evaluator(problem, weights)
    assert evaluate(selected) == objective_value(problem, selected, weights)


def _rounded_both_ways(problem, fractional, weights):
    indexed = round_solution(fractional, objective_evaluator(problem, weights))
    reference = round_solution(
        fractional, lambda s: objective_value(problem, s, weights)
    )
    return indexed, reference


@given(st.sampled_from(IBENCH_SIZES[:2]), weights_strategy, st.data())
@settings(max_examples=10, deadline=None)
def test_rounding_on_index_matches_reference_callback(primitives, weights, data):
    problem = ibench_problem(primitives)
    # Coarse levels make ties, so the repr tie-break order is exercised.
    levels = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    fractional = {i: data.draw(levels) for i in range(problem.num_candidates)}
    indexed, reference = _rounded_both_ways(problem, fractional, weights)
    assert indexed == reference


@pytest.mark.parametrize("primitives", IBENCH_SIZES[1:])
def test_rounding_of_collective_relaxation_matches_reference(primitives):
    problem = ibench_problem(primitives)
    fractional = solve_collective(problem).fractional
    indexed, reference = _rounded_both_ways(problem, fractional, ObjectiveWeights())
    assert indexed == reference


def _pinned_problems():
    for extra in (0, 5):
        ex = paper_example(extra_projects=extra)
        yield f"appendix+{extra}", build_selection_problem(
            ex.source, ex.target, ex.candidates
        )
    for kind in ALL_PRIMITIVES:
        config = ScenarioConfig(
            num_primitives=2, primitive_kinds=(kind,), rows_per_relation=10,
            pi_corresp=50, pi_errors=10, pi_unexplained=10, seed=13,
        )
        yield kind, generate_scenario(config).selection_problem()


SKEWED = ObjectiveWeights(Fraction(3, 2), Fraction(1), Fraction(1, 2))

#: Per problem and weights: greedy (selection, F) and the exact optimum
#: (selection, F), as computed by the Fact-keyed search code the index
#: replaced.
PINNED = {
    "appendix+0": {
        "default": ([], "4", [], "4"),
        "skewed": ([], "6", [], "6"),
    },
    "appendix+5": {
        "default": ([1], "8", [1], "8"),
        "skewed": ([1], "7", [1], "7"),
    },
    "CP": {
        "default": ([0, 2], "7", [0, 2], "7"),
        "skewed": ([0, 2], "11/2", [0, 2], "11/2"),
    },
    "ADD": {
        "default": ([], "19", [], "19"),
        "skewed": ([0, 2], "333/14", [0, 2], "333/14"),
    },
    "DL": {
        "default": ([0, 2], "7", [0, 2], "7"),
        "skewed": ([0, 2], "11/2", [0, 2], "11/2"),
    },
    "ADL": {
        "default": ([], "19", [], "19"),
        "skewed": ([0, 2], "20", [0, 2], "20"),
    },
    "ME": {
        "default": ([1, 5], "8", [1, 5], "8"),
        "skewed": ([1, 5], "6", [1, 5], "6"),
    },
    "VP": {
        "default": ([0, 5], "59/4", [0, 5], "59/4"),
        "skewed": ([0, 5], "105/8", [0, 5], "105/8"),
    },
    "VNM": {
        "default": ([0, 8], "55/3", [0, 8], "55/3"),
        "skewed": ([0, 8], "31/2", [0, 8], "31/2"),
    },
}


def test_searches_match_pinned_results_on_appendix_and_table1_scenarios():
    for name, problem in _pinned_problems():
        for label, weights in (("default", ObjectiveWeights()), ("skewed", SKEWED)):
            greedy = solve_greedy(problem, weights)
            exact = solve_milp(problem, weights)
            got = (
                sorted(greedy.selected), str(greedy.objective),
                sorted(exact.selected), str(exact.objective),
            )
            assert got == PINNED[name][label], (name, label)


def test_greedy_matches_pinned_results_on_ibench():
    pinned = {
        12: ([0, 2, 3, 4, 6, 9, 12, 15, 21, 23, 25], "171"),
        24: (
            [6, 10, 11, 13, 15, 16, 17, 18, 19, 21, 27, 30, 33, 37, 39, 41, 43, 45, 47],
            "1565/6",
        ),
    }
    for primitives, (selected, value) in pinned.items():
        result = solve_greedy(ibench_problem(primitives))
        assert (sorted(result.selected), str(result.objective)) == (selected, value)


@given(weights_strategy, st.data())
@settings(max_examples=25, deadline=None)
def test_cover_facts_outside_j_are_skipped_like_the_reference(weights, data):
    full = ibench_problem(6)
    # Every other J fact dropped: the cover tables still name them.
    thinned = replace(full, j_facts=full.j_facts[::2])
    assert any(t not in set(thinned.j_facts) for table in thinned.covers for t in table)
    selected = draw_selection(data, thinned)
    reference = objective_value(thinned, selected, weights)
    assert objective_evaluator(thinned, weights)(selected) == reference
    inc = IncrementalObjective(thinned, weights)
    for i in sorted(selected):
        inc.add(i)
    assert inc.value == reference
    greedy = solve_greedy(thinned, weights)
    assert greedy.objective == objective_value(thinned, greedy.selected, weights)


def test_building_the_index_changes_no_pickle_or_fingerprint():
    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    pickled, fingerprint = pickle.dumps(problem), problem_fingerprint(problem)
    problem.objective_index()
    assert pickle.dumps(problem) == pickled
    assert problem_fingerprint(problem) == fingerprint
    assert pickle.loads(pickled).objective_index().num_facts == len(problem.j_facts)


def test_index_is_stored_as_csr():
    problem = ibench_problem(24)
    index = problem.objective_index()
    assert problem.objective_index() is index
    nnz = sum(len(table) for table in problem.covers)
    assert len(index.cover_fact) == len(index.cover_num) == nnz
    assert len(index.cover_ptr) == problem.num_candidates + 1


def test_int64_overflow_of_the_common_denominator_is_refused():
    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    t = problem.j_facts[0]
    # L = 3 * 2**62, so |J| * L >= 2**63.
    huge = replace(problem, covers=[{t: Fraction(1, 2**62)}, {t: Fraction(1, 3)}])
    with pytest.raises(SelectionError, match="overflows int64"):
        huge.objective_index()
    assert objective_value(huge, [0, 1]) == len(problem.j_facts) - Fraction(1, 3) + 3 + 7
