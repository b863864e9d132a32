"""Differential tests: one-pass greedy against the per-candidate reference.

:func:`~repro.selection.greedy.solve_greedy` prices every candidate of a
round in one numpy pass; ``tests/selection/greedy_reference.py`` keeps
the greedy that priced them one ``Fraction`` at a time.  Both must select
the same candidates and reach the same exact objective, on the int64
route and on the Python-int route that weights too large for int64 take.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.datamodel.instance import Instance, fact
from repro.examples_data import paper_example
from repro.mappings.parser import parse_tgds
from repro.selection.greedy import solve_greedy
from repro.selection.index import INT64_LIMIT
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import (
    IncrementalObjective,
    ObjectiveWeights,
    objective_value,
)
from tests.integration.test_properties import selection_problems, weights_strategy
from tests.selection.greedy_reference import reference_greedy
from tests.selection.test_objective_index import ibench_problem


def assert_matches_reference(problem, weights):
    result = solve_greedy(problem, weights)
    reference = reference_greedy(problem, weights)
    assert result.selected == reference.selected
    assert result.objective == reference.objective
    assert isinstance(result.objective, Fraction)


def appendix_problem(extra_projects):
    ex = paper_example(extra_projects=extra_projects)
    return build_selection_problem(ex.source, ex.target, ex.candidates)


def error_free_problem():
    """Two candidates, each explaining three facts no other one does, for size 2."""
    source = Instance([fact("r", i) for i in range(3)])
    target = Instance([fact(name, i) for name in ("u", "v") for i in range(3)])
    return build_selection_problem(
        source, target, parse_tgds("r(X) -> u(X)\nr(X) -> v(X)")
    )


#: Primes just under 2**62: a weight over one of them stays unreduced.
PRIMES_NEAR_2_62 = (2**62 - 57, 2**62 - 87, 2**62 - 117)


def _over_prime(low, high):
    """A weight strictly between *low* and *high* over a prime near 2**62."""
    return st.sampled_from(PRIMES_NEAR_2_62).flatmap(
        lambda p: st.builds(Fraction, st.integers(low * p + 1, high * p - 1), st.just(p))
    )


# Explains above 3 has a numerator above 3 * (2**62 - 117) > 2**63, and
# its scaled integer is a multiple of that numerator, so every problem
# takes the Python-int route; errors and size may be 0.
overflowing_weights = st.builds(
    ObjectiveWeights,
    _over_prime(3, 5),
    st.one_of(st.just(Fraction(0)), _over_prime(0, 5)),
    st.one_of(st.just(Fraction(0)), _over_prime(0, 5)),
)


@given(st.sampled_from((3, 6, 9, 12)), weights_strategy)
@settings(max_examples=30, deadline=None)
def test_greedy_matches_reference_on_ibench(primitives, weights):
    assert_matches_reference(ibench_problem(primitives), weights)


@given(selection_problems(), weights_strategy)
@settings(max_examples=60, deadline=None)
def test_greedy_matches_reference_on_random_problems(problem, weights):
    assert_matches_reference(problem, weights)


@given(st.sampled_from((0, 5)), weights_strategy)
@settings(max_examples=20, deadline=None)
def test_greedy_matches_reference_on_appendix_example(extra_projects, weights):
    assert_matches_reference(appendix_problem(extra_projects), weights)


@given(st.sampled_from((0, 6, 12)), overflowing_weights)
@settings(max_examples=20, deadline=None)
def test_greedy_matches_reference_past_int64(primitives, weights):
    problem = appendix_problem(5) if primitives == 0 else ibench_problem(primitives)
    assert IncrementalObjective(problem, weights).add_deltas().dtype == object
    assert_matches_reference(problem, weights)


def test_int64_route_is_exact_up_to_its_bound():
    # With errors and size off, the bound is explains * |J| * L: the
    # largest integer weight under 2**63 keeps int64, one more leaves it.
    problem = appendix_problem(5)
    full_cover = problem.objective_index().full_cover
    limit = (INT64_LIMIT - 1) // full_cover
    for explains, dtype in ((limit, "int64"), (limit + 1, "object")):
        weights = ObjectiveWeights(Fraction(explains), Fraction(0), Fraction(0))
        assert IncrementalObjective(problem, weights).add_deltas().dtype == dtype
        assert_matches_reference(problem, weights)


def test_huge_weight_on_an_empty_term_leaves_int64():
    # The problem has no error fact, so every error count is 0, but
    # numpy still multiplies the 2**70 weight into the int64 array.
    problem = error_free_problem()
    assert problem.objective_index().num_error_facts == 0
    weights = ObjectiveWeights(Fraction(1), Fraction(2**70), Fraction(1))
    assert IncrementalObjective(problem, weights).add_deltas().dtype == object
    assert_matches_reference(problem, weights)


def test_greedy_on_zero_candidates_returns_the_empty_selection():
    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, [])
    result = solve_greedy(problem)
    assert result.selected == frozenset()
    assert result.objective == objective_value(problem, []) == len(problem.j_facts)


def test_greedy_that_selects_every_candidate_stops():
    problem = error_free_problem()
    result = solve_greedy(problem)
    assert result.selected == frozenset({0, 1})
    assert result.objective == objective_value(problem, [0, 1])
    inc = IncrementalObjective(problem)
    for i in result.selected:
        inc.add(i)
    assert inc.add_deltas().tolist() == [0, 0]

