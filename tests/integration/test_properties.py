"""Property-based tests (hypothesis) for core invariants."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.chase.engine import chase
from repro.datamodel.instance import Instance, fact
from repro.datamodel.values import NullFactory
from repro.homomorphism.search import fact_matches, find_homomorphism
from repro.mappings.atoms import Atom
from repro.mappings.parser import parse_tgd
from repro.mappings.tgd import StTgd
from repro.mappings.terms import Variable
from repro.selection.exact import solve_exhaustive, solve_milp
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import (
    IncrementalObjective,
    ObjectiveWeights,
    objective_value,
)

# --- strategies -----------------------------------------------------------

values = st.integers(min_value=0, max_value=4)
relation_names = st.sampled_from(["r", "s"])
target_names = st.sampled_from(["u", "v"])


@st.composite
def instances(draw, names=relation_names, arity=2, max_facts=8):
    facts = draw(
        st.lists(
            st.tuples(names, st.tuples(*[values] * arity)),
            max_size=max_facts,
        )
    )
    return Instance(fact(name, *vals) for name, vals in facts)


@st.composite
def full_tgds(draw):
    body_rel = draw(relation_names)
    head_rel = draw(target_names)
    # permutation / projection of two body variables
    xs = [Variable("X0"), Variable("X1")]
    head_terms = draw(st.lists(st.sampled_from(xs), min_size=1, max_size=2))
    return StTgd((Atom(body_rel, tuple(xs)),), (Atom(head_rel, tuple(head_terms)),))


@st.composite
def existential_tgds(draw):
    body_rel = draw(relation_names)
    head_rel = draw(target_names)
    xs = [Variable("X0"), Variable("X1")]
    choices = xs + [Variable("E0")]
    head_terms = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3))
    return StTgd((Atom(body_rel, tuple(xs)),), (Atom(head_rel, tuple(head_terms)),))


# --- chase properties -------------------------------------------------------


@given(instances(), st.lists(existential_tgds(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_chase_runs_are_isomorphic_up_to_nulls(source, tgds):
    """Two chase runs differ only in null labels: homomorphic both ways."""
    a = chase(source, tgds, NullFactory(0)).instance
    b = chase(source, tgds, NullFactory(10_000)).instance
    assert find_homomorphism(a, b) is not None
    assert find_homomorphism(b, a) is not None


@given(instances(), full_tgds())
@settings(max_examples=60, deadline=None)
def test_full_tgd_chase_is_deterministic_and_ground(source, tgd):
    result = chase(source, [tgd]).instance
    assert result.is_ground
    assert result == chase(source, [tgd]).instance


@given(instances(), st.lists(existential_tgds(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_chase_of_subset_of_tgds_maps_into_full_chase(source, tgds):
    sub = chase(source, tgds[:1]).instance
    full = chase(source, tgds).instance
    assert find_homomorphism(sub, full) is not None


# --- homomorphism properties ------------------------------------------------


@given(instances(names=st.sampled_from(["r"])), instances(names=st.sampled_from(["r"])))
@settings(max_examples=60, deadline=None)
def test_fact_matches_binding_actually_maps(a, b):
    for f in a:
        for g in b.facts_of(f.relation):
            binding = fact_matches(f, g)
            if binding is not None:
                assert f.substitute(binding) == g


# --- canonicalization properties ---------------------------------------------


@given(existential_tgds(), st.permutations(["A", "B", "C", "X0", "X1", "E0"]))
@settings(max_examples=60, deadline=None)
def test_canonical_invariant_under_renaming(tgd, fresh_names):
    renaming = {
        v: Variable(f"fresh_{fresh_names[i]}")
        for i, v in enumerate(sorted(tgd.universal_variables | tgd.existential_variables, key=lambda v: v.name))
    }
    assert tgd.rename(renaming).canonical() == tgd.canonical()


# --- selection objective properties ------------------------------------------


@st.composite
def selection_problems(draw):
    source = draw(instances(max_facts=6))
    target = draw(instances(names=target_names, max_facts=6))
    tgds = draw(st.lists(existential_tgds(), min_size=1, max_size=4))
    return build_selection_problem(source, target, tgds)


weight_values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=5, max_denominator=6),
)
weights_strategy = st.builds(ObjectiveWeights, weight_values, weight_values, weight_values)


@given(selection_problems(), st.data())
@settings(max_examples=40, deadline=None)
def test_size_and_error_terms_monotone_coverage_antimonotone(problem, data):
    from repro.selection.objective import objective_breakdown

    n = problem.num_candidates
    small = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    large = small | extra
    b_small = objective_breakdown(problem, small)
    b_large = objective_breakdown(problem, large)
    assert b_large.size >= b_small.size
    assert b_large.errors >= b_small.errors
    assert b_large.unexplained <= b_small.unexplained


@given(selection_problems(), weights_strategy)
@settings(max_examples=60, deadline=None)
def test_branch_and_bound_matches_exhaustive(problem, weights):
    # Zero weights make ties and free candidates; F must still match.
    assert (
        solve_milp(problem, weights).objective
        == solve_exhaustive(problem, weights).objective
    )


@given(selection_problems(), weights_strategy)
@settings(max_examples=60, deadline=None)
def test_admm_energy_matches_lp_relaxation_which_bounds_exact(problem, weights):
    from tests.collective_reference import assert_admm_solves_the_lp

    assert_admm_solves_the_lp(problem, weights)


@given(selection_problems())
@settings(max_examples=30, deadline=None)
def test_greedy_never_beats_exact_and_never_worse_than_trivial(problem):
    greedy = solve_greedy(problem)
    exact = solve_milp(problem)
    assert exact.objective <= greedy.objective
    assert greedy.objective <= objective_value(problem, [])
    assert greedy.objective <= objective_value(problem, range(problem.num_candidates))


@given(selection_problems(), st.data())
@settings(max_examples=40, deadline=None)
def test_incremental_objective_tracks_batch_under_random_moves(problem, data):
    inc = IncrementalObjective(problem)
    n = problem.num_candidates
    moves = data.draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, n - 1)), max_size=12)
    )
    for add, i in moves:
        if add:
            inc.add(i)
        else:
            inc.remove(i)
        assert inc.value == objective_value(problem, inc.selected)


@given(selection_problems())
@settings(max_examples=20, deadline=None)
def test_collective_upper_bounds_exact_and_beats_trivial(problem):
    from repro.selection.collective import solve_collective

    collective = solve_collective(problem)
    exact = solve_milp(problem)
    assert exact.objective <= collective.objective
    trivial = min(
        objective_value(problem, []),
        objective_value(problem, range(problem.num_candidates)),
    )
    assert collective.objective <= trivial


@given(selection_problems())
@settings(max_examples=30, deadline=None)
def test_objective_values_are_exact_fractions(problem):
    value = objective_value(problem, range(problem.num_candidates))
    assert isinstance(value, Fraction)
    assert value >= 0
