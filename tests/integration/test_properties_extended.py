"""Property-based tests for the extension modules."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.datamodel.instance import Instance, fact
from repro.datamodel.values import LabeledNull
from repro.io.serialize import instance_from_json, instance_to_json
from repro.psl.rounding import randomized_rounding, round_solution
from repro.selection.exact import solve_milp
from repro.selection.objective import objective_value
from repro.selection.preprocess import preprocess

from tests.integration.test_properties import selection_problems

# --- values & instances --------------------------------------------------------

mixed_values = st.one_of(
    st.integers(0, 5),
    st.text(alphabet="abc", min_size=1, max_size=3),
    st.builds(LabeledNull, st.integers(0, 3)),
)


@st.composite
def random_instances(draw):
    facts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["r", "s"]),
                st.lists(mixed_values, min_size=1, max_size=3),
            ),
            max_size=10,
        )
    )
    return Instance(fact(name, *vals) for name, vals in facts)


@given(random_instances())
@settings(max_examples=60, deadline=None)
def test_instance_json_roundtrip(instance):
    assert instance_from_json(instance_to_json(instance)) == instance


# --- preprocessing and rounding over random selection problems ------------------


@given(selection_problems())
@settings(max_examples=25, deadline=None)
def test_preprocess_preserves_optimum_property(problem):
    result = preprocess(problem)
    reduced_opt = solve_milp(result.problem)
    original_opt = solve_milp(problem)
    assert reduced_opt.objective + result.objective_offset == original_opt.objective
    assert (
        objective_value(problem, result.translate(reduced_opt.selected))
        == original_opt.objective
    )


@given(
    st.dictionaries(st.integers(0, 6), st.floats(0, 1), max_size=6),
    st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_rounding_outputs_are_subsets_and_sane(fractional, seed):
    objective = lambda s: Fraction(len(s))  # noqa: E731 - empty set optimal

    swept = round_solution(fractional, objective)
    randomized = randomized_rounding(fractional, objective, trials=8, seed=seed)
    for result in (swept, randomized):
        assert result <= set(fractional)
        assert objective(result) <= min(
            objective(frozenset()), objective(frozenset(fractional))
        )
