"""Property-based tests for the extension modules."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.chase.target import chase_target, violates_keys
from repro.datamodel.instance import Instance, fact
from repro.datamodel.schema import ForeignKey, Schema, relation
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


# --- target chase ---------------------------------------------------------------

_target_schema = Schema("T")
_target_schema.add(relation("org", "oid", "company", key=("oid",)))
_target_schema.add(relation("task", "pname", "oid"))
_target_schema.add_foreign_key(ForeignKey("task", ("oid",), "org", ("oid",)))


@st.composite
def target_instances(draw):
    facts = []
    for __ in range(draw(st.integers(0, 6))):
        oid = draw(st.one_of(st.integers(0, 2), st.builds(LabeledNull, st.integers(0, 2))))
        company = draw(st.one_of(st.sampled_from(["sap", "ibm"]), st.builds(LabeledNull, st.integers(3, 5))))
        facts.append(fact("org", oid, company))
    for __ in range(draw(st.integers(0, 6))):
        oid = draw(st.one_of(st.integers(0, 2), st.builds(LabeledNull, st.integers(0, 2))))
        facts.append(fact("task", draw(st.sampled_from(["ml", "cv"])), oid))
    return Instance(facts)


@given(target_instances())
@settings(max_examples=80, deadline=None)
def test_target_chase_postconditions(instance):
    result = chase_target(instance, _target_schema)
    if result.failed:
        return  # constant/constant key conflict: no solution exists
    repaired = result.instance
    # Keys hold and every FK child has its parent.
    assert not violates_keys(repaired, _target_schema)
    parent_keys = {f.values[0] for f in repaired.facts_of("org")}
    for child in repaired.facts_of("task"):
        assert child.values[1] in parent_keys


@given(target_instances())
@settings(max_examples=60, deadline=None)
def test_target_chase_idempotent(instance):
    first = chase_target(instance, _target_schema)
    if first.failed:
        return
    second = chase_target(first.instance, _target_schema)
    assert not second.failed
    assert second.unifications == 0
    assert second.invented == []
    assert second.instance == first.instance


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
