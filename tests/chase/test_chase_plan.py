"""Differential tests: the compiled chase against literal nested loops.

Random st tgds put existentials in the head, repeat variables inside and
across body atoms, and hold constants in body and head; the source mixes
constants and nulls, ``Constant(1)`` next to ``Constant("1")``, and a
relation whose facts take two arities.  ``chase_single`` and ``chase``
must equal :mod:`tests.chase_reference` fact for fact, null label for
null label and in insertion order.  The same holds for every candidate
and the gold mapping of the nine scenarios that perfbench's
``select-p48`` workload draws from.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase.engine import ChasePlan, chase, chase_single
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import Constant, LabeledNull, NullFactory
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.mappings.atoms import Atom
from repro.mappings.parser import parse_tgd
from repro.mappings.terms import Variable
from repro.mappings.tgd import StTgd
from tests.chase_reference import reference_chase, reference_chase_single

#: Source relation -> the arities its facts (and body atoms) may take.
SOURCE = {"r": (2,), "s": (3,), "t": (1, 2)}
TARGET = {"u": (1, 2), "v": (3,)}
CONSTANTS = [Constant(1), Constant("1"), Constant("a"), Constant(2)]
NULLS = [LabeledNull(i) for i in range(3)]
UNIVERSALS = [Variable("X"), Variable("Y"), Variable("Z")]
EXISTENTIALS = [Variable("E"), Variable("F")]

constants = st.sampled_from(CONSTANTS)


@st.composite
def source_facts(draw):
    relation = draw(st.sampled_from(sorted(SOURCE)))
    arity = draw(st.sampled_from(SOURCE[relation]))
    values = st.one_of(constants, constants, st.sampled_from(NULLS))
    return Fact(relation, tuple(draw(values) for _ in range(arity)))


sources = st.lists(source_facts(), max_size=16).map(Instance)


@st.composite
def atoms(draw, schema, terms):
    relation = draw(st.sampled_from(sorted(schema)))
    arity = draw(st.sampled_from(schema[relation]))
    return Atom(relation, tuple(draw(terms) for _ in range(arity)))


@st.composite
def tgds(draw):
    body_terms = st.one_of(st.sampled_from(UNIVERSALS), st.sampled_from(UNIVERSALS), constants)
    body = draw(st.lists(atoms(SOURCE, body_terms), min_size=1, max_size=3))
    bound = sorted({t for a in body for t in a.terms if isinstance(t, Variable)}, key=repr)
    head_terms = st.one_of(st.sampled_from(EXISTENTIALS), constants)
    if bound:
        head_terms = st.one_of(st.sampled_from(bound), st.sampled_from(bound), head_terms)
    head = draw(st.lists(atoms(TARGET, head_terms), min_size=1, max_size=2))
    return StTgd(tuple(body), tuple(head))


def assert_same_chase(actual: Instance, expected: Instance) -> None:
    # Facts compare by relation and values, and values are interned, so
    # equal lists mean equal facts, equal null labels and equal order.
    assert list(actual) == list(expected)


@given(sources, tgds(), st.integers(min_value=0, max_value=5))
@settings(max_examples=300, deadline=None)
def test_chase_single_equals_the_nested_loop_chase(source, tgd, start):
    assert_same_chase(
        chase_single(source, tgd, NullFactory(start)),
        reference_chase_single(source, tgd, NullFactory(start)),
    )


@given(sources, st.lists(tgds(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_chase_equals_the_nested_loop_chase(source, tgd_list):
    actual = chase(source, tgd_list)
    expected = reference_chase(source, tgd_list)
    assert_same_chase(actual.instance, expected.instance)
    assert list(actual.by_tgd) == list(expected.by_tgd)
    for tgd, produced in expected.by_tgd.items():
        assert_same_chase(actual.by_tgd[tgd], produced)


def test_plan_is_cached_on_the_tgd_and_left_out_of_pickles():
    tgd = parse_tgd('r(X, Y) & s(Y, Z, "a") -> v(X, E, "b")')
    # The cached variable sets pickle with the tgd; the plan does not.
    assert tgd.existential_variables == {Variable("E")}
    before = pickle.dumps(tgd)
    source = Instance([Fact("r", (Constant(1), Constant(2)))])
    chase_single(source, tgd)
    plan = tgd.chase_plan
    assert isinstance(plan, ChasePlan)
    assert tgd.chase_plan is plan
    assert pickle.dumps(tgd) == before
    assert pickle.loads(pickle.dumps(tgd)) == tgd


#: perfbench's ``select-p48`` pool: pi_corresp -> (pi_errors, pi_unexplained, seeds).
SELECT_P48_POOL = {
    0: (25, 25, (2006345357, 2085050136, 912151271)),
    25: (0, 25, (1101828441, 2030895802, 1111005745)),
    50: (25, 0, (330020003, 1245147719, 1070784463)),
}


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(
            num_primitives=48, rows_per_relation=20, pi_corresp=level,
            pi_errors=errors, pi_unexplained=unexplained, seed=seed,
        )
        for level, (errors, unexplained, seeds) in SELECT_P48_POOL.items()
        for seed in seeds
    ],
    ids=lambda config: f"corresp{config.pi_corresp}-seed{config.seed}",
)
def test_pool_chases_equal_the_nested_loop_chase(config):
    scenario = generate_scenario(config)
    for candidate in scenario.candidates:
        assert_same_chase(
            chase_single(scenario.source, candidate),
            reference_chase_single(scenario.source, candidate),
        )
    gold = scenario.gold_mapping
    actual = chase(scenario.source, gold, NullFactory())
    expected = reference_chase(scenario.source, gold, NullFactory())
    assert_same_chase(actual.instance, expected.instance)
