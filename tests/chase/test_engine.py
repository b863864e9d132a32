"""Unit tests for the chase engine."""

import pytest

from repro.chase.engine import chase, chase_single, exchanged_instance, match_body
from repro.datamodel.instance import Instance, fact
from repro.datamodel.values import LabeledNull, NullFactory
from repro.mappings.parser import parse_tgd, parse_tgds


@pytest.fixture
def source():
    return Instance(
        [
            fact("proj", "BigData", "Bob", "IBM"),
            fact("proj", "ML", "Alice", "SAP"),
        ]
    )


def test_full_tgd_copies_tuples(source):
    t = parse_tgd("proj(P, E, C) -> copy(P, E, C)")
    result = chase_single(source, t)
    assert set(result) == {
        fact("copy", "BigData", "Bob", "IBM"),
        fact("copy", "ML", "Alice", "SAP"),
    }


def test_existential_creates_fresh_null_per_firing(source):
    t = parse_tgd("proj(P, E, C) -> task(P, E, O)")
    result = chase_single(source, t)
    assert len(result) == 2
    nulls = result.nulls
    assert len(nulls) == 2  # distinct null per firing


def test_shared_existential_within_head(source):
    t = parse_tgd("proj(P, E, C) -> task(P, E, O) & org(O, C)")
    result = chase_single(source, t)
    assert len(result) == 4
    # nulls are shared between the task and org fact of the same firing
    for task in result.facts_of("task"):
        null = task.values[2]
        assert any(org.values[0] == null for org in result.facts_of("org"))


def test_distinct_tgds_use_distinct_nulls(source):
    t1 = parse_tgd("proj(P, E, C) -> task(P, E, O)")
    t2 = parse_tgd("proj(P, E, C) -> task(P, E, O)")
    result = chase(source, [t1, t2])
    assert len(result.instance) == 4  # isomorphic but distinct facts
    assert len(result.by_tgd[t1]) == 2
    assert len(result.by_tgd[t2]) == 2


def test_join_body(source):
    source.add(fact("emp", "Alice", "Toronto"))
    t = parse_tgd("proj(P, E, C) & emp(E, L) -> loc(P, L)")
    result = chase_single(source, t)
    assert set(result) == {fact("loc", "ML", "Toronto")}


def test_constant_in_body_filters(source):
    t = parse_tgd('proj(P, E, "SAP") -> sap(P)')
    result = chase_single(source, t)
    assert set(result) == {fact("sap", "ML")}


def test_constant_in_head_is_materialized(source):
    t = parse_tgd('proj(P, E, C) -> tagged(P, "x")')
    result = chase_single(source, t)
    assert fact("tagged", "ML", "x") in result


def test_repeated_variable_in_body_enforces_equality():
    inst = Instance([fact("r", 1, 1), fact("r", 1, 2)])
    t = parse_tgd("r(X, X) -> diag(X)")
    assert set(chase_single(inst, t)) == {fact("diag", 1)}


def test_empty_source_produces_empty_chase():
    t = parse_tgd("r(X) -> s(X)")
    assert len(chase_single(Instance(), t)) == 0


def test_shared_null_factory_prevents_collisions(source):
    factory = NullFactory()
    t = parse_tgd("proj(P, E, C) -> task(P, E, O)")
    first = chase_single(source, t, factory)
    second = chase_single(source, t, factory)
    assert first.nulls.isdisjoint(second.nulls)


def test_exchanged_instance_unions_all_tgds(source):
    tgds = parse_tgds("proj(P, E, C) -> t1(P); proj(P, E, C) -> t2(E)")
    result = exchanged_instance(source, tgds)
    assert result.facts_of("t1") and result.facts_of("t2")


def test_match_body_enumerates_each_assignment_once(source):
    t = parse_tgd("proj(P, E, C) -> x(P)")
    assignments = list(match_body(t.body, source))
    assert len(assignments) == 2


def test_match_body_cross_product_when_unjoined():
    inst = Instance([fact("a", 1), fact("a", 2), fact("b", 3), fact("b", 4)])
    t = parse_tgd("a(X) & b(Y) -> c(X, Y)")
    assert len(chase_single(inst, t)) == 4


def test_deduplication_of_identical_ground_facts():
    inst = Instance([fact("r", 1, "x"), fact("r", 1, "y")])
    t = parse_tgd("r(X, Y) -> s(X)")
    assert len(chase_single(inst, t)) == 1  # s(1) produced twice, stored once
