"""Unit tests for source-instance population."""

import random

import pytest

from repro.datamodel.schema import ForeignKey, Schema, relation
from repro.errors import ScenarioError
from repro.ibench.datagen import populate


def test_row_counts():
    schema = Schema("S")
    schema.add(relation("r", "a", "b"))
    schema.add(relation("s", "x"))
    inst = populate(schema, 7, random.Random(0))
    assert len(inst.facts_of("r")) == 7
    assert len(inst.facts_of("s")) == 7


def test_key_attributes_are_unique():
    schema = Schema("S")
    schema.add(relation("r", "k", "v", key=("k",)))
    inst = populate(schema, 20, random.Random(0))
    keys = [f.values[0] for f in inst.facts_of("r")]
    assert len(set(keys)) == 20


def test_fk_values_reference_parent_keys():
    schema = Schema("S")
    schema.add(relation("parent", "k", key=("k",)))
    schema.add(relation("child", "k", "v"))
    schema.add_foreign_key(ForeignKey("child", ("k",), "parent", ("k",)))
    inst = populate(schema, 10, random.Random(0))
    parent_keys = {f.values[0] for f in inst.facts_of("parent")}
    for f in inst.facts_of("child"):
        assert f.values[0] in parent_keys


def test_me_style_join_is_nonempty():
    from repro.chase.engine import chase_single
    from repro.mappings.parser import parse_tgd

    schema = Schema("S")
    schema.add(relation("s1", "k", "a", key=("k",)))
    schema.add(relation("s2", "k", "b"))
    schema.add_foreign_key(ForeignKey("s2", ("k",), "s1", ("k",)))
    inst = populate(schema, 10, random.Random(1))
    joined = chase_single(inst, parse_tgd("s1(K, A) & s2(K, B) -> t(K, A, B)"))
    assert len(joined) >= 10  # every s2 row joins with its parent


def test_value_pool_bounds_distinct_values():
    schema = Schema("S")
    schema.add(relation("r", "a"))
    inst = populate(schema, 100, random.Random(0), value_pool=3)
    values = {f.values[0] for f in inst.facts_of("r")}
    assert len(values) <= 3


def test_deterministic_under_seed():
    schema = Schema("S")
    schema.add(relation("r", "a", "b"))
    a = populate(schema, 10, random.Random(42))
    b = populate(schema, 10, random.Random(42))
    assert a == b


def test_cyclic_fks_rejected():
    schema = Schema("S")
    schema.add(relation("a", "x"))
    schema.add(relation("b", "x"))
    schema.add_foreign_key(ForeignKey("a", ("x",), "b", ("x",)))
    schema.add_foreign_key(ForeignKey("b", ("x",), "a", ("x",)))
    with pytest.raises(ScenarioError):
        populate(schema, 3, random.Random(0))


def test_instance_validates_against_schema():
    schema = Schema("S")
    schema.add(relation("r", "a", "b", "c"))
    inst = populate(schema, 5, random.Random(0))
    inst.validate_against(schema)


@pytest.mark.parametrize("value_pool", [1, 3, 8])
def test_draw_plans_equal_the_value_by_value_reference(value_pool):
    # Keys, a two-level FK chain, pooled values and, with a small pool,
    # rows retried as duplicates: the same facts in the same order, and
    # the same rng calls.
    from tests.ibench.generation_reference import reference_populate

    schema = Schema("S")
    schema.add(relation("parent", "k", "a", key=("k",)))
    schema.add(relation("child", "c", "k", "b", key=("c",)))
    schema.add(relation("grandchild", "c", "d"))
    schema.add(relation("loose", "x", "y"))
    schema.add_foreign_key(ForeignKey("child", ("k",), "parent", ("k",)))
    schema.add_foreign_key(ForeignKey("grandchild", ("c",), "child", ("c",)))
    for seed in range(5):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        instance = populate(schema, 12, rng, value_pool)
        reference = reference_populate(schema, 12, reference_rng, value_pool)
        assert list(instance) == list(reference)
        assert rng.getstate() == reference_rng.getstate()
