"""Unit tests for constants, labeled nulls, and the null factory."""

import copy
import gc
import pickle

import pytest

from repro.datamodel import values
from repro.datamodel.instance import Instance, fact
from repro.datamodel.values import Constant, LabeledNull, NullFactory, is_null


def test_constants_compare_by_value():
    assert Constant("a") == Constant("a")
    assert Constant("a") != Constant("b")
    assert Constant(1) != Constant("1")
    assert Constant(1) == Constant(1)
    assert Constant(1.5) == Constant(1.5)


def test_values_are_interned():
    assert Constant("a") is Constant("a")
    assert Constant(7) is Constant(7)
    assert LabeledNull(3) is LabeledNull(3)
    assert fact("r", "a", 1).values[0] is Constant("a")


def test_payloads_of_different_types_are_distinct_constants():
    # The payloads compare equal, but a constant is keyed by its type too.
    assert Constant(1) != Constant(1.0)
    assert Constant(1) != Constant(True)
    assert Constant(1.0) != Constant(True)
    assert len({Constant(1), Constant(1.0), Constant(True)}) == 3
    assert type(Constant(1.0).value) is float


@pytest.mark.parametrize("value", [Constant("a"), Constant(3), LabeledNull(4)])
def test_pickle_and_copy_return_the_interned_value(value):
    assert pickle.loads(pickle.dumps(value)) is value
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value


def test_pickled_instance_round_trips_to_interned_values():
    null = LabeledNull(9)
    inst = Instance([fact("r", "a", 1), fact("s", null, "b")])
    restored = pickle.loads(pickle.dumps(inst))
    assert restored == inst
    assert [f.values for f in restored] == [f.values for f in inst]
    for before, after in zip(inst, restored):
        assert all(a is b for a, b in zip(after.values, before.values))


@pytest.mark.parametrize("value", [Constant("a"), LabeledNull(2)])
def test_values_are_immutable(value):
    with pytest.raises(AttributeError):
        value.value = "b"
    with pytest.raises(AttributeError):
        value.label = 5
    with pytest.raises(AttributeError):
        value.other = 1
    with pytest.raises(AttributeError):
        del value.value
    with pytest.raises(AttributeError):
        del value.label


def test_intern_tables_hold_only_live_values():
    from repro.evaluation import engine
    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario
    from repro.selection import collective

    # Earlier tests leave problems in the process-wide caches, and their
    # values would fill labels this scenario would otherwise make anew.
    collective.GROUNDING_CACHE.clear()
    engine._PROCESS_CACHE.clear()
    gc.collect()
    before = (len(values._constants), len(values._nulls))
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=6, pi_corresp=50, pi_errors=50, seed=1)
    )
    assert len(values._constants) > before[0]
    assert len(values._nulls) > before[1]
    del scenario
    gc.collect()
    assert (len(values._constants), len(values._nulls)) == before


def test_nulls_compare_by_label():
    assert LabeledNull(0) == LabeledNull(0)
    assert LabeledNull(0) != LabeledNull(1)


def test_constant_and_null_never_equal():
    assert Constant(0) != LabeledNull(0)


def test_is_null_and_is_constant():
    assert is_null(LabeledNull(3))
    assert not is_null(Constant(3))


def test_values_are_hashable():
    s = {Constant("a"), LabeledNull(1), Constant("a")}
    assert len(s) == 2


def test_null_factory_produces_distinct_labels():
    factory = NullFactory()
    produced = [factory.fresh() for _ in range(100)]
    assert len(set(produced)) == 100


def test_null_factory_start_offset():
    factory = NullFactory(start=42)
    assert factory.fresh() == LabeledNull(42)
    assert factory.fresh() == LabeledNull(43)


def test_two_factories_collide_without_offset():
    # Documents why chase runs must share a factory.
    a, b = NullFactory(), NullFactory()
    assert a.fresh() == b.fresh()


def test_repr_forms():
    assert repr(LabeledNull(7)) == "N7"
    assert repr(Constant("SAP")) == "SAP"
