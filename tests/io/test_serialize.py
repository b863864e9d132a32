"""Unit tests for JSON serialization round-trips."""

import pytest

from repro.datamodel.instance import Instance, fact
from repro.datamodel.schema import ForeignKey, Schema, relation
from repro.datamodel.values import LabeledNull
from repro.io.serialize import (
    SerializationError,
    instance_from_json,
    instance_to_json,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    schema_from_json,
    schema_to_json,
    tgd_from_json,
    tgd_to_json,
    value_from_json,
    value_to_json,
)


def test_value_roundtrip():
    from repro.datamodel.values import Constant

    for value in (Constant("a"), Constant(3), LabeledNull(7)):
        assert value_from_json(value_to_json(value)) == value


def test_bad_value_payload_rejected():
    with pytest.raises(SerializationError):
        value_from_json({"nope": 1})


def test_instance_roundtrip_with_nulls():
    inst = Instance([fact("r", 1, LabeledNull(0)), fact("s", "x")])
    assert instance_from_json(instance_to_json(inst)) == inst


def test_bad_fact_payload_rejected():
    with pytest.raises(SerializationError):
        instance_from_json([["r"]])


def test_schema_roundtrip_with_fks():
    schema = Schema("T")
    schema.add(relation("t1", "a", "f"))
    schema.add(relation("t2", "f", "b", key=("f",)))
    schema.add_foreign_key(ForeignKey("t1", ("f",), "t2", ("f",)))
    restored = schema_from_json(schema_to_json(schema))
    assert restored.name == "T"
    assert restored.get("t2").key == ("f",)
    assert len(restored.foreign_keys) == 1


def test_tgd_roundtrip_for_generated_candidates():
    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario

    scenario = generate_scenario(ScenarioConfig(num_primitives=3, seed=2, pi_corresp=50))
    for candidate in scenario.candidates:
        restored = tgd_from_json(tgd_to_json(candidate))
        assert restored.canonical() == candidate.canonical()


def test_scenario_roundtrip(tmp_path):
    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario

    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=3, seed=5, pi_corresp=50, pi_errors=20, pi_unexplained=20
        )
    )
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    restored = load_scenario(path)

    assert restored.config == scenario.config
    assert restored.source == scenario.source
    assert restored.target == scenario.target
    assert restored.reference_target == scenario.reference_target
    assert restored.gold_indices == scenario.gold_indices
    assert [c.canonical() for c in restored.candidates] == [
        c.canonical() for c in scenario.candidates
    ]
    assert set(restored.added_facts) == set(scenario.added_facts)
    assert set(restored.deleted_facts) == set(scenario.deleted_facts)


def test_restored_scenario_selects_identically(tmp_path):
    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario
    from repro.selection.greedy import solve_greedy

    scenario = generate_scenario(ScenarioConfig(num_primitives=3, seed=6, pi_corresp=50))
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    restored = load_scenario(path)

    original = solve_greedy(scenario.selection_problem())
    roundtripped = solve_greedy(restored.selection_problem())
    assert original.objective == roundtripped.objective


def test_scenario_json_is_plain_data():
    import json

    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario

    scenario = generate_scenario(ScenarioConfig(num_primitives=2, seed=1))
    payload = scenario_to_json(scenario)
    text = json.dumps(payload)  # must not raise
    assert scenario_from_json(json.loads(text)).config == scenario.config


def test_non_json_scenario_file_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json")
    with pytest.raises(SerializationError, match="not JSON"):
        load_scenario(path)


def test_scenario_payload_missing_key_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"bad": 1}')
    with pytest.raises(SerializationError, match="missing key 'config'"):
        load_scenario(path)


@pytest.mark.parametrize("gold", [[99], [-1], [0, 99]])
def test_gold_index_outside_candidates_rejected(tmp_path, gold):
    import json

    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario

    payload = scenario_to_json(generate_scenario(ScenarioConfig(num_primitives=2, seed=1)))
    payload["gold_indices"] = gold
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SerializationError, match="gold indices"):
        load_scenario(path)
