"""JSON (de)serialization of schemas, instances, tgds, and scenarios.

A stable on-disk format so scenarios can be generated once and re-used
across runs, and so real-world inputs can be authored by hand:

* values: constants as-is; labeled nulls as ``{"null": <label>}``;
* facts: ``[relation, [values...]]``;
* tgds: the textual format of :mod:`repro.mappings.parser`;
* scenarios: one JSON object carrying schemas, instances, candidates,
  gold indices, and the generation config.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.candidates.correspondence import Correspondence
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.schema import Attribute, ForeignKey, Relation, Schema
from repro.datamodel.values import Constant, LabeledNull, Value
from repro.errors import ReproError
from repro.ibench.config import ScenarioConfig
from repro.ibench.scenario import Scenario
from repro.mappings.parser import parse_tgd
from repro.mappings.tgd import StTgd


class SerializationError(ReproError):
    """The payload does not match the expected format."""


# -- values -------------------------------------------------------------------


def value_to_json(value: Value) -> object:
    if isinstance(value, LabeledNull):
        return {"null": value.label}
    return value.value


def value_from_json(payload: object) -> Value:
    if isinstance(payload, dict):
        if set(payload) != {"null"}:
            raise SerializationError(f"bad value payload: {payload!r}")
        return LabeledNull(int(payload["null"]))
    return Constant(payload)


# -- instances ----------------------------------------------------------------


def instance_to_json(instance: Instance) -> list:
    return [
        [f.relation, [value_to_json(v) for v in f.values]]
        for f in sorted(instance, key=repr)
    ]


def instance_from_json(payload: list) -> Instance:
    facts = []
    for entry in payload:
        if not isinstance(entry, list) or len(entry) != 2:
            raise SerializationError(f"bad fact payload: {entry!r}")
        relation, values = entry
        facts.append(Fact(relation, tuple(value_from_json(v) for v in values)))
    return Instance(facts)


# -- schemas ------------------------------------------------------------------


def schema_to_json(schema: Schema) -> dict:
    return {
        "name": schema.name,
        "relations": [
            {
                "name": rel.name,
                "attributes": list(rel.attribute_names),
                "key": list(rel.key),
            }
            for rel in schema.relations.values()
        ],
        "foreign_keys": [
            {
                "source": fk.source,
                "source_attributes": list(fk.source_attributes),
                "target": fk.target,
                "target_attributes": list(fk.target_attributes),
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_from_json(payload: dict) -> Schema:
    schema = Schema(payload["name"])
    for rel in payload["relations"]:
        schema.add(
            Relation(
                rel["name"],
                tuple(Attribute(a) for a in rel["attributes"]),
                tuple(rel.get("key", ())),
            )
        )
    for fk in payload.get("foreign_keys", ()):
        schema.add_foreign_key(
            ForeignKey(
                fk["source"],
                tuple(fk["source_attributes"]),
                fk["target"],
                tuple(fk["target_attributes"]),
            )
        )
    return schema


# -- tgds and correspondences ---------------------------------------------------


def tgd_to_json(tgd: StTgd) -> str:
    return repr(tgd)


def tgd_from_json(payload: str) -> StTgd:
    return parse_tgd(payload)


def correspondence_to_json(c: Correspondence) -> list:
    return [c.source_relation, c.source_attribute, c.target_relation, c.target_attribute]


def correspondence_from_json(payload: list) -> Correspondence:
    return Correspondence(*payload)


# -- scenarios -----------------------------------------------------------------


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "config": {
            "num_primitives": scenario.config.num_primitives,
            "primitive_kinds": list(scenario.config.primitive_kinds),
            "rows_per_relation": scenario.config.rows_per_relation,
            "value_pool": scenario.config.value_pool,
            "pi_corresp": scenario.config.pi_corresp,
            "pi_errors": scenario.config.pi_errors,
            "pi_unexplained": scenario.config.pi_unexplained,
            "add_remove_range": list(scenario.config.add_remove_range),
            "seed": scenario.config.seed,
        },
        "source_schema": schema_to_json(scenario.source_schema),
        "target_schema": schema_to_json(scenario.target_schema),
        "source": instance_to_json(scenario.source),
        "target": instance_to_json(scenario.target),
        "reference_target": instance_to_json(scenario.reference_target),
        "correspondences": [correspondence_to_json(c) for c in scenario.correspondences],
        "candidates": [tgd_to_json(c) for c in scenario.candidates],
        "gold_indices": list(scenario.gold_indices),
        "deleted_facts": instance_to_json(Instance(scenario.deleted_facts)),
        "added_facts": instance_to_json(Instance(scenario.added_facts)),
    }


def scenario_from_json(payload: dict) -> Scenario:
    """Rebuild a scenario; a malformed payload raises :class:`SerializationError`."""
    if not isinstance(payload, dict):
        raise SerializationError(
            f"scenario payload must be an object, got {type(payload).__name__}"
        )
    try:
        scenario = _scenario_from_json(payload)
    except KeyError as exc:
        raise SerializationError(f"scenario payload is missing key {exc}") from exc
    gold = scenario.gold_indices
    bad = [i for i in gold if type(i) is not int or not 0 <= i < len(scenario.candidates)]
    if bad:
        raise SerializationError(
            f"gold indices {bad} are not candidate indices "
            f"(the scenario has {len(scenario.candidates)} candidates)"
        )
    return scenario


def _scenario_from_json(payload: dict) -> Scenario:
    cfg = payload["config"]
    config = ScenarioConfig(
        num_primitives=cfg["num_primitives"],
        primitive_kinds=tuple(cfg["primitive_kinds"]),
        rows_per_relation=cfg["rows_per_relation"],
        value_pool=cfg["value_pool"],
        pi_corresp=cfg["pi_corresp"],
        pi_errors=cfg["pi_errors"],
        pi_unexplained=cfg["pi_unexplained"],
        add_remove_range=tuple(cfg["add_remove_range"]),
        seed=cfg["seed"],
    )
    return Scenario(
        config=config,
        primitives=[],  # primitive objects are generation artifacts, not persisted
        source_schema=schema_from_json(payload["source_schema"]),
        target_schema=schema_from_json(payload["target_schema"]),
        source=instance_from_json(payload["source"]),
        target=instance_from_json(payload["target"]),
        reference_target=instance_from_json(payload["reference_target"]),
        correspondences=[
            correspondence_from_json(c) for c in payload["correspondences"]
        ],
        candidates=[tgd_from_json(c) for c in payload["candidates"]],
        gold_indices=list(payload["gold_indices"]),
        deleted_facts=list(instance_from_json(payload["deleted_facts"])),
        added_facts=list(instance_from_json(payload["added_facts"])),
    )


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write *scenario* as JSON to *path*."""
    Path(path).write_text(json.dumps(scenario_to_json(scenario), indent=1))


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario previously written by :func:`save_scenario`."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not JSON: {exc}") from exc
    return scenario_from_json(payload)
