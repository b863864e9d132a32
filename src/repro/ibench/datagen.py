"""Source-instance population for generated scenarios.

Relations are filled in foreign-key topological order (parents first) so
referencing attributes can draw from the referenced key values, which
guarantees the joins of ME-style primitives actually produce tuples.
Non-key attributes draw from a bounded per-attribute value pool so some
values repeat (realistic duplication without violating keys).
"""

from __future__ import annotations

import random

from repro.datamodel.instance import Fact, Instance
from repro.datamodel.schema import Relation, Schema
from repro.datamodel.values import Constant
from repro.errors import ScenarioError


def _topological_order(schema: Schema) -> list[Relation]:
    """Relations sorted so every FK target precedes its sources."""
    incoming: dict[str, set[str]] = {name: set() for name in schema.relations}
    for fk in schema.foreign_keys:
        incoming[fk.source].add(fk.target)
    ordered: list[Relation] = []
    placed: set[str] = set()
    remaining = dict(incoming)
    while remaining:
        ready = sorted(name for name, deps in remaining.items() if deps <= placed)
        if not ready:
            raise ScenarioError(f"cyclic foreign keys among {sorted(remaining)}")
        for name in ready:
            ordered.append(schema.get(name))
            placed.add(name)
            del remaining[name]
    return ordered


def populate(
    schema: Schema,
    rows_per_relation: int,
    rng: random.Random,
    value_pool: int = 8,
) -> Instance:
    """Generate a ground instance of *schema*.

    Key attributes get unique values; FK attributes sample the referenced
    key's generated values; everything else draws from a pool of
    ``value_pool`` relation/attribute-specific strings.

    Each relation is compiled once into a draw plan (:func:`_draw_plan`);
    a row is one pass over it, calling the ``rng`` once per FK or pooled
    attribute, in attribute order.
    """
    instance = Instance()
    #: (relation, attribute) -> the values its rows hold, in row order.
    generated: dict[tuple[str, str], list[Constant]] = {}

    fk_of: dict[tuple[str, str], tuple[str, str]] = {}
    for fk in schema.foreign_keys:
        for sa, ta in zip(fk.source_attributes, fk.target_attributes):
            fk_of[(fk.source, sa)] = (fk.target, ta)

    choice, randrange = rng.choice, rng.randrange
    for rel in _topological_order(schema):
        plan = _draw_plan(rel, fk_of, generated, rows_per_relation, value_pool)
        columns = [generated.setdefault((rel.name, attr), []) for attr in rel.attribute_names]
        row = 0
        attempts = 0
        # Retry on duplicate rows (set semantics) so the relation really
        # holds rows_per_relation distinct facts; give up gracefully when
        # the value domain is too small to support that many.
        while row < rows_per_relation and attempts < rows_per_relation * 10:
            attempts += 1
            values = []
            for kind, drawn in plan:
                if kind is _PARENT:
                    values.append(choice(drawn))
                elif kind is _KEY:
                    values.append(Constant(drawn + str(row)))
                else:
                    values.append(drawn[randrange(value_pool)])
            if instance.add(Fact(rel.name, tuple(values))):
                for column, value in zip(columns, values):
                    column.append(value)
                row += 1
    return instance


#: Draw-plan kinds: an FK parent's values, a key prefix, a value pool.
_PARENT, _KEY, _POOL = "parent", "key", "pool"


def _draw_plan(
    rel: Relation,
    fk_of: dict[tuple[str, str], tuple[str, str]],
    generated: dict[tuple[str, str], list[Constant]],
    rows_per_relation: int,
    value_pool: int,
) -> list[tuple[str, object]]:
    """``(kind, data)`` per attribute of *rel*, in attribute order.

    An FK attribute draws with ``rng.choice`` from its parent's list of
    values (complete, since parents are populated first); a key
    attribute is its ``relation.attribute.`` prefix followed by the row
    number; any other attribute indexes its ``value_pool`` constants
    ``relation.attribute.v<k>`` with ``rng.randrange(value_pool)``.
    """
    plan: list[tuple[str, object]] = []
    for attr in rel.attribute_names:
        position = (rel.name, attr)
        if position in fk_of:
            parent_values = generated[fk_of[position]]
            if not parent_values and rows_per_relation > 0:
                raise ScenarioError(
                    f"foreign key {rel.name}.{attr} references an empty relation"
                )
            plan.append((_PARENT, parent_values))
        elif attr in rel.key:
            plan.append((_KEY, f"{rel.name}.{attr}."))
        else:
            plan.append(
                (_POOL, [Constant(f"{rel.name}.{attr}.v{k}") for k in range(value_pool)])
            )
    return plan
