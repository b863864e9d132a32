"""Scenario generation as it ran before it reused the candidates' chases.

``reference_grounded_gold_exchange`` chases the gold mapping MG with one
shared null factory and grounds each null with a fresh ``sk<n>``
constant at its first occurrence; ``reference_populate`` builds the
source one row at a time through :func:`~repro.datamodel.instance.fact`.
``reference_generate_scenario`` runs the generation steps in their old
order with both, and with the frozen noise step of
:mod:`tests.ibench.noise_reference`.  Generation must give the same
``reference_target`` (in order), J, noise edits, candidates and gold
indices, and leave its ``random.Random`` in the same state.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro.candidates.cliogen import generate_candidates
from repro.chase.engine import chase
from repro.datamodel.instance import Fact, Instance, fact
from repro.datamodel.schema import Schema
from repro.datamodel.values import Constant, NullFactory, is_null
from repro.errors import ScenarioError
from repro.ibench.config import ScenarioConfig
from repro.ibench.datagen import _topological_order
from repro.ibench.generator import (
    _assemble_schemas,
    _locate_gold,
    _random_correspondences,
)
from repro.ibench.primitives import make_primitive
from repro.mappings.tgd import StTgd
from tests.ibench.noise_reference import reference_data_noise


def reference_grounded_gold_exchange(source: Instance, gold_tgds: list[StTgd]) -> Instance:
    """Chase with MG, then replace every null by a fresh constant."""
    result = chase(source, gold_tgds, NullFactory())
    null_to_constant: dict = {}
    grounded = Instance()
    for f in result.instance:
        values = []
        for v in f.values:
            if is_null(v):
                if v not in null_to_constant:
                    null_to_constant[v] = Constant(f"sk{len(null_to_constant)}")
                values.append(null_to_constant[v])
            else:
                values.append(v)
        grounded.add(Fact(f.relation, tuple(values)))
    return grounded


def reference_populate(
    schema: Schema,
    rows_per_relation: int,
    rng: random.Random,
    value_pool: int = 8,
) -> Instance:
    """Generate a ground instance of *schema*.

    Key attributes get unique values; FK attributes sample the referenced
    key's generated values; everything else draws from a pool of
    ``value_pool`` relation/attribute-specific strings.
    """
    instance = Instance()
    generated: dict[tuple[str, str], list[str]] = {}

    fk_of: dict[tuple[str, str], tuple[str, str]] = {}
    for fk in schema.foreign_keys:
        for sa, ta in zip(fk.source_attributes, fk.target_attributes):
            fk_of[(fk.source, sa)] = (fk.target, ta)

    for rel in _topological_order(schema):
        for attr in rel.attribute_names:
            generated[(rel.name, attr)] = []
        row = 0
        attempts = 0
        # Retry on duplicate rows (set semantics) so the relation really
        # holds rows_per_relation distinct facts; give up gracefully when
        # the value domain is too small to support that many.
        while row < rows_per_relation and attempts < rows_per_relation * 10:
            attempts += 1
            values = []
            for attr in rel.attribute_names:
                position = (rel.name, attr)
                if position in fk_of:
                    parent_values = generated[fk_of[position]]
                    if not parent_values:
                        raise ScenarioError(
                            f"foreign key {rel.name}.{attr} references an empty relation"
                        )
                    value = rng.choice(parent_values)
                elif attr in rel.key:
                    value = f"{rel.name}.{attr}.{row}"
                else:
                    value = f"{rel.name}.{attr}.v{rng.randrange(value_pool)}"
                values.append(value)
            if instance.add(fact(rel.name, *values)):
                for attr, value in zip(rel.attribute_names, values):
                    generated[(rel.name, attr)].append(value)
                row += 1
    return instance


def reference_generate_scenario(config: ScenarioConfig) -> SimpleNamespace:
    """The generation steps in their old order, on the frozen references.

    ``populate_state`` is the ``rng`` state right after the source was
    populated.
    """
    rng = random.Random(config.seed)
    primitives = [
        make_primitive(rng.choice(config.primitive_kinds), i, rng, config.add_remove_range)
        for i in range(config.num_primitives)
    ]
    source_schema, target_schema = _assemble_schemas(primitives)
    source = reference_populate(source_schema, config.rows_per_relation, rng, config.value_pool)
    populate_state = rng.getstate()

    gold_tgds = [t for p in primitives for t in p.gold_tgds]
    reference_target = reference_grounded_gold_exchange(source, gold_tgds)
    target = reference_target.copy()

    correspondences = [c for p in primitives for c in p.correspondences]
    correspondences += _random_correspondences(primitives, config.pi_corresp, rng)
    candidates = generate_candidates(source_schema, target_schema, correspondences)
    gold_indices = _locate_gold(candidates, gold_tgds)
    deleted, added = reference_data_noise(
        source, target, candidates, gold_indices, config, rng
    )
    return SimpleNamespace(
        source=source,
        populate_state=populate_state,
        reference_target=reference_target,
        target=target,
        candidates=candidates,
        gold_indices=gold_indices,
        deleted_facts=deleted,
        added_facts=added,
    )
