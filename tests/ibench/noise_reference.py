"""The data-noise step over one non-gold exchange, the reference for generation's.

``reference_data_noise`` chases the non-gold candidates with one shared
null factory, in index order, into one :class:`Instance`: the exchange
under C - MG.  Its scan, deletions and additions are those of scenario
generation before its chases ran at the problem build's null labels,
and generation must delete and add the same facts, in the same order,
leaving J in the same order.
"""

from __future__ import annotations

import random

from repro.chase.engine import chase
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import Constant, NullFactory, is_null
from repro.ibench.config import ScenarioConfig
from repro.mappings.tgd import StTgd


def reference_data_noise(
    source: Instance,
    target: Instance,
    candidates: list[StTgd],
    gold_indices: list[int],
    config: ScenarioConfig,
    rng: random.Random,
) -> tuple[list[Fact], list[Fact]]:
    """Edit *target* in place; return the deleted and the added facts."""
    if config.pi_errors <= 0 and config.pi_unexplained <= 0:
        return [], []

    gold = set(gold_indices)
    non_gold = [c for i, c in enumerate(candidates) if i not in gold]
    non_gold_chase = chase(source, non_gold, NullFactory()).instance

    index = target.match_index()
    generated: set[int] = set()
    unexplained: list[Fact] = []
    for f in non_gold_chase:
        images = index.probe(f)[0]
        if images:
            generated.update(images)
        else:
            unexplained.append(f)
    deletable = [t for rank, t in enumerate(index.ordered) if rank not in generated]
    addable = sorted(unexplained, key=repr)

    deleted = rng.sample(deletable, round(len(deletable) * config.pi_errors / 100.0))
    added_raw = rng.sample(addable, round(len(addable) * config.pi_unexplained / 100.0))

    for t in deleted:
        target.discard(t)

    null_to_constant: dict = {}
    added: list[Fact] = []
    for f in added_raw:
        values = []
        for v in f.values:
            if is_null(v):
                if v not in null_to_constant:
                    null_to_constant[v] = Constant(f"nz{len(null_to_constant)}")
                values.append(null_to_constant[v])
            else:
                values.append(v)
        grounded = Fact(f.relation, tuple(values))
        if target.add(grounded):
            added.append(grounded)
    return list(deleted), added
