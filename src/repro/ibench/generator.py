"""End-to-end scenario generation (Section VI-A of the paper).

Pipeline:

1. draw ``num_primitives`` iBench primitive invocations;
2. assemble source/target schemas and populate the source instance I;
3. chase I with the gold mapping MG and ground the resulting nulls with
   fresh constants — this grounded gold exchange is the initial J (and
   stays available as the evaluation's ``reference_target``);
4. metadata noise: for ``pi_corresp`` percent of the target relations,
   add correspondences from a random source relation of a *different*
   primitive (so Clio still generates MG as part of C);
5. run Clio-style candidate generation, locating MG inside C;
6. data noise: delete ``pi_errors`` percent of the *non-certain error*
   tuples (J facts only MG generates) and add ``pi_unexplained`` percent
   of the *non-certain unexplained* tuples (facts only C - MG generates,
   grounded with fresh constants), homomorphism-aware in both directions.

Data noise chases every candidate once, in index order, each with its
nulls starting past the nulls of the candidates before it: the labels
the scenario's problem build gives them.  Its scan needs the exchange
under C - MG, which is those chases without the gold ones; only the
unexplained facts it samples from need that exchange's labels, so only
they are relabelled.  Noise never edits the source, so the scenario
keeps the chases (:meth:`~repro.ibench.scenario.Scenario.keep_chases`);
its problem build receives them as
:func:`~repro.selection.metrics.build_selection_problem`'s ``chases``
argument and chases no candidate.  Without data noise, nothing is
chased here and the build chases every candidate.
"""

from __future__ import annotations

import random

from repro.candidates.cliogen import generate_candidates
from repro.candidates.correspondence import Correspondence
from repro.chase.engine import chase
from repro.collector import paused_collector
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.schema import Schema
from repro.datamodel.values import Constant, NullFactory, is_null
from repro.errors import ScenarioError
from repro.ibench.config import ScenarioConfig
from repro.ibench.datagen import populate
from repro.ibench.primitives import PrimitiveOutput, make_primitive
from repro.ibench.scenario import Scenario
from repro.mappings.tgd import StTgd
from repro.selection.metrics import CandidateChase, chase_candidate, shift_nulls


@paused_collector()
def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Deterministically generate one scenario from *config*.

    Runs with the cyclic collector paused (:mod:`repro.collector`):
    generation creates no reference cycle.
    """
    rng = random.Random(config.seed)

    primitives = [
        make_primitive(rng.choice(config.primitive_kinds), i, rng, config.add_remove_range)
        for i in range(config.num_primitives)
    ]

    source_schema, target_schema = _assemble_schemas(primitives)
    source = populate(source_schema, config.rows_per_relation, rng, config.value_pool)

    gold_tgds = [t for p in primitives for t in p.gold_tgds]
    reference_target = _grounded_gold_exchange(source, gold_tgds)
    target = reference_target.copy()

    correspondences = [c for p in primitives for c in p.correspondences]
    correspondences += _random_correspondences(
        primitives, config.pi_corresp, rng
    )

    candidates = generate_candidates(source_schema, target_schema, correspondences)
    gold_indices = _locate_gold(candidates, gold_tgds)

    deleted, added, chases = _apply_data_noise(
        source, target, candidates, gold_indices, config, rng
    )

    scenario = Scenario(
        config=config,
        primitives=primitives,
        source_schema=source_schema,
        target_schema=target_schema,
        source=source,
        target=target,
        reference_target=reference_target,
        correspondences=correspondences,
        candidates=candidates,
        gold_indices=gold_indices,
        deleted_facts=deleted,
        added_facts=added,
    )
    scenario.keep_chases(chases)
    return scenario


def _assemble_schemas(primitives: list[PrimitiveOutput]) -> tuple[Schema, Schema]:
    source_schema, target_schema = Schema("source"), Schema("target")
    for p in primitives:
        for rel in p.source_relations:
            source_schema.add(rel)
        for rel in p.target_relations:
            target_schema.add(rel)
    for p in primitives:
        for fk in p.source_fks:
            source_schema.add_foreign_key(fk)
        for fk in p.target_fks:
            target_schema.add_foreign_key(fk)
    return source_schema, target_schema


def _grounded_gold_exchange(source: Instance, gold_tgds: list[StTgd]) -> Instance:
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


def _random_correspondences(
    primitives: list[PrimitiveOutput],
    pi_corresp: float,
    rng: random.Random,
) -> list[Correspondence]:
    """The appendix's metadata noise: random correspondences onto target relations."""
    if pi_corresp <= 0:
        return []
    target_relations = [
        (p, rel) for p in primitives for rel in p.target_relations
    ]
    count = round(len(target_relations) * pi_corresp / 100.0)
    chosen = rng.sample(target_relations, min(count, len(target_relations)))
    extra: list[Correspondence] = []
    for owner, target_rel in chosen:
        donors = [
            rel
            for p in primitives
            if p is not owner
            for rel in p.source_relations
        ]
        if not donors:
            continue  # single-primitive scenarios have no foreign donor
        donor = rng.choice(donors)
        for attr in target_rel.attribute_names:
            extra.append(
                Correspondence(
                    donor.name,
                    rng.choice(donor.attribute_names),
                    target_rel.name,
                    attr,
                )
            )
    return extra


def _locate_gold(candidates: list[StTgd], gold_tgds: list[StTgd]) -> list[int]:
    """Indices of the gold tgds inside C (matching up to variable renaming)."""
    canonical_to_index = {c.canonical(): i for i, c in enumerate(candidates)}
    indices = []
    for g in gold_tgds:
        idx = canonical_to_index.get(g.canonical())
        if idx is None:
            raise ScenarioError(
                f"candidate generation failed to reproduce gold tgd {g}"
            )
        indices.append(idx)
    return indices


def _apply_data_noise(
    source: Instance,
    target: Instance,
    candidates: list[StTgd],
    gold_indices: list[int],
    config: ScenarioConfig,
    rng: random.Random,
) -> tuple[list[Fact], list[Fact], dict[int, CandidateChase]]:
    """Delete non-certain error tuples / add non-certain unexplained tuples.

    Also returns every candidate's chase, by candidate index, with the
    null labels of the problem build, for the build to reuse.
    """
    if config.pi_errors <= 0 and config.pi_unexplained <= 0:
        return [], [], {}

    gold_set = set(gold_indices)
    chases: dict[int, CandidateChase] = {}
    # The exchange under C - MG, by relation in order of first
    # appearance, then chase order, with a ground fact produced twice
    # kept first; each fact maps to the nulls of the gold candidates
    # chased before it, which moves its labels into that exchange's.
    non_gold: dict[str, dict[Fact, int]] = {}
    offset = gold_nulls = 0
    for i, candidate in enumerate(candidates):
        chased = chases[i] = chase_candidate(source, candidate, offset)
        offset += chased.nulls_used
        if i in gold_set:
            gold_nulls += chased.nulls_used
            continue
        for f in chased.instance:
            bucket = non_gold.get(f.relation)
            if bucket is None:
                bucket = non_gold[f.relation] = {}
            bucket.setdefault(f, gold_nulls)

    # Non-certain error tuples: J facts no non-gold candidate generates
    # (homomorphism-aware — a chase fact with nulls may still "generate" a
    # ground J fact).  Non-certain unexplained tuples: non-gold chase
    # facts with no homomorphic image in J.  One pass over the non-gold
    # chase through J's match index answers both; a probe does not
    # depend on null labels.
    probe = target.match_index().probe
    generated: set[int] = set()
    unexplained: list[Fact] = []
    for bucket in non_gold.values():
        for f, shift in bucket.items():
            images = probe(f)[0]
            if images:
                generated.update(images)
            else:
                unexplained.extend(shift_nulls((f,), -shift))
    deletable = [
        t for rank, t in enumerate(target.match_index().ordered) if rank not in generated
    ]
    # A stable sort of the unexplained facts, in chase order, is the
    # order a repr sort of the whole non-gold chase would give them.
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
    return list(deleted), added, chases
