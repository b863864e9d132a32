"""End-to-end scenario generation (Section VI-A of the paper).

Pipeline:

1. draw ``num_primitives`` iBench primitive invocations;
2. assemble source/target schemas and populate the source instance I;
3. metadata noise: for ``pi_corresp`` percent of the target relations,
   add correspondences from a random source relation of a *different*
   primitive (so Clio still generates MG as part of C);
4. run Clio-style candidate generation, locating MG inside C;
5. chase every candidate once, in index order, each with its nulls
   starting past the nulls of the candidates before it: the labels the
   scenario's problem build gives them;
6. the exchange of I under the gold mapping MG, its nulls grounded with
   fresh constants, is the initial J (and stays available as the
   evaluation's ``reference_target``); it is read off the chases of the
   gold tgds' twins in C, so MG itself is never chased;
7. data noise: delete ``pi_errors`` percent of the *non-certain error*
   tuples (J facts only MG generates) and add ``pi_unexplained`` percent
   of the *non-certain unexplained* tuples (facts only C - MG generates,
   grounded with fresh constants), homomorphism-aware in both directions.

Steps 4-6 draw nothing from the random generator, so where J is built
in the pipeline moves no draw.  The noise scan needs the exchange under
C - MG, which is the chases without the gold ones; only the unexplained
facts it samples from need that exchange's labels, so only they are
relabelled.  Noise never edits the source, so the scenario keeps the
chases, at every noise level
(:meth:`~repro.ibench.scenario.Scenario.keep_chases`); its problem build
receives them as :func:`~repro.selection.metrics.build_selection_problem`'s
``chases`` argument and chases no candidate.
"""

from __future__ import annotations

import random

from repro.candidates.cliogen import generate_candidates
from repro.candidates.correspondence import Correspondence
from repro.collector import paused_collector
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.schema import Schema
from repro.datamodel.values import Constant, LabeledNull, is_null
from repro.errors import ScenarioError
from repro.ibench.config import ScenarioConfig
from repro.ibench.datagen import populate
from repro.ibench.primitives import PrimitiveOutput, make_primitive
from repro.ibench.scenario import Scenario
from repro.mappings.terms import is_variable
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

    correspondences = [c for p in primitives for c in p.correspondences]
    correspondences += _random_correspondences(
        primitives, config.pi_corresp, rng
    )

    candidates = generate_candidates(source_schema, target_schema, correspondences)
    gold_tgds = [t for p in primitives for t in p.gold_tgds]
    gold_indices = _locate_gold(candidates, gold_tgds)

    chases = _chase_candidates(source, candidates)
    reference_target = _grounded_gold_exchange(
        gold_tgds, [chases[i] for i in gold_indices]
    )
    target = reference_target.copy()
    deleted, added = _apply_data_noise(target, chases, gold_indices, config, rng)

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


def _chase_candidates(source: Instance, candidates: list[StTgd]) -> dict[int, CandidateChase]:
    """Every candidate's chase of *source*, by index, at its problem null labels.

    Candidate ``i``'s nulls start past the nulls of candidates ``0..i-1``:
    the labels :func:`~repro.selection.metrics.build_selection_problem`
    gives it.
    """
    chases: dict[int, CandidateChase] = {}
    offset = 0
    for i, candidate in enumerate(candidates):
        chased = chases[i] = chase_candidate(source, candidate, offset)
        offset += chased.nulls_used
    return chases


def _grounded_gold_exchange(
    gold_tgds: list[StTgd], twins: list[CandidateChase]
) -> Instance:
    """The exchange of the source under MG, each null replaced by a fresh constant.

    ``twins[k]`` is the chase of the candidate that equals ``gold_tgds[k]``
    up to variable renaming and head-atom order (its *twin*).  The result
    is the chase of MG with one shared null factory, grounded by numbering
    each null ``sk<n>`` at its first occurrence, fact for fact and in
    order, without chasing MG:

    * that chase holds each gold tgd's facts in firing order, bucketed by
      relation in order of first appearance (each tgd in its own head
      order) with a ground fact produced twice kept first, and a tgd
      that fires no time opens no bucket;
    * a twin fires in the same order, as its body is the gold tgd's
      under one positional variable renaming (so its join visits the
      source in the same order), and with pairwise distinct head
      relations each of its relation buckets is one head atom's facts
      in firing order;
    * only the null labels differ, and the numbering keys each null by
      its gold copy, so two gold tgds with one twin get distinct
      constants.

    Raises :class:`ScenarioError` where a twin does not meet those
    conditions.
    """
    #: relation -> (gold copy, or None for a ground fact; fact), in exchange order.
    buckets: dict[str, list[tuple[int | None, Fact]]] = {}
    for copy, (gold, twin) in enumerate(zip(gold_tgds, twins)):
        _check_twin(gold, twin.tgd)
        if not twin.instance:
            continue
        existentials = gold.existential_variables
        with_nulls = set()
        for atom in gold.head:
            buckets.setdefault(atom.relation, [])
            if any(v in existentials for v in atom.variables):
                with_nulls.add(atom.relation)
        for f in twin.instance:
            buckets[f.relation].append((copy if f.relation in with_nulls else None, f))

    skolem: dict[tuple[int, LabeledNull], Constant] = {}
    grounded = Instance()
    for bucket in buckets.values():
        for copy, f in bucket:
            if copy is None:
                grounded.add(f)  # a ground fact produced twice stays first
                continue
            values = []
            for v in f.values:
                if isinstance(v, LabeledNull):
                    key = (copy, v)
                    constant = skolem.get(key)
                    if constant is None:
                        constant = skolem[key] = Constant(f"sk{len(skolem)}")
                    values.append(constant)
                else:
                    values.append(v)
            grounded.add(Fact(f.relation, tuple(values)))
    return grounded


def _check_twin(gold: StTgd, twin: StTgd) -> None:
    """Raise unless *twin* chases like *gold* up to null labels.

    The bodies must be equal under one positional variable renaming and
    the gold tgd's head relations pairwise distinct: the conditions
    under which :func:`_grounded_gold_exchange` reads MG's chase off the
    twins' chases.
    """
    if not _renames_body(gold, twin):
        raise ScenarioError(
            f"gold tgd {gold} and its candidate {twin} differ beyond a renaming of body variables"
        )
    if len({a.relation for a in gold.head}) != len(gold.head):
        raise ScenarioError(f"gold tgd {gold} writes one relation more than once")


def _renames_body(gold: StTgd, twin: StTgd) -> bool:
    """Whether one injective variable renaming maps *gold*'s body atoms onto *twin*'s, in order."""
    if len(gold.body) != len(twin.body):
        return False
    renaming: dict = {}
    for a, b in zip(gold.body, twin.body):
        if a.relation != b.relation or a.arity != b.arity:
            return False
        for s, t in zip(a.terms, b.terms):
            if is_variable(s) != is_variable(t):
                return False
            if not is_variable(s):
                if s != t:
                    return False
            elif renaming.setdefault(s, t) != t:
                return False
    return len(set(renaming.values())) == len(renaming)


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
    target: Instance,
    chases: dict[int, CandidateChase],
    gold_indices: list[int],
    config: ScenarioConfig,
    rng: random.Random,
) -> tuple[list[Fact], list[Fact]]:
    """Delete non-certain error tuples / add non-certain unexplained tuples.

    *chases* holds every candidate's chase, by candidate index, with the
    null labels of the problem build (:func:`_chase_candidates`).
    """
    if config.pi_errors <= 0 and config.pi_unexplained <= 0:
        return [], []

    gold_set = set(gold_indices)
    # The exchange under C - MG, by relation in order of first
    # appearance, then chase order, with a ground fact produced twice
    # kept first; each fact maps to the nulls of the gold candidates
    # chased before it, which moves its labels into that exchange's.
    non_gold: dict[str, dict[Fact, int]] = {}
    gold_nulls = 0
    for i, chased in chases.items():
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
    return list(deleted), added
