"""Differential tests: every match-index path against its literal reference.

The indexed paths (``candidate_metrics``' one-pass cover table and error
set, ``restrict_problem``'s cut of them to a sample of J, ``creates``,
corroboration, ``fact_homomorphisms``, precision/recall and the chase
join) must give exactly what their references give, in the same order
wherever order is observable.  Random instances mix constants and nulls
on both sides, repeat nulls inside one fact, mix arities in one relation
and hold ``Constant(1)`` next to ``Constant("1")`` (equal ``repr``,
unequal values).  The match index's own projections and probe are held
to filtered scans of ``ordered`` and to :func:`fact_matches`.
"""

import pickle
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.chase.engine import match_body
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import Constant, LabeledNull
from repro.evaluation.metrics import PrecisionRecall, instance_precision_recall
from repro.homomorphism.covers import CoverComputer, creates
from repro.homomorphism.search import (
    fact_homomorphisms,
    fact_matches,
    has_fact_homomorphism,
    image_ranks,
)
from repro.mappings.atoms import Atom
from repro.mappings.terms import Variable
from repro.selection.metrics import SelectionProblem, candidate_metrics, restrict_problem
from tests.chase_reference import nested_loop_match_body

#: Relation name -> arities its facts may take ("t" mixes two).
RELATIONS = {"r": (2,), "s": (3,), "t": (1, 2)}
CONSTANTS = [Constant(1), Constant("1"), Constant("a"), Constant("b"), Constant(2)]
NULLS = [LabeledNull(i) for i in range(4)]

constants = st.sampled_from(CONSTANTS)
values = st.one_of(constants, st.sampled_from(NULLS))


@st.composite
def facts(draw, value_strategy=values):
    relation = draw(st.sampled_from(sorted(RELATIONS)))
    arity = draw(st.sampled_from(RELATIONS[relation]))
    return Fact(relation, tuple(draw(value_strategy) for _ in range(arity)))


def instances(value_strategy=values, max_size=12):
    return st.lists(facts(value_strategy), max_size=max_size).map(Instance)


#: J mostly ground, sometimes holding nulls; chase facts null-heavy.
targets = instances(st.one_of(constants, constants, constants, st.sampled_from(NULLS)))
chases = instances(st.one_of(constants, st.sampled_from(NULLS), st.sampled_from(NULLS)))
fixed_maps = st.dictionaries(st.sampled_from(NULLS), values, max_size=2)


def repr_order(instance: Instance) -> list[Fact]:
    return sorted(instance, key=repr)


def reference_table(computer: CoverComputer, facts: list[Fact]) -> dict[Fact, Fraction]:
    table = {}
    for t in facts:
        degree = computer.degree(t)
        if degree > 0:
            table[t] = degree
    return table


def reference_errors(chase_instance: Instance, target: Instance) -> frozenset[Fact]:
    return frozenset(f for f in chase_instance if creates(f, target))


@given(chases, targets)
@settings(max_examples=150, deadline=None)
def test_cover_table_equals_per_fact_degrees_in_j_order(chase_instance, target):
    table, errors = candidate_metrics(chase_instance, target)
    reference = reference_table(CoverComputer(chase_instance, target), repr_order(target))
    assert list(table.items()) == list(reference.items())
    assert errors == reference_errors(chase_instance, target)


@given(chases, targets, st.data())
@settings(max_examples=100, deadline=None)
def test_cover_table_on_a_sample_corroborates_against_all_of_j(chase_instance, target, data):
    ordered = list(target.match_index().ordered)
    picks = st.lists(st.sampled_from(ordered), unique=True) if ordered else st.just([])
    sampled = set(data.draw(picks))
    table, errors = candidate_metrics(chase_instance, target)
    # restrict_problem reads only the J side: j_facts, covers, errors.
    full = SelectionProblem(
        candidates=[], source=Instance(), target=target, j_facts=ordered,
        covers=[table], error_facts=[errors], sizes=[],
    )
    restricted = restrict_problem(full, sampled)
    kept = [t for t in ordered if t in sampled]
    reference = reference_table(CoverComputer(chase_instance, target), kept)
    assert restricted.j_facts == kept
    assert list(restricted.covers[0].items()) == list(reference.items())
    assert restricted.error_facts[0] == reference_errors(chase_instance, target)


@given(chases, targets)
@settings(max_examples=150, deadline=None)
def test_creates_and_corroboration_agree_with_nested_loops(chase_instance, target):
    for f in chase_instance:
        assert creates(f, target) == all(fact_matches(f, t) is None for t in target)
    computer = CoverComputer(chase_instance, target)
    for origin in chase_instance:
        for null in set(origin.nulls):
            for image in CONSTANTS + NULLS:
                expected = any(
                    witness != origin
                    and null in witness.values
                    and any(fact_matches(witness, t, {null: image}) is not None for t in target)
                    for witness in chase_instance
                )
                assert computer._is_corroborated(origin, null, image) == expected


@given(facts(), targets, fixed_maps)
@settings(max_examples=200, deadline=None)
def test_indexed_search_matches_a_full_scan(f, target, fixed):
    ordered = target.match_index().ordered
    assert list(ordered) == repr_order(target)
    expected = [
        (rank, fact_matches(f, t, fixed))
        for rank, t in enumerate(ordered)
        if fact_matches(f, t, fixed) is not None
    ]
    assert list(image_ranks(f, target, fixed)) == [rank for rank, _ in expected]
    assert list(fact_homomorphisms(f, target, fixed)) == [b for _, b in expected]
    assert has_fact_homomorphism(f, target, fixed) == bool(expected)


def nested_loop_precision_recall(result: Instance, reference: Instance) -> PrecisionRecall:
    """The full-scan formula: every (result, reference) pair tested."""
    if len(result) == 0:
        return PrecisionRecall(1.0, 0.0 if len(reference) else 1.0)
    matched = sum(
        1 for f in result if any(fact_matches(f, t) is not None for t in reference)
    )
    precision = matched / len(result)
    if len(reference) == 0:
        return PrecisionRecall(precision, 1.0)
    covered = sum(
        1 for t in reference if any(fact_matches(f, t) is not None for f in result)
    )
    return PrecisionRecall(precision, covered / len(reference))


@given(chases, targets)
@settings(max_examples=150, deadline=None)
def test_precision_recall_equals_nested_loop_formula(result, reference):
    assert instance_precision_recall(result, reference) == nested_loop_precision_recall(
        result, reference
    )


VARIABLES = [Variable("X"), Variable("Y"), Variable("Z")]


@st.composite
def atoms(draw):
    relation = draw(st.sampled_from(sorted(RELATIONS)))
    arity = draw(st.sampled_from(RELATIONS[relation]))
    terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES), constants)
    return Atom(relation, tuple(draw(terms) for _ in range(arity)))


@given(st.lists(atoms(), min_size=1, max_size=3), instances(max_size=16))
@settings(max_examples=200, deadline=None)
def test_match_body_yields_in_nested_loop_order(body, instance):
    assert list(match_body(body, instance)) == list(nested_loop_match_body(body, instance))


def scanned_projection(ordered, relation, arity, positions):
    """A projection by filtered scan: the relation's facts of *arity*, in rank order."""
    table = {}
    for rank, f in enumerate(ordered):
        if f.relation == relation and len(f.values) == arity:
            key = tuple(f.values[p] for p in positions)
            table.setdefault(key, []).append(rank)
    return [(key, tuple(ranks)) for key, ranks in table.items()]


def all_position_sets(arity):
    return [
        tuple(p for p in range(arity) if mask >> p & 1) for mask in range(1 << arity)
    ]


@given(instances(max_size=24))
@settings(max_examples=150, deadline=None)
def test_every_projection_equals_a_filtered_scan_in_rank_order(instance):
    index = instance.match_index()
    ordered = index.ordered
    assert list(ordered) == repr_order(instance)
    for relation in sorted(RELATIONS) + ["missing"]:
        assert list(index.bucket(relation)) == [
            rank for rank, f in enumerate(ordered) if f.relation == relation
        ]
        for arity in (1, 2, 3):
            for positions in all_position_sets(arity):
                table = index.projection(relation, arity, positions)
                assert list(table.items()) == scanned_projection(
                    ordered, relation, arity, positions
                )
                assert index.projection(relation, arity, positions) is table


def full_scan_images(f, ordered):
    return [
        (rank, fact_matches(f, t))
        for rank, t in enumerate(ordered)
        if fact_matches(f, t) is not None
    ]


@given(facts(), targets)
@settings(max_examples=300, deadline=None)
def test_probe_ranks_and_positional_bindings_equal_fact_matches(f, target):
    index = target.match_index()
    ranks, nulls = index.probe(f)
    expected = full_scan_images(f, index.ordered)
    assert list(ranks) == [rank for rank, _ in expected]
    assert list(nulls) == list(dict.fromkeys(v for v in f.values if isinstance(v, LabeledNull)))
    for null, position in nulls.items():
        assert f.values.index(null) == position
    for rank, binding in expected:
        image = index.ordered[rank].values
        assert {null: image[p] for null, p in nulls.items()} == binding


@given(instances(max_size=16), facts(), st.sampled_from(["add", "discard"]))
@settings(max_examples=150, deadline=None)
def test_a_projection_built_before_an_edit_never_answers_after_it(instance, f, edit):
    if edit == "discard" and len(instance):
        f = list(instance)[len(instance) // 2]
    instance.match_index().probe(f)
    getattr(instance, edit)(f)
    index = instance.match_index()
    assert list(index.probe(f)[0]) == [r for r, _ in full_scan_images(f, index.ordered)]
    assert list(image_ranks(f, instance)) == list(index.probe(f)[0])


def constant_positions(f):
    return tuple(p for p, v in enumerate(f.values) if not isinstance(v, LabeledNull))


@given(instances(max_size=16), facts())
@settings(max_examples=100, deadline=None)
def test_copy_shares_built_projections(instance, f):
    index = instance.match_index()
    index.probe(f)
    table = index.projection(f.relation, len(f.values), constant_positions(f))
    duplicate = instance.copy()
    shared = duplicate.match_index()
    assert shared is index
    assert shared.projection(f.relation, len(f.values), constant_positions(f)) is table
    assert shared.probe(f) == index.probe(f)


@given(instances(max_size=16), facts(), fixed_maps)
@settings(max_examples=100, deadline=None)
def test_pickle_is_byte_equal_whether_or_not_a_projection_was_built(instance, f, fixed):
    before = pickle.dumps(instance)
    instance.match_index()
    assert pickle.dumps(instance) == before
    instance.match_index().probe(f)
    list(image_ranks(f, instance, fixed))
    assert pickle.dumps(instance) == before
