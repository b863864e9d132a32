"""Differential tests: every match-index path against its literal reference.

The indexed paths (``candidate_metrics``' one-pass cover table and error
set, ``creates``, corroboration, ``fact_homomorphisms``, precision/recall
and the chase join) must give exactly what their references give, in the
same order wherever order is observable.  Random instances mix constants and nulls
on both sides, repeat nulls inside one fact, and hold ``Constant(1)``
next to ``Constant("1")`` (equal ``repr``, unequal values).
"""

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
from repro.mappings.terms import Variable, is_variable
from repro.selection.metrics import candidate_metrics

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


def reference_table(computer: CoverComputer, reported: Instance) -> dict[Fact, Fraction]:
    table = {}
    for t in repr_order(reported):
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
    reference = reference_table(CoverComputer(chase_instance, target), target)
    assert list(table.items()) == list(reference.items())
    assert errors == reference_errors(chase_instance, target)


@given(chases, targets, st.data())
@settings(max_examples=100, deadline=None)
def test_cover_table_on_a_sample_corroborates_against_all_of_j(chase_instance, target, data):
    ordered = repr_order(target)
    picks = st.lists(st.sampled_from(ordered), unique=True) if ordered else st.just([])
    sampled = Instance(data.draw(picks))
    table, errors = candidate_metrics(chase_instance, target, reported=sampled)
    reference = reference_table(CoverComputer(chase_instance, target), sampled)
    assert list(table.items()) == list(reference.items())
    assert errors == reference_errors(chase_instance, target)


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


def nested_loop_match_body(body, instance):
    """The pre-index join: whole repr-sorted relation buckets, left to right."""
    ordered = sorted(body, key=lambda a: len(instance.facts_of(a.relation)))
    buckets = [[f for f in repr_order(instance) if f.relation == a.relation] for a in ordered]
    seen = set()

    def extend(index, assignment):
        if index == len(ordered):
            key = tuple(sorted(((v.name, u) for v, u in assignment.items()), key=lambda p: p[0]))
            if key not in seen:
                seen.add(key)
                yield dict(assignment)
            return
        atom = ordered[index]
        for f in buckets[index]:
            if f.arity != atom.arity:
                continue
            local = {}
            ok = True
            for term, value in zip(atom.terms, f.values):
                if is_variable(term):
                    bound = assignment.get(term, local.get(term))
                    if bound is None:
                        local[term] = value
                    elif bound != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if ok:
                assignment.update(local)
                yield from extend(index + 1, assignment)
                for v in local:
                    del assignment[v]

    yield from extend(0, {})


@given(st.lists(atoms(), min_size=1, max_size=3), instances(max_size=16))
@settings(max_examples=200, deadline=None)
def test_match_body_yields_in_nested_loop_order(body, instance):
    assert list(match_body(body, instance)) == list(nested_loop_match_body(body, instance))
