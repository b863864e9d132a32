"""The chase as literal nested loops, the reference for the compiled join.

``nested_loop_match_body`` scans whole ``repr``-sorted relation buckets,
smallest relation first, with one ``dict`` assignment per partial match;
``reference_chase_single`` fires it and builds each head fact term by
term.  They share no code with :mod:`repro.chase.engine` beyond the data
model, and the chase must equal them fact for fact, null label for null
label and in insertion order.
"""

from __future__ import annotations

from repro.chase.engine import ChaseResult
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import NullFactory
from repro.mappings.terms import is_variable


def nested_loop_match_body(body, instance):
    """The pre-index join: whole repr-sorted relation buckets, left to right."""
    ordered = sorted(body, key=lambda a: len(instance.facts_of(a.relation)))
    facts = sorted(instance, key=repr)
    buckets = [[f for f in facts if f.relation == a.relation] for a in ordered]
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


def reference_chase_single(source, tgd, null_factory=None):
    """Fire every body match in order; nulls per firing in existential name order."""
    factory = null_factory if null_factory is not None else NullFactory()
    existentials = sorted(tgd.existential_variables, key=lambda v: v.name)
    produced = Instance()
    for assignment in nested_loop_match_body(tgd.body, source):
        for variable in existentials:
            assignment[variable] = factory.fresh()
        for atom in tgd.head:
            values = tuple(assignment[t] if is_variable(t) else t for t in atom.terms)
            produced.add(Fact(atom.relation, values))
    return produced


def reference_chase(source, tgds, null_factory=None):
    factory = null_factory if null_factory is not None else NullFactory()
    combined = Instance()
    by_tgd = {}
    for tgd in tgds:
        produced = by_tgd[tgd] = reference_chase_single(source, tgd, factory)
        for f in produced:
            combined.add(f)
    return ChaseResult(combined, by_tgd)
