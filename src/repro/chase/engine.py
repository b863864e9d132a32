"""Naive chase for source-to-target tgds.

Because st tgds only read the source and only write the target, the chase
terminates after a single pass: every satisfying assignment of a tgd body
against the source instance fires once, instantiating the head with the
assignment's values and **fresh labeled nulls** for existential variables.

The result is the *canonical universal solution* of the source instance
under the given mapping.  Distinct tgds (and distinct firings) introduce
distinct nulls, so e.g. two candidates copying the same source tuple yield
two distinct, isomorphic target facts — matching how the paper's appendix
counts error tuples per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.datamodel.instance import Instance
from repro.datamodel.values import NullFactory, Value
from repro.mappings.atoms import Atom
from repro.mappings.terms import Variable, is_variable
from repro.mappings.tgd import StTgd


def match_body(
    body: Sequence[Atom], instance: Instance
) -> Iterator[dict[Variable, Value]]:
    """Enumerate assignments of body variables satisfying all atoms in *instance*.

    A backtracking join over the instance's
    :class:`~repro.datamodel.instance.MatchIndex`: atoms are matched
    left to right (smallest relation first), and each atom scans the
    shortest posting list among its constant terms and its variables
    already bound, or its whole relation bucket when none is.  Buckets
    and postings are ``repr``-sorted subsequences of one order, so every
    choice of list yields the same facts in the same order.  Yields each
    satisfying assignment exactly once, in an order that depends only on
    the instance's contents (never on set-iteration order) — so chase
    runs, and the null labels they hand out, are reproducible across
    processes regardless of hash randomization.
    """
    join_index = instance.match_index()
    facts = join_index.ordered
    ordered = sorted(body, key=lambda a: len(join_index.bucket(a.relation)))
    # A complete assignment binds every body variable, so its values in
    # one fixed variable order identify it.
    variables = sorted(
        {t for a in body for t in a.terms if is_variable(t)}, key=lambda v: v.name
    )
    seen: set[tuple] = set()

    def extend(index: int, assignment: dict[Variable, Value]) -> Iterator[dict[Variable, Value]]:
        if index == len(ordered):
            key = tuple([assignment[v] for v in variables])
            if key not in seen:
                seen.add(key)
                yield dict(assignment)
            return
        atom = ordered[index]
        known = [assignment.get(t) if is_variable(t) else t for t in atom.terms]
        for rank in join_index.lookup(atom.relation, known):
            f = facts[rank]
            if f.arity != atom.arity:
                continue
            local: dict[Variable, Value] = {}
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


@dataclass
class ChaseResult:
    """Output of a chase run.

    Attributes:
        instance: union of all facts produced (the canonical solution).
        by_tgd: for each input tgd, the sub-instance its firings produced.
    """

    instance: Instance
    by_tgd: dict[StTgd, Instance]


def chase(
    source: Instance,
    tgds: Iterable[StTgd],
    null_factory: NullFactory | None = None,
) -> ChaseResult:
    """Chase *source* with st *tgds*, returning the canonical solution.

    A shared *null_factory* may be supplied to keep null labels globally
    unique across several chase runs.
    """
    factory = null_factory if null_factory is not None else NullFactory()
    combined = Instance()
    by_tgd: dict[StTgd, Instance] = {}
    for tgd in tgds:
        produced = by_tgd[tgd] = chase_single(source, tgd, factory)
        for f in produced:
            combined.add(f)
    return ChaseResult(combined, by_tgd)


def chase_single(
    source: Instance,
    tgd: StTgd,
    null_factory: NullFactory | None = None,
) -> Instance:
    """Chase with a single tgd, returning just the produced instance.

    Facts come in firing order, each firing's head atoms in order; every
    firing draws its existential variables' nulls in name order.
    """
    factory = null_factory if null_factory is not None else NullFactory()
    existentials = sorted(tgd.existential_variables, key=lambda v: v.name)
    produced = Instance()
    for assignment in match_body(tgd.body, source):
        for ev in existentials:
            assignment[ev] = factory.fresh()
        for head_atom in tgd.head:
            produced.add(head_atom.instantiate(assignment))
    return produced


def exchanged_instance(
    source: Instance,
    selection: Iterable[StTgd],
    null_factory: NullFactory | None = None,
) -> Instance:
    """The data-exchange result of migrating *source* under *selection*."""
    return chase(source, list(selection), null_factory).instance
