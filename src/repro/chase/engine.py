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

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.datamodel.instance import Fact, Instance
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
    seen: set[tuple] = set()

    def extend(index: int, assignment: dict[Variable, Value]) -> Iterator[dict[Variable, Value]]:
        if index == len(ordered):
            key = tuple(sorted(((v.name, u) for v, u in assignment.items()), key=lambda p: p[0]))
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


@dataclass(frozen=True)
class Firing:
    """One application of a tgd: the tgd plus the head-variable assignment."""

    tgd: StTgd
    assignment: tuple[tuple[Variable, Value], ...]

    def as_dict(self) -> dict[Variable, Value]:
        return dict(self.assignment)


@dataclass
class ChaseResult:
    """Output of a chase run.

    Attributes:
        instance: union of all facts produced (the canonical solution).
        by_tgd: for each input tgd, the sub-instance its firings produced.
        provenance: facts mapped to the firings that produced them.
    """

    instance: Instance
    by_tgd: dict[StTgd, Instance]
    provenance: dict[Fact, list[Firing]] = field(default_factory=dict)


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
    provenance: dict[Fact, list[Firing]] = {}

    for tgd in tgds:
        produced = Instance()
        for assignment in match_body(tgd.body, source):
            full_assignment: dict[Variable, Value] = dict(assignment)
            for ev in sorted(tgd.existential_variables, key=lambda v: v.name):
                full_assignment[ev] = factory.fresh()
            firing = Firing(
                tgd,
                tuple(sorted(full_assignment.items(), key=lambda p: p[0].name)),
            )
            for head_atom in tgd.head:
                f = head_atom.instantiate(full_assignment)
                produced.add(f)
                combined.add(f)
                provenance.setdefault(f, []).append(firing)
        by_tgd[tgd] = produced

    return ChaseResult(combined, by_tgd, provenance)


def chase_single(
    source: Instance,
    tgd: StTgd,
    null_factory: NullFactory | None = None,
) -> Instance:
    """Chase with a single tgd, returning just the produced instance."""
    return chase(source, [tgd], null_factory).by_tgd[tgd]


def exchanged_instance(
    source: Instance,
    selection: Iterable[StTgd],
    null_factory: NullFactory | None = None,
) -> Instance:
    """The data-exchange result of migrating *source* under *selection*."""
    return chase(source, list(selection), null_factory).instance
