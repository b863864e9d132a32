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

Each tgd is compiled once into a :class:`ChasePlan`, cached on the tgd
(:attr:`~repro.mappings.tgd.StTgd.chase_plan`).  The body becomes a
:class:`JoinPlan`: every variable gets a *slot*, in name order, so a
complete binding is one flat list and ``tuple(binding)`` is its dedup
key; each atom becomes a step of constant positions, positions checked
against slots bound earlier, and positions that bind a slot.  The head
becomes one template per atom, read off a row of the binding, the
firing's nulls and the head's constants.  The join is a loop over an
explicit stack of scans, so a chase leaves no reference cycle behind
(the build's cyclic-collector pause, :mod:`repro.collector`, relies on
that).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.datamodel.instance import Fact, Instance, MatchIndex
from repro.datamodel.values import NullFactory, Value
from repro.mappings.atoms import Atom
from repro.mappings.terms import Variable, is_variable

if TYPE_CHECKING:
    from repro.mappings.tgd import StTgd


def _picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A C-level getter of ``tuple(row[p] for p in positions)`` from a tuple row.

    ``itemgetter`` returns a bare item for one position, so one position
    (and none) is read as a slice, which of a tuple is a tuple.
    """
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0, 0))


class _Step(NamedTuple):
    """One body atom of a join order, compiled against the slots bound before it."""

    relation: str
    arity: int
    #: Positions whose value is fixed on entry, the constants' first.
    fixed_positions: tuple[int, ...]
    #: The constants' values, in ``fixed_positions`` order.
    constants: tuple[Value, ...]
    #: The slots, bound by earlier steps, the remaining fixed positions read.
    fixed_slots: tuple[int, ...]
    #: Reads the fixed positions of a fact (None: there are none).
    fixed: Callable | None
    #: Later occurrences of a variable new in this atom, and its first one.
    repeats: tuple[Callable, Callable] | None
    #: ``(position, slot)`` for each variable's first occurrence in this atom.
    binds: tuple[tuple[int, int], ...]


class JoinPlan:
    """A conjunctive body compiled into slots, joined over a :class:`MatchIndex`.

    ``variables`` are the body's variables in name order; variable ``k``
    lives in slot ``k`` of the binding.  :meth:`bindings` matches the
    atoms smallest relation first (a stable sort, so ties keep body
    order) and each atom scans the shortest posting list among its
    constants and its variables already bound, or its whole relation
    bucket when none is.  Buckets and postings are ``repr``-sorted
    subsequences of one order, so every choice of list yields the same
    facts in the same order: the bindings come in the order of nested
    loops over the ``repr``-sorted buckets, each exactly once, whatever
    the hash seed.  The compiled steps are kept per atom order.
    """

    __slots__ = ("atoms", "variables", "_steps")

    def __init__(self, body: Sequence[Atom]):
        self.atoms = tuple(body)
        self.variables: tuple[Variable, ...] = tuple(
            sorted(
                {t for a in self.atoms for t in a.terms if is_variable(t)},
                key=lambda v: v.name,
            )
        )
        #: atom order -> its compiled steps.
        self._steps: dict[tuple[int, ...], tuple[_Step, ...]] = {}

    def bindings(self, index: MatchIndex) -> Iterator[tuple[Value, ...]]:
        """Every satisfying binding over *index*'s facts, as a slot tuple."""
        sizes = [len(index.bucket(a.relation)) for a in self.atoms]
        order = tuple(sorted(range(len(self.atoms)), key=sizes.__getitem__))
        steps = self._steps.get(order)
        if steps is None:
            steps = self._steps[order] = self._compile(order)
        return _join(steps, index, len(self.variables))

    def _compile(self, order: tuple[int, ...]) -> tuple[_Step, ...]:
        slot_of = {v: k for k, v in enumerate(self.variables)}
        bound: set[int] = set()
        steps = []
        for atom in (self.atoms[i] for i in order):
            constants: list[tuple[int, Value]] = []
            checks: list[tuple[int, int]] = []
            first: dict[int, int] = {}  # slot -> its first position here
            repeats: list[tuple[int, int]] = []
            for position, term in enumerate(atom.terms):
                if not is_variable(term):
                    constants.append((position, term))
                    continue
                slot = slot_of[term]
                if slot in bound:
                    checks.append((position, slot))
                elif slot in first:
                    repeats.append((position, first[slot]))
                else:
                    first[slot] = position
            bound.update(first)
            fixed_positions = tuple(p for p, _ in constants) + tuple(p for p, _ in checks)
            steps.append(
                _Step(
                    relation=atom.relation,
                    arity=atom.arity,
                    fixed_positions=fixed_positions,
                    constants=tuple(v for _, v in constants),
                    fixed_slots=tuple(s for _, s in checks),
                    fixed=_picker(fixed_positions) if fixed_positions else None,
                    repeats=(
                        (
                            _picker([p for p, _ in repeats]),
                            _picker([q for _, q in repeats]),
                        )
                        if repeats
                        else None
                    ),
                    binds=tuple((p, s) for s, p in first.items()),
                )
            )
        return tuple(steps)


def _enter(step: _Step, index: MatchIndex, binding: list) -> tuple[Iterator[int], tuple]:
    """The ranks *step* scans under *binding*, and the values its fixed positions need."""
    want = step.constants + tuple([binding[s] for s in step.fixed_slots])
    known: list[Value | None] = [None] * step.arity
    for position, value in zip(step.fixed_positions, want):
        known[position] = value
    return iter(index.lookup(step.relation, known)), want


def _join(steps: tuple[_Step, ...], index: MatchIndex, width: int) -> Iterator[tuple]:
    """Depth-first nested loops over *steps*, one scan per level on a stack.

    The binding is one list of *width* slots; a step overwrites the
    slots it binds, and no later step reads a slot before binding it.
    """
    if not steps:
        yield ()
        return
    facts = index.ordered
    binding: list = [None] * width
    seen: set[tuple] = set()
    last = len(steps) - 1
    scans: list[Iterator[int]] = [iter(())] * len(steps)
    wants: list[tuple] = [()] * len(steps)
    scans[0], wants[0] = _enter(steps[0], index, binding)
    depth = 0
    while depth >= 0:
        step = steps[depth]
        arity, fixed, repeats, binds = step.arity, step.fixed, step.repeats, step.binds
        want = wants[depth]
        for rank in scans[depth]:
            values = facts[rank].values
            if len(values) != arity:
                continue
            if fixed is not None and fixed(values) != want:
                continue
            if repeats is not None and repeats[0](values) != repeats[1](values):
                continue
            for position, slot in binds:
                binding[slot] = values[position]
            if depth == last:
                key = tuple(binding)
                if key not in seen:
                    seen.add(key)
                    yield key
            else:
                depth += 1
                scans[depth], wants[depth] = _enter(steps[depth], index, binding)
                break
        else:
            depth -= 1


class ChasePlan:
    """An st tgd compiled for the chase: its body's :class:`JoinPlan` and head templates.

    A firing's *row* is the binding tuple, then one fresh null per
    existential variable (name order), then the head's constants; each
    head atom is a relation and a getter of its values from the row.
    """

    __slots__ = ("body", "existentials", "constants", "heads")

    def __init__(self, tgd: StTgd):
        self.body = JoinPlan(tgd.body)
        existentials = sorted(tgd.existential_variables, key=lambda v: v.name)
        self.existentials = len(existentials)
        row: dict[object, int] = {v: k for k, v in enumerate(self.body.variables)}
        for v in existentials:
            row[v] = len(row)
        constants: list[Value] = []
        heads = []
        for head_atom in tgd.head:
            positions = []
            for term in head_atom.terms:
                if is_variable(term):
                    positions.append(row[term])
                else:
                    positions.append(len(row) + len(constants))
                    constants.append(term)
            heads.append((head_atom.relation, _picker(positions)))
        self.constants: tuple[Value, ...] = tuple(constants)
        self.heads: tuple[tuple[str, Callable], ...] = tuple(heads)


def match_body(
    body: Sequence[Atom], instance: Instance
) -> Iterator[dict[Variable, Value]]:
    """Enumerate assignments of body variables satisfying all atoms in *instance*.

    Runs a :class:`JoinPlan` of *body* over the instance's
    :class:`~repro.datamodel.instance.MatchIndex` and yields each
    satisfying assignment exactly once, in nested-loop order over the
    ``repr``-sorted relation buckets (smallest relation first), an order
    that depends only on the instance's contents.
    """
    plan = JoinPlan(body)
    variables = plan.variables
    for key in plan.bindings(instance.match_index()):
        yield dict(zip(variables, key))


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
    plan = tgd.chase_plan
    fresh, existentials, constants = factory.fresh, plan.existentials, plan.constants
    produced = Instance()
    add = produced.add
    for key in plan.body.bindings(source.match_index()):
        if existentials:
            row = key + tuple([fresh() for _ in range(existentials)]) + constants
        else:
            row = key + constants
        for relation, values_of in plan.heads:
            add(Fact(relation, values_of(row)))
    return produced


def exchanged_instance(
    source: Instance,
    selection: Iterable[StTgd],
    null_factory: NullFactory | None = None,
) -> Instance:
    """The data-exchange result of migrating *source* under *selection*."""
    return chase(source, list(selection), null_factory).instance
