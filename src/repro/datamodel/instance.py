"""Database instances: sets of facts over a schema.

Facts hold :class:`~repro.datamodel.values.Constant` or
:class:`~repro.datamodel.values.LabeledNull` values.  Instances bucket
facts by relation name.  An instance that facts are matched *against*
(the target example J, the source a chase joins over, a scoring
reference) also builds a :class:`MatchIndex` on first use: its facts in
``repr`` order and, per ``(relation, arity, known positions)`` asked
for, a projection from the values at those positions to the facts
holding them, so a match is one dict probe that returns exactly its
images, in ``repr`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.datamodel.values import Constant, LabeledNull, Value, is_null
from repro.errors import InstanceError


@dataclass(frozen=True, slots=True)
class Fact:
    """A single tuple ``relation(values...)``.

    Values are :class:`Constant` or :class:`LabeledNull`.  Facts are
    immutable and hashable, so instances can be modeled as sets.
    """

    relation: str
    values: tuple[Value, ...]

    @property
    def arity(self) -> int:
        return len(self.values)

    @property
    def nulls(self) -> tuple[LabeledNull, ...]:
        """Labeled nulls occurring in this fact, in position order."""
        return tuple(v for v in self.values if is_null(v))

    @property
    def is_ground(self) -> bool:
        """True iff the fact contains no labeled nulls."""
        return not any(is_null(v) for v in self.values)

    def substitute(self, mapping: Mapping[LabeledNull, Value]) -> "Fact":
        """Apply a null substitution, returning a new fact."""
        return Fact(
            self.relation,
            tuple(mapping.get(v, v) if is_null(v) else v for v in self.values),
        )

    def __repr__(self) -> str:
        # map() over a genexpr: fact reprs order every match index and
        # the error-mediator groups during grounding, so this runs hot
        # on every cold start.
        inner = ", ".join(map(repr, self.values))
        return f"{self.relation}({inner})"


def fact(relation: str, *values: object) -> Fact:
    """Convenience constructor wrapping raw python values as constants.

    ``LabeledNull`` arguments are kept as-is; anything else becomes a
    :class:`Constant`.  Example: ``fact("task", "ML", "Alice", null)``.
    """
    wrapped = tuple(
        v if isinstance(v, (Constant, LabeledNull)) else Constant(v) for v in values
    )
    return Fact(relation, wrapped)


def picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A C-level getter of ``tuple(row[p] for p in positions)`` from a tuple row.

    ``itemgetter`` returns a bare item for one position, so one position
    (and none) is read as a slice, which of a tuple is a tuple.
    """
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0, 0))


class MatchIndex:
    """Which facts of an instance can a fact map onto, by known values.

    ``ordered`` holds the instance's facts sorted by ``repr`` (ties keep
    insertion order); a fact's *rank* is its position there.  A
    *projection* ``(relation, arity, positions)`` maps the values at
    *positions* (ascending) to the ascending ranks of the facts of that
    relation and arity holding them, so one dict probe answers a match
    exactly and in rank order.  Projections are built on first use, one
    pass over the relation's facts each, and stored only once complete,
    so a thread sharing the index never reads a half-built one.  The
    facts never change: the owning :class:`Instance` drops the index on
    any edit.  The index creates no reference cycle.
    """

    __slots__ = ("ordered", "_buckets", "_rows", "_projections")

    def __init__(self, facts: Iterable[Fact]):
        self.ordered: tuple[Fact, ...] = tuple(sorted(facts, key=repr))
        rows: dict[str, tuple[list[int], list[tuple[Value, ...]]]] = {}
        for rank, f in enumerate(self.ordered):
            entry = rows.get(f.relation)
            if entry is None:
                entry = rows[f.relation] = ([], [])
            entry[0].append(rank)
            entry[1].append(f.values)
        self._buckets = {name: tuple(ranks) for name, (ranks, _) in rows.items()}
        #: relation -> its facts' values, in rank order.
        self._rows = {name: values for name, (_, values) in rows.items()}
        #: ``(relation, arity, positions)`` -> ``values at positions -> ranks``.
        self._projections: dict[tuple, dict[tuple[Value, ...], tuple[int, ...]]] = {}

    def bucket(self, relation: str) -> tuple[int, ...]:
        """Ranks of all facts of *relation*, ascending."""
        return self._buckets.get(relation, ())

    def projection(
        self, relation: str, arity: int, positions: tuple[int, ...]
    ) -> dict[tuple[Value, ...], tuple[int, ...]]:
        """``values -> ranks`` of the *relation* facts of *arity*, keyed at *positions*.

        *positions* must be ascending.  Each rank tuple is ascending and
        the dict is keyed in the order its keys first occur by rank.
        """
        key = (relation, arity, positions)
        table = self._projections.get(key)
        if table is not None:
            return table
        ranks = self._buckets.get(relation, ())
        rows = self._rows.get(relation, ())
        pick = picker(positions)
        grouped: dict[tuple[Value, ...], list[int]] = {}
        for rank, values in zip(ranks, rows):
            if len(values) != arity:
                continue
            known = pick(values)
            posting = grouped.get(known)
            if posting is None:
                grouped[known] = [rank]
            else:
                posting.append(rank)
        table = {known: tuple(posting) for known, posting in grouped.items()}
        self._projections[key] = table
        return table

    def probe(self, f: Fact) -> tuple[tuple[int, ...], dict[LabeledNull, int]]:
        """The ranks of exactly the facts *f* maps onto, and *f*'s nulls.

        One probe of the projection at *f*'s constant positions; the
        ranks are filtered only when *f* repeats a null.  The nulls map
        each distinct null of *f* to its first position, in that order,
        so the binding onto the fact at rank r is ``{n: ordered[r].values[p]}``.
        """
        values = f.values
        positions: list[int] = []
        known: list[Value] = []
        nulls: dict[LabeledNull, int] = {}
        repeats: list[tuple[int, int]] = []
        for position, value in enumerate(values):
            if isinstance(value, LabeledNull):
                first = nulls.get(value)
                if first is None:
                    nulls[value] = position
                else:
                    repeats.append((position, first))
            else:
                positions.append(position)
                known.append(value)
        ranks = self.projection(f.relation, len(values), tuple(positions)).get(tuple(known), ())
        if repeats and ranks:
            ordered = self.ordered
            ranks = tuple(
                rank
                for rank in ranks
                if all(ordered[rank].values[p] == ordered[rank].values[q] for p, q in repeats)
            )
        return ranks, nulls


class Instance:
    """A set of facts, indexed by relation name.

    Supports set-like operations used throughout the library: membership,
    union, difference, iteration, and per-relation access.
    :meth:`match_index` adds a lazily built :class:`MatchIndex`; it is
    derived state, dropped on :meth:`add`/:meth:`discard` and left out
    of pickles.
    """

    #: The built :class:`MatchIndex`; an instance attribute only while valid.
    _match_index: MatchIndex | None = None

    def __init__(self, facts: Iterable[Fact] = ()):
        # dict-as-ordered-set buckets so ``__iter__`` yields facts in
        # insertion order — set buckets leak the per-process hash seed
        # into anything enumerating an instance (e.g. the scenario
        # generator's skolem-constant assignment), making "deterministic"
        # generation differ across processes (RPL002-class bug).
        self._by_relation: dict[str, dict[Fact, None]] = {}
        for f in facts:
            self.add(f)

    def add(self, f: Fact) -> bool:
        """Add *f*; return True if it was not already present."""
        bucket = self._by_relation.get(f.relation)
        if bucket is None:
            bucket = self._by_relation[f.relation] = {}
        # One hash: storing an existing key keeps its slot and order.
        before = len(bucket)
        bucket[f] = None
        if len(bucket) == before:
            return False
        if self._match_index is not None:
            del self._match_index
        return True

    def discard(self, f: Fact) -> bool:
        """Remove *f* if present; return True if it was removed."""
        bucket = self._by_relation.get(f.relation)
        if bucket and f in bucket:
            del bucket[f]
            if not bucket:
                del self._by_relation[f.relation]
            if self._match_index is not None:
                del self._match_index
            return True
        return False

    def match_index(self) -> MatchIndex:
        """The :class:`MatchIndex` of the current facts, built on first use."""
        index = self._match_index
        if index is None:
            index = self._match_index = MatchIndex(self)
        return index

    def __getstate__(self) -> dict:
        # The index is derived: an instance pickles to the same bytes
        # whether or not it was ever matched against.
        state = self.__dict__
        if "_match_index" in state:
            state = {k: v for k, v in state.items() if k != "_match_index"}
        return state

    def facts_of(self, relation_name: str) -> frozenset[Fact]:
        """All facts of one relation (empty frozenset if none)."""
        return frozenset(self._by_relation.get(relation_name, ()))

    @property
    def relation_names(self) -> frozenset[str]:
        """Names of relations with at least one fact."""
        return frozenset(self._by_relation)

    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Fact):
            return False
        return f in self._by_relation.get(f.relation, ())

    def __iter__(self) -> Iterator[Fact]:
        for bucket in self._by_relation.values():
            yield from bucket

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_relation.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return set(self) == set(other)

    def __or__(self, other: "Instance") -> "Instance":
        return Instance(list(self) + list(other))

    def __sub__(self, other: "Instance") -> "Instance":
        return Instance(f for f in self if f not in other)

    def copy(self) -> "Instance":
        # Same facts in the same insertion order, so the index carries
        # over.  Copying the buckets reuses their stored fact hashes.
        duplicate = Instance()
        duplicate._by_relation = {
            name: dict(bucket) for name, bucket in self._by_relation.items()
        }
        if self._match_index is not None:
            duplicate._match_index = self._match_index
        return duplicate

    @property
    def nulls(self) -> set[LabeledNull]:
        """All labeled nulls occurring anywhere in the instance."""
        found: set[LabeledNull] = set()
        for f in self:
            found.update(f.nulls)
        return found

    @property
    def is_ground(self) -> bool:
        """True iff no fact contains a labeled null."""
        return all(f.is_ground for f in self)

    def validate_against(self, schema) -> None:
        """Check every fact names a schema relation with matching arity.

        Raises :class:`InstanceError` on the first violation.
        """
        for f in self:
            if f.relation not in schema:
                raise InstanceError(f"fact {f} uses unknown relation {f.relation!r}")
            expected = schema.get(f.relation).arity
            if f.arity != expected:
                raise InstanceError(
                    f"fact {f} has arity {f.arity}, relation {f.relation!r} expects {expected}"
                )

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self._by_relation):
            for f in sorted(self._by_relation[name], key=repr):
                parts.append(repr(f))
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class DataExample:
    """A data example (I, J): a source instance and a target instance.

    The target instance J is the user's (possibly noisy, possibly partial)
    assertion of what migrating I should produce.  J is normally ground.
    """

    source: Instance
    target: Instance
