"""Database instances: sets of facts over a schema.

Facts hold :class:`~repro.datamodel.values.Constant` or
:class:`~repro.datamodel.values.LabeledNull` values.  Instances bucket
facts by relation name.  An instance that facts are matched *against*
(the target example J, the source a chase joins over, a scoring
reference) also builds a :class:`MatchIndex` on first use: postings
``(relation, position, value) -> facts`` in ``repr``-sorted order, so a
match visits only the facts sharing one of the query's known values
instead of a whole relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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


class MatchIndex:
    """Which facts of an instance can a fact map onto, by known values.

    ``ordered`` holds the instance's facts sorted by ``repr`` (ties keep
    insertion order); a fact's *rank* is its position there.  Relation
    buckets and the postings ``(relation, position, value) -> ranks``
    are ascending rank tuples, so whichever list a lookup scans, the
    survivors come out in the same order.  The index is immutable: the
    owning :class:`Instance` drops it on any edit.

    The build splits the ranks by relation in one pass and then builds
    each relation's postings a column at a time
    (:func:`_relation_columns`); every posting dict is keyed in the
    order its values first occur.  It creates no reference cycle.
    """

    __slots__ = ("ordered", "_buckets", "_columns")

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
        #: relation -> one ``value -> ranks`` dict per attribute position.
        self._columns = {
            name: _relation_columns(ranks, values) for name, (ranks, values) in rows.items()
        }

    def bucket(self, relation: str) -> tuple[int, ...]:
        """Ranks of all facts of *relation*, ascending."""
        return self._buckets.get(relation, ())

    def lookup(self, relation: str, known: Sequence[Value | None]) -> tuple[int, ...]:
        """Ranks of a superset of the *relation* facts agreeing with *known*.

        ``known[i]`` is the value required at position ``i``, or None
        where any value will do.  Returns the shortest posting list among
        the known positions (ascending), the whole relation bucket when
        none is known, and nothing when a known value occurs nowhere or
        *known* is longer than any fact of the relation.
        """
        best = self._buckets.get(relation, ())
        columns = self._columns.get(relation, ())
        if len(known) > len(columns):
            return ()
        for column, value in zip(columns, known):
            if value is None:
                continue
            posting = column.get(value, ())
            if len(posting) < len(best):
                if not posting:
                    return ()
                best = posting
        return best

    def candidates(
        self, f: Fact, fixed: Mapping[LabeledNull, Value] | None = None
    ) -> tuple[int, ...]:
        """Ranks of a superset of the facts *f* can map onto, ascending.

        Known positions are *f*'s constants and its nulls bound in
        *fixed*.  Callers still test each candidate with
        :func:`~repro.homomorphism.search.fact_matches`.
        """
        pinned = fixed or {}
        return self.lookup(
            f.relation,
            [pinned.get(v) if isinstance(v, LabeledNull) else v for v in f.values],
        )


def _relation_columns(
    ranks: list[int], rows: list[tuple[Value, ...]]
) -> list[dict[Value, tuple[int, ...]]]:
    """The postings of one relation: per position, ``value -> ranks``.

    *rows* are the relation's fact values at ascending *ranks*.  Each
    posting dict is keyed in first-occurrence order and each posting is
    ascending; a fact shorter than the widest one is absent from the
    positions it lacks.
    """
    width = max(map(len, rows))
    if all(len(r) == width for r in rows):
        columns = [(ranks, column) for column in zip(*rows)]
    else:
        columns = []
        for position in range(width):
            kept = [(rank, r[position]) for rank, r in zip(ranks, rows) if len(r) > position]
            columns.append(([rank for rank, _ in kept], [value for _, value in kept]))
    postings = []
    for column_ranks, column in columns:
        grouped: dict[Value, list[int]] = {}
        for rank, value in zip(column_ranks, column):
            posting = grouped.get(value)
            if posting is None:
                grouped[value] = [rank]
            else:
                posting.append(rank)
        postings.append({value: tuple(posting) for value, posting in grouped.items()})
    return postings


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
        bucket = self._by_relation.setdefault(f.relation, {})
        if f in bucket:
            return False
        bucket[f] = None
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
