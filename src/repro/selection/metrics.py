"""Precomputed metric tables for mapping selection.

Selecting a mapping only needs three ingredients per candidate theta:

* ``covers[(i, t)]`` — the graded degree to which candidate i explains
  target-example fact t (only non-zero entries are stored);
* the set of *error facts* candidate i creates (chase facts with no
  homomorphic image in J);
* ``size(theta_i)``.

:func:`build_selection_problem` chases the source once per candidate
(:func:`chase_candidate`) and evaluates the paper's homomorphism-based
covers/creates semantics (Eq. (9); its literal definition is the test
reference ``tests/covers_reference.py``) in one pass over the chase
(:func:`candidate_metrics`): each chase fact's images in J are
enumerated once, through J's
:class:`~repro.datamodel.instance.MatchIndex`, and give its error flag,
its share of the null corroboration counts and the explained positions
of every J fact it maps onto.  J is sorted once per build, by that
index; ``j_facts`` and every cover table follow its ``repr`` order.
All downstream solvers (exact, greedy, collective/PSL) consume the
resulting :class:`SelectionProblem`, so they optimize exactly the same
objective.  A problem over a subset of J (J-sampling, the
certain-unexplained reduction) is that build cut down by
:func:`restrict_problem`, never a second build.

The per-candidate work (chase + cover table + error set) is independent
across candidates and runs in the calling process.  Each candidate
chases with its own null factory starting at ``first_null``, its
*offset*: the number of nulls the candidates before it consumed.  That
gives, byte for byte, the labels a single shared
:class:`~repro.datamodel.values.NullFactory` threaded through one loop
would have handed out, so candidates never share a null, and a chase at
its offset is never relabelled.  A chase run elsewhere can be handed to
the build (its ``chases`` argument) and is used where it was run at the
candidate's offset: scenario generation's data-noise step chases every
candidate at its offset, and
:meth:`~repro.ibench.scenario.Scenario.selection_problem` hands those
chases over, so a noisy scenario's build chases nothing.
:class:`~repro.ibench.mutations.MutableSelection` keeps every
candidate's tables at local labels (``first_null=0``), so it can
re-chase one candidate alone, and the merge moves each into place
(:func:`shift_nulls`).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.chase.engine import chase_single
from repro.collector import paused_collector
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import LabeledNull, NullFactory, Value
from repro.errors import SelectionError
from repro.mappings.tgd import StTgd
from repro.selection.index import ObjectiveIndex


@dataclass(frozen=True)
class ProblemLineage:
    """Revision identity linking a problem to the one it was edited from.

    ``token`` names *this* revision; ``parent`` the revision this
    problem was derived from by a small edit (``None`` for a chain
    root).  Consumed by the incremental grounding tier
    (:class:`~repro.selection.collective.CollectiveGroundingCache`): a
    cache miss on a problem whose parent's artifact is still cached
    *patches* that artifact — re-grounds only the shards the edit
    touched — instead of grounding from scratch.  Tokens are opaque and
    only compared for equality; :func:`next_lineage` mints
    process-unique ones.
    """

    token: object
    parent: object | None = None


#: Process-wide revision counter behind :func:`next_lineage`.
_LINEAGE_COUNTER = itertools.count()


def next_lineage(parent: ProblemLineage | None = None) -> ProblemLineage:
    """A fresh lineage whose parent is *parent*'s token (if any)."""
    token = ("lineage", os.getpid(), next(_LINEAGE_COUNTER))
    return ProblemLineage(token=token, parent=None if parent is None else parent.token)


@dataclass
class SelectionProblem:
    """A fully materialized instance of the mapping-selection problem.

    Attributes:
        candidates: the candidate st tgds, index-addressed everywhere else.
        source: the source instance I.
        target: the target example J.
        j_facts: J's facts in a fixed order.
        covers: ``covers[i][t]`` — non-zero cover degrees of candidate i.
        error_facts: per candidate, the chase facts flagged as errors.
        sizes: per candidate, the paper's size measure.
        chase_by_candidate: per candidate, its canonical chase instance.
        lineage: optional revision identity for incremental grounding;
            ``None`` means the problem was built outside an edit chain.
    """

    candidates: list[StTgd]
    source: Instance
    target: Instance
    j_facts: list[Fact]
    covers: list[dict[Fact, Fraction]]
    error_facts: list[frozenset[Fact]]
    sizes: list[int]
    chase_by_candidate: list[Instance] = field(default_factory=list)
    lineage: ProblemLineage | None = None

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def objective_index(self) -> ObjectiveIndex:
        """The integer index of these tables, built on first use.

        The tables are treated as immutable from then on.  The index is
        derived state: :meth:`__getstate__` leaves it out, so pickles and
        :func:`problem_fingerprint` do not depend on whether it was built.
        """
        index = getattr(self, "_objective_index", None)
        if index is None:
            index = self._objective_index = ObjectiveIndex(self)
        return index

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_objective_index", None)
        return state

    def max_cover(self, t: Fact, selected: Iterable[int]) -> Fraction:
        """explains(M, t): best cover of t over the selected candidates."""
        best = Fraction(0)
        for i in selected:
            d = self.covers[i].get(t)
            if d is not None and d > best:
                best = d
                if best == 1:
                    break
        return best

    def union_error_facts(self, selected: Iterable[int]) -> set[Fact]:
        """Distinct error facts created by the selected candidates.

        Facts with labeled nulls are private to one candidate by
        construction (fresh nulls per chase), while ground facts produced
        by several full tgds coincide and are counted once — matching the
        sum over K_C - J in the objective.
        """
        union: set[Fact] = set()
        for i in selected:
            union.update(self.error_facts[i])
        return union

    def coverable_facts(self) -> set[Fact]:
        """J-facts covered (to any degree) by at least one candidate."""
        coverable: set[Fact] = set()
        for table in self.covers:
            coverable.update(table)
        return coverable

    def certain_unexplained(self) -> list[Fact]:
        """J-facts no candidate covers at all.

        These contribute a constant ``w_explains`` each to every selection's
        objective and can be removed prior to optimization (Section III-C).
        """
        coverable = self.coverable_facts()
        return [t for t in self.j_facts if t not in coverable]


def problem_fingerprint(problem: SelectionProblem) -> bytes:
    """A canonical byte serialization of a problem's metric tables.

    Two problems fingerprint equally iff their j_facts, cover tables,
    error sets, sizes, and chase instances agree — independent of dict/set
    iteration order or the process that produced them.  Used to verify
    that serial and parallel builds are byte-identical.
    """
    import json

    payload = {
        "j_facts": [repr(t) for t in problem.j_facts],
        "covers": [
            sorted((repr(t), str(d)) for t, d in table.items())
            for table in problem.covers
        ],
        "errors": [sorted(repr(f) for f in errs) for errs in problem.error_facts],
        "sizes": list(problem.sizes),
        "chase": [
            sorted(repr(f) for f in inst) for inst in problem.chase_by_candidate
        ],
        "candidates": [repr(c) for c in problem.candidates],
    }
    return json.dumps(payload, sort_keys=True).encode()


class _CountingNullFactory(NullFactory):
    """A null factory that remembers how many nulls it handed out."""

    def __init__(self, start: int) -> None:
        super().__init__(start)
        self.used = 0

    def fresh(self) -> LabeledNull:
        self.used += 1
        return super().fresh()


@dataclass(frozen=True)
class CandidateChase:
    """One candidate's chase of the source.

    ``instance`` holds the facts in chase order, and its nulls are
    exactly ``N(first_null) .. N(first_null + nulls_used - 1)``.
    """

    tgd: StTgd
    instance: Instance
    nulls_used: int
    first_null: int


def chase_candidate(source: Instance, candidate: StTgd, first_null: int = 0) -> CandidateChase:
    """Chase *source* with *candidate* alone, nulls counted from *first_null*."""
    factory = _CountingNullFactory(first_null)
    instance = chase_single(source, candidate, factory)
    return CandidateChase(candidate, instance, factory.used, first_null)


def shift_nulls(facts: Iterable[Fact], delta: int) -> Iterable[Fact]:
    """*facts* with every null label moved by *delta*, in order.

    Each null is relabelled where it occurs, so the cost follows the
    facts moved, not the labels they could hold.  With no move, *facts*
    come back as they are.
    """
    if delta == 0:
        return facts
    return (
        Fact(
            f.relation,
            tuple(
                LabeledNull(v.label + delta) if isinstance(v, LabeledNull) else v
                for v in f.values
            ),
        )
        for f in facts
    )


@dataclass(frozen=True)
class CandidateTables:
    """The metric tables of one candidate, with the null labels of its chase.

    ``chase`` is the candidate's chase instance, whose labels are
    exactly ``first_null .. first_null + nulls_used - 1``; covers and
    error sets do not depend on the labels, and the error facts carry
    the chase's.  :meth:`shifted` moves both to another offset.

    :meth:`shifted` remembers its results for the two latest-used
    offsets, and :meth:`retabled` hands the relabelled chase (and, while
    the error set is unchanged, the relabelled errors) to the new
    tables.  So an edit chain re-merging mostly untouched candidates
    relabels only the ones whose chase, error set or offset moved.
    """

    index: int
    chase: Instance
    covers: dict[Fact, Fraction]
    error_facts: frozenset[Fact]
    nulls_used: int
    first_null: int
    #: offset -> relabelled chase instance / relabelled error set.
    _chase_at: dict[int, Instance] = field(default_factory=dict, compare=False, repr=False)
    _errors_at: dict[int, frozenset[Fact]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def shifted(self, offset: int) -> tuple[Instance, frozenset[Fact]]:
        """The chase instance and error set with null labels starting at *offset*.

        At the chase's own offset (or with no nulls) these are the chase
        instance and the error set themselves.
        """
        delta = offset - self.first_null
        if delta == 0 or self.nulls_used == 0:
            return self.chase, self.error_facts
        chase_instance = _recall(
            self._chase_at, offset, lambda: Instance(shift_nulls(self.chase, delta))
        )
        errors = _recall(
            self._errors_at, offset, lambda: frozenset(shift_nulls(self.error_facts, delta))
        )
        return chase_instance, errors

    def retabled(
        self, covers: dict[Fact, Fraction], error_facts: frozenset[Fact]
    ) -> "CandidateTables":
        """The same chase with a new cover table and error set."""
        return CandidateTables(
            index=self.index,
            chase=self.chase,
            covers=covers,
            error_facts=error_facts,
            nulls_used=self.nulls_used,
            first_null=self.first_null,
            _chase_at=dict(self._chase_at),
            _errors_at=dict(self._errors_at) if error_facts == self.error_facts else {},
        )


def _recall(memo: dict, offset: int, make):
    """``memo[offset]``, made on a miss; keeps the two latest-used offsets.

    Two, because an edit chain that undoes its last source edit moves
    the later candidates' offsets back to where they were.
    """
    value = memo.pop(offset, None)
    if value is None:
        value = make()
        if len(memo) >= 2:
            del memo[next(iter(memo))]
    memo[offset] = value
    return value


def candidate_metrics(
    chase_instance: Instance, target: Instance
) -> tuple[dict[Fact, Fraction], frozenset[Fact]]:
    """One candidate's cover table and error set against the target J.

    One pass enumerates every chase fact's images in J with one exact
    probe of J's match index each; a null's binding is the image's value
    at the null's position.  A fact with no image is an error (the
    paper's ``creates``).  A null n bound to v
    is corroborated for a chase fact iff some *other* chase fact has an
    image binding n to v, so counting, per ``(n, v)``, the chase facts
    with such an image turns every corroboration test into a lookup.
    Then each image scores its explained positions, and the best count
    per J fact becomes one ``Fraction(count, arity)``, shared by every
    J fact with that count and arity.

    The table is keyed in J's ``repr`` order, zeros left out.  It
    equals ``{t: CoverComputer(chase_instance, target).degree(t)}`` over
    J in ``repr`` order, and the error set equals
    ``{f : creates(f, target)}``, with both references the literal
    definitions in ``tests/covers_reference.py``.
    """
    index = target.match_index()
    ordered = index.ordered
    probe = index.probe
    errors: list[Fact] = []
    matched: list[tuple[Fact, tuple[int, ...]]] = []
    #: (null, value) -> how many chase facts have an image binding null to value.
    witnesses: dict[tuple[LabeledNull, Value], int] = {}
    for f in chase_instance:
        ranks, nulls = probe(f)
        if not ranks:
            errors.append(f)
            continue
        matched.append((f, ranks))
        if nulls:
            # Each (null, value) once per fact, in a fixed order; the
            # image binds a null to its value at the null's position.
            pairs = dict.fromkeys(
                (null, ordered[rank].values[position])
                for rank in ranks
                for null, position in nulls.items()
            )
            for pair in pairs:
                witnesses[pair] = witnesses.get(pair, 0) + 1

    best: dict[int, int] = {}
    for f, ranks in matched:
        for rank in ranks:
            explained = 0
            for mine, theirs in zip(f.values, ordered[rank].values):
                if not isinstance(mine, LabeledNull) or witnesses[mine, theirs] > 1:
                    explained += 1
            if explained > best.get(rank, 0):
                best[rank] = explained

    # Few distinct (count, arity) pairs occur, so each is one shared Fraction.
    degrees: dict[tuple[int, int], Fraction] = {}
    covers: dict[Fact, Fraction] = {}
    for rank in sorted(best):
        t = ordered[rank]
        pair = (best[rank], t.arity)
        degree = degrees.get(pair)
        if degree is None:
            degree = degrees[pair] = Fraction(*pair)
        covers[t] = degree
    return covers, frozenset(errors)


def tabulate_candidate(
    chased: CandidateChase, target: Instance, index: int = 0
) -> CandidateTables:
    """The cover table and error set of one chased candidate against *target*."""
    table, errors = candidate_metrics(chased.instance, target)
    return CandidateTables(
        index=index,
        chase=chased.instance,
        covers=table,
        error_facts=errors,
        nulls_used=chased.nulls_used,
        first_null=chased.first_null,
    )


def evaluate_candidate(
    source: Instance,
    target: Instance,
    candidate: StTgd,
    index: int = 0,
) -> CandidateTables:
    """The per-candidate work unit: chase, cover table, error set.

    Reads *source* and *target* and changes neither.  Null labels in the
    result are candidate-local (they start at 0).
    """
    return tabulate_candidate(chase_candidate(source, candidate), target, index)


def merge_candidate_tables(
    source: Instance,
    target: Instance,
    candidates: Sequence[StTgd],
    results: Iterable[CandidateTables],
) -> SelectionProblem:
    """Deterministically merge per-candidate tables into a SelectionProblem.

    Results may arrive in any order; they are realigned by index and each
    candidate's null labels are moved to start past all labels consumed
    by earlier candidates — exactly the labels one shared factory would
    give.  Tables chased at that offset are used as they are.
    """
    ordered = sorted(results, key=lambda r: r.index)
    if [r.index for r in ordered] != list(range(len(candidates))):
        raise SelectionError("candidate tables do not cover the candidate list")
    covers_tables: list[dict[Fact, Fraction]] = []
    error_sets: list[frozenset[Fact]] = []
    chases: list[Instance] = []
    offset = 0
    for result in ordered:
        chase_instance, errors = result.shifted(offset)
        offset += result.nulls_used
        chases.append(chase_instance)
        covers_tables.append(dict(result.covers))
        error_sets.append(errors)

    return SelectionProblem(
        candidates=list(candidates),
        source=source,
        target=target,
        j_facts=list(target.match_index().ordered),
        covers=covers_tables,
        error_facts=error_sets,
        sizes=[c.size for c in candidates],
        chase_by_candidate=chases,
    )


def restrict_problem(problem: SelectionProblem, facts: Iterable[Fact]) -> SelectionProblem:
    """*problem* with its target example cut down to *facts*, a subset of J.

    ``j_facts`` keeps J's ``repr`` order and each cover table keeps its
    own order, both filtered to the kept facts.  Candidates, error sets,
    sizes and chases are *problem*'s own: they were computed against all
    of J, so a fact left out neither weakens a null's corroboration nor
    turns an explained chase fact into an error.  J-sampling and the
    certain-unexplained reduction both derive their problems this way.
    """
    kept = set(facts)
    j_facts = [t for t in problem.j_facts if t in kept]
    if len(j_facts) != len(kept):
        raise SelectionError("can only restrict a problem to facts of its target")
    return SelectionProblem(
        candidates=problem.candidates,
        source=problem.source,
        target=Instance(j_facts),
        j_facts=j_facts,
        covers=[{t: d for t, d in table.items() if t in kept} for table in problem.covers],
        error_facts=problem.error_facts,
        sizes=problem.sizes,
        chase_by_candidate=problem.chase_by_candidate,
    )


@paused_collector()
def build_selection_problem(
    source: Instance,
    target: Instance,
    candidates: Sequence[StTgd],
    chases: Mapping[int, CandidateChase] | None = None,
) -> SelectionProblem:
    """Chase each candidate and materialize covers/creates/size tables.

    Each candidate is chased at its offset, the nulls the candidates
    before it consumed, so the merge relabels nothing.  *chases* maps
    candidate indices to :func:`chase_candidate` results of *source*
    that the caller already ran; such a chase is used instead of chasing
    again, but only where its ``tgd`` is the candidate at its index and
    its ``first_null`` is that candidate's offset.  This is how
    :meth:`~repro.ibench.scenario.Scenario.selection_problem` hands over
    the chases scenario generation ran.  The build creates no reference
    cycle and runs with the cyclic collector paused
    (:mod:`repro.collector`).
    """
    if not all(isinstance(c, StTgd) for c in candidates):
        raise SelectionError("candidates must be StTgd objects")
    chases = chases or {}
    tables = []
    offset = 0
    for index, candidate in enumerate(candidates):
        chased = chases.get(index)
        if chased is None or chased.tgd is not candidate or chased.first_null != offset:
            chased = chase_candidate(source, candidate, offset)
        tables.append(tabulate_candidate(chased, target, index))
        offset += chased.nulls_used
    return merge_candidate_tables(source, target, candidates, tables)
