"""Primitive-level mutation chains over generated scenarios.

Incremental-grounding workloads need *edit chains*: a scenario whose
data changes a few tuples at a time, each revision solved against the
previous one.  This module supplies the edit primitives —
:class:`AddTargetTuple` / :class:`RemoveTargetTuple` /
:class:`AddSourceTuple` / :class:`RemoveSourceTuple` /
:class:`FlipCandidate` — and :class:`MutableSelection`, which replays
them as *deltas*, each edit redoing only the work it can change.  The
merged :class:`~repro.selection.metrics.SelectionProblem` of every
revision is **byte-identical**
(:func:`~repro.selection.metrics.problem_fingerprint`) to a from-scratch
:func:`~repro.selection.metrics.build_selection_problem` of the mutated
data — the equivalence suite asserts it.

* A **target edit** (add or remove J fact t) re-chases nothing and
  *retables* — recomputes the cover table and error set of — only the
  candidates that **reach** t: those with a chase fact f of t's relation
  where ``fact_matches(f, t)`` is not None.  That is exact.  ``covers``
  and ``creates`` depend on J only through homomorphisms of the
  candidate's own chase facts into J, and a homomorphism (corroborating
  ones included) can send a chase fact onto t only if that fact matches
  t.  So for any other candidate the images, witnesses, error set and
  cover keys (J's ``repr`` order among the facts it reaches) stay as
  they were, and it keeps its tables object.
* A **source edit** re-chases only the candidates whose tgd body reads
  the touched relation; with J unchanged, everyone else's tables stand.
* A **flip** re-chases the one slot it replaces.

All stored tables keep candidate-*local* null labels; the merge shifts
them into the global label space exactly as a from-scratch build would,
so equivalence survives any mix of reused, retabled and re-chased
candidates.  A candidate whose chase, error set and null offset did not
move reuses its relabelled chase instance and error set from the
previous revision (:meth:`~repro.selection.metrics.CandidateTables.
shifted`).  The source and target instances are copy-on-write: an edit
copies the one instance it edits before editing it.  Successive
revisions therefore share the relabelled chases and the unedited
instance; none of them may be mutated in place.

Every revision carries a :class:`~repro.selection.metrics.
ProblemLineage` linking it to its parent, which is what lets the
collective grounding cache *patch* the parent's compiled structure
instead of re-grounding (see ``docs/incremental.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.datamodel.instance import Fact, Instance
from repro.errors import SelectionError
from repro.homomorphism.search import fact_matches
from repro.mappings.tgd import StTgd
from repro.selection.metrics import (
    CandidateTables,
    SelectionProblem,
    candidate_metrics,
    evaluate_candidate,
    merge_candidate_tables,
    next_lineage,
)


@dataclass(frozen=True)
class AddTargetTuple:
    """Add *fact* to the target example J."""

    fact: Fact


@dataclass(frozen=True)
class RemoveTargetTuple:
    """Remove *fact* from the target example J."""

    fact: Fact


@dataclass(frozen=True)
class AddSourceTuple:
    """Add *fact* to the source instance I (re-chases touching candidates)."""

    fact: Fact


@dataclass(frozen=True)
class RemoveSourceTuple:
    """Remove *fact* from the source instance I (re-chases touching candidates)."""

    fact: Fact


@dataclass(frozen=True)
class FlipCandidate:
    """Replace the candidate at *index* with *candidate*.

    The primitive-level "flip a correspondence": correspondence noise
    manifests at the selection layer as one candidate tgd swapped for a
    variant targeting a different attribute.
    """

    index: int
    candidate: StTgd


Mutation = Union[
    AddTargetTuple, RemoveTargetTuple, AddSourceTuple, RemoveSourceTuple, FlipCandidate
]


class MutableSelection:
    """A selection problem that absorbs edits incrementally.

    Keeps the per-candidate :class:`~repro.selection.metrics.
    CandidateTables` in their candidate-local null-label space plus the
    current source/target instances (copied once here, then copied on
    write by each edit).  :meth:`apply` recomputes only what an edit can
    touch — see the module docstring for the reach rule — and re-merges;
    the resulting problems form a lineage chain consumable by the
    incremental grounding tier.

    ``rechased_candidates`` counts the chases actually rerun across the
    chain's lifetime — the work the delta replay saved is the chain
    length times the candidate count, minus it.  ``retabled_candidates``
    counts the cover-table/error-set recomputations target edits made
    on a reused chase.
    """

    def __init__(
        self,
        source: Instance,
        target: Instance,
        candidates: Iterable[StTgd],
    ):
        self.source = source.copy()
        self.target = target.copy()
        self.candidates = list(candidates)
        if not all(isinstance(c, StTgd) for c in self.candidates):
            raise SelectionError("candidates must be StTgd objects")
        self._tables: list[CandidateTables] = [
            evaluate_candidate(self.source, self.target, candidate, index)
            for index, candidate in enumerate(self.candidates)
        ]
        self.rechased_candidates = 0
        self.retabled_candidates = 0
        self.problem = self._merge(parent=None)

    def _merge(self, parent) -> SelectionProblem:
        problem = merge_candidate_tables(
            self.source, self.target, list(self.candidates), self._tables
        )
        problem.lineage = next_lineage(parent)
        return problem

    def _rechase(self, index: int) -> CandidateTables:
        self.rechased_candidates += 1
        return evaluate_candidate(
            self.source, self.target, self.candidates[index], index
        )

    def _retable(self, table: CandidateTables) -> CandidateTables:
        """Recompute covers/errors against the current target, reusing the chase.

        Cover degrees and ``creates`` are invariant under null
        relabeling, so computing them on the local-label chase facts
        yields exactly what a from-scratch evaluation would.
        """
        self.retabled_candidates += 1
        covers, errors = candidate_metrics(table.chase, self.target)
        return table.retabled(covers, errors)

    def _body_relations(self, index: int) -> frozenset[str]:
        return frozenset(a.relation for a in self.candidates[index].body)

    def _retable_reaching(self, fact: Fact) -> None:
        # Only a candidate with a chase fact matching *fact* can have a
        # homomorphism onto it; every other candidate's tables stand.
        for i, table in enumerate(self._tables):
            if any(
                f.relation == fact.relation and fact_matches(f, fact) is not None
                for f in table.chase
            ):
                self._tables[i] = self._retable(table)

    def _rechase_reading(self, relation: str) -> None:
        # Re-chase exactly the candidates whose body reads the touched
        # relation; everyone else's chase — and, with the target
        # untouched, covers and errors too — stands as-is.
        for i in range(len(self.candidates)):
            if relation in self._body_relations(i):
                self._tables[i] = self._rechase(i)

    def apply(self, mutation: Mutation) -> SelectionProblem:
        """Apply one edit; returns the new (lineage-linked) problem.

        An invalid edit raises :class:`~repro.errors.SelectionError` and
        changes nothing.
        """
        if isinstance(mutation, (AddTargetTuple, RemoveTargetTuple)):
            add = isinstance(mutation, AddTargetTuple)
            self.target = _edited(self.target, mutation.fact, add, "target")
            self._retable_reaching(mutation.fact)
        elif isinstance(mutation, (AddSourceTuple, RemoveSourceTuple)):
            add = isinstance(mutation, AddSourceTuple)
            self.source = _edited(self.source, mutation.fact, add, "source")
            self._rechase_reading(mutation.fact.relation)
        elif isinstance(mutation, FlipCandidate):
            if not 0 <= mutation.index < len(self.candidates):
                raise SelectionError(f"no candidate at index {mutation.index}")
            if not isinstance(mutation.candidate, StTgd):
                raise SelectionError("candidates must be StTgd objects")
            self.candidates[mutation.index] = mutation.candidate
            self._tables[mutation.index] = self._rechase(mutation.index)
        else:
            raise SelectionError(f"unknown mutation {mutation!r}")
        self.problem = self._merge(parent=self.problem.lineage)
        return self.problem


def _edited(instance: Instance, fact: Fact, add: bool, side: str) -> Instance:
    """A copy of *instance* with *fact* added or removed; *instance* is untouched."""
    if (fact in instance) == add:
        raise SelectionError(f"{fact} {'already' if add else 'not'} in {side}")
    edited = instance.copy()
    if add:
        edited.add(fact)
    else:
        edited.discard(fact)
    return edited


def mutation_chain(
    source: Instance,
    target: Instance,
    candidates: Iterable[StTgd],
    mutations: Iterable[Mutation],
) -> Iterator[tuple[Mutation | None, SelectionProblem]]:
    """Replay *mutations* as a lineage-linked chain of selection problems.

    Yields ``(None, base_problem)`` first, then ``(mutation, problem)``
    per applied edit.  Each yielded problem's ``lineage.parent`` names
    the previous revision, so solving them in order through the
    collective grounding cache exercises the patch tier at every step.
    """
    state = MutableSelection(source, target, candidates)
    yield None, state.problem
    for mutation in mutations:
        yield mutation, state.apply(mutation)
