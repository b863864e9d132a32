"""The dict-walking collective grounding plan, frozen as a test reference.

This is the plan :mod:`repro.selection.collective` used before it read
the problem's :class:`~repro.selection.index.ObjectiveIndex`: it walks
the ``Fact -> Fraction`` cover tables and the error-fact sets, and
builds each block term by term through ``GroundAtom``-keyed
:class:`~tests.psl.term_blocks.TermBlockBuilder` calls.  The index-built
grounding must give the same MRF byte for byte
(``tests/selection/test_collective_plan.py``).

* Coverage: one entry per J fact some candidate covers, in ``j_facts``
  order, with its candidates in ascending order; a cover entry for a
  fact outside J is skipped.
* Shared errors: every error fact gets its index in the ``repr``-sorted
  list of all error facts; the ones two or more candidates create get
  a mediator variable.
* Priors: each candidate's private-error count and size, folded into
  one penalty at the weights; only positive penalties ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.datamodel.instance import Fact
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import GroundAtom
from repro.psl.sharding import ShardResult, ground_shards
from repro.selection.collective import (
    ERROR_PREDICATE,
    EXPLAINED_PREDICATE,
    IN_PREDICATE,
    CollectiveSettings,
)
from repro.selection.metrics import SelectionProblem
from tests.psl.term_blocks import TermBlockBuilder


@dataclass(frozen=True)
class CoverageShard:
    """Per entry ``(t_idx, ((candidate, degree), ...))``: the reward
    potential and the support cap of J fact ``t_idx``."""

    order: int
    entries: tuple[tuple[int, tuple[tuple[int, float], ...]], ...]
    weight: float

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for t_idx, support in self.entries:
            atom = GroundAtom(EXPLAINED_PREDICATE, (t_idx,))
            builder.add_potential([(atom, -1.0)], 1.0, self.weight)
            cap = [(atom, 1.0)]
            for i, degree in support:
                cap.append((GroundAtom(IN_PREDICATE, (i,)), -degree))
            builder.add_constraint(cap, 0.0)
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


@dataclass(frozen=True)
class ErrorShard:
    """Per entry ``(e_idx, (owners...))``: the penalty potential of
    ``errorOf(e)`` and one cap ``in(theta) <= errorOf(e)`` per owner."""

    order: int
    entries: tuple[tuple[int, tuple[int, ...]], ...]
    weight: float

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for e_idx, owners in self.entries:
            atom = GroundAtom(ERROR_PREDICATE, (e_idx,))
            builder.add_potential([(atom, 1.0)], 0.0, self.weight)
            for i in owners:
                builder.add_constraint(
                    [(GroundAtom(IN_PREDICATE, (i,)), 1.0), (atom, -1.0)], 0.0
                )
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


@dataclass(frozen=True)
class PriorShard:
    """Per entry ``(candidate, penalty)``: the prior ``penalty * in(theta)``."""

    order: int
    entries: tuple[tuple[int, float], ...]

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for i, penalty in self.entries:
            builder.add_potential([(GroundAtom(IN_PREDICATE, (i,)), 1.0)], 0.0, penalty)
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


@dataclass(frozen=True)
class ReferencePlan:
    """The variable order and the block shards of one problem."""

    targets: tuple[GroundAtom, ...]
    shards: tuple


def plan_collective_grounding(
    problem: SelectionProblem, settings: CollectiveSettings | None = None
) -> ReferencePlan:
    """The plan, straight from the problem's dicts and sets."""
    settings = settings or CollectiveSettings()
    weights = settings.weights

    coverers: dict[Fact, list[tuple[int, Fraction]]] = {}
    for i, table in enumerate(problem.covers):
        for t, degree in table.items():
            coverers.setdefault(t, []).append((i, degree))
    coverage_entries: list[tuple[int, tuple[tuple[int, float], ...]]] = []
    for t_idx, t in enumerate(problem.j_facts):
        support = coverers.get(t)
        if not support:
            continue
        coverage_entries.append(
            (t_idx, tuple((i, float(degree)) for i, degree in support))
        )

    owners: dict[Fact, list[int]] = {}
    for i, facts in enumerate(problem.error_facts):
        for f in facts:
            owners.setdefault(f, []).append(i)
    private_error_counts = [0] * problem.num_candidates
    error_entries: list[tuple[int, tuple[int, ...]]] = []
    for e_idx, (f, who) in enumerate(sorted(owners.items(), key=lambda kv: repr(kv[0]))):
        if len(who) == 1:
            private_error_counts[who[0]] += 1
        else:
            error_entries.append((e_idx, tuple(who)))

    prior_entries: list[tuple[int, float]] = []
    for i in range(problem.num_candidates):
        penalty = float(
            weights.errors * private_error_counts[i] + weights.size * int(problem.sizes[i])
        )
        if penalty > 0:
            prior_entries.append((i, penalty))

    shards: list = []
    if coverage_entries:
        shards.append(
            CoverageShard(len(shards), tuple(coverage_entries), float(weights.explains))
        )
    if error_entries:
        shards.append(ErrorShard(len(shards), tuple(error_entries), float(weights.errors)))
    if prior_entries:
        shards.append(PriorShard(len(shards), tuple(prior_entries)))

    targets = (
        *(GroundAtom(IN_PREDICATE, (i,)) for i in range(problem.num_candidates)),
        *(GroundAtom(EXPLAINED_PREDICATE, (t_idx,)) for t_idx, _ in coverage_entries),
        *(GroundAtom(ERROR_PREDICATE, (e_idx,)) for e_idx, _ in error_entries),
    )
    return ReferencePlan(targets=targets, shards=tuple(shards))


def ground_reference(
    problem: SelectionProblem, settings: CollectiveSettings | None = None
) -> HingeLossMRF:
    """The reference plan's blocks merged into one MRF, targets first."""
    plan = plan_collective_grounding(problem, settings)
    mrf = HingeLossMRF()
    mrf.intern_atoms(plan.targets)
    return ground_shards(plan.shards, mrf=mrf)
