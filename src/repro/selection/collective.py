"""The collective, probabilistic mapping selector — the paper's method.

The discrete objective F(M) of :mod:`repro.selection.objective` is relaxed
into a hinge-loss MRF (the PSL MAP problem) over soft variables:

* ``in(theta)`` in [0,1] — degree of membership of candidate theta in M;
* ``explained(t)`` in [0,1] — degree to which example fact t is explained.

Model (per Section V of the paper, arithmetic-rule formulation):

====================  =====================================================
coverage reward       ``w_expl * max(0, 1 - explained(t))`` for each t in J
support cap (hard)    ``explained(t) <= sum_theta covers(theta,t)*in(theta)``
error penalty         ``w_err * in(theta)`` per error fact theta creates
size prior            ``w_size * size(theta) * in(theta)``
====================  =====================================================

All terms are jointly minimized by consensus ADMM — the *collective* part:
candidates compete and cooperate through the shared ``explained`` atoms
rather than being scored independently.  The fractional MAP state is then
rounded (threshold sweep + 1-flip local search, both scored by the exact
discrete F) into the final selection.

Error facts shared by several candidates (possible for full tgds that
produce identical ground facts) are mediated through an auxiliary
``errorOf(t)`` variable so each error is paid once, matching the
``sum over K_C - J`` of the objective.

**Sharded grounding.**  The HL-MRF is compiled straight from the
:class:`~repro.selection.metrics.SelectionProblem` in shards
(:mod:`repro.psl.sharding`): coverage shards over slices of
``j_facts``, error shards over slices of the shared-error owner groups,
prior shards over slices of the candidate list.  Each shard is a small
spec carrying only its slice of the tables; shards build and merge one
at a time in spec order on the calling thread, so the peak working set
of a build is O(largest shard), and the deterministic merge gives the
same MRF byte for byte for any shard size.  The shard
boundaries survive into the merged MRF as term-block extents, which the
incremental splice engine (:mod:`repro.psl.delta`) patches by.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.errors import InferenceError

from repro.datamodel.instance import Fact
from repro.psl.admm import AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.delta import (
    ShardRecord,
    SpliceStats,
    match_shards,
    record_for,
    splice_grounding,
)
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.partition import compile_term_arrays
from repro.psl.predicate import GroundAtom, Predicate
from repro.psl.rounding import round_solution
from repro.psl.sharding import (
    GroundingShard,
    GroundingStats,
    ShardResult,
    TermBlockBuilder,
    ground_shards,
    iter_slices,
)
from repro.selection.exact import SelectionResult
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    ObjectiveWeights,
    objective_evaluator,
)

#: The model's predicates.  Module-level so shard specs (and pickled
#: groundings) rebuild atom keys that compare equal.
IN_PREDICATE = Predicate("inMap", 1)
EXPLAINED_PREDICATE = Predicate("explained", 1)
ERROR_PREDICATE = Predicate("errorOf", 1)

#: Origin-group keys of the model's weighted objective components.  Every
#: potential the shards emit is tagged with one of these, so a grounded
#: MRF can be *reweighted* in place — per-term weights recomputed from a
#: new :class:`~repro.selection.objective.ObjectiveWeights` — instead of
#: re-ground.  Coverage and error-mediator terms scale uniformly with
#: their component weight; prior terms are per-candidate linear
#: combinations (``w_err * private_errors + w_size * size``) and go
#: through the per-member weight API.
GROUP_EXPLAINS = "explains"
GROUP_ERRORS = "errors"
GROUP_PRIOR = "prior"


@dataclass
class CollectiveSettings:
    """Knobs of the collective selector.

    ``ground_shard_size`` sets how finely the HL-MRF grounding is
    sharded (``None`` → default shard size); shards are the unit the
    patch tier re-grounds.  Grounding always runs on the calling
    thread.  Every field is picklable, so settings travel inside engine
    work units.
    """

    weights: ObjectiveWeights = DEFAULT_WEIGHTS
    admm: AdmmSettings = field(default_factory=AdmmSettings)
    squared_hinges: bool = False
    rounding_local_search: bool = True
    ground_shard_size: int | None = None
    #: Reuse a per-process :class:`GroundedCollective` across solves of
    #: the same problem structure: weight-only changes reweight the
    #: cached MRF in place and re-solve on its compiled ADMM arrays
    #: instead of re-grounding (results are bit-identical to the
    #: re-grounding path).  Set False to force a fresh ground per call.
    reuse_grounding: bool = True
    #: Incremental (delta) grounding: when a problem carries a
    #: :class:`~repro.selection.metrics.ProblemLineage` naming a parent
    #: revision whose artifact is cached, a cache miss first tries to
    #: *patch* the parent's compiled structure — re-ground only the
    #: shards the edit touched, splice the rest
    #: (:func:`patch_collective`) — before grounding fresh.  Patched
    #: artifacts are bit-identical to a fresh ground; set False to force
    #: a full re-ground.
    incremental: bool = True


@dataclass(frozen=True)
class CollectiveResult(SelectionResult):
    """Selection plus the relaxation's fractional state and diagnostics.

    ``fractional`` holds the ``in`` memberships by candidate index;
    ``fractional_aux`` the ``explained``/``errorOf`` atom values keyed by
    ``(predicate name, index)`` — the payload that lets warm starts seed
    *all* atoms of the next solve, not just the memberships.
    """

    fractional: dict[int, float] = field(default_factory=dict)
    fractional_aux: dict[tuple[str, int], float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True
    num_potentials: int = 0
    num_constraints: int = 0
    admm_state: AdmmWarmState | None = None
    grounding: GroundingStats | None = None


# -- shard work units ---------------------------------------------------------


@dataclass(frozen=True)
class CoverageShard:
    """Coverage terms for a slice of J's facts.

    Per entry ``(t_idx, ((candidate, degree), ...))``: the reward
    potential ``w_expl * max(0, 1 - explained(t))`` and the hard support
    cap ``explained(t) <= sum covers(theta,t) * in(theta)``.
    """

    order: int
    entries: tuple[tuple[int, tuple[tuple[int, float], ...]], ...]
    weight: float
    squared: bool

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for t_idx, support in self.entries:
            atom = GroundAtom(EXPLAINED_PREDICATE, (t_idx,))
            builder.add_potential(
                [(atom, -1.0)], 1.0, self.weight, self.squared, group=GROUP_EXPLAINS
            )
            cap = [(atom, 1.0)]
            for i, degree in support:
                cap.append((GroundAtom(IN_PREDICATE, (i,)), -degree))
            builder.add_constraint(cap, 0.0)
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)

    def content_key(self) -> tuple:
        """Order- and weight-magnitude-independent identity for splicing.

        Weight *magnitude* is excluded — a patched artifact has its
        group weights rewritten at splice time — but the zero flag is
        structural (zero-weight potentials are dropped at grounding), so
        it stays in the key.
        """
        return ("cov", self.entries, self.squared, self.weight == 0)


@dataclass(frozen=True)
class ErrorShard:
    """Shared-error mediator terms for a slice of the owner groups.

    Per entry ``(e_idx, (owners...))``: the penalty potential
    ``w_err * errorOf(e)`` plus one cap ``in(theta) <= errorOf(e)`` per
    owner, so the error is paid once however many owners are selected.
    """

    order: int
    entries: tuple[tuple[int, tuple[int, ...]], ...]
    weight: float
    squared: bool

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for e_idx, owners in self.entries:
            atom = GroundAtom(ERROR_PREDICATE, (e_idx,))
            builder.add_potential(
                [(atom, 1.0)], 0.0, self.weight, self.squared, group=GROUP_ERRORS
            )
            for i in owners:
                builder.add_constraint(
                    [(GroundAtom(IN_PREDICATE, (i,)), 1.0), (atom, -1.0)], 0.0
                )
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)

    def content_key(self) -> tuple:
        """See :meth:`CoverageShard.content_key` — same weight treatment."""
        return ("err", self.entries, self.squared, self.weight == 0)


@dataclass(frozen=True)
class PriorShard:
    """Per-candidate prior potentials for a slice of the candidate list.

    Per entry ``(candidate, penalty)``: the folded private-error + size
    prior ``penalty * in(theta)``.
    """

    order: int
    entries: tuple[tuple[int, float], ...]
    squared: bool

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for i, penalty in self.entries:
            builder.add_potential(
                [(GroundAtom(IN_PREDICATE, (i,)), 1.0)],
                0.0,
                penalty,
                self.squared,
                group=GROUP_PRIOR,
            )
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)

    def content_key(self) -> tuple:
        """Identity by candidate set only: per-candidate penalty
        *magnitudes* are rewritten at splice time through the
        ``member_weights`` channel (they are plain weight changes), but
        which candidates appear is structural."""
        return ("prior", tuple(i for i, _ in self.entries), self.squared)


# -- shard planning -----------------------------------------------------------


@dataclass
class CollectivePlan:
    """The deterministic compilation plan of one selection problem.

    ``targets`` pins the MRF's variable order (``in`` atoms by candidate
    index, then ``explained`` atoms in ``j_facts`` order, then
    ``errorOf`` atoms in sorted-owner-group order); ``shards`` hold the
    work, each spec carrying only its slice of the problem's tables.

    ``prior_components`` records every candidate's raw prior features
    ``(candidate, private error count, size)`` and ``prior_included``
    the candidates whose folded penalty was positive at the planning
    weights (only those became potentials — zero-weight terms are
    dropped at grounding time).  Together they let a grounded MRF be
    *reweighted* for a new :class:`ObjectiveWeights` without
    re-planning: new per-candidate penalties are recomputed from the
    components, and the included set doubles as the zero-pattern guard
    (a penalty crossing zero means the structure itself would change,
    so reweighting must fall back to a fresh ground).
    """

    in_atoms: dict[int, GroundAtom]
    explained_atoms: dict[int, GroundAtom]
    error_atoms: dict[int, GroundAtom]
    targets: tuple[GroundAtom, ...]
    shards: tuple[GroundingShard, ...]
    prior_components: tuple[tuple[int, int, int], ...] = ()
    prior_included: tuple[int, ...] = ()


@dataclass(frozen=True)
class PlanReadout:
    """A plan's atoms resolved to their MRF variable indices.

    Built once per (mrf, plan) — :attr:`GroundedCollective.readout`
    caches it on the artifact — so a solve reads its fractional values
    with two gathers instead of one ``index_of`` per atom.  Keys keep
    the plan's dict order: ``in`` atoms by candidate, then ``explained``
    and ``errorOf`` atoms as ``(predicate name, index)``.
    """

    in_keys: tuple[int, ...]
    in_index: np.ndarray
    aux_keys: tuple[tuple[str, int], ...]
    aux_index: np.ndarray

    @classmethod
    def resolve(cls, mrf: HingeLossMRF, plan: CollectivePlan) -> PlanReadout:
        aux = [
            ((EXPLAINED_PREDICATE.name, t), atom)
            for t, atom in plan.explained_atoms.items()
        ] + [((ERROR_PREDICATE.name, e), atom) for e, atom in plan.error_atoms.items()]
        return cls(
            in_keys=tuple(plan.in_atoms),
            in_index=_atom_indices(mrf, plan.in_atoms.values(), len(plan.in_atoms)),
            aux_keys=tuple(key for key, _ in aux),
            aux_index=_atom_indices(mrf, (atom for _, atom in aux), len(aux)),
        )

    def fractional(self, x: np.ndarray) -> tuple[dict, dict]:
        """*x*'s ``in`` and auxiliary values, keyed like the plan."""
        return (
            dict(zip(self.in_keys, x[self.in_index].tolist())),
            dict(zip(self.aux_keys, x[self.aux_index].tolist())),
        )


def _atom_indices(mrf: HingeLossMRF, atoms, count: int) -> np.ndarray:
    return np.fromiter(map(mrf.index_of, atoms), dtype=np.int64, count=count)


def plan_collective_grounding(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    shard_size: int | None = None,
) -> CollectivePlan:
    """Compile *problem* into shard specs (no term is materialized yet).

    The plan's shard order — coverage slices in ``j_facts`` order, then
    error slices over the repr-sorted shared-error groups, then prior
    slices in candidate order — fixes the potential/constraint order,
    so the merged MRF is fingerprint-identical for every shard size, and
    to adding the same terms one at a time through
    :meth:`~repro.psl.hlmrf.HingeLossMRF.add_potential` and
    :meth:`~repro.psl.hlmrf.HingeLossMRF.add_constraint`.
    """
    settings = settings or CollectiveSettings()
    weights = settings.weights
    squared = settings.squared_hinges

    in_atoms = {
        i: GroundAtom(IN_PREDICATE, (i,)) for i in range(problem.num_candidates)
    }

    # Coverage: one entry per J fact some candidate covers (facts nobody
    # covers are certain-unexplained constants, excluded from the MRF).
    coverers: dict[Fact, list[tuple[int, Fraction]]] = {}
    for i, table in enumerate(problem.covers):
        for t, degree in table.items():
            coverers.setdefault(t, []).append((i, degree))
    coverage_entries: list[tuple[int, tuple[tuple[int, float], ...]]] = []
    explained_atoms: dict[int, GroundAtom] = {}
    for t_idx, t in enumerate(problem.j_facts):
        support = coverers.get(t)
        if not support:
            continue
        explained_atoms[t_idx] = GroundAtom(EXPLAINED_PREDICATE, (t_idx,))
        coverage_entries.append(
            (t_idx, tuple((i, float(degree)) for i, degree in support))
        )

    # Errors: shared facts get a mediator variable; private ones fold
    # into the per-candidate prior below.
    owners: dict[Fact, list[int]] = {}
    for i, facts in enumerate(problem.error_facts):
        for f in facts:
            owners.setdefault(f, []).append(i)
    private_error_counts = [0] * problem.num_candidates
    error_entries: list[tuple[int, tuple[int, ...]]] = []
    error_atoms: dict[int, GroundAtom] = {}
    for e_idx, (f, who) in enumerate(sorted(owners.items(), key=lambda kv: repr(kv[0]))):
        if len(who) == 1:
            private_error_counts[who[0]] += 1
        else:
            error_atoms[e_idx] = GroundAtom(ERROR_PREDICATE, (e_idx,))
            error_entries.append((e_idx, tuple(who)))

    # Per-candidate priors: private errors + size, folded into one term.
    prior_components = tuple(
        (i, private_error_counts[i], int(problem.sizes[i]))
        for i in range(problem.num_candidates)
    )
    prior_entries: list[tuple[int, float]] = []
    for i, private, size in prior_components:
        penalty = float(weights.errors * private + weights.size * size)
        if penalty > 0:
            prior_entries.append((i, penalty))

    shards: list[GroundingShard] = []
    for lo, hi in iter_slices(len(coverage_entries), shard_size):
        shards.append(
            CoverageShard(
                len(shards),
                tuple(coverage_entries[lo:hi]),
                float(weights.explains),
                squared,
            )
        )
    for lo, hi in iter_slices(len(error_entries), shard_size):
        shards.append(
            ErrorShard(
                len(shards), tuple(error_entries[lo:hi]), float(weights.errors), squared
            )
        )
    for lo, hi in iter_slices(len(prior_entries), shard_size):
        shards.append(PriorShard(len(shards), tuple(prior_entries[lo:hi]), squared))

    targets = (
        *(in_atoms[i] for i in range(problem.num_candidates)),
        *explained_atoms.values(),
        *error_atoms.values(),
    )
    return CollectivePlan(
        in_atoms=in_atoms,
        explained_atoms=explained_atoms,
        error_atoms=error_atoms,
        targets=targets,
        shards=tuple(shards),
        prior_components=prior_components,
        prior_included=tuple(i for i, _ in prior_entries),
    )


def ground_collective(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    shard_size: int | None = None,
    records_out: list[ShardRecord] | None = None,
) -> tuple[HingeLossMRF, CollectivePlan, GroundingStats]:
    """Ground *problem*'s HL-MRF shard by shard.

    *shard_size* defaults to the settings' value.  The result is
    fingerprint-identical for any shard size (see
    :func:`plan_collective_grounding`).

    When *records_out* is a list, one :class:`~repro.psl.delta.
    ShardRecord` per shard is appended in merge (spec) order — the
    per-shard index incremental patching needs to splice unchanged
    shards out of this MRF later.
    """
    settings = settings or CollectiveSettings()
    if shard_size is None:
        shard_size = settings.ground_shard_size
    plan = plan_collective_grounding(problem, settings, shard_size)
    mrf = HingeLossMRF()
    for atom in plan.targets:
        mrf.variable_index(atom)
    observer = None
    if records_out is not None:
        observer = lambda result: records_out.append(
            record_for(plan.shards[result.order], result)
        )
    mrf, stats = ground_shards(plan.shards, mrf=mrf, observer=observer)
    return mrf, plan, stats


class GroundedCollective:
    """One selection problem's compiled HL-MRF, with mutable weights.

    The ground-once/reweight-many artifact of the collective selector:
    structure (variables, coefficients, constraints, shard partition) is
    fixed at construction; :meth:`reweight` rewrites the per-term
    weights in place for a new :class:`ObjectiveWeights` — coverage and
    error-mediator groups uniformly, per-candidate priors through the
    recorded plan components — and :attr:`solver` reuses one compiled
    ADMM solver across every reweighted solve.  A reweighted artifact is
    element-for-element identical to a fresh grounding at the new
    weights, so solves from it are bit-identical to the re-grounding
    path.

    :meth:`can_reweight` is the structure guard: weights whose zero
    pattern differs from the grounding weights' (a component switched
    on/off, a prior penalty crossing zero) would have produced a
    *different* structure, and must re-ground instead.
    """

    def __init__(
        self,
        problem: SelectionProblem,
        settings: CollectiveSettings | None = None,
        shard_size: int | None = None,
    ):
        settings = settings or CollectiveSettings()
        self.problem = problem
        self.squared = bool(settings.squared_hinges)
        records: list[ShardRecord] = []
        self.mrf, self.plan, self.stats = ground_collective(
            problem, settings, shard_size=shard_size, records_out=records
        )
        #: Per-shard splice index (same order as ``plan.shards``), the
        #: input :func:`patch_collective` matches a successor problem's
        #: plan against.
        self.records: tuple[ShardRecord, ...] = tuple(records)
        self.splice_stats: SpliceStats | None = None
        # Pre-compile the flat arrays while the ground is hot: the ADMM
        # solver wants them anyway, and a later patch slices straight
        # from them instead of recompiling the whole artifact first.
        if getattr(self.mrf, "_compiled", None) is None:
            self.mrf._compiled = compile_term_arrays(self.mrf)
        self.weights = settings.weights
        self._admm = settings.admm
        self._solver: AdmmSolver | None = None

    @property
    def solver(self) -> AdmmSolver:
        """The artifact's persistent solver (arrays compiled once)."""
        if self._solver is None:
            self._solver = AdmmSolver(self.mrf, self._admm)
        return self._solver

    def solver_for(self, admm: AdmmSettings | None) -> AdmmSolver:
        """The persistent solver, rebuilt only if *admm* settings differ."""
        admm = admm if admm is not None else AdmmSettings()
        if admm != self._admm:
            self._solver = None
            self._admm = admm
        return self.solver

    @cached_property
    def readout(self) -> PlanReadout:
        """The plan's atoms as variable indices (resolved on first solve)."""
        return PlanReadout.resolve(self.mrf, self.plan)

    #: ``(weights, penalties)`` of the latest :meth:`_prior_weights` call.
    _prior_memo: tuple | None = None

    def _prior_weights(self, weights: ObjectiveWeights) -> list[float] | None:
        """The included candidates' prior penalties at *weights*.

        ``None`` when a penalty's sign disagrees with the grounded
        inclusion (the structure would change).  Each penalty is the
        planning-time expression — exact ``Fraction`` arithmetic, then
        ``float`` — so a reweight reproduces a fresh plan bit for bit.
        The result is kept for the same *weights* object, since the
        cache asks :meth:`can_reweight` and then :meth:`reweight`.
        """
        memo = self._prior_memo
        if memo is not None and memo[0] is weights:
            return memo[1]
        included = set(self.plan.prior_included)
        penalties: list[float] | None = []
        for i, private, size in self.plan.prior_components:
            penalty = float(weights.errors * private + weights.size * size)
            if (penalty > 0) != (i in included):
                penalties = None
                break
            if penalty > 0:
                penalties.append(penalty)
        self._prior_memo = (weights, penalties)
        return penalties

    def can_reweight(self, weights: ObjectiveWeights) -> bool:
        """Would *weights* ground to this very structure (zero patterns agree)?"""
        old = self.weights
        if (old.explains == 0) != (weights.explains == 0):
            return False
        if (old.errors == 0) != (weights.errors == 0):
            return False
        return self._prior_weights(weights) is not None

    def reweight(self, weights: ObjectiveWeights) -> None:
        """Rewrite the grounded term weights for *weights*, in place."""
        if not self.can_reweight(weights):
            raise InferenceError(
                "objective weights change the ground structure (a component "
                "or prior penalty crossed zero); re-ground instead"
            )
        self.mrf.set_group_weights(
            {
                GROUP_EXPLAINS: float(weights.explains),
                GROUP_ERRORS: float(weights.errors),
            }
        )
        self.mrf.set_group_potential_weights(GROUP_PRIOR, self._prior_weights(weights))
        self.weights = weights


def patch_collective(
    cached: GroundedCollective,
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    shard_size: int | None = None,
) -> GroundedCollective | None:
    """Patch *cached* (a parent revision's artifact) into *problem*'s.

    The incremental tier of the collective path: plan the new problem,
    pair its shards against the cached per-shard records by content key
    (:func:`~repro.psl.delta.match_shards` — weight magnitudes are
    normalized out of the keys, so a reweighted parent still matches),
    re-ground only the unmatched shards, and splice.  The weight rewrite
    happens inside the splice — coverage/error groups uniformly, prior
    penalties per member — so the result lands directly at
    ``settings.weights`` and is **bit-identical** to a fresh ground of
    ``(problem, settings)``.

    Returns ``None`` when patching is not exact — hinge form changed,
    a zero pattern moved, the splice declined — in which case the
    caller grounds fresh.  Never returns a wrong artifact.
    """
    settings = settings or CollectiveSettings()
    if shard_size is None:
        shard_size = settings.ground_shard_size
    if bool(settings.squared_hinges) != cached.squared:
        return None
    plan = plan_collective_grounding(problem, settings, shard_size)
    reuse = match_shards(cached.records, plan.shards)
    prior_penalties = [
        penalty
        for shard in plan.shards
        if isinstance(shard, PriorShard)
        for _, penalty in shard.entries
    ]
    weights = settings.weights
    result = splice_grounding(
        cached.mrf,
        cached.records,
        plan.shards,
        reuse,
        plan.targets,
        group_weights={
            GROUP_EXPLAINS: float(weights.explains),
            GROUP_ERRORS: float(weights.errors),
        },
        member_weights={GROUP_PRIOR: prior_penalties},
    )
    if result is None:
        return None
    patched = GroundedCollective.__new__(GroundedCollective)
    patched.problem = problem
    patched.squared = cached.squared
    patched.mrf = result.mrf
    patched.plan = plan
    patched.stats = None
    patched.records = result.records
    patched.splice_stats = result.stats
    patched.weights = weights
    patched._admm = settings.admm
    patched._solver = None
    return patched


class CollectiveGroundingCache:
    """A small per-process LRU of :class:`GroundedCollective` artifacts.

    Keyed by problem identity plus the structure-affecting settings
    (squared hinges, grounding shard size) — *not* by weights: a hit
    whose weights differ only reweights the cached artifact in place.
    A request is served in order **memory > patch > fresh ground**: an
    in-memory miss first tries to *patch* (``settings.incremental``) —
    when the problem carries a
    :class:`~repro.selection.metrics.ProblemLineage` whose parent
    revision is cached (tracked by lineage token), the parent's compiled
    structure is spliced into the new problem's and only the shards the
    edit touched re-ground (:func:`patch_collective`) — and otherwise
    grounds fresh.
    Entries whose zero pattern no longer matches are evicted and
    re-ground.  The thread id is part of the key so concurrent solves
    from different threads never share (and mid-solve reweight) one
    artifact; entries hold strong problem references, making identity
    keys collision-safe.  The default LRU bound of two entries holds an
    edit chain's parent and current revision (what the patch tier needs)
    and keeps the footprint at two problems' worth of structure per
    process; a serial weight sweep over more seeds than that re-grounds
    each cell.  Thread-safe: a lock guards the map itself.
    """

    def __init__(self, capacity: int = 2):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, GroundedCollective] = OrderedDict()
        #: Lineage token -> cache key, per thread: the index the patch
        #: tier uses to find a *parent revision's* entry from a child
        #: problem's ``lineage.parent`` token.  Bounded FIFO; a stale
        #: mapping (entry evicted or replaced) is re-validated against
        #: the entry's own lineage before patching.
        self._token_keys: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Never incremented; kept only because ``perfbench/layers.py``
        #: reads it under ``--trace 1`` (ROADMAP item 3 deletes it).
        self.disk_hits = 0
        #: In-memory misses served by the patch tier: the parent
        #: revision's artifact was spliced instead of re-grounding.
        self.patch_hits = 0

    #: Lineage-token index bound (entries are 2-tuples; tiny).
    TOKEN_KEY_LIMIT = 256

    def _remember_token(self, me: int, token: object, key: tuple) -> None:
        # Caller holds the lock.  Most-recent mapping wins.
        tk = (me, token)
        self._token_keys.pop(tk, None)
        self._token_keys[tk] = key
        while len(self._token_keys) > self.TOKEN_KEY_LIMIT:
            self._token_keys.popitem(last=False)

    def grounded(
        self,
        problem: SelectionProblem,
        settings: CollectiveSettings | None = None,
        shard_size: int | None = None,
    ) -> GroundedCollective:
        """A reweighted cached artifact for *problem*, or a fresh ground."""
        settings = settings or CollectiveSettings()
        if shard_size is None:
            shard_size = settings.ground_shard_size
        me = threading.get_ident()
        key = (me, id(problem), bool(settings.squared_hinges), shard_size)
        lineage = getattr(problem, "lineage", None)
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.problem is problem
                and entry.can_reweight(settings.weights)
            ):
                self._entries.move_to_end(key)
                self.hits += 1
                if lineage is not None:
                    self._remember_token(me, lineage.token, key)
            else:
                if entry is not None:
                    del self._entries[key]
                entry = None
        if entry is not None:
            # Reweight outside the lock: the entry is thread-private (the
            # thread id is in its key), so no other thread can touch it.
            entry.reweight(settings.weights)
            return entry
        fresh = self._try_patch(problem, settings, shard_size, me, lineage)
        patched = fresh is not None
        if fresh is None:
            fresh = GroundedCollective(  # ground outside the lock, it is slow
                problem, settings, shard_size=shard_size
            )
        with self._lock:
            self.misses += 1
            if patched:
                self.patch_hits += 1
            self._entries[key] = fresh
            if lineage is not None:
                self._remember_token(me, lineage.token, key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return fresh

    def _try_patch(
        self,
        problem: SelectionProblem,
        settings: CollectiveSettings,
        shard_size: int | None,
        me: int,
        lineage,
    ) -> GroundedCollective | None:
        """The patch tier: splice a cached parent revision, or ``None``.

        Runs on every in-memory miss.  Applies only when incremental
        grounding is on and the problem's lineage names a parent whose
        artifact this thread still holds (looked up by lineage token,
        re-validated against the entry's own lineage so a stale token
        mapping can never patch from the wrong problem).
        """
        if not settings.incremental or lineage is None or lineage.parent is None:
            return None
        with self._lock:
            parent_key = self._token_keys.get((me, lineage.parent))
            parent = (
                self._entries.get(parent_key) if parent_key is not None else None
            )
        if parent is None or parent_key[3] != shard_size:
            return None
        parent_lineage = getattr(parent.problem, "lineage", None)
        if parent_lineage is None or parent_lineage.token != lineage.parent:
            return None
        return patch_collective(parent, problem, settings, shard_size=shard_size)

    def clear(self) -> None:
        """Drop every cached artifact and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._token_keys.clear()
            self.hits = self.misses = 0
            self.disk_hits = 0
            self.patch_hits = 0


#: Per-process artifact cache consumed by :func:`solve_collective` when
#: ``CollectiveSettings.reuse_grounding`` is on (the default).  Worker
#: processes get their own instance, like the engine's scenario cache.
GROUNDING_CACHE = CollectiveGroundingCache()


def solve_collective(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    warm_start: Mapping[int, float] | None = None,
    warm_state: AdmmWarmState | None = None,
    warm_start_aux: Mapping[tuple[str, int], float] | None = None,
    ground_shard_size: int | None = None,
    grounded: GroundedCollective | None = None,
) -> CollectiveResult:
    """Run the paper's pipeline: relax, infer with ADMM, round, score.

    Grounding runs through :func:`ground_collective` — sharded, on the
    calling thread — so the peak working set of a ground is one shard.
    With ``settings.reuse_grounding`` (the default) the grounding is
    served from the per-process :data:`GROUNDING_CACHE`: a repeated
    solve of the same problem structure (e.g. the cells of a
    weight-sweep lane) only *reweights* the cached
    :class:`GroundedCollective` and re-solves on its compiled ADMM
    arrays — bit-identical to re-grounding, minus the grounding.
    Pass *grounded* to manage the artifact explicitly (it is reweighted
    to ``settings.weights`` first).

    *warm_start* maps candidate indices to fractional memberships from a
    previous solve (e.g. the neighbouring point of a parameter sweep);
    *warm_start_aux* seeds the auxiliary ``explained``/``errorOf`` atoms
    by ``(predicate name, index)`` the same way.  The ADMM consensus
    vector starts from those values instead of 0.5.  *warm_state*
    restores the previous solve's full ADMM state (consensus + duals)
    and is what actually cuts iterations when the grounding structure is
    unchanged, e.g. across weight-only re-solves; it is ignored (shape
    check) when the structure differs.  The relaxation is convex, so
    *converged* solves reach the same optimum from any start; if ADMM
    exits at the iteration cap the truncated iterate does depend on the
    start (check ``CollectiveResult.converged``).  Indices unknown to
    this problem are ignored.
    """
    settings = settings or CollectiveSettings()
    if grounded is None and settings.reuse_grounding:
        grounded = GROUNDING_CACHE.grounded(
            problem, settings, shard_size=ground_shard_size
        )
    elif grounded is not None:
        grounded.reweight(settings.weights)
    if grounded is not None:
        mrf, plan, stats = grounded.mrf, grounded.plan, grounded.stats
        solver = grounded.solver_for(settings.admm)
    else:
        mrf, plan, stats = ground_collective(
            problem, settings, shard_size=ground_shard_size
        )
        solver = AdmmSolver(mrf, settings.admm)

    readout = (
        grounded.readout if grounded is not None else PlanReadout.resolve(mrf, plan)
    )
    start = None
    # A structurally matching *warm_state* takes precedence and the solver
    # ignores *start*, so it is only built when it can seed the solve.
    seeds = warm_state is None or not warm_state.matches(solver.arrays)
    if seeds and (warm_start or warm_start_aux):
        start = np.full(mrf.num_variables, 0.5)
        for i, value in (warm_start or {}).items():
            atom = plan.in_atoms.get(i)
            if atom is not None:
                start[mrf.index_of(atom)] = float(value)
        aux_tables = {
            EXPLAINED_PREDICATE.name: plan.explained_atoms,
            ERROR_PREDICATE.name: plan.error_atoms,
        }
        for (kind, idx), value in (warm_start_aux or {}).items():
            atom = aux_tables.get(kind, {}).get(idx)
            if atom is not None:
                start[mrf.index_of(atom)] = float(value)

    inference = solver.solve(start, warm_state=warm_state)
    fractional, fractional_aux = readout.fractional(inference.x)

    discrete_objective = objective_evaluator(problem, settings.weights)
    selected = round_solution(
        fractional,
        discrete_objective,
        with_local_search=settings.rounding_local_search,
    )
    return CollectiveResult(
        selected=frozenset(selected),
        objective=discrete_objective(frozenset(selected)),
        fractional=fractional,
        fractional_aux=fractional_aux,
        iterations=inference.iterations,
        converged=inference.converged,
        num_potentials=len(mrf.potentials),
        num_constraints=len(mrf.constraints),
        admm_state=inference.state,
        grounding=stats,
    )


@dataclass(frozen=True)
class CollectiveWarmPayload:
    """A picklable warm-start baton: one lane step's chained state.

    Exactly what :class:`WarmStartedCollective` carries between calls —
    the fractional ``in`` memberships, the auxiliary
    ``explained``/``errorOf`` values, and the full ADMM state — packaged
    so it can ride inside a sweep work unit to a worker process.  The
    engine's process-pool path ships the previous cell's payload forward
    through each lane (see ``EvaluationEngine``), which is what lets
    process grids warm-start exactly like serial ones.
    """

    fractional: tuple[tuple[int, float], ...]
    aux: tuple[tuple[tuple[str, int], float], ...]
    state: AdmmWarmState | None


class WarmStartedCollective:
    """A collective solver that chains warm starts across successive calls.

    Re-solving the HL-MRF at every point of a sweep (noise levels, weight
    settings) wastes the fact that neighbouring points have near-identical
    optima.  This callable keeps the previous call's fractional state —
    the ``in`` memberships *and* the auxiliary ``explained``/``errorOf``
    atom values — plus its full ADMM state (consensus + duals) and feeds
    all of it to :func:`solve_collective` — the standard warm-start trick
    of the surrogate-optimization literature applied across sweep points.
    When the grounding structure is unchanged (weight-only re-solves)
    the dual state is restored and the solver converges in a handful of
    iterations; when it differs (noise changed the example) the solver
    falls back to the fractional start, now covering every atom whose
    positional key still exists rather than only the memberships.
    Candidate and fact indices carry over positionally, so chaining is
    most effective when successive problems share their candidate grid.

    Only *converged* solves are chained: a solve truncated at the
    iteration cap yields a start-dependent iterate, and feeding it
    forward could make warm-started sweeps diverge from cold ones.  After
    an unconverged solve the chain resets and the next call starts cold.

    Instances satisfy the harness ``Solver`` protocol; each engine sweep
    lane gets its own instance, so there is no cross-talk between seeds.
    In serial grids the instance simply lives across a lane's cells; in
    process grids each cell reconstructs one from the previous cell's
    :attr:`payload` shipped inside the work unit — the two are
    equivalent because the payload is the chained state, verbatim.
    """

    def __init__(
        self,
        settings: CollectiveSettings | None = None,
        payload: CollectiveWarmPayload | None = None,
    ):
        self._settings = settings
        self._previous: dict[int, float] | None = None
        self._previous_aux: dict[tuple[str, int], float] | None = None
        self._previous_state: AdmmWarmState | None = None
        if payload is not None:
            self._previous = dict(payload.fractional)
            self._previous_aux = dict(payload.aux)
            self._previous_state = payload.state

    @property
    def payload(self) -> CollectiveWarmPayload | None:
        """The chained state as a shippable baton (None when cold)."""
        if self._previous is None:
            return None
        return CollectiveWarmPayload(
            fractional=tuple(self._previous.items()),
            aux=tuple((self._previous_aux or {}).items()),
            state=self._previous_state,
        )

    def __call__(self, problem: SelectionProblem) -> CollectiveResult:
        result = solve_collective(
            problem,
            self._settings,
            warm_start=self._previous,
            warm_state=self._previous_state,
            warm_start_aux=self._previous_aux,
        )
        if result.converged:
            self._previous = dict(result.fractional)
            self._previous_aux = dict(result.fractional_aux)
            self._previous_state = result.admm_state
        else:
            self.reset()
        return result

    def reset(self) -> None:
        """Forget the chained state (start the next call cold)."""
        self._previous = None
        self._previous_aux = None
        self._previous_state = None
