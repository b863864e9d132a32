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

**Block grounding.**  The HL-MRF is compiled with numpy from the
problem's :class:`~repro.selection.index.ObjectiveIndex`, the integer
CSR tables rounding and greedy already read, as the relaxation's three
blocks (:mod:`repro.psl.sharding`): one coverage shard (the fact-major
transpose of the cover rows, each fact's candidates ascending), one
shared-error shard (error facts two or more candidates create, in
``repr`` order of the fact) and one prior shard (the candidates whose
folded private-error + size penalty is positive); an empty block emits
no shard.  Each shard holds its block as arrays and builds its term
rows in a few vector operations.  Shards build and merge in that order
on the calling thread, and the merge gives the same MRF byte for byte
as adding the terms one at a time (the frozen dict-walking plan in
``tests/collective_plan_reference.py`` is the check).  The block
boundaries survive into the merged MRF as term-block extents, which the
incremental splice engine (:mod:`repro.psl.delta`) patches by, pairing
blocks by their bytes content keys.

**Weights.**  The plan grounds its potentials in three fixed blocks —
coverage, then shared-error, then prior — so the MRF's weight vector at
any :class:`~repro.selection.objective.ObjectiveWeights` is computed
from the plan (:meth:`CollectivePlan.weight_vector`): ``w_expl`` per
coverage potential, ``w_err`` per shared-error potential, then each
included candidate's folded prior penalty.  A reweight or a patch sets
that one vector on the MRF.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InferenceError

from repro.psl.admm import AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.delta import (
    ShardRecord,
    SpliceStats,
    match_shards,
    record_for,
    splice_grounding,
)
from repro.psl.hlmrf import HingeLossMRF, TermRows
from repro.psl.predicate import GroundAtom, Predicate
from repro.psl.rounding import round_solution
from repro.psl.sharding import (
    GroundingShard,
    ShardResult,
    TermBlock,
    ground_shards,
)
from repro.selection.exact import SelectionResult
from repro.selection.index import CoverColumns
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    ObjectiveWeights,
    objective_evaluator,
)

#: The model's predicates.  Module-level so every shard spec builds
#: atom keys that compare equal to the plan's target atoms.
IN_PREDICATE = Predicate("inMap", 1)
EXPLAINED_PREDICATE = Predicate("explained", 1)
ERROR_PREDICATE = Predicate("errorOf", 1)

@dataclass
class CollectiveSettings:
    """Knobs of the collective selector.

    Grounding always runs on the calling thread, and every solve that is
    not handed an artifact is served by the per-process
    :data:`GROUNDING_CACHE`.  The model's hinges are
    linear (Section V of the paper).  Every field is picklable, so
    settings travel inside engine work units.
    """

    weights: ObjectiveWeights = DEFAULT_WEIGHTS
    admm: AdmmSettings = field(default_factory=AdmmSettings)
    rounding_local_search: bool = True
    #: Incremental (delta) grounding: when a problem carries a
    #: :class:`~repro.selection.metrics.ProblemLineage` naming a parent
    #: revision whose artifact is cached, a cache miss first tries to
    #: *patch* the parent's compiled structure — re-ground only the
    #: blocks the edit touched, splice the rest
    #: (:func:`patch_collective`) — before grounding fresh.  Patched
    #: artifacts are bit-identical to a fresh ground; set False to force
    #: a full re-ground.
    incremental: bool = True


@dataclass(frozen=True)
class CollectiveResult(SelectionResult):
    """Selection plus the relaxation's fractional state and diagnostics.

    ``fractional`` holds the ``in`` memberships by candidate index, the
    values rounding reads.  ``admm_state`` is the solve's full ADMM
    state, which a weight-only re-solve of the same artifact can resume
    from (``solve_collective(warm_state=)``).
    """

    fractional: dict[int, float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True
    num_potentials: int = 0
    num_constraints: int = 0
    admm_state: AdmmWarmState | None = None


# -- shard work units ---------------------------------------------------------


class _AtomTable:
    """The atoms ``predicate(0), predicate(1), ...``, each built once.

    The model names its variables by small integer ids (candidate, J
    fact, error fact), so one process keeps each atom it has built and
    hands the same object out to every later plan and block, instead of
    rebuilding thousands of atoms per ground.  The table grows to the
    largest id seen.
    """

    def __init__(self, predicate: Predicate):
        self._predicate = predicate
        self._atoms: list[GroundAtom] = []
        self._lock = threading.Lock()

    def take(self, ids: np.ndarray) -> tuple[GroundAtom, ...]:
        """The atoms of *ids*, in order, each with a plain ``int`` argument."""
        need = int(ids.max()) + 1 if len(ids) else 0
        if need > len(self._atoms):
            with self._lock:
                start = len(self._atoms)
                self._atoms.extend(
                    GroundAtom(self._predicate, (i,)) for i in range(start, need)
                )
        return tuple(map(self._atoms.__getitem__, ids.tolist()))


def _unit_rows(var: np.ndarray, coeff: float, offset: float) -> TermRows:
    """One row ``coeff * x[v] + offset`` per entry v of *var*."""
    return TermRows.of(
        np.full(len(var), offset),
        np.arange(len(var) + 1),
        var,
        np.full(len(var), coeff),
    )


def _array_key(tag: bytes, *arrays: np.ndarray) -> bytes:
    """An injective bytes key: *tag*, then each array's length and bytes.

    Every array position has one fixed dtype, so the lengths split the
    bytes back into the arrays.
    """
    parts = [tag]
    for array in arrays:
        parts += (len(array).to_bytes(8, "little"), array.tobytes())
    return b"".join(parts)


_IN_ATOMS = _AtomTable(IN_PREDICATE)
_EXPLAINED_ATOMS = _AtomTable(EXPLAINED_PREDICATE)
_ERROR_ATOMS = _AtomTable(ERROR_PREDICATE)


@dataclass(frozen=True, eq=False)
class CoverageShard:
    """Coverage terms for J's coverable facts.

    Block fact k is J fact ``facts[k]``; its cover entries are
    ``ptr[k]:ptr[k+1]`` of ``candidates`` (ascending) and ``degrees``.
    Per fact: the reward potential ``w_expl * max(0, 1 - explained(t))``
    and the hard support cap ``explained(t) <= sum covers(theta,t) *
    in(theta)``, in which a zero degree adds no coefficient.
    """

    order: int
    facts: np.ndarray  # int64[F], ascending J-fact ids
    ptr: np.ndarray  # int64[F + 1]
    candidates: np.ndarray  # int64[nnz]
    degrees: np.ndarray  # float64[nnz]
    weight: float

    def build(self) -> ShardResult:
        # Local atoms: the facts' explained atoms, then the in atoms of
        # the candidates with a nonzero degree.
        num_facts = len(self.facts)
        kept = self.degrees != 0
        users, local = np.unique(self.candidates[kept], return_inverse=True)
        atoms = _EXPLAINED_ATOMS.take(self.facts) + _IN_ATOMS.take(users)
        explained = np.arange(num_facts)
        hinges = _unit_rows(explained if self.weight else explained[:0], -1.0, 1.0)
        # Cap k: explained(k) with +1 inserted before fact k's nonzero
        # supports, each with -degree.
        kept_before = np.concatenate(([0], np.cumsum(kept)))
        starts = kept_before[self.ptr[:-1]]
        caps = TermRows.of(
            np.zeros(num_facts),
            np.append(starts + explained, kept_before[-1] + num_facts),
            np.insert(num_facts + local, starts, explained),
            np.insert(-self.degrees[kept], starts, 1.0),
        )
        block = TermBlock(hinges, np.full(len(hinges), self.weight), caps)
        return ShardResult(self.order, atoms, block)

    def content_key(self) -> bytes:
        """Order- and weight-magnitude-independent identity for splicing.

        Weight *magnitude* is excluded — a patched artifact gets its
        weight vector set after the splice — but the zero flag is
        structural (zero-weight potentials are dropped at grounding), so
        it stays in the key.
        """
        return _array_key(
            b"cov0" if self.weight == 0 else b"cov1",
            self.facts, self.ptr, self.candidates, self.degrees,
        )


@dataclass(frozen=True, eq=False)
class ErrorShard:
    """Shared-error mediator terms for the shared error facts.

    Block error k is ``errorOf(errors[k])``, created by the candidates
    ``owners[ptr[k]:ptr[k+1]]`` (ascending).  Per error: the penalty
    potential ``w_err * errorOf(e)`` plus one cap ``in(theta) <=
    errorOf(e)`` per owner, so the error is paid once however many
    owners are selected.
    """

    order: int
    errors: np.ndarray  # int64[E], ascending error indices
    ptr: np.ndarray  # int64[E + 1]
    owners: np.ndarray  # int64[nnz]
    weight: float

    def build(self) -> ShardResult:
        # Local atoms: the errorOf atoms, then the owners' in atoms.
        users, local = np.unique(self.owners, return_inverse=True)
        atoms = _ERROR_ATOMS.take(self.errors) + _IN_ATOMS.take(users)
        error_of = np.arange(len(self.errors))
        hinges = _unit_rows(error_of if self.weight else error_of[:0], 1.0, 0.0)
        # One cap per owner: in(owner) - errorOf(error) <= 0.
        owned = np.repeat(error_of, np.diff(self.ptr))
        caps = TermRows.of(
            np.zeros(len(self.owners)),
            np.arange(0, 2 * len(self.owners) + 1, 2),
            np.column_stack((len(self.errors) + local, owned)).ravel(),
            np.tile([1.0, -1.0], len(self.owners)),
        )
        block = TermBlock(hinges, np.full(len(hinges), self.weight), caps)
        return ShardResult(self.order, atoms, block)

    def content_key(self) -> bytes:
        """See :meth:`CoverageShard.content_key` — same weight treatment."""
        return _array_key(
            b"err0" if self.weight == 0 else b"err1", self.errors, self.ptr, self.owners
        )


@dataclass(frozen=True, eq=False)
class PriorShard:
    """Per-candidate prior potentials for the included candidates.

    Per candidate ``candidates[k]``: the folded private-error + size
    prior ``penalties[k] * in(theta)``.
    """

    order: int
    candidates: np.ndarray  # int64[P]
    penalties: np.ndarray  # float64[P], all > 0

    def build(self) -> ShardResult:
        hinges = _unit_rows(np.arange(len(self.candidates)), 1.0, 0.0)
        block = TermBlock(hinges, self.penalties, TermRows.empty())
        return ShardResult(self.order, _IN_ATOMS.take(self.candidates), block)

    def content_key(self) -> bytes:
        """Identity by candidate set only: per-candidate penalty
        *magnitudes* are set after the splice with the rest of the
        weight vector (they are plain weight changes), but which
        candidates appear is structural."""
        return _array_key(b"prior", self.candidates)


# -- shard planning -----------------------------------------------------------


def _prior_penalties(
    weights: ObjectiveWeights, private_errors: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Every candidate's folded prior penalty at *weights*.

    ``float(w_err * private + w_size * size)`` in exact ``Fraction``
    arithmetic, once per distinct ``(private, size)`` pair.
    """
    pairs = list(zip(private_errors.tolist(), sizes.tolist()))
    value = {
        pair: float(weights.errors * pair[0] + weights.size * pair[1])
        for pair in dict.fromkeys(pairs)
    }
    return np.array([value[pair] for pair in pairs], dtype=np.float64)


def _cover_degrees(nums: np.ndarray, denominator: int) -> np.ndarray:
    """Each cover numerator over *denominator* as the float of its degree.

    Python's ``int / int`` is correctly rounded, so ``num / L`` equals
    ``float(Fraction(num, L))``, the float of the exact degree.  It is
    computed once per distinct numerator.
    """
    values, inverse = np.unique(nums, return_inverse=True)
    floats = np.array([v / denominator for v in values.tolist()], dtype=np.float64)
    return floats[inverse]


@dataclass
class CollectivePlan:
    """The deterministic compilation plan of one selection problem.

    ``targets`` pins the MRF's variable order (``in`` atoms by candidate
    index, then ``explained`` atoms in ``j_facts`` order, then
    ``errorOf`` atoms in ``repr`` order of their error facts), on a
    fresh ground and on a splice alike, so variable ``i <
    num_candidates`` is candidate ``i``'s membership; ``shards`` hold
    the work, at most one per block (coverage, shared-error, prior).

    ``private_errors`` and ``sizes`` are every candidate's raw prior
    features, and ``prior_included`` marks the candidates whose folded
    penalty was positive at the planning weights (only those became
    potentials — zero-weight terms are dropped at grounding time).
    Together they let a grounded MRF be *reweighted* for a new
    :class:`ObjectiveWeights` without re-planning
    (:meth:`prior_weights`), and the included set doubles as the
    zero-pattern guard (a penalty crossing zero means the structure
    itself would change, so reweighting must fall back to a fresh
    ground).

    ``coverage_potentials`` and ``error_potentials`` count the
    potentials the coverage and shared-error blocks ground (none when
    the block's weight is zero), which fixes where each block sits in
    the MRF's weight vector.
    """

    targets: tuple[GroundAtom, ...]
    shards: tuple[GroundingShard, ...]
    private_errors: np.ndarray  # int64[n]
    sizes: np.ndarray  # int64[n]
    prior_included: np.ndarray  # bool[n]
    coverage_potentials: int = 0
    error_potentials: int = 0

    def prior_weights(self, weights: ObjectiveWeights) -> np.ndarray | None:
        """The included candidates' prior penalties at *weights*.

        ``None`` when a penalty's sign disagrees with the grounded
        inclusion (the structure would change).
        """
        penalties = _prior_penalties(weights, self.private_errors, self.sizes)
        included = penalties > 0
        if not np.array_equal(included, self.prior_included):
            return None
        return penalties[included]

    def weight_vector(
        self, weights: ObjectiveWeights, priors: np.ndarray
    ) -> np.ndarray:
        """The grounded MRF's weight vector at *weights*.

        *priors* are the included candidates' prior penalties at
        *weights*, in candidate order.  Each entry is the float a fresh
        ground at *weights* stores, so setting the vector reproduces that
        ground bit for bit.
        """
        return np.concatenate((
            np.full(self.coverage_potentials, float(weights.explains)),
            np.full(self.error_potentials, float(weights.errors)),
            priors,
        ))


def plan_collective_grounding(
    problem: SelectionProblem, settings: CollectiveSettings | None = None
) -> CollectivePlan:
    """Compile *problem* into shard specs from its objective index.

    One shard per non-empty block, in the order coverage (``j_facts``
    order), shared errors (``repr`` order of the error fact), priors
    (candidate order).  That order fixes the potential/constraint order,
    so the merged MRF is fingerprint-identical to adding the same terms
    one at a time through
    :meth:`~repro.psl.hlmrf.HingeLossMRF.add_potential` and
    :meth:`~repro.psl.hlmrf.HingeLossMRF.add_constraint`.
    """
    settings = settings or CollectiveSettings()
    weights = settings.weights
    index = problem.objective_index()

    # Coverage: the fact-major transpose of the cover rows.  Facts nobody
    # covers are certain-unexplained constants, left out of the MRF.
    columns = CoverColumns(index)
    facts = np.flatnonzero(np.diff(columns.ptr))
    cover_ptr = np.append(columns.ptr[facts], columns.ptr[-1])

    # Errors: an error fact's index is its rank in repr order among all
    # error facts (a stable sort, so equal reprs keep first-seen order).
    # Shared facts get a mediator variable; private ones fold into the
    # per-candidate prior below.
    owner_count = np.bincount(index.error_fact, minlength=index.num_error_facts)
    shared = owner_count > 1
    reprs = [repr(f) for f in index.distinct_error_facts]
    rank = np.empty(len(reprs), dtype=np.int64)
    rank[sorted(range(len(reprs)), key=reprs.__getitem__)] = np.arange(len(reprs))
    take = shared[index.error_fact]
    entry_rank = rank[index.error_fact[take]]
    by_rank = np.argsort(entry_rank, kind="stable")
    errors, firsts = np.unique(entry_rank[by_rank], return_index=True)
    private_errors = np.bincount(
        index.error_owner[~take], minlength=index.num_candidates
    )

    penalties = _prior_penalties(weights, private_errors, index.sizes)
    included = penalties > 0

    shards: list[GroundingShard] = []
    if len(facts):
        shards.append(
            CoverageShard(
                len(shards),
                facts,
                cover_ptr,
                columns.owner,
                _cover_degrees(columns.num, index.denominator),
                float(weights.explains),
            )
        )
    if len(errors):
        shards.append(
            ErrorShard(
                len(shards),
                errors,
                np.append(firsts, len(by_rank)),
                index.error_owner[take][by_rank],
                float(weights.errors),
            )
        )
    if included.any():
        shards.append(
            PriorShard(len(shards), np.flatnonzero(included), penalties[included])
        )

    return CollectivePlan(
        targets=(
            _IN_ATOMS.take(np.arange(index.num_candidates))
            + _EXPLAINED_ATOMS.take(facts)
            + _ERROR_ATOMS.take(errors)
        ),
        shards=tuple(shards),
        private_errors=private_errors,
        sizes=index.sizes,
        prior_included=included,
        coverage_potentials=len(facts) if float(weights.explains) else 0,
        error_potentials=len(errors) if float(weights.errors) else 0,
    )


def ground_collective(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    records_out: list[ShardRecord] | None = None,
) -> tuple[HingeLossMRF, CollectivePlan]:
    """Ground *problem*'s HL-MRF block by block.

    When *records_out* is a list, one :class:`~repro.psl.delta.
    ShardRecord` per shard is appended in merge (spec) order — the
    per-shard index incremental patching needs to splice unchanged
    shards out of this MRF later.
    """
    plan = plan_collective_grounding(problem, settings)
    targets = plan.targets
    mrf = HingeLossMRF(
        variables=list(targets), _index=dict(zip(targets, range(len(targets))))
    )
    observer = None
    if records_out is not None:
        observer = lambda result: records_out.append(
            record_for(plan.shards[result.order], result)
        )
    ground_shards(plan.shards, mrf=mrf, observer=observer)
    return mrf, plan


class GroundedCollective:
    """One selection problem's compiled HL-MRF, with mutable weights.

    The ground-once/reweight-many artifact of the collective selector:
    structure (variables, coefficients, constraints, block extents) is
    fixed at construction; :meth:`reweight` sets the MRF's weight vector
    for a new :class:`ObjectiveWeights`, computed from the plan
    (:meth:`CollectivePlan.weight_vector`), and :attr:`solver` reuses one compiled
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
    ):
        settings = settings or CollectiveSettings()
        self.problem = problem
        records: list[ShardRecord] = []
        self.mrf, self.plan = ground_collective(
            problem, settings, records_out=records
        )
        #: Per-shard splice index (same order as ``plan.shards``), the
        #: input :func:`patch_collective` matches a successor problem's
        #: plan against.
        self.records: tuple[ShardRecord, ...] = tuple(records)
        self.splice_stats: SpliceStats | None = None
        self.weights = settings.weights
        self._admm = settings.admm
        self._solver: AdmmSolver | None = None

    @property
    def solver(self) -> AdmmSolver:
        """The artifact's persistent solver (arrays built once)."""
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

    #: ``(weights, penalties)`` of the latest :meth:`_prior_weights` call.
    _prior_memo: tuple | None = None

    def _prior_weights(self, weights: ObjectiveWeights) -> np.ndarray | None:
        """The plan's :meth:`CollectivePlan.prior_weights` at *weights*.

        Each penalty is the planning-time expression — exact
        ``Fraction`` arithmetic, then ``float`` — so a reweight
        reproduces a fresh plan bit for bit.  The result is kept for the
        same *weights* object, since the cache asks :meth:`can_reweight`
        and then :meth:`reweight`.
        """
        memo = self._prior_memo
        if memo is not None and memo[0] is weights:
            return memo[1]
        penalties = self.plan.prior_weights(weights)
        self._prior_memo = (weights, penalties)
        return penalties

    def can_reweight(self, weights: ObjectiveWeights) -> bool:
        """Would *weights* ground to this very structure (zero patterns agree)?

        A weight is zero when its float is: a positive weight too small
        for a float grounds no potentials, like a zero one.
        """
        old = self.weights
        if (float(old.explains) == 0) != (float(weights.explains) == 0):
            return False
        if (float(old.errors) == 0) != (float(weights.errors) == 0):
            return False
        return self._prior_weights(weights) is not None

    def reweight(self, weights: ObjectiveWeights) -> None:
        """Rewrite the grounded term weights for *weights*, in place."""
        if not self.can_reweight(weights):
            raise InferenceError(
                "objective weights change the ground structure (a component "
                "or prior penalty crossed zero); re-ground instead"
            )
        self.mrf.set_potential_weights(
            self.plan.weight_vector(weights, self._prior_weights(weights))
        )
        self.weights = weights


def patch_collective(
    cached: GroundedCollective,
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
) -> GroundedCollective | None:
    """Patch *cached* (a parent revision's artifact) into *problem*'s.

    The incremental tier of the collective path: plan the new problem,
    pair its shards against the cached per-shard records by content key
    (:func:`~repro.psl.delta.match_shards` — weight magnitudes are
    normalized out of the keys, so a reweighted parent still matches),
    re-ground only the unmatched blocks, and splice.  The spliced MRF then
    gets the plan's weight vector at ``settings.weights``, so the result
    is **bit-identical** to a fresh ground of ``(problem, settings)``.

    Returns ``None`` when patching is not exact — a zero pattern moved,
    the splice declined — in which case the caller grounds fresh.  Never
    returns a wrong artifact.
    """
    settings = settings or CollectiveSettings()
    plan = plan_collective_grounding(problem, settings)
    reuse = match_shards(cached.records, plan.shards)
    weights = settings.weights
    result = splice_grounding(
        cached.mrf, cached.records, plan.shards, reuse, plan.targets
    )
    if result is None:
        return None
    result.mrf.set_potential_weights(
        plan.weight_vector(weights, plan.prior_weights(weights))
    )
    patched = GroundedCollective.__new__(GroundedCollective)
    patched.problem = problem
    patched.mrf = result.mrf
    patched.plan = plan
    patched.records = result.records
    patched.splice_stats = result.stats
    patched.weights = weights
    patched._admm = settings.admm
    patched._solver = None
    return patched


class CollectiveGroundingCache:
    """A small per-process LRU of :class:`GroundedCollective` artifacts.

    Keyed by problem identity — *not* by weights: a hit whose weights
    differ only reweights the cached artifact in place.
    A request is served in order **memory > patch > fresh ground**: an
    in-memory miss first tries to *patch* (``settings.incremental``) —
    when the problem carries a
    :class:`~repro.selection.metrics.ProblemLineage` whose parent
    revision is cached (tracked by lineage token), the parent's compiled
    structure is spliced into the new problem's and only the blocks the
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
        self, problem: SelectionProblem, settings: CollectiveSettings | None = None
    ) -> GroundedCollective:
        """A reweighted cached artifact for *problem*, or a fresh ground."""
        settings = settings or CollectiveSettings()
        me = threading.get_ident()
        key = (me, id(problem))
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
        fresh = self._try_patch(problem, settings, me, lineage)
        patched = fresh is not None
        if fresh is None:
            fresh = GroundedCollective(problem, settings)  # slow: outside the lock
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
        if parent is None:
            return None
        parent_lineage = getattr(parent.problem, "lineage", None)
        if parent_lineage is None or parent_lineage.token != lineage.parent:
            return None
        return patch_collective(parent, problem, settings)

    def clear(self) -> None:
        """Drop every cached artifact and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._token_keys.clear()
            self.hits = self.misses = 0
            self.disk_hits = 0
            self.patch_hits = 0


#: Per-process artifact cache that serves every :func:`solve_collective`
#: call not handed an artifact.  Worker processes get their own
#: instance, like the engine's scenario cache.
GROUNDING_CACHE = CollectiveGroundingCache()


def solve_collective(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    warm_state: AdmmWarmState | None = None,
    grounded: GroundedCollective | None = None,
) -> CollectiveResult:
    """Run the paper's pipeline: relax, infer with ADMM, round, score.

    Grounding runs through :func:`ground_collective`, on the calling
    thread.  The grounding is served from the per-process
    :data:`GROUNDING_CACHE`: a repeated solve of the same problem
    structure (e.g. the cells of a weight sweep) only *reweights*
    the cached :class:`GroundedCollective` and re-solves on its compiled
    ADMM arrays — bit-identical to re-grounding, minus the grounding.
    Pass *grounded* to manage the artifact explicitly (it must be
    *problem*'s own, and is reweighted to ``settings.weights`` first);
    ``grounded=GroundedCollective(problem, settings)`` forces a fresh
    ground.

    Every solve starts cold unless handed *warm_state*, a previous
    solve's :attr:`CollectiveResult.admm_state`: ADMM then resumes from
    that consensus vector and those duals, which cuts iterations when
    only the weights changed.  A state of another grounding structure is
    ignored (shape check).  The relaxation is convex, so *converged*
    solves reach the same optimum from any start, up to the solver's
    tolerance; if ADMM exits at the iteration cap the truncated iterate
    does depend on the start (check ``CollectiveResult.converged``).
    """
    settings = settings or CollectiveSettings()
    if grounded is None:
        grounded = GROUNDING_CACHE.grounded(problem, settings)
    elif grounded.problem is not problem:
        raise InferenceError(
            "the grounded artifact belongs to another selection problem; "
            "ground this one (GroundedCollective(problem, settings))"
        )
    else:
        grounded.reweight(settings.weights)
    mrf = grounded.mrf
    inference = grounded.solver_for(settings.admm).solve(warm_state=warm_state)
    # The plan pins the ``in`` atoms as variables 0..n-1, in candidate order.
    fractional = dict(enumerate(inference.x[: problem.num_candidates].tolist()))

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
        iterations=inference.iterations,
        converged=inference.converged,
        num_potentials=len(mrf.potentials),
        num_constraints=len(mrf.constraints),
        admm_state=inference.state,
    )


class WarmStartedCollective:
    """A collective solver that chains full ADMM states across calls.

    Each call hands the previous converged solve's
    :attr:`CollectiveResult.admm_state` to :func:`solve_collective`, so
    a weight-only re-solve of the same grounding resumes from its
    consensus vector and duals instead of starting cold.  A state of
    another grounding structure is ignored, so that call starts cold.

    Only *converged* solves are chained: a solve truncated at the
    iteration cap yields a start-dependent iterate, and feeding it
    forward would carry that dependence on.  After an unconverged solve
    the chain resets and the next call starts cold.

    :attr:`payload` is the chained :class:`~repro.psl.admm.AdmmWarmState`
    (``None`` when cold); a new instance built with ``payload=`` resumes
    the chain.  The evaluation engine does not use this class: its grid
    cells always solve cold.
    """

    def __init__(
        self,
        settings: CollectiveSettings | None = None,
        payload: AdmmWarmState | None = None,
    ):
        self._settings = settings
        self._state = payload

    @property
    def payload(self) -> AdmmWarmState | None:
        """The chained ADMM state (None when the next call starts cold)."""
        return self._state

    def __call__(self, problem: SelectionProblem) -> CollectiveResult:
        result = solve_collective(problem, self._settings, warm_state=self._state)
        self._state = result.admm_state if result.converged else None
        return result

    def reset(self) -> None:
        """Forget the chained state (start the next call cold)."""
        self._state = None
