"""Hinge-loss Markov random fields.

The MAP problem of a HL-MRF (Bach, Broecheler, Huang, Getoor, JMLR 2017)
is the convex program::

    minimize    sum_k  w_k * max(0, a_k^T x + b_k)
    subject to  a_c^T x + b_c <= 0   for hard constraints
                x in [0, 1]^n

Bach et al.'s general term language also has squared hinges, equality
constraints and constant terms; the collective model grounds none of
them, so this module keeps only linear hinges and ``<=`` caps, and a
term with no nonzero coefficient is an error.  Variables are PSL ground
atoms; potentials are added one at a time or merged from shard term
blocks (:mod:`repro.psl.sharding`).  Solved by consensus ADMM in
:mod:`repro.psl.admm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.psl.predicate import GroundAtom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.psl.sharding import TermBlock

#: Term kinds of the shard term blocks and the flat solver arrays.
KIND_HINGE = 0
KIND_LEQ = 1


def nonzero_terms(
    pairs: Iterable[tuple[object, float]], what: str = "constraint"
) -> list[tuple[object, float]]:
    """*pairs* without zero coefficients, values as float.

    Shared by the incremental :class:`HingeLossMRF` API and the sharded
    :class:`~repro.psl.sharding.TermBlockBuilder`, so the two can never
    diverge.  A term (*what*) with no nonzero coefficient raises
    :class:`InferenceError`.
    """
    kept = [(a, float(c)) for a, c in pairs if c]
    if not kept:
        raise InferenceError(f"{what} has no nonzero coefficient")
    return kept


def filter_potential_terms(
    pairs: Iterable[tuple[object, float]], weight: float
) -> list[tuple[object, float]]:
    """Shared normalization of one potential's terms.

    Validates the weight, drops zero-weight potentials (an empty list
    means nothing should be appended), then applies
    :func:`nonzero_terms`.
    """
    if weight < 0:
        raise InferenceError(f"potential weight must be non-negative, got {weight}")
    if weight == 0:
        return []
    return nonzero_terms(pairs, "potential")


@dataclass(frozen=True)
class HingePotential:
    """``weight * max(0, sum(coeff*x) + offset)``."""

    coefficients: tuple[tuple[int, float], ...]
    offset: float
    weight: float

    def value(self, x) -> float:
        return self.weight * self.unit_value(x)

    def unit_value(self, x) -> float:
        """The unweighted hinge ``max(0, a^T x + b)`` at *x*.

        The potential's feature value: ``value(x) == weight *
        unit_value(x)``.  Weight-independent, which is what structure
        fingerprints need.
        """
        return max(0.0, self.offset + sum(c * x[i] for i, c in self.coefficients))


@dataclass(frozen=True)
class HardConstraint:
    """``sum(coeff*x) + offset <= 0``."""

    coefficients: tuple[tuple[int, float], ...]
    offset: float

    def violation(self, x) -> float:
        return max(0.0, self.offset + sum(c * x[i] for i, c in self.coefficients))


class _LazyTermList:
    """Deferred potential/constraint objects of a rebuilt MRF.

    Building the per-term objects is the expensive half of rebuilding a
    spliced grounding (:func:`rebuild_mrf`), and the hot path never
    reads them: the ADMM stack solves off the precompiled flat arrays,
    :meth:`HingeLossMRF.energy` slices them too, reweighting updates the
    weight *vector* (see :meth:`HingeLossMRF._set_weight`), and the
    structural checks only take ``len()``.  This sequence therefore
    defers building the objects until something actually subscripts,
    iterates, or pickles it — fingerprints, the per-potential
    diagnostics.  Materialization reads the MRF's *live*
    weight vector, so weights rewritten before the first touch are
    reflected exactly, as if the objects had existed all along.
    """

    __slots__ = ("_length", "_build", "_items")

    def __init__(self, length: int, build):
        self._length = length
        self._build = build
        self._items: list | None = None

    @property
    def materialized(self) -> bool:
        return self._items is not None

    def _force(self) -> list:
        if self._items is None:
            items = self._build()
            if len(items) != self._length:
                raise InferenceError(
                    f"deferred term list built {len(items)} objects, "
                    f"expected {self._length}"
                )
            self._items = items
            self._build = None
        return self._items

    def __len__(self) -> int:
        return self._length if self._items is None else len(self._items)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index):
        return self._force()[index]

    def __setitem__(self, index, value) -> None:
        self._force()[index] = value

    def __iter__(self):
        return iter(self._force())

    def __eq__(self, other):
        if isinstance(other, _LazyTermList):
            other = other._force()
        if isinstance(other, list):
            return self._force() == other
        return NotImplemented

    def append(self, value) -> None:
        self._force().append(value)
        self._length = len(self._items)

    def __reduce__(self):
        # Pickle as the plain list: receivers get ordinary objects, and
        # the build closure never ships.
        return (list, (self._force(),))


@dataclass
class HingeLossMRF:
    """A HL-MRF over named ground atoms.

    Use :meth:`variable_index` to intern atoms as variables, then add
    potentials and constraints in terms of atom keys — or, on the sharded
    grounding path, :meth:`intern_atoms` + :meth:`add_term_block` to
    append whole compact term blocks at once.

    Every :meth:`add_term_block` call also records the block's extent in
    the potential and constraint lists, so the shard structure chosen at
    grounding time survives into the model; the splice engine
    (:mod:`repro.psl.delta`) reads those extents back.

    **Weights vs structure.**  The HL-MRF energy is *linear* in the
    potential weights, so weights are first-class mutable state, kept
    separate from the (immutable once grounded) term structure.  Every
    potential carries an optional *origin group* — the objective
    component it was grounded from — and its weight lives in one
    contiguous per-potential vector (:meth:`potential_weights`).
    :meth:`set_group_weights` / :meth:`set_group_potential_weights`
    rewrite weights in place (bumping
    :attr:`weights_version` so compiled solver arrays know to
    resync) without touching structure — the "ground once, reweight
    many" contract: a reweighted MRF is element-for-element identical to
    one freshly grounded at the new weights, provided no weight crosses
    zero (zero-weight potentials are dropped at grounding time, so a
    zero-crossing changes structure and is rejected).
    """

    variables: list[GroundAtom] = field(default_factory=list)
    _index: dict[GroundAtom, int] = field(default_factory=dict)
    potentials: list[HingePotential] = field(default_factory=list)
    constraints: list[HardConstraint] = field(default_factory=list)
    #: (pot_lo, pot_hi, con_lo, con_hi) extents of each add_term_block call.
    _block_extents: list[tuple[int, int, int, int]] = field(default_factory=list)
    #: Per-potential origin-group id (-1 = fixed weight, no group).
    potential_groups: list[int] = field(default_factory=list)
    #: Bumped by every weight mutation; consumers cache against it.
    weights_version: int = 0
    _pot_weights: list[float] = field(default_factory=list)
    _group_ids: dict[Hashable, int] = field(default_factory=dict)
    _group_keys: list[Hashable] = field(default_factory=list)
    _group_members: dict[int, list[int]] = field(default_factory=dict)
    #: Groups that had potentials *dropped* because they were ground at
    #: weight zero: reweighting them to a non-zero weight would need the
    #: dropped structure back, so it is rejected (re-ground instead).
    _zero_dropped: set[int] = field(default_factory=set)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def _ensure_index(self) -> dict[GroundAtom, int]:
        """The atom→index map, rebuilt when it lags ``variables``.

        Normal grounding keeps the two in lockstep; a spliced MRF
        (:func:`rebuild_mrf`) starts with an empty map and pays the atom
        hashing only when something actually resolves atoms.
        """
        index = self._index
        if len(index) != len(self.variables):
            index = {atom: i for i, atom in enumerate(self.variables)}
            self._index = index
        return index

    def variable_index(self, atom: GroundAtom) -> int:
        """Intern *atom* as a variable and return its index."""
        index = self._ensure_index()
        idx = index.get(atom)
        if idx is None:
            idx = len(self.variables)
            index[atom] = idx
            self.variables.append(atom)
        return idx

    def intern_atoms(self, atoms: Iterable[GroundAtom]) -> list[int]:
        """Intern *atoms* in order; returns their variable indices."""
        return [self.variable_index(a) for a in atoms]

    def index_of(self, atom: GroundAtom) -> int:
        try:
            return self._ensure_index()[atom]
        except KeyError:
            raise InferenceError(f"{atom} is not a variable of this MRF") from None

    # -- origin groups and weights -------------------------------------------

    def group_id(self, key: Hashable) -> int:
        """Intern *key* (an objective component) as an origin group."""
        gid = self._group_ids.get(key)
        if gid is None:
            gid = len(self._group_keys)
            self._group_ids[key] = gid
            self._group_keys.append(key)
            self._group_members[gid] = []
        return gid

    @property
    def group_keys(self) -> tuple[Hashable, ...]:
        """All interned origin-group keys, in intern order (id order)."""
        return tuple(self._group_keys)

    def group_members(self, key: Hashable) -> tuple[int, ...]:
        """Potential indices belonging to group *key* (append order)."""
        gid = self._group_ids.get(key)
        if gid is None:
            return ()
        return tuple(self._group_members[gid])

    def potential_weights(self) -> np.ndarray:
        """The per-potential weight vector as a contiguous float64 array.

        A snapshot copy: mutate weights through the ``set_*`` methods
        (which keep the potentials and :attr:`weights_version`
        consistent), not by writing into this array.
        """
        return np.asarray(self._pot_weights, dtype=np.float64)

    def _set_weight(self, i: int, weight: float) -> None:
        if self._pot_weights[i] != weight:
            potentials = self.potentials
            if isinstance(potentials, _LazyTermList) and not potentials.materialized:
                # Spliced MRF whose term objects are still
                # deferred: they materialize from the live weight
                # vector, so updating the vector alone keeps them exact
                # — and reweighting stays free of object construction.
                self._pot_weights[i] = weight
                return
            p = potentials[i]
            potentials[i] = HingePotential(p.coefficients, p.offset, weight)
            self._pot_weights[i] = weight

    @staticmethod
    def _check_new_weight(key: Hashable, weight: float) -> float:
        weight = float(weight)
        if weight < 0:
            raise InferenceError(
                f"group {key!r}: potential weight must be non-negative, got {weight}"
            )
        if weight == 0:
            raise InferenceError(
                f"group {key!r}: cannot reweight to zero — zero-weight "
                "potentials are dropped at grounding time, so this would "
                "change the ground structure; re-ground instead"
            )
        return weight

    def set_group_weights(self, weights: Mapping[Hashable, float]) -> None:
        """Set every potential of each group to its group's new weight.

        Unknown group keys are skipped (that origin produced no
        groundings here).
        """
        for key, weight in weights.items():
            gid = self._group_ids.get(key)
            if gid is None:
                continue
            if gid in self._zero_dropped and float(weight) != 0.0:
                raise InferenceError(
                    f"group {key!r} was ground at weight zero, so its "
                    "potentials were dropped from the structure; reweighting "
                    "it to a non-zero weight cannot restore them — re-ground "
                    "instead"
                )
            members = self._group_members[gid]
            if float(weight) == 0.0 and not members:
                continue  # was ground at zero weight; zero -> zero is a no-op
            weight = self._check_new_weight(key, weight)
            potentials = self.potentials
            if isinstance(potentials, _LazyTermList) and not potentials.materialized:
                # Deferred term objects read the live weight vector when
                # they materialize — bulk-update the vector directly.
                pot_weights = self._pot_weights
                for i in members:
                    pot_weights[i] = weight
            else:
                for i in members:
                    self._set_weight(i, weight)
        self.weights_version += 1

    def set_group_potential_weights(
        self, key: Hashable, weights: Sequence[float]
    ) -> None:
        """Set one group's member potentials to per-member weights.

        For groups whose members do not share one scalar — e.g. the
        collective model's per-candidate prior, where each potential's
        weight is its own linear combination of objective components.
        *weights* is ordered like :meth:`group_members` (append order).
        """
        gid = self._group_ids.get(key)
        if gid is None:
            if len(weights):
                raise InferenceError(f"unknown origin group {key!r}")
            return
        if gid in self._zero_dropped:
            raise InferenceError(
                f"group {key!r} was ground at weight zero (potentials "
                "dropped); re-ground instead of reweighting"
            )
        members = self._group_members[gid]
        if len(weights) != len(members):
            raise InferenceError(
                f"group {key!r} has {len(members)} potentials, got "
                f"{len(weights)} weights"
            )
        for i, weight in zip(members, weights):
            self._set_weight(i, self._check_new_weight(key, weight))
        self.weights_version += 1

    def add_potential(
        self,
        coefficients: Mapping[GroundAtom, float],
        offset: float,
        weight: float,
        group: Hashable | None = None,
    ) -> None:
        """Add ``weight * max(0, sum coeff*atom + offset)``.

        A zero-weight potential is dropped.  One with no nonzero
        coefficient raises :class:`InferenceError`.  *group* tags the
        potential with its origin — the hook the reweighting API keys on.
        """
        kept = filter_potential_terms(coefficients.items(), weight)
        gid = self.group_id(group) if group is not None else -1
        if not kept:
            if gid >= 0:
                self._zero_dropped.add(gid)
            return
        if gid >= 0:
            self._group_members[gid].append(len(self.potentials))
        self.potential_groups.append(gid)
        self._pot_weights.append(float(weight))
        self.potentials.append(
            HingePotential(
                tuple((self.variable_index(a), c) for a, c in kept),
                float(offset),
                float(weight),
            )
        )

    def add_constraint(
        self, coefficients: Mapping[GroundAtom, float], offset: float
    ) -> None:
        """Add the hard constraint ``sum coeff*atom + offset <= 0``."""
        kept = nonzero_terms(coefficients.items())
        self.constraints.append(
            HardConstraint(
                tuple((self.variable_index(a), c) for a, c in kept), float(offset)
            )
        )

    def add_term_block(self, atoms: Iterable[GroundAtom], block: "TermBlock") -> None:
        """Append a compact shard-emitted term block (bulk construction).

        *atoms* is the block's shard-local atom table; it is interned once
        and every term's local indices are remapped through it, so the
        per-potential ``Mapping[GroundAtom, float]`` dicts of the
        incremental API never materialize.  Term order inside the block is
        preserved, which is what makes sharded merges reproduce the serial
        potential/constraint order byte for byte.
        """
        local_to_global = self.intern_atoms(atoms)
        # Intern every group the producer mentioned, in mention order —
        # dropped ones included — so the merged registry (group ids,
        # zero-dropped set) matches the serial add_potential path's.
        for key, zero_dropped in block.observed_groups:
            gid = self.group_id(key)
            if zero_dropped:
                self._zero_dropped.add(gid)
        pot_before, con_before = len(self.potentials), len(self.constraints)
        kinds = block.kinds
        offsets = block.offsets
        weights = block.weights
        groups = block.groups
        ptr = block.term_ptr
        atom_index = block.atom_index
        coefficient = block.coefficient
        for t in range(block.num_terms):
            pairs = tuple(
                (local_to_global[atom_index[k]], float(coefficient[k]))
                for k in range(ptr[t], ptr[t + 1])
            )
            if kinds[t] == KIND_HINGE:
                key = groups[t] if groups is not None else None
                gid = self.group_id(key) if key is not None else -1
                if gid >= 0:
                    self._group_members[gid].append(len(self.potentials))
                self.potential_groups.append(gid)
                self._pot_weights.append(float(weights[t]))
                self.potentials.append(
                    HingePotential(pairs, float(offsets[t]), float(weights[t]))
                )
            else:
                self.constraints.append(HardConstraint(pairs, float(offsets[t])))
        self._block_extents.append(
            (pot_before, len(self.potentials), con_before, len(self.constraints))
        )

    def energy(self, x) -> float:
        """Total weighted hinge loss at *x* (ignores constraints).

        Computed on the compiled flat arrays
        (:func:`~repro.psl.partition.compiled_arrays`, compiled once when
        absent) — one gather, one per-term ``bincount``, one dot with the
        live weight vector — instead of a Python loop over potentials.
        Validated against the per-potential sum in tests; float
        summation order differs, so the two agree to tolerance, not bit
        for bit (every bit-identity contract in the solver compares
        energies computed by this same function on both sides).
        """
        if not self.potentials:
            return 0.0
        from repro.psl.partition import compiled_arrays  # import cycle

        flat = compiled_arrays(self)
        num = flat.num_potentials
        copies = int(flat.term_ptr[num])
        xv = np.asarray(x, dtype=np.float64)
        s = np.bincount(
            flat.term[:copies],
            weights=flat.coeff[:copies] * xv[flat.var[:copies]],
            minlength=num,
        )
        s += flat.offset[:num]
        return float(np.dot(self.potential_weights(), np.maximum(s, 0.0)))

    def max_violation(self, x) -> float:
        """Largest hard-constraint violation at *x*."""
        if not self.constraints:
            return 0.0
        return max(c.violation(x) for c in self.constraints)


def rebuild_mrf(
    variables: Sequence[GroundAtom],
    *,
    offset: Sequence[float],
    weight: Sequence[float],
    term_ptr: Sequence[int],
    var: Sequence[int],
    coeff: Sequence[float],
    num_potentials: int,
    potential_groups: Sequence[int],
    group_keys: Sequence[Hashable],
    zero_dropped: Iterable[int],
    block_extents: Iterable[tuple[int, int, int, int]],
) -> HingeLossMRF:
    """Reconstruct a grounded :class:`HingeLossMRF` from flat CSR arrays.

    The structural inverse of grounding, used only by the splice engine
    (:func:`~repro.psl.delta.splice_grounding`): given the flat term
    arrays in potentials-then-constraints order plus the registry
    metadata (interned variables, origin groups, term block extents), rebuild the full MRF **without re-interning atoms
    through the grounding path** — no shard planning, no
    ``add_term_block``, no dict-based coefficient maps.  Every field is
    reproduced exactly as the original grounding left it (float64
    round-trips bit for bit), so fingerprints, reweighting, and solves
    on the rebuilt MRF are indistinguishable from the original's.

    Array-likes may be numpy arrays or plain sequences; they are only
    read.

    The potential/constraint *objects* are deferred
    (:class:`_LazyTermList`): the solver stack works entirely off the
    flat arrays, so a spliced MRF solves and reweights without ever
    constructing them — they materialize (from the live weight vector)
    only when something iterates or subscripts the lists, e.g. a
    fingerprint or the per-potential diagnostics.
    """
    def as_list(values) -> list:
        # ndarray.tolist() converts to builtin ints/floats at C speed
        # (exact for int64/float64); plain sequences pass through.
        return values.tolist() if hasattr(values, "tolist") else list(values)

    num_terms = len(term_ptr) - 1
    pot_weights = as_list(weight[:num_potentials])

    shared: dict = {}

    def term_source() -> dict:
        if not shared:
            shared["pairs"] = list(zip(as_list(var), as_list(coeff)))
            shared["ptr"] = as_list(term_ptr)
            shared["offsets"] = as_list(offset)
        return shared

    def build_potentials() -> list:
        s = term_source()
        pairs, ptr, offsets = s["pairs"], s["ptr"], s["offsets"]
        # pot_weights is the MRF's live _pot_weights list (mutated in
        # place by reweights), so late materialization stays exact.
        return [
            HingePotential(
                tuple(pairs[ptr[t] : ptr[t + 1]]), offsets[t], pot_weights[t]
            )
            for t in range(num_potentials)
        ]

    def build_constraints() -> list:
        s = term_source()
        pairs, ptr, offsets = s["pairs"], s["ptr"], s["offsets"]
        return [
            HardConstraint(tuple(pairs[ptr[t] : ptr[t + 1]]), offsets[t])
            for t in range(num_potentials, num_terms)
        ]

    potentials = _LazyTermList(num_potentials, build_potentials)
    constraints = _LazyTermList(num_terms - num_potentials, build_constraints)
    groups = [int(g) for g in as_list(potential_groups)]
    if len(groups) != num_potentials:
        raise InferenceError(
            f"expected {num_potentials} potential group tags, got {len(groups)}"
        )
    keys = list(group_keys)
    members: dict[int, list[int]] = {gid: [] for gid in range(len(keys))}
    for i, gid in enumerate(groups):
        if gid >= 0:
            members[gid].append(i)
    atoms = list(variables)
    return HingeLossMRF(
        variables=atoms,
        _index={},  # rebuilt lazily by _ensure_index on first atom lookup
        potentials=potentials,
        constraints=constraints,
        _block_extents=[tuple(int(v) for v in e) for e in block_extents],
        potential_groups=groups,
        weights_version=0,
        _pot_weights=pot_weights,
        _group_ids={key: gid for gid, key in enumerate(keys)},
        _group_keys=keys,
        _group_members=members,
        _zero_dropped={int(g) for g in zero_dropped},
    )
