"""Incremental (delta) grounding: re-ground only what changed, splice the rest.

Grounding is the expensive half of every solve, yet a typical edit — a
few tuples observed or retracted between ticks — leaves almost every
grounding shard's output untouched.  This module reuses the compiled
artifact at the *flat-array* level:

* :class:`ShardRecord` captures, per shard of a previous ground, the
  metadata the splice needs (content key, atom table, observed groups,
  folded constants).  Records are built for free at ground time through
  :func:`~repro.psl.sharding.ground_shards`' ``observer`` hook.
* :func:`match_shards` pairs a new shard plan against the old records by
  *content key* (:func:`shard_key`): shards whose work is byte-identical
  are reused, everything else re-grounds.
* :func:`splice_grounding` builds only the fresh shards, slices the
  reused shards' term ranges straight out of the old MRF's compiled CSR
  arrays (dead ranges — shards with no match — are simply never
  copied), remaps variable indices through the old→new atom table, and
  reassembles a solve-ready :class:`~repro.psl.hlmrf.HingeLossMRF` via
  :func:`~repro.psl.hlmrf.rebuild_mrf`, pre-seeded compiled arrays
  included.  The result is **fingerprint-identical** to a from-scratch
  ground of the new plan — the bit-identity suite asserts it — because
  reused slices are bit-copies of what re-grounding would rebuild and
  fresh blocks merge by the exact :meth:`~repro.psl.hlmrf.HingeLossMRF.
  add_term_block` rules.

Its one user is the collective selector's patch tier
(:func:`~repro.selection.collective.patch_collective`), which plans
coverage/error/prior shards and splices them through this engine.  See
``docs/incremental.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.psl.hlmrf import (
    KIND_HINGE,
    KIND_SQUARED,
    HingeLossMRF,
    rebuild_mrf,
)
from repro.psl.partition import FlatTermArrays, compile_term_arrays
from repro.psl.predicate import GroundAtom
from repro.psl.sharding import GroundingShard, ShardResult


@dataclass(frozen=True)
class ShardRecord:
    """What the splice must remember about one shard of a past ground.

    ``key`` is the shard's content key (:func:`shard_key`); ``atoms`` is
    its atom table in intern order.
    ``observed_groups``/``constant_masses``/``constant_energy`` mirror
    the same-named :class:`~repro.psl.sharding.TermBlock` fields — the
    registry contribution replaying this shard would make.
    """

    key: Hashable
    atoms: tuple[GroundAtom, ...]
    observed_groups: tuple = ()
    constant_masses: tuple = ()
    constant_energy: float = 0.0


def shard_key(shard: GroundingShard) -> Hashable:
    """A content key: equal keys mean byte-identical shard output.

    Shard classes may provide a ``content_key()`` method (excluding
    ``order`` and anything weight-derived they want normalized away);
    the fallback is the frozen-dataclass value with ``order`` zeroed,
    which is exact for any pure shard.
    """
    method = getattr(shard, "content_key", None)
    if callable(method):
        return method()
    return dataclasses.replace(shard, order=0)


def record_for(shard: GroundingShard, result: ShardResult) -> ShardRecord:
    """The :class:`ShardRecord` of a freshly built shard."""
    return ShardRecord(
        key=shard_key(shard),
        atoms=result.atoms,
        observed_groups=result.block.observed_groups,
        constant_masses=result.block.constant_masses,
        constant_energy=float(result.block.constant_energy),
    )


def match_shards(
    old_records: Sequence[ShardRecord],
    shards: Sequence[GroundingShard],
) -> list[int | None]:
    """Pair new shards with reusable old ones by content key.

    Returns, per new shard, the old shard position whose record it can
    reuse (``None`` → must re-ground).  Matching is multiset-aware: a
    key appearing k times on both sides pairs positionally, so duplicate
    shards never alias one old slice twice.
    """
    available: dict[Hashable, list[int]] = {}
    for position, record in enumerate(old_records):
        available.setdefault(record.key, []).append(position)
    pairing: list[int | None] = []
    for shard in shards:
        candidates = available.get(shard_key(shard))
        pairing.append(candidates.pop(0) if candidates else None)
    return pairing


@dataclass(frozen=True)
class SpliceStats:
    """Counters of one splice: how much was reused vs re-ground."""

    num_shards: int
    reused_shards: int
    fresh_shards: int
    reused_terms: int
    fresh_terms: int

    @property
    def reuse_fraction(self) -> float:
        total = self.reused_terms + self.fresh_terms
        return self.reused_terms / total if total else 1.0


@dataclass(frozen=True)
class SpliceResult:
    """A spliced grounding: the MRF, its new shard records, and stats."""

    mrf: HingeLossMRF
    records: tuple[ShardRecord, ...]
    stats: SpliceStats


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s+l)`` index runs, fully vectorized."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, lens)
    run_lo = np.concatenate(([0], np.cumsum(lens)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(run_lo, lens)
    return base + within


def _old_flat(mrf: HingeLossMRF) -> FlatTermArrays | None:
    """The old MRF's compiled arrays, if they describe its current terms."""
    flat = getattr(mrf, "_compiled", None)
    num_terms = len(mrf.potentials) + len(mrf.constraints)
    if (
        flat is not None
        and flat.num_potentials == len(mrf.potentials)
        and flat.num_terms == num_terms
    ):
        return flat
    try:
        return compile_term_arrays(mrf)
    except (InferenceError, ValueError):  # pragma: no cover - defensive
        return None


class _Segment:
    """Accumulates the potential and constraint array segments of shards."""

    def __init__(self) -> None:
        self.kind: list[np.ndarray] = []
        self.offset: list[np.ndarray] = []
        self.weight: list[np.ndarray] = []
        self.normsq: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        self.var: list[np.ndarray] = []
        self.coeff: list[np.ndarray] = []

    def concatenated(self) -> dict[str, np.ndarray]:
        return {
            "kind": _concat(self.kind, np.int64),
            "offset": _concat(self.offset, np.float64),
            "weight": _concat(self.weight, np.float64),
            "normsq": _concat(self.normsq, np.float64),
            "counts": _concat(self.counts, np.int64),
            "var": _concat(self.var, np.int64),
            "coeff": _concat(self.coeff, np.float64),
        }


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate([np.asarray(p, dtype=dtype) for p in parts])


def splice_grounding(
    old_mrf: HingeLossMRF,
    old_records: Sequence[ShardRecord],
    shards: Sequence[GroundingShard],
    reuse: Sequence[int | None],
    targets: Sequence[GroundAtom],
    group_weights: Mapping[Hashable, float] | None = None,
    member_weights: Mapping[Hashable, Sequence[float]] | None = None,
) -> SpliceResult | None:
    """Splice reused shard ranges and freshly ground shards into one MRF.

    *shards* is the **new** plan's full shard list (spec order);
    ``reuse[i]`` names the old shard position whose compiled term range
    shard *i* can reuse, or ``None`` to re-ground it (see
    :func:`match_shards`).  *targets* pins the head of the variable
    table (the plan's target atoms in order); atoms introduced by shard
    tables extend it in shard order, exactly as a fresh merge would.
    Old term ranges not claimed by any new shard are dead: their rows
    are never copied (the mask-out half of the splice), while fresh
    blocks are stable-partitioned into the potentials-then-constraints
    flat order (the append half).

    *group_weights* / *member_weights* rewrite the weight column (and
    rescale group-folded constants) during reassembly — the hook the
    collective patch path uses to land directly at the request's
    weights.  Uniform per-group values via *group_weights*; per-member
    vectors (append order) via *member_weights*.

    Returns ``None`` whenever the splice cannot be performed exactly —
    misaligned extents, a reused shard referencing a variable that no
    longer exists, a weight rewrite that would change structure — in
    which case the caller falls back to a full re-ground.  Never
    returns a wrong MRF: every failure mode is detected, not papered
    over.
    """
    extents = old_mrf._block_extents
    if len(extents) != len(old_records) or len(reuse) != len(shards):
        return None
    flat = _old_flat(old_mrf)
    if flat is None:
        return None
    old_pot = flat.num_potentials
    old_counts = np.diff(flat.term_ptr)
    old_pot_weights = np.asarray(old_mrf._pot_weights, dtype=np.float64)
    old_groups = np.asarray(old_mrf.potential_groups, dtype=np.int64)

    # -- re-ground only the fresh shards ----------------------------------
    fresh_positions = [i for i, source in enumerate(reuse) if source is None]
    fresh_results: dict[int, ShardResult] = {
        position: shards[position].build() for position in fresh_positions
    }

    # -- variable table: pinned targets, then shard-introduced atoms ------
    variables: list[GroundAtom] = list(targets)
    var_index: dict[GroundAtom, int] = {}
    for i, atom in enumerate(variables):
        var_index.setdefault(atom, i)
    if len(var_index) != len(variables):
        return None  # duplicate targets would desync the table
    for position in range(len(shards)):
        source = reuse[position]
        if source is None:
            atoms = fresh_results[position].atoms
        else:
            atoms = old_records[source].atoms
        for atom in atoms:
            if atom not in var_index:
                var_index[atom] = len(variables)
                variables.append(atom)

    # Old variable index -> new variable index (-1 = no longer present).
    old_to_new = np.full(len(old_mrf.variables), -1, dtype=np.int64)
    for i, atom in enumerate(old_mrf.variables):
        j = var_index.get(atom)
        if j is not None:
            old_to_new[i] = j

    # -- origin-group registry, interned in new shard order ---------------
    group_ids: dict[Hashable, int] = {}
    group_keys: list[Hashable] = []
    zero_dropped: set[int] = set()
    constant_mass: dict[int, float] = {}
    constant_weighted: dict[int, float] = {}
    constant_energy = 0.0

    def intern_group(key: Hashable) -> int:
        gid = group_ids.get(key)
        if gid is None:
            gid = len(group_keys)
            group_ids[key] = gid
            group_keys.append(key)
        return gid

    for position in range(len(shards)):
        source = reuse[position]
        if source is None:
            block = fresh_results[position].block
            observed, masses, energy = (
                block.observed_groups,
                block.constant_masses,
                block.constant_energy,
            )
        else:
            record = old_records[source]
            observed, masses, energy = (
                record.observed_groups,
                record.constant_masses,
                record.constant_energy,
            )
        for key, flagged in observed:
            gid = intern_group(key)
            if flagged:
                zero_dropped.add(gid)
        for key, mass, weighted in masses:
            gid = intern_group(key)
            if mass:
                constant_mass[gid] = constant_mass.get(gid, 0.0) + mass
                constant_weighted[gid] = constant_weighted.get(gid, 0.0) + weighted
        constant_energy += energy

    # Old group id -> new group id (-2 = key unknown to the new registry).
    old_gid_map = np.full(len(old_mrf.group_keys) + 1, -1, dtype=np.int64)
    for gid, key in enumerate(old_mrf.group_keys):
        old_gid_map[gid + 1] = group_ids.get(key, -2)

    # -- assemble the flat arrays, shard by shard -------------------------
    pot_seg = _Segment()
    con_seg = _Segment()
    group_parts: list[np.ndarray] = []
    new_extents: list[tuple[int, int, int, int]] = []
    pot_count = con_count = 0
    reused_terms = fresh_terms = 0

    for position, shard in enumerate(shards):
        source = reuse[position]
        if source is not None:
            pot_lo, pot_hi, con_lo, con_hi = extents[source]
            pot_rows = slice(pot_lo, pot_hi)
            con_rows = slice(old_pot + con_lo, old_pot + con_hi)
            for rows, seg, is_pot in ((pot_rows, pot_seg, True), (con_rows, con_seg, False)):
                seg.kind.append(flat.kind[rows])
                seg.offset.append(flat.offset[rows])
                seg.normsq.append(flat.normsq[rows])
                seg.counts.append(old_counts[rows])
                copy_rows = slice(
                    int(flat.term_ptr[rows.start]), int(flat.term_ptr[rows.stop])
                )
                remapped = old_to_new[flat.var[copy_rows]]
                if remapped.size and remapped.min() < 0:
                    return None  # reused shard references a retracted atom
                seg.var.append(remapped)
                seg.coeff.append(flat.coeff[copy_rows])
                if is_pot:
                    seg.weight.append(old_pot_weights[rows])
                else:
                    seg.weight.append(np.zeros(rows.stop - rows.start))
            mapped_groups = old_gid_map[old_groups[pot_rows] + 1]
            if mapped_groups.size and mapped_groups.min() < -1:
                return None  # group key vanished from the registry
            group_parts.append(mapped_groups)
            n_pot, n_con = pot_hi - pot_lo, con_hi - con_lo
            reused_terms += n_pot + n_con
        else:
            result = fresh_results[position]
            block = result.block
            kinds = np.asarray(block.kinds, dtype=np.int64)
            is_pot = (kinds == KIND_HINGE) | (kinds == KIND_SQUARED)
            counts = np.diff(block.term_ptr)
            local_map = np.fromiter(
                (var_index[a] for a in result.atoms),
                dtype=np.int64,
                count=len(result.atoms),
            )
            for mask, seg, want_pot in ((is_pot, pot_seg, True), (~is_pot, con_seg, False)):
                sel = np.flatnonzero(mask)
                seg.kind.append(kinds[sel])
                seg.offset.append(block.offsets[sel])
                seg.counts.append(counts[sel])
                gathered = _gather_ranges(block.term_ptr[sel], counts[sel])
                sel_var = (
                    local_map[block.atom_index[gathered]]
                    if gathered.size
                    else np.empty(0, dtype=np.int64)
                )
                sel_coeff = block.coefficient[gathered]
                seg.var.append(sel_var)
                seg.coeff.append(sel_coeff)
                local_term = np.repeat(
                    np.arange(len(sel), dtype=np.int64), counts[sel]
                )
                seg.normsq.append(
                    np.maximum(
                        np.bincount(
                            local_term, weights=sel_coeff**2, minlength=len(sel)
                        ),
                        1e-12,
                    )
                )
                if want_pot:
                    seg.weight.append(block.weights[sel])
                else:
                    seg.weight.append(np.zeros(len(sel)))
            sel_pot = np.flatnonzero(is_pot)
            if block.groups is None:
                mapped_groups = np.full(len(sel_pot), -1, dtype=np.int64)
            else:
                mapped_groups = np.fromiter(
                    (
                        -1 if block.groups[t] is None else group_ids[block.groups[t]]
                        for t in sel_pot
                    ),
                    dtype=np.int64,
                    count=len(sel_pot),
                )
            group_parts.append(mapped_groups)
            n_pot = int(is_pot.sum())
            n_con = len(kinds) - n_pot
            fresh_terms += n_pot + n_con
        new_extents.append((pot_count, pot_count + n_pot, con_count, con_count + n_con))
        pot_count += n_pot
        con_count += n_con

    pot = pot_seg.concatenated()
    con = con_seg.concatenated()
    kind = np.concatenate([pot["kind"], con["kind"]])
    offset = np.concatenate([pot["offset"], con["offset"]])
    weight = np.concatenate([pot["weight"], con["weight"]])
    normsq = np.concatenate([pot["normsq"], con["normsq"]])
    counts = np.concatenate([pot["counts"], con["counts"]])
    var = np.concatenate([pot["var"], con["var"]])
    coeff = np.concatenate([pot["coeff"], con["coeff"]])
    groups_arr = _concat(group_parts, np.int64)

    # -- optional weight rewrite (the reweight-at-splice-time hook) -------
    if group_weights:
        for key, value in group_weights.items():
            gid = group_ids.get(key)
            if gid is None:
                continue
            value = float(value)
            members = np.flatnonzero(groups_arr == gid)
            if value == 0.0 and members.size:
                return None  # zeroing live potentials changes structure
            if value != 0.0 and gid in zero_dropped:
                return None  # dropped structure cannot be reweighted back
            weight[members] = value
            mass = constant_mass.get(gid)
            if mass:
                rescaled = mass * value
                constant_energy += rescaled - constant_weighted.get(gid, 0.0)
                constant_weighted[gid] = rescaled
    if member_weights:
        for key, values in member_weights.items():
            gid = group_ids.get(key)
            if gid is None:
                if len(values):
                    return None
                continue
            members = np.flatnonzero(groups_arr == gid)
            values = np.asarray(values, dtype=np.float64)
            if len(values) != members.size or (values == 0.0).any():
                return None
            weight[members] = values

    term_ptr = np.zeros(len(kind) + 1, dtype=np.int64)
    np.cumsum(counts, out=term_ptr[1:])
    term = np.repeat(np.arange(len(kind), dtype=np.int64), counts)
    degree = np.maximum(
        np.bincount(var, minlength=len(variables)).astype(np.float64), 1.0
    )

    mrf = rebuild_mrf(
        variables,
        kind=kind,
        offset=offset,
        weight=weight,
        term_ptr=term_ptr,
        var=var,
        coeff=coeff,
        num_potentials=pot_count,
        potential_groups=groups_arr,
        group_keys=group_keys,
        zero_dropped=zero_dropped,
        constant_mass=constant_mass,
        constant_weighted=constant_weighted,
        constant_energy=constant_energy,
        block_extents=new_extents,
    )
    mrf._compiled = FlatTermArrays(
        num_variables=len(variables),
        num_potentials=pot_count,
        kind=kind,
        offset=offset,
        weight=weight,
        normsq=normsq,
        term_ptr=term_ptr,
        var=var,
        term=term,
        coeff=coeff,
        degree=degree,
    )

    records = tuple(
        old_records[reuse[i]]
        if reuse[i] is not None
        else record_for(shards[i], fresh_results[i])
        for i in range(len(shards))
    )
    stats = SpliceStats(
        num_shards=len(shards),
        reused_shards=len(shards) - len(fresh_positions),
        fresh_shards=len(fresh_positions),
        reused_terms=reused_terms,
        fresh_terms=fresh_terms,
    )
    return SpliceResult(mrf=mrf, records=records, stats=stats)

