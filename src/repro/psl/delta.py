"""Incremental (delta) grounding: re-ground only what changed, splice the rest.

Grounding is the expensive half of every solve, yet a typical edit — a
few tuples observed or retracted between ticks — leaves almost every
grounding shard's output untouched.  This module reuses the compiled
artifact at the *flat-array* level:

* :class:`ShardRecord` captures, per shard of a previous ground, the
  metadata the splice needs (content key, atom table).  Records are built for free at ground time through
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
  add_term_block` rules.  The spliced weight vector carries each reused
  shard's old weights and each fresh shard's new ones; the caller then
  sets the weights it wants in one
  :meth:`~repro.psl.hlmrf.HingeLossMRF.set_potential_weights` call.

Its one user is the collective selector's patch tier
(:func:`~repro.selection.collective.patch_collective`), which plans
coverage/error/prior shards and splices them through this engine.  See
``docs/incremental.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.psl.hlmrf import KIND_HINGE, HingeLossMRF, rebuild_mrf
from repro.psl.partition import FlatTermArrays, compiled_arrays
from repro.psl.predicate import GroundAtom
from repro.psl.sharding import GroundingShard, ShardResult


@dataclass(frozen=True)
class ShardRecord:
    """What the splice must remember about one shard of a past ground.

    ``key`` is the shard's content key (:func:`shard_key`); ``atoms`` is
    its atom table in intern order.
    """

    key: Hashable
    atoms: tuple[GroundAtom, ...]


def shard_key(shard: GroundingShard) -> Hashable:
    """A content key: equal keys mean byte-identical shard output.

    Every shard the splice matches defines ``content_key()``, which
    leaves out ``order`` and the weight magnitudes the caller sets after
    the splice.
    """
    return shard.content_key()


def record_for(shard: GroundingShard, result: ShardResult) -> ShardRecord:
    """The :class:`ShardRecord` of a freshly built shard."""
    return ShardRecord(key=shard_key(shard), atoms=result.atoms)


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


class _Segment:
    """Accumulates the potential and constraint array segments of shards."""

    def __init__(self) -> None:
        self.kind: list[np.ndarray] = []
        self.offset: list[np.ndarray] = []
        self.normsq: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        self.var: list[np.ndarray] = []
        self.coeff: list[np.ndarray] = []

    def concatenated(self) -> dict[str, np.ndarray]:
        return {
            "kind": _concat(self.kind, np.int64),
            "offset": _concat(self.offset, np.float64),
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
    flat order (the append half).  Reused potentials keep their old
    weights and fresh ones take their block's; the caller sets the
    weights it wants afterwards.

    Returns ``None`` whenever the splice cannot be performed exactly —
    misaligned extents, a reused shard referencing a variable that no
    longer exists — in which case the caller falls back to a full re-ground.  Never
    returns a wrong MRF: every failure mode is detected, not papered
    over.
    """
    extents = old_mrf._block_extents
    if len(extents) != len(old_records) or len(reuse) != len(shards):
        return None
    flat = compiled_arrays(old_mrf)
    old_pot = flat.num_potentials
    old_counts = np.diff(flat.term_ptr)

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

    # -- assemble the flat arrays, shard by shard -------------------------
    pot_seg = _Segment()
    con_seg = _Segment()
    weight_parts: list[np.ndarray] = []
    new_extents: list[tuple[int, int, int, int]] = []
    pot_count = con_count = 0
    reused_terms = fresh_terms = 0

    for position, shard in enumerate(shards):
        source = reuse[position]
        if source is not None:
            pot_lo, pot_hi, con_lo, con_hi = extents[source]
            pot_rows = slice(pot_lo, pot_hi)
            con_rows = slice(old_pot + con_lo, old_pot + con_hi)
            for rows, seg in ((pot_rows, pot_seg), (con_rows, con_seg)):
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
            weight_parts.append(flat.weight[pot_rows])
            n_pot, n_con = pot_hi - pot_lo, con_hi - con_lo
            reused_terms += n_pot + n_con
        else:
            result = fresh_results[position]
            block = result.block
            kinds = np.asarray(block.kinds, dtype=np.int64)
            is_pot = kinds == KIND_HINGE
            counts = np.diff(block.term_ptr)
            local_map = np.fromiter(
                (var_index[a] for a in result.atoms),
                dtype=np.int64,
                count=len(result.atoms),
            )
            for mask, seg in ((is_pot, pot_seg), (~is_pot, con_seg)):
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
            weight_parts.append(block.weights[is_pot])
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
    weight = _concat(weight_parts, np.float64)
    normsq = np.concatenate([pot["normsq"], con["normsq"]])
    counts = np.concatenate([pot["counts"], con["counts"]])
    var = np.concatenate([pot["var"], con["var"]])
    coeff = np.concatenate([pot["coeff"], con["coeff"]])

    term_ptr = np.zeros(len(kind) + 1, dtype=np.int64)
    np.cumsum(counts, out=term_ptr[1:])
    term = np.repeat(np.arange(len(kind), dtype=np.int64), counts)
    degree = np.maximum(
        np.bincount(var, minlength=len(variables)).astype(np.float64), 1.0
    )

    mrf = rebuild_mrf(
        variables,
        offset=offset,
        weight=weight,
        term_ptr=term_ptr,
        var=var,
        coeff=coeff,
        num_potentials=pot_count,
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

