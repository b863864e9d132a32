"""Incremental (delta) grounding: re-ground only what changed, splice the rest.

Grounding is the expensive half of every solve, yet a typical edit — a
few tuples observed or retracted between ticks — leaves almost every
grounding shard's output untouched.  This module reuses a grounded
MRF's term rows block by block:

* :class:`ShardRecord` captures, per shard of a previous ground, the
  metadata the splice needs (content key, atom table).  Records are built for free at ground time through
  :func:`~repro.psl.sharding.ground_shards`' ``observer`` hook.
* :func:`match_shards` pairs a new shard plan against the old records by
  *content key* (:func:`shard_key`): shards whose work is byte-identical
  are reused, everything else re-grounds.
* :func:`splice_grounding` builds only the fresh shards, slices the
  reused shards' hinge and cap rows straight out of the old MRF by block
  extent (dead rows — shards with no match — are simply never copied),
  remaps their variable indices through the old→new atom table, and
  builds the new :class:`~repro.psl.hlmrf.HingeLossMRF` from those rows
  and the atom→index table it built on the way.  The result is
  **fingerprint-identical** to a from-scratch ground of the new plan —
  the bit-identity suite asserts it — because reused slices are
  bit-copies of what re-grounding would rebuild and fresh blocks merge
  by the exact :meth:`~repro.psl.hlmrf.HingeLossMRF.add_term_block`
  rules.  The spliced weight vector carries each reused shard's old
  weights and each fresh shard's new ones; the caller then sets the
  weights it wants in one
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

from repro.psl.hlmrf import HingeLossMRF, TermRows
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


def splice_grounding(
    old_mrf: HingeLossMRF,
    old_records: Sequence[ShardRecord],
    shards: Sequence[GroundingShard],
    reuse: Sequence[int | None],
    targets: Sequence[GroundAtom],
) -> SpliceResult | None:
    """Splice reused shard rows and freshly ground shards into one MRF.

    *shards* is the **new** plan's full shard list (spec order);
    ``reuse[i]`` names the old shard position whose hinge and cap rows
    shard *i* can reuse, or ``None`` to re-ground it (see
    :func:`match_shards`).  *targets* pins the head of the variable
    table (the plan's target atoms in order); atoms introduced by shard
    tables extend it in shard order, exactly as a fresh merge would.
    Old rows not claimed by any new shard are dead and never copied.
    Reused potentials keep their old weights and fresh ones take their
    block's; the caller sets the weights it wants afterwards.

    Returns ``None`` whenever the splice cannot be performed exactly —
    misaligned extents, a reused shard referencing a variable that no
    longer exists — in which case the caller falls back to a full re-ground.  Never
    returns a wrong MRF: every failure mode is detected, not papered
    over.
    """
    extents = old_mrf._block_extents
    if len(extents) != len(old_records) or len(reuse) != len(shards):
        return None

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

    # -- the new rows, shard by shard -------------------------------------
    hinge_parts: list[TermRows] = []
    cap_parts: list[TermRows] = []
    weight_parts: list[np.ndarray] = []
    new_extents: list[tuple[int, int, int, int]] = []
    pot_count = con_count = 0
    reused_terms = fresh_terms = 0

    for position in range(len(shards)):
        source = reuse[position]
        if source is not None:
            pot_lo, pot_hi, con_lo, con_hi = extents[source]
            hinges = old_mrf.hinges.rows(pot_lo, pot_hi).remapped(old_to_new)
            caps = old_mrf.caps.rows(con_lo, con_hi).remapped(old_to_new)
            if (hinges.var < 0).any() or (caps.var < 0).any():
                return None  # reused shard references a retracted atom
            weights = old_mrf._weights[pot_lo:pot_hi]
            reused_terms += len(hinges) + len(caps)
        else:
            result = fresh_results[position]
            local_map = np.fromiter(
                (var_index[a] for a in result.atoms),
                dtype=np.int64,
                count=len(result.atoms),
            )
            hinges = result.block.hinges.remapped(local_map)
            caps = result.block.caps.remapped(local_map)
            weights = result.block.weights
            fresh_terms += len(hinges) + len(caps)
        hinge_parts.append(hinges)
        cap_parts.append(caps)
        weight_parts.append(weights)
        new_extents.append(
            (pot_count, pot_count + len(hinges), con_count, con_count + len(caps))
        )
        pot_count += len(hinges)
        con_count += len(caps)

    mrf = HingeLossMRF(
        variables=variables,
        _index=var_index,
        hinges=TermRows.concatenate(hinge_parts),
        caps=TermRows.concatenate(cap_parts),
        _weights=np.concatenate([np.empty(0), *weight_parts]),
        _block_extents=new_extents,
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
