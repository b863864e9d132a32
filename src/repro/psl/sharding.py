"""Block-wise grounding of hinge-loss MRFs.

Adding terms one at a time through ``GroundAtom``-keyed dicts
(:meth:`~repro.psl.hlmrf.HingeLossMRF.add_potential`) interns every
atom of every term through the MRF's dicts.  The block path splits
grounding into picklable **work units** (shards), each of which emits a
compact :class:`TermBlock` — the shard's linear hinges (with their
weights) and ``<=`` caps, the two kinds the collective model grounds,
as CSR rows over shard-local variable indices — plus the shard's atom
table.  A deterministic merge interns each shard's atoms
once and appends its terms, and its hinges' weights to the MRF's one
weight vector, via
:meth:`~repro.psl.hlmrf.HingeLossMRF.add_term_block`, so the merged MRF
is **fingerprint-identical** to adding the same terms one at a time
(shards run and merge in spec order on the calling thread, and term
order inside a shard is the order the producer emitted).

Shards are the unit of *reuse*, not of parallelism or memory:
incremental grounding (:mod:`repro.psl.delta`) splices per-shard
records.

The one producer of shards is :mod:`repro.selection.collective`, which
builds one coverage, one shared-error and one prior block with numpy
from the problem's :class:`~repro.selection.index.ObjectiveIndex`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.psl.hlmrf import HingeLossMRF, TermRows
from repro.psl.predicate import GroundAtom


@dataclass(frozen=True)
class TermBlock:
    """A compact batch of potentials/constraints over shard-local atoms.

    ``hinges`` and ``caps`` are :class:`~repro.psl.hlmrf.TermRows`, the
    MRF's own row format, whose ``var`` values index the shard's atom
    table, not the global MRF; the merge remaps them.  ``weights`` holds
    one weight per hinge row.
    """

    hinges: TermRows
    weights: np.ndarray  # float64[len(hinges)]
    caps: TermRows

    @property
    def num_terms(self) -> int:
        return len(self.hinges) + len(self.caps)


@dataclass(frozen=True)
class ShardResult:
    """One executed shard: its sequence number, atom table, and terms."""

    order: int
    atoms: tuple[GroundAtom, ...]
    block: TermBlock


class GroundingShard(Protocol):
    """A picklable grounding work unit.

    ``order`` fixes the shard's position in the merge (specs are built
    and merged in spec order; the field double-checks nothing reordered
    them).  ``build`` must be pure: same spec, same block, byte for
    byte.
    """

    order: int

    def build(self) -> ShardResult:
        ...


def ground_shards(
    shards: Sequence[GroundingShard],
    mrf: HingeLossMRF | None = None,
    observer: "Callable[[ShardResult], None]" | None = None,
) -> HingeLossMRF:
    """Build *shards* in spec order and merge them deterministically.

    Each shard is built on the calling thread and merged before the next
    one builds.  Pass *mrf*
    to merge into a pre-seeded MRF (e.g. one whose target variables were
    interned up front to pin the variable order).

    *observer* (when given) is called with each :class:`ShardResult`
    right after it merges — the hook incremental grounding
    (:mod:`repro.psl.delta`) uses to capture per-shard records (content
    keys, atom tables) without a second pass.
    The observer must not retain more than it needs.
    """
    mrf = mrf if mrf is not None else HingeLossMRF()
    for position, shard in enumerate(shards):
        result = shard.build()
        if result.order != position:
            raise InferenceError(
                f"shard specs out of order: expected {position}, "
                f"got {result.order}"
            )
        mrf.add_term_block(result.atoms, result.block)
        if observer is not None:
            observer(result)
    return mrf


def _atom_fingerprint(atom: GroundAtom) -> list:
    """An injective JSON-able rendering of a ground atom.

    ``repr(atom)`` renders arguments via ``str`` and would collide for
    e.g. ``p(1)`` vs ``p("1")``; including each argument's type name and
    ``repr`` keeps distinct atoms distinct in the fingerprint.
    """
    return [
        atom.predicate.name,
        atom.predicate.arity,
        [[type(a).__name__, repr(a)] for a in atom.arguments],
    ]


def mrf_fingerprint(mrf: HingeLossMRF, probe_points: int = 3) -> bytes:
    """A canonical byte serialization of an MRF's full structure.

    Two MRFs fingerprint equally iff their variable order, potentials
    (coefficients, offsets, weights — in order) and constraints agree
    bit for bit; a few deterministic pseudo-
    random probe energies are included as an end-to-end check.  Used to
    verify that sharded grounding reproduces the serial path exactly.
    """
    rng = np.random.default_rng(20170417)
    probes = []
    for _ in range(probe_points):
        x = rng.random(mrf.num_variables)
        probes.append([float(mrf.energy(x)), float(mrf.max_violation(x))])
    payload = {
        "variables": [_atom_fingerprint(a) for a in mrf.variables],
        "potentials": [
            [list(map(list, p.coefficients)), p.offset, w]
            for p, w in zip(mrf.potentials, mrf.potential_weights().tolist())
        ],
        "constraints": [
            [list(map(list, c.coefficients)), c.offset] for c in mrf.constraints
        ],
        "probes": probes,
    }
    return json.dumps(payload, sort_keys=True).encode()


def structure_fingerprint(mrf: HingeLossMRF, probe_points: int = 3) -> bytes:
    """A canonical byte serialization of an MRF's *weight-independent* part.

    The structural twin of :func:`mrf_fingerprint`: variable order,
    potential coefficients/offsets and constraints — everything except
    the mutable weight vector.
    Two groundings of the same problem at different (all-nonzero) weight
    settings fingerprint equally here, which is what lets a scenario
    cache key structure separately from weights: equal structure
    fingerprints mean reweight-and-resolve is exact, no re-ground
    needed.  The probe energies use the *unit* (weight-one) hinge masses
    so they, too, are weight-independent.
    """
    rng = np.random.default_rng(20170417)
    probes = []
    for _ in range(probe_points):
        x = rng.random(mrf.num_variables)
        unit = sum(p.unit_value(x) for p in mrf.potentials)
        probes.append([float(unit), float(mrf.max_violation(x))])
    payload = {
        "variables": [_atom_fingerprint(a) for a in mrf.variables],
        "potentials": [
            [list(map(list, p.coefficients)), p.offset] for p in mrf.potentials
        ],
        "constraints": [
            [list(map(list, c.coefficients)), c.offset] for c in mrf.constraints
        ],
        "probes": probes,
    }
    return json.dumps(payload, sort_keys=True).encode()
