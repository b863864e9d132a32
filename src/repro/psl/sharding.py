"""Sharded grounding of hinge-loss MRFs.

Adding terms one at a time through ``GroundAtom``-keyed dicts
(:meth:`~repro.psl.hlmrf.HingeLossMRF.add_potential`) materializes the
whole model twice: once as per-potential dicts, once as the MRF.  The
sharded path splits grounding into picklable **work units** (shards),
each of which emits a compact :class:`TermBlock` — flat arrays of
shard-local variable indices, CSR offsets, per-term offsets/weights/kinds
— plus the shard's atom table.  A deterministic merge interns each
shard's atoms once and appends its terms via
:meth:`~repro.psl.hlmrf.HingeLossMRF.add_term_block`, so:

* the merged MRF is **fingerprint-identical** to adding the same terms
  one at a time, for any shard size (shards run and merge in spec order
  on the calling thread, and term order inside a shard is the order the
  producer emitted);
* peak intermediate memory is **O(largest shard)** — only one shard's
  block is alive between merges — instead of O(whole model) worth of
  per-potential dicts.

Shards stay the unit of *reuse*, not of parallelism: incremental
grounding (:mod:`repro.psl.delta`) splices per-shard records.

The one producer of shards is :mod:`repro.selection.collective`, which
emits coverage/error/prior shards straight from the
:class:`~repro.selection.metrics.SelectionProblem`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.psl.hlmrf import (
    KIND_EQ,
    KIND_HINGE,
    KIND_LEQ,
    KIND_SQUARED,
    HingeLossMRF,
    filter_constraint_terms,
    filter_potential_terms,
)
from repro.psl.predicate import GroundAtom

#: Default number of logical entries (facts, groundings, candidates…)
#: a producer packs into one shard when the caller does not say.
DEFAULT_SHARD_SIZE = 1024


@dataclass(frozen=True)
class TermBlock:
    """A compact batch of potentials/constraints over shard-local atoms.

    CSR layout: term ``t`` owns coefficient entries
    ``term_ptr[t]:term_ptr[t+1]`` of ``atom_index``/``coefficient``.
    ``atom_index`` values index the shard's atom table, not the global
    MRF; the merge remaps them.  ``weights`` is meaningful only for
    potential kinds.  ``constant_energy`` carries potentials that reduced
    to constants inside the shard.

    ``groups`` (when present) names each term's *origin group* — the
    objective component it was grounded from; ``None`` entries
    (and all constraint kinds) are ungrouped.  ``constant_masses``
    carries the per-group unweighted hinge mass of folded constants as
    ``(group key, mass, weighted delta)`` triples.  ``observed_groups``
    lists *every* group the shard's producer mentioned, in first-mention
    order, each with a flag marking groups whose potentials were dropped
    for being ground at weight zero — merged first, so the MRF's group
    registry (intern order, zero-dropped set) is identical to the one
    the serial ``add_potential`` path builds, dropped groups included.
    All three feed the merged MRF's weight-reweighting registry;
    ``None``/empty keeps full backward compatibility with group-less
    producers.
    """

    kinds: np.ndarray  # int8[num_terms], KIND_* values
    offsets: np.ndarray  # float64[num_terms]
    weights: np.ndarray  # float64[num_terms]
    term_ptr: np.ndarray  # int64[num_terms + 1]
    atom_index: np.ndarray  # int32[nnz], shard-local
    coefficient: np.ndarray  # float64[nnz]
    constant_energy: float = 0.0
    groups: tuple | None = None  # per-term origin keys (None = ungrouped)
    constant_masses: tuple = ()  # ((group key, mass, weighted delta), ...)
    observed_groups: tuple = ()  # ((group key, zero_dropped), ...)

    @property
    def num_terms(self) -> int:
        return len(self.kinds)

    @property
    def num_entries(self) -> int:
        return len(self.atom_index)


class TermBlockBuilder:
    """Accumulates one shard's terms and atom table.

    Term semantics (zero-weight drop, zero-coefficient filter, constant
    folding, infeasibility checks) come from the same
    :func:`~repro.psl.hlmrf.filter_potential_terms` /
    :func:`~repro.psl.hlmrf.filter_constraint_terms` helpers the
    incremental :class:`HingeLossMRF` API uses, so a shard-emitted block
    merges into exactly the MRF the serial calls would have built.
    """

    def __init__(self) -> None:
        self._atoms: dict[GroundAtom, int] = {}
        self._kinds: list[int] = []
        self._offsets: list[float] = []
        self._weights: list[float] = []
        self._groups: list = []
        self._ptr: list[int] = [0]
        self._atom_index: list[int] = []
        self._coefficient: list[float] = []
        self._constant_energy = 0.0
        self._constant_masses: dict = {}
        self._observed_groups: dict = {}  # key -> zero_dropped (insertion order)

    def _local(self, atom: GroundAtom) -> int:
        idx = self._atoms.get(atom)
        if idx is None:
            idx = len(self._atoms)
            self._atoms[atom] = idx
        return idx

    def add_potential(
        self,
        coefficients: Iterable[tuple[GroundAtom, float]],
        offset: float,
        weight: float,
        squared: bool = False,
        group=None,
    ) -> None:
        kept, constant, mass = filter_potential_terms(
            coefficients, offset, weight, squared
        )
        if group is not None:
            # Mirror the serial path's registry exactly: the group is
            # interned even when this potential is dropped, and a
            # zero-weight drop is remembered so reweighting it back up
            # is rejected rather than silently wrong.
            self._observed_groups[group] = self._observed_groups.get(group, False) or (
                not kept and weight == 0
            )
        self._constant_energy += constant
        if not kept:
            if group is not None and mass:
                old_mass, old_weighted = self._constant_masses.get(group, (0.0, 0.0))
                self._constant_masses[group] = (old_mass + mass, old_weighted + constant)
            return
        self._append(
            KIND_SQUARED if squared else KIND_HINGE, kept, offset, weight, group
        )

    def add_constraint(
        self,
        coefficients: Iterable[tuple[GroundAtom, float]],
        offset: float,
        equality: bool = False,
    ) -> None:
        kept = filter_constraint_terms(coefficients, offset, equality)
        if not kept:
            return
        self._append(KIND_EQ if equality else KIND_LEQ, kept, offset, 0.0, None)

    def _append(
        self,
        kind: int,
        pairs: list[tuple[GroundAtom, float]],
        offset: float,
        weight: float,
        group,
    ) -> None:
        self._kinds.append(kind)
        self._offsets.append(float(offset))
        self._weights.append(float(weight))
        self._groups.append(group)
        for atom, c in pairs:
            self._atom_index.append(self._local(atom))
            self._coefficient.append(c)
        self._ptr.append(len(self._atom_index))

    def finish(self) -> tuple[tuple[GroundAtom, ...], TermBlock]:
        """The shard's atom table (intern order) and its term block."""
        block = TermBlock(
            kinds=np.asarray(self._kinds, dtype=np.int8),
            offsets=np.asarray(self._offsets, dtype=np.float64),
            weights=np.asarray(self._weights, dtype=np.float64),
            term_ptr=np.asarray(self._ptr, dtype=np.int64),
            atom_index=np.asarray(self._atom_index, dtype=np.int32),
            coefficient=np.asarray(self._coefficient, dtype=np.float64),
            constant_energy=self._constant_energy,
            groups=tuple(self._groups) if any(
                g is not None for g in self._groups
            ) else None,
            constant_masses=tuple(
                (key, mass, weighted)
                for key, (mass, weighted) in self._constant_masses.items()
            ),
            observed_groups=tuple(self._observed_groups.items()),
        )
        return tuple(self._atoms), block


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


@dataclass
class GroundingStats:
    """Counters of one sharded grounding run.

    ``peak_shard_terms``/``peak_shard_entries`` bound the working set
    materialized between merges: only one shard's block is alive at a
    time, so the peak working set is the largest shard — not the whole
    model.  The sharded-grounding bench asserts exactly that.
    """

    num_shards: int = 0
    num_potentials: int = 0
    num_constraints: int = 0
    total_terms: int = 0
    total_entries: int = 0
    peak_shard_terms: int = 0
    peak_shard_entries: int = 0
    peak_shard_atoms: int = 0
    constant_energy: float = 0.0

    def observe(self, result: ShardResult, mrf: HingeLossMRF, before: tuple[int, int]) -> None:
        pot_before, con_before = before
        self.num_shards += 1
        self.num_potentials += len(mrf.potentials) - pot_before
        self.num_constraints += len(mrf.constraints) - con_before
        self.total_terms += result.block.num_terms
        self.total_entries += result.block.num_entries
        self.peak_shard_terms = max(self.peak_shard_terms, result.block.num_terms)
        self.peak_shard_entries = max(self.peak_shard_entries, result.block.num_entries)
        self.peak_shard_atoms = max(self.peak_shard_atoms, len(result.atoms))
        self.constant_energy += result.block.constant_energy


def ground_shards(
    shards: Sequence[GroundingShard],
    mrf: HingeLossMRF | None = None,
    observer: "Callable[[ShardResult], None]" | None = None,
) -> tuple[HingeLossMRF, GroundingStats]:
    """Build *shards* in spec order and merge them deterministically.

    Each shard is built on the calling thread and merged before the next
    one builds, so only one shard block is held at a time.  Pass *mrf*
    to merge into a pre-seeded MRF (e.g. one whose target variables were
    interned up front to pin the variable order).

    *observer* (when given) is called with each :class:`ShardResult`
    right after it merges — the hook incremental grounding
    (:mod:`repro.psl.delta`) uses to capture per-shard records (atom
    tables, observed groups, folded constants) without a second pass.
    The observer must not retain more than it needs.
    """
    mrf = mrf if mrf is not None else HingeLossMRF()
    stats = GroundingStats()
    for position, shard in enumerate(shards):
        result = shard.build()
        if result.order != position:
            raise InferenceError(
                f"shard specs out of order: expected {position}, "
                f"got {result.order}"
            )
        before = (len(mrf.potentials), len(mrf.constraints))
        mrf.add_term_block(result.atoms, result.block)
        stats.observe(result, mrf, before)
        if observer is not None:
            observer(result)
    return mrf, stats


def iter_slices(count: int, shard_size: int | None) -> Iterable[tuple[int, int]]:
    """Split ``range(count)`` into contiguous ``[lo, hi)`` shard ranges."""
    size = shard_size if shard_size and shard_size > 0 else DEFAULT_SHARD_SIZE
    for lo in range(0, count, size):
        yield lo, min(lo + size, count)


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
    (coefficients, offsets, weights, squaredness — in order), constraints,
    and constant energy agree bit for bit; a few deterministic pseudo-
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
            [list(map(list, p.coefficients)), p.offset, p.weight, p.squared]
            for p in mrf.potentials
        ],
        "constraints": [
            [list(map(list, c.coefficients)), c.offset, c.equality]
            for c in mrf.constraints
        ],
        "constant_energy": mrf.constant_energy,
        "probes": probes,
    }
    return json.dumps(payload, sort_keys=True).encode()


def structure_fingerprint(mrf: HingeLossMRF, probe_points: int = 3) -> bytes:
    """A canonical byte serialization of an MRF's *weight-independent* part.

    The structural twin of :func:`mrf_fingerprint`: variable order,
    potential coefficients/offsets/squaredness, per-potential origin
    group, constraints, and per-group constant hinge masses — everything
    except the mutable weight vector and the weighted constant energy.
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
    group_render = [repr(key) for key in mrf.group_keys]
    payload = {
        "variables": [_atom_fingerprint(a) for a in mrf.variables],
        "potentials": [
            [list(map(list, p.coefficients)), p.offset, p.squared, int(gid)]
            for p, gid in zip(mrf.potentials, mrf.potential_groups)
        ],
        "constraints": [
            [list(map(list, c.coefficients)), c.offset, c.equality]
            for c in mrf.constraints
        ],
        "groups": group_render,
        "constant_masses": sorted(
            [group_render[gid], mass] for gid, mass in mrf._constant_mass.items()
        ),
        "probes": probes,
    }
    return json.dumps(payload, sort_keys=True).encode()
