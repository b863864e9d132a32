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
blocks (:mod:`repro.psl.sharding`).  The weights ``w_k`` are one
per-potential vector, which the compiled solver arrays share and
:meth:`HingeLossMRF.set_potential_weights` alone rewrites.  Solved by
consensus ADMM in :mod:`repro.psl.admm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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
    """The unweighted hinge ``max(0, sum(coeff*x) + offset)``.

    Its weight lives in the MRF's weight vector
    (:meth:`HingeLossMRF.potential_weights`), at the potential's index.
    """

    coefficients: tuple[tuple[int, float], ...]
    offset: float

    def unit_value(self, x) -> float:
        """The hinge ``max(0, a^T x + b)`` at *x*, before weighting."""
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
    :meth:`HingeLossMRF.energy` slices them too, a reweight writes only
    the weight vector, and the structural checks only take ``len()``.
    This sequence therefore defers building the objects until something
    actually subscripts, iterates, or pickles it — fingerprints, the
    per-potential diagnostics.
    """

    __slots__ = ("_length", "_build", "_items")

    def __init__(self, length: int, build):
        self._length = length
        self._build = build
        self._items: list | None = None

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


@dataclass(eq=False)
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
    potential weights, so the weights live apart from the (immutable once
    grounded) term structure, in one float64 vector indexed like
    ``potentials``.  That vector is the only store of weights: the
    compiled solver arrays (:func:`~repro.psl.partition.compiled_arrays`)
    hold the same array object, and :meth:`set_potential_weights`, its
    one writer after grounding, rewrites it in place.  A reweighted MRF
    is element-for-element identical to one freshly grounded at the new
    weights, provided no weight crosses zero (zero-weight potentials are
    dropped at grounding time, so a zero would change structure and is
    rejected).
    """

    variables: list[GroundAtom] = field(default_factory=list)
    _index: dict[GroundAtom, int] = field(default_factory=dict)
    potentials: list[HingePotential] = field(default_factory=list)
    constraints: list[HardConstraint] = field(default_factory=list)
    #: (pot_lo, pot_hi, con_lo, con_hi) extents of each add_term_block call.
    _block_extents: list[tuple[int, int, int, int]] = field(default_factory=list)
    #: float64[len(potentials)]: potential k's weight.
    _weights: np.ndarray = field(default_factory=lambda: np.empty(0))

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

    def potential_weights(self) -> np.ndarray:
        """The per-potential weight vector, as a read-only view."""
        view = self._weights.view()
        view.flags.writeable = False
        return view

    def set_potential_weights(self, weights: Sequence[float]) -> None:
        """Overwrite every potential's weight, in place.

        *weights* is ordered like ``potentials``.  Each must be finite
        and > 0: a fresh ground drops zero-weight potentials, so a zero
        here would leave a model no ground produces.
        """
        new = np.asarray(weights, dtype=np.float64)
        if new.shape != self._weights.shape:
            raise InferenceError(
                f"expected {len(self._weights)} potential weights, got shape {new.shape}"
            )
        if not (np.isfinite(new).all() and (new > 0).all()):
            raise InferenceError("potential weights must be finite and > 0")
        self._weights[:] = new

    def add_potential(
        self,
        coefficients: Mapping[GroundAtom, float],
        offset: float,
        weight: float,
    ) -> None:
        """Add ``weight * max(0, sum coeff*atom + offset)``.

        A zero-weight potential is dropped.  One with no nonzero
        coefficient raises :class:`InferenceError`.
        """
        kept = filter_potential_terms(coefficients.items(), weight)
        if not kept:
            return
        self._weights = np.append(self._weights, float(weight))
        self.potentials.append(
            HingePotential(
                tuple((self.variable_index(a), c) for a, c in kept), float(offset)
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
        pot_before, con_before = len(self.potentials), len(self.constraints)
        kinds = block.kinds
        offsets = block.offsets
        ptr = block.term_ptr
        atom_index = block.atom_index
        coefficient = block.coefficient
        for t in range(block.num_terms):
            pairs = tuple(
                (local_to_global[atom_index[k]], float(coefficient[k]))
                for k in range(ptr[t], ptr[t + 1])
            )
            if kinds[t] == KIND_HINGE:
                self.potentials.append(HingePotential(pairs, float(offsets[t])))
            else:
                self.constraints.append(HardConstraint(pairs, float(offsets[t])))
        self._weights = np.concatenate(
            (self._weights, block.weights[kinds == KIND_HINGE])
        )
        self._block_extents.append(
            (pot_before, len(self.potentials), con_before, len(self.constraints))
        )

    def energy(self, x) -> float:
        """Total weighted hinge loss at *x* (ignores constraints).

        Computed on the compiled flat arrays
        (:func:`~repro.psl.partition.compiled_arrays`, compiled once when
        absent) — one gather, one per-term ``bincount``, one dot with the
        weight vector — instead of a Python loop over potentials.
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
        return float(np.dot(self._weights, np.maximum(s, 0.0)))

    def max_violation(self, x) -> float:
        """Largest hard-constraint violation at *x*."""
        if not self.constraints:
            return 0.0
        return max(c.violation(x) for c in self.constraints)


def rebuild_mrf(
    variables: Sequence[GroundAtom],
    *,
    offset: Sequence[float],
    weight: np.ndarray,
    term_ptr: Sequence[int],
    var: Sequence[int],
    coeff: Sequence[float],
    num_potentials: int,
    block_extents: Iterable[tuple[int, int, int, int]],
) -> HingeLossMRF:
    """Reconstruct a grounded :class:`HingeLossMRF` from flat CSR arrays.

    The structural inverse of grounding, used only by the splice engine
    (:func:`~repro.psl.delta.splice_grounding`): given the flat term
    arrays in potentials-then-constraints order, the per-potential
    *weight* vector (kept as the MRF's weight store, not copied), the
    interned variables and the term block extents, rebuild the full MRF
    **without re-interning atoms through the grounding path** — no shard
    planning, no ``add_term_block``, no dict-based coefficient maps.
    Every field is reproduced exactly as the original grounding left it
    (float64 round-trips bit for bit), so fingerprints, reweighting, and
    solves on the rebuilt MRF are indistinguishable from the original's.

    The other array-likes may be numpy arrays or plain sequences; they
    are only read.

    The potential/constraint *objects* are deferred
    (:class:`_LazyTermList`): the solver stack works entirely off the
    flat arrays, so a spliced MRF solves and reweights without ever
    constructing them — they materialize only when something iterates
    or subscripts the lists, e.g. a fingerprint or the per-potential
    diagnostics.
    """
    def as_list(values) -> list:
        # ndarray.tolist() converts to builtin ints/floats at C speed
        # (exact for int64/float64); plain sequences pass through.
        return values.tolist() if hasattr(values, "tolist") else list(values)

    num_terms = len(term_ptr) - 1

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
        return [
            HingePotential(tuple(pairs[ptr[t] : ptr[t + 1]]), offsets[t])
            for t in range(num_potentials)
        ]

    def build_constraints() -> list:
        s = term_source()
        pairs, ptr, offsets = s["pairs"], s["ptr"], s["offsets"]
        return [
            HardConstraint(tuple(pairs[ptr[t] : ptr[t + 1]]), offsets[t])
            for t in range(num_potentials, num_terms)
        ]

    return HingeLossMRF(
        variables=list(variables),
        _index={},  # rebuilt lazily by _ensure_index on first atom lookup
        potentials=_LazyTermList(num_potentials, build_potentials),
        constraints=_LazyTermList(num_terms - num_potentials, build_constraints),
        _block_extents=[tuple(int(v) for v in e) for e in block_extents],
        _weights=weight,
    )
