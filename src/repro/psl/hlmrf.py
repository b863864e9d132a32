"""Hinge-loss Markov random fields.

The MAP problem of a HL-MRF (Bach, Broecheler, Huang, Getoor, JMLR 2017)
is the convex program::

    minimize    sum_k  w_k * max(0, a_k^T x + b_k)
    subject to  a_c^T x + b_c <= 0   for hard constraints
                x in [0, 1]^n

Bach et al.'s general term language also has squared hinges, equality
constraints and constant terms; the collective model grounds none of
them, so this module keeps only linear hinges and ``<=`` caps, and a
term with no nonzero coefficient, or a non-finite weight, coefficient
or offset, is an error.  Variables are PSL ground atoms; terms are
added one at a time or merged from shard term blocks
(:mod:`repro.psl.sharding`).

The model stores its terms once, as two sets of CSR rows
(:class:`TermRows`): the hinges ``a_k^T x + b_k`` and the caps
``a_c^T x + b_c``.  The weights ``w_k`` are one per-hinge vector, which
the solver arrays share and :meth:`HingeLossMRF.set_potential_weights`
alone rewrites.  Solved by consensus ADMM in :mod:`repro.psl.admm`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.psl.predicate import GroundAtom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.psl.sharding import TermBlock


def nonzero_terms(
    pairs: Iterable[tuple[object, float]], offset: float, what: str = "constraint"
) -> list[tuple[object, float]]:
    """*pairs* without zero coefficients, values as float.

    Used by the incremental :class:`HingeLossMRF` API and by the tests'
    hand-built term blocks, so the two can never diverge.  A term
    (*what*) with a non-finite coefficient or *offset*,
    or with no nonzero coefficient, raises :class:`InferenceError`.
    """
    kept = [(a, float(c)) for a, c in pairs if c]
    if not (math.isfinite(offset) and all(math.isfinite(c) for _, c in kept)):
        raise InferenceError(f"{what} has a non-finite coefficient or offset")
    if not kept:
        raise InferenceError(f"{what} has no nonzero coefficient")
    return kept


def filter_potential_terms(
    pairs: Iterable[tuple[object, float]], offset: float, weight: float
) -> list[tuple[object, float]]:
    """Shared normalization of one potential's terms.

    Validates the weight (finite and >= 0), drops zero-weight potentials
    (an empty list means nothing should be appended), then applies
    :func:`nonzero_terms`.
    """
    if not (math.isfinite(weight) and weight >= 0):
        raise InferenceError(
            f"potential weight must be finite and non-negative, got {weight}"
        )
    if weight == 0:
        return []
    return nonzero_terms(pairs, offset, "potential")


@dataclass(frozen=True)
class TermRows:
    """Linear terms ``a^T x + b`` as CSR rows.

    Row ``r`` owns entries ``ptr[r]:ptr[r+1]`` of ``var`` (variable
    indices) and ``coeff``, and its constant ``offset[r]``.  The arrays
    are never written after construction; slicing and concatenation
    build new rows.
    """

    offset: np.ndarray  # float64[num_rows]
    ptr: np.ndarray  # int64[num_rows + 1], ptr[0] == 0
    var: np.ndarray  # int64[nnz]
    coeff: np.ndarray  # float64[nnz]

    @classmethod
    def of(cls, offset, ptr, var, coeff) -> TermRows:
        """Rows from array-likes, in the store's dtypes."""
        return cls(
            np.asarray(offset, dtype=np.float64),
            np.asarray(ptr, dtype=np.int64),
            np.asarray(var, dtype=np.int64),
            np.asarray(coeff, dtype=np.float64),
        )

    @classmethod
    def empty(cls) -> TermRows:
        return cls.of([], [0], [], [])

    def __len__(self) -> int:
        return len(self.offset)

    def rows(self, lo: int, hi: int) -> TermRows:
        """Rows ``lo:hi``."""
        start, stop = self.ptr[lo], self.ptr[hi]
        return TermRows(
            self.offset[lo:hi],
            self.ptr[lo : hi + 1] - start,
            self.var[start:stop],
            self.coeff[start:stop],
        )

    def remapped(self, index: np.ndarray) -> TermRows:
        """The same rows over variables ``index[var]``."""
        return TermRows(self.offset, self.ptr, index[self.var], self.coeff)

    @staticmethod
    def concatenate(parts: Sequence[TermRows]) -> TermRows:
        """*parts*' rows, in order, as one row set."""
        if not parts:
            return TermRows.empty()
        ptrs, base = [parts[0].ptr], int(parts[0].ptr[-1])
        for part in parts[1:]:
            ptrs.append(part.ptr[1:] + base)
            base += int(part.ptr[-1])
        return TermRows(
            np.concatenate([p.offset for p in parts]),
            np.concatenate(ptrs),
            np.concatenate([p.var for p in parts]),
            np.concatenate([p.coeff for p in parts]),
        )

    def row_of_entry(self) -> np.ndarray:
        """Each entry's row index (int64[nnz])."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.ptr))

    def values(self, x) -> np.ndarray:
        """Every row's ``a^T x + b`` at *x*.

        Each row's products are summed in entry order, as Python's
        ``sum`` over the row's coefficients would.
        """
        xv = np.asarray(x, dtype=np.float64)
        s = np.bincount(
            self.row_of_entry(), weights=self.coeff * xv[self.var], minlength=len(self)
        )
        s += self.offset
        return s


def _write(buffer: np.ndarray, at: int, values) -> np.ndarray:
    """*buffer* with *values* written from index *at* on.

    A buffer too short is replaced by one twice as long (or long enough)
    holding its first *at* entries, so repeated appends cost amortized
    O(1) each.
    """
    end = at + len(values)
    if end > len(buffer):
        grown = np.empty(max(end, 2 * len(buffer)), dtype=buffer.dtype)
        grown[:at] = buffer[:at]
        buffer = grown
    buffer[at:end] = values
    return buffer


class _RowAppender:
    """Spare capacity behind one row set that grows a term at a time.

    :attr:`rows` (and, for hinges, :attr:`weights`) are views of the
    filled prefix of buffers with room to spare; an append writes past
    their end and hands out longer views.  It serves only the row set it
    last handed out (:meth:`serves`), so it never writes into arrays it
    did not allocate, and every view it handed out keeps its content.
    """

    def __init__(self, rows: TermRows, weights: np.ndarray | None = None):
        self.rows = rows
        self.weights = weights
        self._buffers = (rows.offset, rows.ptr, rows.var, rows.coeff, weights)

    def serves(self, rows: TermRows, weights: np.ndarray | None = None) -> bool:
        return rows is self.rows and weights is self.weights

    def append(self, var: list[int], coeff: list[float], offset: float, weight=None):
        n, nnz = len(self.rows), int(self.rows.ptr[-1])
        end = nnz + len(var)
        offsets, ptr, variables, coeffs, weights = self._buffers
        offsets = _write(offsets, n, [offset])
        ptr = _write(ptr, n + 1, [end])
        variables = _write(variables, nnz, var)
        coeffs = _write(coeffs, nnz, coeff)
        self.rows = TermRows(
            offsets[: n + 1], ptr[: n + 2], variables[:end], coeffs[:end]
        )
        if weights is not None:
            weights = _write(weights, n, [weight])
            self.weights = weights[: n + 1]
        self._buffers = (offsets, ptr, variables, coeffs, weights)


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


class _TermView(SequenceABC):
    """A read-only sequence of one row set's terms as objects.

    ``len()`` reads the row count; indexing builds one object and
    iterating builds each in turn.  Nothing is stored.
    """

    __slots__ = ("_rows", "_make")

    def __init__(self, rows: TermRows, make: Callable):
        self._rows = rows
        self._make = make

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[r] for r in range(*index.indices(len(self)))]
        rows = self._rows
        r = range(len(rows))[index]  # normalizes negatives, raises IndexError
        lo, hi = rows.ptr[r], rows.ptr[r + 1]
        pairs = zip(rows.var[lo:hi].tolist(), rows.coeff[lo:hi].tolist())
        return self._make(tuple(pairs), float(rows.offset[r]))

    def __iter__(self):
        rows = self._rows
        pairs = list(zip(rows.var.tolist(), rows.coeff.tolist()))
        ptr = rows.ptr.tolist()
        for r, offset in enumerate(rows.offset.tolist()):
            yield self._make(tuple(pairs[ptr[r] : ptr[r + 1]]), offset)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, _TermView)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(eq=False)
class HingeLossMRF:
    """A HL-MRF over named ground atoms.

    Use :meth:`variable_index` to intern atoms as variables, then add
    potentials and constraints in terms of atom keys — or, on the sharded
    grounding path, :meth:`add_term_block` to append whole compact term
    blocks at once.

    ``hinges`` and ``caps`` are the model's one store of terms
    (:class:`TermRows` over variable indices); ``potentials`` and
    ``constraints`` are read-only views of them as
    :class:`HingePotential`/:class:`HardConstraint` objects, built only
    when read.

    Every :meth:`add_term_block` call also records the block's extent in
    the hinge and cap rows, so the shard structure chosen at grounding
    time survives into the model; the splice engine
    (:mod:`repro.psl.delta`) reads those extents back.

    **Weights vs structure.**  The HL-MRF energy is *linear* in the
    potential weights, so the weights live apart from the (immutable once
    grounded) term structure, in one float64 vector indexed like
    ``hinges``.  That vector is the only store of weights: the solver
    arrays (:class:`~repro.psl.admm.FlatTermArrays`) hold the same array
    object, and :meth:`set_potential_weights`, its one writer after
    grounding, rewrites it in place.  A reweighted MRF is
    element-for-element identical to one freshly grounded at the new
    weights, provided no weight crosses zero (zero-weight potentials are
    dropped at grounding time, so a zero would change structure and is
    rejected).
    """

    variables: list[GroundAtom] = field(default_factory=list)
    _index: dict[GroundAtom, int] = field(default_factory=dict)
    hinges: TermRows = field(default_factory=TermRows.empty)
    caps: TermRows = field(default_factory=TermRows.empty)
    #: float64[len(hinges)]: potential k's weight.
    _weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: (pot_lo, pot_hi, con_lo, con_hi) extents of each add_term_block call.
    _block_extents: list[tuple[int, int, int, int]] = field(default_factory=list)
    #: Spare capacity for term-by-term appends; never pickled.
    _hinge_appender: _RowAppender | None = field(default=None, repr=False)
    _cap_appender: _RowAppender | None = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_hinge_appender"] = state["_cap_appender"] = None
        return state

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def potentials(self) -> Sequence[HingePotential]:
        """The hinges as unweighted :class:`HingePotential` objects."""
        return _TermView(self.hinges, HingePotential)

    @property
    def constraints(self) -> Sequence[HardConstraint]:
        """The caps as :class:`HardConstraint` objects."""
        return _TermView(self.caps, HardConstraint)

    def variable_index(self, atom: GroundAtom) -> int:
        """Intern *atom* as a variable and return its index."""
        idx = self._index.get(atom)
        if idx is None:
            idx = len(self.variables)
            self._index[atom] = idx
            self.variables.append(atom)
        return idx

    def intern_atoms(self, atoms: Sequence[GroundAtom]) -> list[int]:
        """Intern *atoms* in order; returns their variable indices."""
        found = list(map(self._index.get, atoms))
        if None in found:
            found = [self.variable_index(a) for a in atoms]
        return found

    def index_of(self, atom: GroundAtom) -> int:
        try:
            return self._index[atom]
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
        coefficient raises :class:`InferenceError`.  Appends cost
        amortized O(1) (the rows keep spare capacity).
        """
        kept = filter_potential_terms(coefficients.items(), offset, weight)
        if not kept:
            return
        appender = self._hinge_appender
        if appender is None or not appender.serves(self.hinges, self._weights):
            appender = self._hinge_appender = _RowAppender(self.hinges, self._weights)
        appender.append(*self._entries(kept), offset, float(weight))
        self.hinges, self._weights = appender.rows, appender.weights

    def add_constraint(
        self, coefficients: Mapping[GroundAtom, float], offset: float
    ) -> None:
        """Add the hard constraint ``sum coeff*atom + offset <= 0``."""
        kept = nonzero_terms(coefficients.items(), offset)
        appender = self._cap_appender
        if appender is None or not appender.serves(self.caps):
            appender = self._cap_appender = _RowAppender(self.caps)
        appender.append(*self._entries(kept), offset)
        self.caps = appender.rows

    def _entries(self, kept: list[tuple[GroundAtom, float]]) -> tuple[list, list]:
        """*kept*'s variable indices (interning new atoms) and coefficients."""
        return [self.variable_index(a) for a, _ in kept], [c for _, c in kept]

    def add_term_block(self, atoms: Sequence[GroundAtom], block: "TermBlock") -> None:
        """Append a compact shard-emitted term block (bulk construction).

        *atoms* is the block's shard-local atom table; it is interned once
        and the block's rows are remapped through it in one gather, so
        the per-potential ``Mapping[GroundAtom, float]`` dicts of the
        incremental API never materialize.  Row order inside the block is
        preserved, which is what makes sharded merges reproduce the serial
        potential/constraint order byte for byte.
        """
        local_to_global = np.asarray(self.intern_atoms(atoms), dtype=np.int64)
        pot_before, con_before = len(self.hinges), len(self.caps)
        self.hinges = TermRows.concatenate(
            (self.hinges, block.hinges.remapped(local_to_global))
        )
        self.caps = TermRows.concatenate((self.caps, block.caps.remapped(local_to_global)))
        self._weights = np.concatenate((self._weights, block.weights))
        self._block_extents.append(
            (pot_before, len(self.hinges), con_before, len(self.caps))
        )

    def energy(self, x) -> float:
        """Total weighted hinge loss at *x* (ignores constraints).

        One gather, one per-row ``bincount`` and one dot with the weight
        vector.  Validated against the per-potential sum in tests; the
        dot sums in another order, so the two agree to tolerance, not bit
        for bit (every bit-identity contract in the solver compares
        energies computed by this same function on both sides).
        """
        if not len(self.hinges):
            return 0.0
        unit = np.maximum(self.hinges.values(x), 0.0)
        return float(np.dot(self._weights, unit))

    def max_violation(self, x) -> float:
        """Largest hard-constraint violation at *x*."""
        if not len(self.caps):
            return 0.0
        return max(0.0, float(self.caps.values(x).max()))
