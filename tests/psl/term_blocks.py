"""Hand-built term blocks over shard-local atom tables.

:class:`TermBlockBuilder` accumulates terms one at a time, interning
each ``GroundAtom`` into the block's local atom table, and emits the
``(atoms, TermBlock)`` pair that
:meth:`~repro.psl.hlmrf.HingeLossMRF.add_term_block` merges.  The
hand-written term programs of the block-merge tests and the frozen
dict-walking collective plan (``tests/collective_plan_reference.py``)
build their blocks with it; the collective grounding itself builds its
blocks with numpy (:mod:`repro.selection.collective`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.psl.hlmrf import TermRows, filter_potential_terms, nonzero_terms
from repro.psl.predicate import GroundAtom
from repro.psl.sharding import TermBlock


class _RowLists:
    """One row set under construction: offsets, row pointer, entries."""

    def __init__(self) -> None:
        self.offset: list[float] = []
        self.ptr: list[int] = [0]
        self.var: list[int] = []
        self.coeff: list[float] = []

    def finish(self) -> TermRows:
        return TermRows.of(self.offset, self.ptr, self.var, self.coeff)


class TermBlockBuilder:
    """Accumulates one shard's terms and atom table.

    Term semantics (zero-weight drop, zero-coefficient filter, the
    rejection of non-finite values and of terms with no nonzero
    coefficient) come from the same
    :func:`~repro.psl.hlmrf.filter_potential_terms` /
    :func:`~repro.psl.hlmrf.nonzero_terms` helpers the
    incremental :class:`~repro.psl.hlmrf.HingeLossMRF` API uses, so a
    built block merges into exactly the MRF the serial calls would have
    built.
    """

    def __init__(self) -> None:
        self._atoms: dict[GroundAtom, int] = {}
        self._hinges = _RowLists()
        self._weights: list[float] = []
        self._caps = _RowLists()

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
    ) -> None:
        kept = filter_potential_terms(coefficients, offset, weight)
        if kept:
            self._weights.append(float(weight))
            self._append(self._hinges, kept, offset)

    def add_constraint(
        self, coefficients: Iterable[tuple[GroundAtom, float]], offset: float
    ) -> None:
        self._append(self._caps, nonzero_terms(coefficients, offset), offset)

    def _append(
        self, rows: _RowLists, pairs: list[tuple[GroundAtom, float]], offset: float
    ) -> None:
        rows.offset.append(float(offset))
        for atom, c in pairs:
            rows.var.append(self._local(atom))
            rows.coeff.append(c)
        rows.ptr.append(len(rows.var))

    def finish(self) -> tuple[tuple[GroundAtom, ...], TermBlock]:
        """The shard's atom table (intern order) and its term block."""
        block = TermBlock(
            hinges=self._hinges.finish(),
            weights=np.asarray(self._weights, dtype=np.float64),
            caps=self._caps.finish(),
        )
        return tuple(self._atoms), block
