"""Flat term arrays: one HL-MRF compiled into consensus-ADMM layout.

The consensus-ADMM formulation of Bach et al. (JMLR 2017) decomposes by
term: every potential/constraint subproblem has the closed-form local
minimizer ``x = v - lambda * a`` and touches shared state only through
the consensus vector ``z`` and its local duals.  :class:`FlatTermArrays`
holds every term of one MRF in that layout — CSR rows of variable
copies, potentials first, then constraints — and is the single
compiled form the solver (:mod:`repro.psl.admm`) and the splice engine
(:mod:`repro.psl.delta`) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.psl.hlmrf import KIND_HINGE, KIND_LEQ, HingeLossMRF


@dataclass(frozen=True)
class FlatTermArrays:
    """One MRF's flat solver arrays.

    The single compiled form of an MRF: :func:`compile_term_arrays`
    assembles it from the potential/constraint lists, the ADMM solver
    iterates on it, and the splice engine (:mod:`repro.psl.delta`)
    slices reused shards' rows out of it.  Every field except ``weight``
    is structure, immutable once grounded; ``weight`` is the MRF's own
    per-potential weight vector (the same array object, not a copy), so
    :meth:`~repro.psl.hlmrf.HingeLossMRF.set_potential_weights` reaches
    the solver with no sync step.
    """

    num_variables: int
    num_potentials: int
    kind: np.ndarray  # int64[num_terms], KIND_* values
    offset: np.ndarray  # float64[num_terms]
    weight: np.ndarray  # float64[num_potentials], shared with the MRF
    normsq: np.ndarray  # float64[num_terms], max(||a||^2, 1e-12)
    term_ptr: np.ndarray  # int64[num_terms+1], CSR row pointer into copies
    var: np.ndarray  # int64[num_copies], global variable index
    term: np.ndarray  # int64[num_copies], global term index
    coeff: np.ndarray  # float64[num_copies]
    degree: np.ndarray  # float64[num_variables], max(copy count, 1)

    @property
    def num_terms(self) -> int:
        return len(self.kind)

    @property
    def num_copies(self) -> int:
        return len(self.var)


def compile_term_arrays(mrf: HingeLossMRF) -> FlatTermArrays:
    """Assemble *mrf*'s flat solver arrays.

    Array assembly is single-pass ``np.fromiter`` over generator chains
    — no intermediate Python lists, no per-copy interpreter loop.  The
    derived arrays (``term``, ``normsq``, ``degree``) are computed here
    once and carried along.
    """
    potentials, constraints = mrf.potentials, mrf.constraints
    num_terms = len(potentials) + len(constraints)
    kind_arr = np.repeat(
        np.array([KIND_HINGE, KIND_LEQ], dtype=np.int64),
        [len(potentials), len(constraints)],
    )
    offset_arr = np.fromiter(
        chain((p.offset for p in potentials), (c.offset for c in constraints)),
        dtype=np.float64,
        count=num_terms,
    )
    counts = np.fromiter(
        (len(t.coefficients) for t in chain(potentials, constraints)),
        dtype=np.int64,
        count=num_terms,
    )
    term_ptr = np.zeros(num_terms + 1, dtype=np.int64)
    np.cumsum(counts, out=term_ptr[1:])
    num_copies = int(term_ptr[-1])
    var = np.fromiter(
        (i for t in chain(potentials, constraints) for i, _ in t.coefficients),
        dtype=np.int64,
        count=num_copies,
    )
    a = np.fromiter(
        (c for t in chain(potentials, constraints) for _, c in t.coefficients),
        dtype=np.float64,
        count=num_copies,
    )

    n = mrf.num_variables
    term = np.repeat(np.arange(num_terms, dtype=np.int64), counts)
    normsq = np.maximum(
        np.bincount(term, weights=a**2, minlength=num_terms), 1e-12
    )
    degree = np.maximum(np.bincount(var, minlength=n).astype(np.float64), 1.0)
    return FlatTermArrays(
        num_variables=n,
        num_potentials=len(potentials),
        kind=kind_arr,
        offset=offset_arr,
        weight=mrf._weights,
        normsq=normsq,
        term_ptr=term_ptr,
        var=var,
        term=term,
        coeff=a,
        degree=degree,
    )


def compiled_arrays(mrf: HingeLossMRF) -> FlatTermArrays:
    """*mrf*'s flat arrays, compiled once and kept on the MRF.

    An MRF's precompiled :class:`FlatTermArrays` (attribute
    ``_compiled`` — seeded at grounding time and by the splice engine)
    are reused while they describe its current terms and hold its weight
    vector; otherwise they are compiled now and kept.
    """
    flat = getattr(mrf, "_compiled", None)
    if (
        flat is None
        or flat.weight is not mrf._weights
        or flat.num_potentials != len(mrf.potentials)
        or flat.num_terms != len(mrf.potentials) + len(mrf.constraints)
    ):
        flat = compile_term_arrays(mrf)
        mrf._compiled = flat
    return flat
