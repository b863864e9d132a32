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
from itertools import chain, repeat

import numpy as np

from repro.errors import InferenceError
from repro.psl.hlmrf import (
    KIND_EQ,
    KIND_HINGE,
    KIND_LEQ,
    KIND_SQUARED,
    HingeLossMRF,
)


@dataclass(frozen=True)
class FlatTermArrays:
    """One MRF's flat solver arrays.

    The single compiled form of an MRF: :func:`compile_term_arrays`
    assembles it from the potential/constraint lists, the ADMM solver
    iterates on it, and the splice engine (:mod:`repro.psl.delta`)
    slices reused shards' rows out of it.  Every field except ``weight``
    is structure, immutable once grounded; ``weight`` is the flat
    per-term weight vector, rewritten in place by
    :meth:`set_potential_weights`.
    """

    num_variables: int
    num_potentials: int
    kind: np.ndarray  # int64[num_terms], KIND_* values
    offset: np.ndarray  # float64[num_terms]
    weight: np.ndarray  # float64[num_terms]; writable, constraints are 0.0
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

    def set_potential_weights(self, weights: np.ndarray) -> None:
        """Overwrite the potential weights of these compiled arrays.

        *weights* is the MRF's contiguous per-potential vector
        (constraint terms have no weight); structure never changes —
        the solver-side half of the ground-once/reweight-many contract.
        """
        if len(weights) != self.num_potentials:
            raise InferenceError(
                f"expected {self.num_potentials} potential weights, "
                f"got {len(weights)}"
            )
        self.weight[: self.num_potentials] = weights


def compile_term_arrays(mrf: HingeLossMRF) -> FlatTermArrays:
    """Assemble *mrf*'s flat solver arrays.

    Array assembly is single-pass ``np.fromiter`` over generator chains
    — no intermediate Python lists, no per-copy interpreter loop.  The
    derived arrays (``term``, ``normsq``, ``degree``) are computed here
    once and carried along.
    """
    potentials, constraints = mrf.potentials, mrf.constraints
    num_terms = len(potentials) + len(constraints)
    kind_arr = np.fromiter(
        chain(
            (KIND_SQUARED if p.squared else KIND_HINGE for p in potentials),
            (KIND_EQ if c.equality else KIND_LEQ for c in constraints),
        ),
        dtype=np.int64,
        count=num_terms,
    )
    offset_arr = np.fromiter(
        chain((p.offset for p in potentials), (c.offset for c in constraints)),
        dtype=np.float64,
        count=num_terms,
    )
    weight_arr = np.fromiter(
        chain((p.weight for p in potentials), repeat(0.0, len(constraints))),
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
        weight=weight_arr,
        normsq=normsq,
        term_ptr=term_ptr,
        var=var,
        term=term,
        coeff=a,
        degree=degree,
    )


def solver_arrays(mrf: HingeLossMRF) -> FlatTermArrays:
    """*mrf*'s flat arrays at its current weights (compiled once per solver).

    An MRF carrying precompiled :class:`FlatTermArrays` (attribute
    ``_compiled`` — seeded at grounding time and by the splice engine)
    skips array assembly: the solver works on
    those arrays directly.  The precompiled weights may be the
    grounding-time ones, so they are resynced from the MRF's live weight
    vector here — the solver snapshots ``weights_version`` at
    construction and only re-syncs on a later change.
    """
    num_terms = len(mrf.potentials) + len(mrf.constraints)
    flat = getattr(mrf, "_compiled", None)
    if (
        flat is None
        or flat.num_potentials != len(mrf.potentials)
        or flat.num_terms != num_terms
    ):
        return compile_term_arrays(mrf)
    flat.set_potential_weights(mrf.potential_weights())
    return flat
