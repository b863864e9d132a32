"""Consensus ADMM for HL-MRF MAP inference.

Follows the algorithm of Bach et al. (JMLR 2017): every potential and
hard constraint becomes a subproblem holding local copies of its
variables; a consensus vector z (clipped to [0,1]) ties the copies
together.  Every subproblem's minimizer has the closed form
``x = v - lambda * a`` for a per-term scalar ``lambda``, so one ADMM
iteration is a handful of vectorized segment operations over one
:class:`FlatTermArrays` — no generic QP solver needed.

Term kinds (the two the collective model grounds):
    linear hinge   w*max(0, a^T x + b)      lambda in {0, w/rho, d/||a||^2}
    hard <=        project onto halfspace   lambda = max(0, d)/||a||^2

The flat arrays are the MRF's hinge rows followed by its cap rows, so
the hinges are terms ``[:num_potentials]`` and the ``<=`` caps the rest.

The arrays are small (the p=24 collective model has 1288 terms and 2150
copies), so per-call overhead, not arithmetic, sets the iteration cost.
Each solve therefore compiles its local step once (:class:`_LocalStep`):
each kind is addressed by slice, the weight-dependent constants
(``w/rho``, ``w/rho*||a||^2``) are hoisted from the MRF's weight
vector, which the flat arrays share, so a reweight between solves
needs no sync step.  Every per-iteration array is a preallocated
buffer written with ``out=``.  The dual step's
``z[var]`` gather is the one the next iteration starts from.  Every
element still gets exactly the arithmetic of the unhoisted kernels, so
runs are bit-identical to the frozen reference solver in
``tests/psl/test_partitioned_admm.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.psl.hlmrf import HingeLossMRF, TermRows


@dataclass(frozen=True)
class FlatTermArrays:
    """One MRF's terms in consensus-ADMM layout.

    Every term's subproblem holds local copies of its variables: the
    CSR rows of the MRF's hinges, then of its caps, with the derived
    per-term norms and per-variable copy counts.  Every field except
    ``weight`` is structure; ``weight`` is the MRF's own per-potential
    weight vector (the same array object, not a copy), so
    :meth:`~repro.psl.hlmrf.HingeLossMRF.set_potential_weights` reaches
    the solver with no sync step.
    """

    num_variables: int
    num_potentials: int
    offset: np.ndarray  # float64[num_terms]
    weight: np.ndarray  # float64[num_potentials], shared with the MRF
    normsq: np.ndarray  # float64[num_terms], max(||a||^2, 1e-12)
    term_ptr: np.ndarray  # int64[num_terms+1], CSR row pointer into copies
    var: np.ndarray  # int64[num_copies], global variable index
    term: np.ndarray  # int64[num_copies], global term index
    coeff: np.ndarray  # float64[num_copies]
    degree: np.ndarray  # float64[num_variables], max(copy count, 1)

    @classmethod
    def of(cls, mrf: HingeLossMRF) -> FlatTermArrays:
        """*mrf*'s hinge rows, then its cap rows, as solver arrays."""
        rows = TermRows.concatenate((mrf.hinges, mrf.caps))
        term = rows.row_of_entry()
        n = mrf.num_variables
        return cls(
            num_variables=n,
            num_potentials=len(mrf.hinges),
            offset=rows.offset,
            weight=mrf._weights,
            normsq=np.maximum(
                np.bincount(term, weights=rows.coeff**2, minlength=len(rows)), 1e-12
            ),
            term_ptr=rows.ptr,
            var=rows.var,
            term=term,
            coeff=rows.coeff,
            degree=np.maximum(
                np.bincount(rows.var, minlength=n).astype(np.float64), 1.0
            ),
        )

    @property
    def num_terms(self) -> int:
        return len(self.offset)

    @property
    def num_copies(self) -> int:
        return len(self.var)


@dataclass
class AdmmSettings:
    """Solver knobs; the defaults suit the paper's problem sizes."""

    rho: float = 1.0
    max_iterations: int = 5000
    epsilon_abs: float = 1e-5
    epsilon_rel: float = 1e-4
    check_every: int = 10

    def validate(self) -> None:
        """Reject settings that would crash or loop forever mid-solve.

        Checked at solver construction so a bad knob fails fast with a
        clear message instead of, e.g., a ``ZeroDivisionError`` at the
        ``iteration % check_every`` convergence gate deep in a solve.
        """
        if not (math.isfinite(self.rho) and self.rho > 0):
            # The local step hoists weight/rho into every term's kernel,
            # so a NaN or infinite rho would poison every iterate.
            raise InferenceError(f"rho must be finite and > 0, got {self.rho}")
        for name in ("epsilon_abs", "epsilon_rel"):
            value = getattr(self, name)
            if not value >= 0:  # also rejects NaN
                raise InferenceError(f"{name} must be >= 0, got {value}")
        if self.max_iterations < 0:
            raise InferenceError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.check_every < 1:
            raise InferenceError(
                f"check_every must be >= 1, got {self.check_every}"
            )


@dataclass
class AdmmWarmState:
    """Full ADMM state (consensus vector + local duals) for warm restarts.

    A previous solve's :attr:`AdmmResult.state`, handed back to
    :meth:`AdmmSolver.solve` to resume from it after a reweight.  The
    state is only meaningful for an MRF with the same grounding
    structure; :meth:`AdmmSolver.solve` ignores a state that fails
    :meth:`matches` and starts cold.

    ``num_terms`` is the term count of the producing MRF, checked
    beside the two array lengths.  The dual vector's layout is the flat
    copy order, which does not depend on how the terms were merged in
    blocks, so a state survives a re-ground of the same structure.
    """

    z: np.ndarray
    u: np.ndarray
    num_terms: int

    def matches(self, arrays: FlatTermArrays) -> bool:
        """Is this state structurally valid for *arrays*' problem?"""
        return (
            self.z.shape == (arrays.num_variables,)
            and self.u.shape == (arrays.num_copies,)
            and self.num_terms == arrays.num_terms
        )


@dataclass
class AdmmResult:
    """Solution vector plus convergence diagnostics."""

    x: np.ndarray
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    energy: float
    state: AdmmWarmState | None = None


def _convergence(
    x_local: np.ndarray,
    z_var: np.ndarray,
    z: np.ndarray,
    z_old: np.ndarray,
    var: np.ndarray,
    rho: float,
    settings: AdmmSettings,
) -> tuple[float, float, bool]:
    """Residuals and tolerance verdict of the current iterate.

    The one shared definition of the stopping criterion (Boyd et al.'s
    combined absolute/relative epsilon), used both at the scheduled
    ``check_every`` gate and to report final residuals when the loop
    exits between checks.  *z_var* is ``z[var]``, the gather the dual
    step already made.
    """
    primal = float(np.linalg.norm(x_local - z_var))
    dual = float(rho * np.linalg.norm((z - z_old)[var]))
    eps = settings.epsilon_abs * np.sqrt(len(var)) + settings.epsilon_rel * max(
        float(np.linalg.norm(x_local)), float(np.linalg.norm(z_var))
    )
    return primal, dual, primal < eps and dual < eps


# Each ``_*_step`` compiles one kind's closed-form ``lambda`` kernel for
# one solve: it reads the kind's ``d0 = a^T v + b`` from *d* and writes
# ``lambda`` into *out* (both views of fixed buffers, refilled every
# iteration), with the weight-dependent constants hoisted.  Every
# element gets the same operations, in the same order, as the unhoisted
# expression in the comment above each step.


def _hinge_step(d, out, weight, normsq, rho):
    # where(d <= 0, 0, where(d - weight/rho * normsq >= 0, weight/rho, d / normsq))
    w_over_rho = weight / rho
    full_step_at = w_over_rho * normsq
    diff = np.empty(len(d))
    full_step_ok = np.empty(len(d), dtype=bool)
    inactive = np.empty(len(d), dtype=bool)

    def step() -> None:
        np.subtract(d, full_step_at, out=diff)
        np.greater_equal(diff, 0.0, out=full_step_ok)
        np.less_equal(d, 0.0, out=inactive)
        np.divide(d, normsq, out=out)
        np.copyto(out, w_over_rho, where=full_step_ok)
        np.copyto(out, 0.0, where=inactive)

    return step


def _leq_step(d, out, normsq):
    # maximum(0, d) / normsq
    def step() -> None:
        np.maximum(0.0, d, out=out)
        np.divide(out, normsq, out=out)

    return step


class _LocalStep:
    """One solve's compiled local step: ``x = v - lambda[term] * a``.

    Built at the start of every solve, since the weights are fixed for
    its duration (module docstring).  Each kind reads ``d0`` and writes
    ``lambda`` through slice views: the hinges ``[:num_potentials]``,
    the ``<=`` caps the rest.
    """

    def __init__(self, arrays: FlatTermArrays, rho: float):
        self._arrays = arrays
        self._d0 = np.empty(arrays.num_terms)
        self._lam = np.zeros(arrays.num_terms)
        self._product = np.empty(arrays.num_copies)
        self.x = np.empty(arrays.num_copies)
        hinges = slice(0, arrays.num_potentials)
        caps = slice(arrays.num_potentials, arrays.num_terms)
        self._steps = (
            _hinge_step(
                self._d0[hinges],
                self._lam[hinges],
                arrays.weight,
                arrays.normsq[hinges],
                rho,
            ),
            _leq_step(self._d0[caps], self._lam[caps], arrays.normsq[caps]),
        )

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """The local step at *v* (``z[var] - u``); returns the ``x`` buffer."""
        arrays, product = self._arrays, self._product
        np.multiply(arrays.coeff, v, out=product)
        dot = np.bincount(arrays.term, weights=product, minlength=len(self._d0))
        np.add(dot, arrays.offset, out=self._d0)
        for step in self._steps:
            step()
        self._lam.take(arrays.term, out=product)
        np.multiply(product, arrays.coeff, out=product)
        return np.subtract(v, product, out=self.x)


class AdmmSolver:
    """Serial consensus-ADMM solver for one HL-MRF.

    The flat term arrays are built **once**, when the solver is, and
    reused across solves: because the HL-MRF energy is linear in the
    potential weights, a weight-only change never touches them; only
    the local step's weight constants are recompiled, once per solve.
    Terms added to the MRF after that need a new solver.  The arrays
    hold the MRF's own weight vector, so each solve iterates on the
    weights
    :meth:`~repro.psl.hlmrf.HingeLossMRF.set_potential_weights` last
    wrote.
    """

    def __init__(self, mrf: HingeLossMRF, settings: AdmmSettings | None = None):
        self._mrf = mrf
        self._settings = settings or AdmmSettings()
        self._settings.validate()
        self._arrays = FlatTermArrays.of(mrf)

    @property
    def arrays(self) -> FlatTermArrays:
        return self._arrays

    @property
    def mrf(self) -> HingeLossMRF:
        return self._mrf

    @property
    def settings(self) -> AdmmSettings:
        return self._settings

    def _local_step(self, rho: float) -> _LocalStep:
        """The local step compiled for one solve at the current weights."""
        return _LocalStep(self._arrays, rho)

    def solve(self, warm_state: AdmmWarmState | None = None) -> AdmmResult:
        """Run ADMM to convergence (or the iteration cap).

        *warm_state* (from a previous :attr:`AdmmResult.state`) restores
        the consensus vector and the local duals when it structurally
        matches this problem (see :meth:`AdmmWarmState.matches`); a
        state that does not match is ignored and the solve starts cold,
        and a matching one that is not finite raises
        :class:`~repro.errors.InferenceError` before iterating.  Weights
        are the MRF's current ones: reweight it first, and a solve with
        *warm_state* from the previous one is the fast path of iterative
        reweighting — same arrays, a handful of warm iterations.
        """
        settings = self._settings
        arrays = self._arrays
        n, copies = arrays.num_variables, arrays.num_copies
        use_state = warm_state is not None and warm_state.matches(arrays)
        if use_state:
            finite = np.isfinite(warm_state.z).all() and np.isfinite(warm_state.u).all()
            if not finite:
                raise InferenceError("warm_state must be finite")
            z = np.clip(warm_state.z.astype(np.float64), 0.0, 1.0)
        else:
            z = np.full(n, 0.5)
        if copies == 0:
            return AdmmResult(
                z, 0, True, 0.0, 0.0, self._mrf.energy(z),
                state=AdmmWarmState(z.copy(), np.zeros(0), arrays.num_terms),
            )

        var, degree = arrays.var, arrays.degree
        u = warm_state.u.astype(np.float64).copy() if use_state else np.zeros(copies)
        rho = settings.rho
        local_step = self._local_step(rho)
        z_var = z[var]  # refreshed by every dual step, read by the next iteration
        v = np.empty(copies)
        scratch = np.empty(copies)
        z_old = z.copy()
        primal = dual = float("inf")
        iteration = 0
        converged = False
        checked_at = -1

        for iteration in range(1, settings.max_iterations + 1):
            # --- local updates: x_local = v - lambda[term] * a --------
            np.subtract(z_var, u, out=v)
            x_local = local_step(v)

            # --- consensus update -------------------------------------
            np.add(x_local, u, out=scratch)
            np.copyto(z_old, z)
            zsum = np.bincount(var, weights=scratch, minlength=n)
            zsum /= degree
            zsum.clip(0.0, 1.0, out=z)

            # --- dual update ------------------------------------------
            u += x_local
            z.take(var, out=z_var)
            u -= z_var

            if iteration % settings.check_every == 0:
                checked_at = iteration
                primal, dual, converged = _convergence(
                    x_local, z_var, z, z_old, var, rho, settings
                )
                if converged:
                    break

        if iteration > 0 and checked_at != iteration:
            # The loop exited between convergence checks (or never reached
            # one, e.g. max_iterations < check_every): report residuals of
            # the final iterate instead of a stale/inf value, and credit
            # convergence if the final point already satisfies the tolerance.
            primal, dual, converged = _convergence(
                x_local, z_var, z, z_old, var, rho, settings
            )

        return AdmmResult(
            x=z,
            iterations=iteration,
            converged=converged,
            primal_residual=primal,
            dual_residual=dual,
            energy=self._mrf.energy(z),
            state=AdmmWarmState(z.copy(), u.copy(), arrays.num_terms),
        )
