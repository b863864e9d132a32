"""Consensus ADMM for HL-MRF MAP inference.

Follows the algorithm of Bach et al. (JMLR 2017): every potential and
hard constraint becomes a subproblem holding local copies of its
variables; a consensus vector z (clipped to [0,1]) ties the copies
together.  Every subproblem's minimizer has the closed form
``x = v - lambda * a`` for a per-term scalar ``lambda``, so one ADMM
iteration is a handful of vectorized segment operations over the MRF's
:class:`~repro.psl.partition.FlatTermArrays` — no generic QP solver
needed.

Term kinds:
    linear hinge   w*max(0, a^T x + b)      lambda in {0, w/rho, d/||a||^2}
    squared hinge  w*max(0, a^T x + b)^2    lambda = 2*w*s/rho
    hard <=        project onto halfspace   lambda = max(0, d)/||a||^2
    hard ==        project onto hyperplane  lambda = d/||a||^2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.psl.hlmrf import (
    KIND_EQ,
    KIND_HINGE,
    KIND_LEQ,
    KIND_SQUARED,
    HingeLossMRF,
)
from repro.psl.partition import FlatTermArrays, solver_arrays


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
        if self.rho <= 0:
            raise InferenceError(f"rho must be > 0, got {self.rho}")
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

    Primal-only warm starts barely help consensus ADMM: with the duals
    reset to zero the solver spends nearly the full iteration budget
    re-building them even when started at the optimum.  Carrying ``u``
    alongside ``z`` is what makes re-solves of the same (or a slightly
    perturbed) problem fast.  The state is only meaningful for an MRF
    with the same grounding structure; :meth:`AdmmSolver.solve` ignores
    a state that fails :meth:`matches`.

    ``num_terms`` records the term count of the producing MRF.  The dual
    vector's layout is the flat copy order — independent of the
    grounding shard size — so a state survives a re-ground at another
    shard size; what it must *not* survive is a structurally different
    MRF that happens to match on raw array shapes, which the term count
    rejects.
    """

    z: np.ndarray
    u: np.ndarray
    num_terms: int | None = None

    def matches(self, arrays: FlatTermArrays) -> bool:
        """Is this state structurally valid for *arrays*' problem?"""
        return (
            self.z.shape == (arrays.num_variables,)
            and self.u.shape == (arrays.num_copies,)
            and (self.num_terms is None or self.num_terms == arrays.num_terms)
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
    exits between checks.
    """
    z_var = z[var]
    primal = float(np.linalg.norm(x_local - z_var))
    dual = float(rho * np.linalg.norm((z - z_old)[var]))
    eps = settings.epsilon_abs * np.sqrt(len(var)) + settings.epsilon_rel * max(
        float(np.linalg.norm(x_local)), float(np.linalg.norm(z_var))
    )
    return primal, dual, primal < eps and dual < eps


def _hinge_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    w_over_rho = weight / rho
    full_step_ok = d0 - w_over_rho * normsq >= 0.0
    return np.where(d0 <= 0.0, 0.0, np.where(full_step_ok, w_over_rho, d0 / normsq))


def _squared_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    s = d0 / (1.0 + 2.0 * weight * normsq / rho)
    return np.where(d0 <= 0.0, 0.0, 2.0 * weight * s / rho)


def _leq_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    return np.maximum(0.0, d0) / normsq


def _eq_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    return d0 / normsq


#: Closed-form ``lambda`` kernel per term kind (module docstring).
_KIND_KERNELS = (
    (KIND_HINGE, _hinge_kernel),
    (KIND_SQUARED, _squared_kernel),
    (KIND_LEQ, _leq_kernel),
    (KIND_EQ, _eq_kernel),
)


class AdmmSolver:
    """Serial consensus-ADMM solver for one HL-MRF.

    The flat term arrays and the per-kind index sets of the local step
    are compiled **once** per solver and reused across solves: because
    the HL-MRF energy is linear in the potential weights, a weight-only
    change never touches the compiled structure.  Mutate weights on the
    MRF (``set_group_weights`` and friends) — or pass ``weights=``
    straight to :meth:`solve` — and the solver syncs its arrays in place
    (:attr:`~repro.psl.hlmrf.HingeLossMRF.weights_version` tells it
    when).
    """

    def __init__(self, mrf: HingeLossMRF, settings: AdmmSettings | None = None):
        self._mrf = mrf
        self._settings = settings or AdmmSettings()
        self._settings.validate()
        self._arrays = solver_arrays(mrf)
        self._weights_version = mrf.weights_version
        #: (kernel, term indices of that kind, their normsq), for every
        #: kind present — the kind masks of the local step, precompiled.
        self._kinds = tuple(
            (kernel, idx, self._arrays.normsq[idx])
            for kind, kernel in _KIND_KERNELS
            if len(idx := np.flatnonzero(self._arrays.kind == kind))
        )

    @property
    def arrays(self) -> FlatTermArrays:
        return self._arrays

    @property
    def mrf(self) -> HingeLossMRF:
        return self._mrf

    @property
    def settings(self) -> AdmmSettings:
        return self._settings

    def _sync_weights(self) -> None:
        """Pull the MRF's current weights into the compiled arrays.

        No-op unless the MRF's ``weights_version`` moved since the last
        sync; then the flat weight vector is rewritten in place.
        """
        if self._mrf.weights_version == self._weights_version:
            return
        self._arrays.set_potential_weights(self._mrf.potential_weights())
        self._weights_version = self._mrf.weights_version

    def _x_update(self, v: np.ndarray, rho: float) -> np.ndarray:
        """The local step of every term: ``x = v - lambda[term] * a``.

        *v* is ``z[var] - u``.  The per-term scalar ``lambda`` comes from
        each kind's closed-form kernel over its precompiled index set
        (``np.flatnonzero`` keeps mask order, so every element sees the
        same arithmetic a boolean-mask dispatch would give).
        """
        arrays = self._arrays
        num_terms = arrays.num_terms
        dot = np.bincount(arrays.term, weights=arrays.coeff * v, minlength=num_terms)
        d0 = dot + arrays.offset
        lam = np.zeros(num_terms)
        weight = arrays.weight
        for kernel, idx, normsq in self._kinds:
            lam[idx] = kernel(d0[idx], weight[idx], normsq, rho)
        return v - lam[arrays.term] * arrays.coeff

    def solve(
        self,
        warm_start: np.ndarray | None = None,
        warm_state: AdmmWarmState | None = None,
        weights=None,
    ) -> AdmmResult:
        """Run ADMM to convergence (or the iteration cap).

        *warm_start* seeds only the consensus vector; *warm_state* (from a
        previous :attr:`AdmmResult.state`) additionally restores the local
        duals and takes precedence when it structurally matches this
        problem (see :meth:`AdmmWarmState.matches`).

        *weights* re-weights the (unchanged) ground structure before
        solving: a mapping applies per origin group
        (:meth:`~repro.psl.hlmrf.HingeLossMRF.set_group_weights`), an
        array replaces the full per-potential vector.  Combined with
        *warm_state* from the previous solve this is the fast path of
        iterative reweighting: same compiled arrays, a handful of warm
        iterations.
        """
        if weights is not None:
            if hasattr(weights, "items"):
                self._mrf.set_group_weights(weights)
            else:
                self._mrf.set_potential_weights(weights)
        self._sync_weights()
        settings = self._settings
        arrays = self._arrays
        n, copies = arrays.num_variables, arrays.num_copies
        use_state = warm_state is not None and warm_state.matches(arrays)
        if use_state:
            z = np.clip(warm_state.z.astype(np.float64), 0.0, 1.0)
        elif warm_start is not None:
            z = np.clip(warm_start.astype(np.float64), 0.0, 1.0)
        else:
            z = np.full(n, 0.5)
        if copies == 0:
            return AdmmResult(
                z, 0, True, 0.0, 0.0, self._mrf.energy(z),
                state=AdmmWarmState(z.copy(), np.zeros(0), arrays.num_terms),
            )

        var = arrays.var
        u = warm_state.u.astype(np.float64).copy() if use_state else np.zeros(copies)
        scratch = np.empty(copies)
        z_old = z.copy()
        rho = settings.rho
        primal = dual = float("inf")
        iteration = 0
        converged = False
        checked_at = -1

        for iteration in range(1, settings.max_iterations + 1):
            # --- local updates: x_local = v - lambda[term] * a --------
            x_local = self._x_update(z[var] - u, rho)

            # --- consensus update -------------------------------------
            np.add(x_local, u, out=scratch)
            np.copyto(z_old, z)
            zsum = np.bincount(var, weights=scratch, minlength=n)
            zsum /= arrays.degree
            np.clip(zsum, 0.0, 1.0, out=z)

            # --- dual update ------------------------------------------
            u += x_local
            u -= z[var]

            if iteration % settings.check_every == 0:
                checked_at = iteration
                primal, dual, converged = _convergence(
                    x_local, z, z_old, var, rho, settings
                )
                if converged:
                    break

        if iteration > 0 and checked_at != iteration:
            # The loop exited between convergence checks (or never reached
            # one, e.g. max_iterations < check_every): report residuals of
            # the final iterate instead of a stale/inf value, and credit
            # convergence if the final point already satisfies the tolerance.
            primal, dual, converged = _convergence(
                x_local, z, z_old, var, rho, settings
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
