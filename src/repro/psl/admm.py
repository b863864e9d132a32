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

The arrays are small (the p=24 collective model has 1288 terms and 2150
copies), so per-call overhead, not arithmetic, sets the iteration cost.
Each solve therefore compiles its local step once (:class:`_LocalStep`):
a kind whose terms are contiguous is addressed by slice, the
weight-dependent constants (``w/rho``, ``w/rho*||a||^2``, ...) are
hoisted, and every per-iteration array is a preallocated buffer written
with ``out=``.  The dual step's ``z[var]`` gather is the one the next
iteration starts from.  Every element still gets exactly the arithmetic
of the unhoisted kernels, so runs are bit-identical to the frozen
reference solver in ``tests/psl/test_partitioned_admm.py``.
"""

from __future__ import annotations

import math
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
# ``lambda`` into *out* (both fixed buffers, refilled every iteration),
# with the weight-dependent constants hoisted.  Every element gets the
# same operations, in the same order, as the unhoisted expression in
# the comment above each step.


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


def _squared_step(d, out, weight, normsq, rho):
    # s = d / (1 + 2*weight*normsq/rho);  where(d <= 0, 0, 2*weight*s/rho)
    denominator = 1.0 + 2.0 * weight * normsq / rho
    two_weight = 2.0 * weight
    inactive = np.empty(len(d), dtype=bool)

    def step() -> None:
        np.less_equal(d, 0.0, out=inactive)
        np.divide(d, denominator, out=out)
        np.multiply(two_weight, out, out=out)
        np.divide(out, rho, out=out)
        np.copyto(out, 0.0, where=inactive)

    return step


def _leq_step(d, out, weight, normsq, rho):
    # maximum(0, d) / normsq
    def step() -> None:
        np.maximum(0.0, d, out=out)
        np.divide(out, normsq, out=out)

    return step


def _eq_step(d, out, weight, normsq, rho):
    # d / normsq
    def step() -> None:
        np.divide(d, normsq, out=out)

    return step


#: Closed-form ``lambda`` step compiler per term kind (module docstring).
_KIND_STEPS = (
    (KIND_HINGE, _hinge_step),
    (KIND_SQUARED, _squared_step),
    (KIND_LEQ, _leq_step),
    (KIND_EQ, _eq_step),
)


def _kind_terms(kind: np.ndarray, code: int) -> slice | np.ndarray | None:
    """The terms of kind *code*: a slice when contiguous, else an index set."""
    idx = np.flatnonzero(kind == code)
    if not len(idx):
        return None
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    return slice(lo, hi) if hi - lo == len(idx) else idx


class _LocalStep:
    """One solve's compiled local step: ``x = v - lambda[term] * a``.

    Built at the start of every solve, since the weights are fixed for
    its duration (module docstring).  A kind addressed by slice reads
    ``d0`` and writes ``lambda`` through views; a kind addressed by
    index set gathers and scatters.
    """

    def __init__(self, arrays: FlatTermArrays, kinds: tuple, rho: float):
        self._arrays = arrays
        self._d0 = np.empty(arrays.num_terms)
        self._lam = np.zeros(arrays.num_terms)
        self._product = np.empty(arrays.num_copies)
        self.x = np.empty(arrays.num_copies)
        self._steps = []
        for compile_step, terms, normsq in kinds:
            weight = arrays.weight[terms]
            if isinstance(terms, slice):
                self._steps.append(
                    compile_step(self._d0[terms], self._lam[terms], weight, normsq, rho)
                )
            else:
                d, out = np.empty(len(terms)), np.empty(len(terms))
                self._steps.append(
                    self._gathered(terms, d, out, compile_step(d, out, weight, normsq, rho))
                )

    def _gathered(self, terms: np.ndarray, d, out, step):
        d0, lam = self._d0, self._lam

        def gathered() -> None:
            d0.take(terms, out=d)
            step()
            lam[terms] = out

        return gathered

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

    The flat term arrays and the per-kind term ranges of the local step
    are compiled **once** per solver and reused across solves: because
    the HL-MRF energy is linear in the potential weights, a weight-only
    change never touches the compiled structure; only the local step's
    weight constants are recompiled, once per solve.  Mutate weights on the
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
        #: (step compiler, terms, their normsq) for every kind present;
        #: ``terms`` is a slice when the kind is contiguous, else its
        #: index set (:func:`_kind_terms`).
        self._kinds = tuple(
            (compile_step, terms, self._arrays.normsq[terms])
            for kind, compile_step in _KIND_STEPS
            if (terms := _kind_terms(self._arrays.kind, kind)) is not None
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

    def _local_step(self, rho: float) -> _LocalStep:
        """The local step compiled for one solve at the current weights."""
        return _LocalStep(self._arrays, self._kinds, rho)

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
        if warm_start is not None:
            warm_start = np.asarray(warm_start, dtype=np.float64)
            if warm_start.shape != (n,):
                raise InferenceError(
                    f"warm_start must have shape ({n},), got {warm_start.shape}"
                )
            if not np.isfinite(warm_start).all():
                raise InferenceError("warm_start must be finite")
        use_state = warm_state is not None and warm_state.matches(arrays)
        if use_state:
            z = np.clip(warm_state.z.astype(np.float64), 0.0, 1.0)
        elif warm_start is not None:
            z = np.clip(warm_start, 0.0, 1.0)
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
