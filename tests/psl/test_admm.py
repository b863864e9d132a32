"""Unit tests for the ADMM solver, cross-checked against scipy's LP solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.psl.admm import AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import Predicate

X = Predicate("x", 1)


def _mrf(num_vars: int) -> HingeLossMRF:
    mrf = HingeLossMRF()
    for i in range(num_vars):
        mrf.variable_index(X(i))
    return mrf


def _primal_state(solver: AdmmSolver, z) -> AdmmWarmState:
    """A warm state that seeds only the consensus vector (zero duals)."""
    arrays = solver.arrays
    return AdmmWarmState(z, np.zeros(arrays.num_copies), arrays.num_terms)


def test_single_hinge_pulls_variable_down():
    mrf = _mrf(1)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=2.0)  # 2*max(0, x)
    result = AdmmSolver(mrf).solve()
    assert result.converged
    assert result.x[0] == pytest.approx(0.0, abs=1e-4)


def test_opposing_hinges_balance_by_weight():
    # min 3*max(0,1-x) + 1*max(0,x): optimum x=1 (coverage beats size).
    mrf = _mrf(1)
    mrf.add_potential({X(0): -1.0}, 1.0, weight=3.0)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    result = AdmmSolver(mrf).solve()
    assert result.x[0] == pytest.approx(1.0, abs=1e-3)


def test_hard_constraint_respected():
    # min max(0, 1-x) subject to x <= 0.25
    mrf = _mrf(1)
    mrf.add_potential({X(0): -1.0}, 1.0, weight=1.0)
    mrf.add_constraint({X(0): 1.0}, -0.25)
    result = AdmmSolver(mrf).solve()
    assert result.x[0] == pytest.approx(0.25, abs=1e-3)


def test_box_constraints_enforced():
    mrf = _mrf(1)
    mrf.add_potential({X(0): -1.0}, 5.0, weight=100.0)  # wants x -> 5
    result = AdmmSolver(mrf).solve()
    assert result.x[0] == pytest.approx(1.0, abs=1e-4)


def test_empty_mrf_returns_immediately():
    mrf = _mrf(2)
    result = AdmmSolver(mrf).solve()
    assert result.converged
    assert result.iterations == 0


def test_warm_start_is_used():
    mrf = _mrf(1)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    cold = AdmmSolver(mrf).solve()
    solver = AdmmSolver(mrf)
    warm = solver.solve(warm_state=_primal_state(solver, np.array([0.0])))
    assert warm.iterations <= cold.iterations


def _random_linear_hinge_mrf(rng: np.random.Generator, n: int, m: int) -> HingeLossMRF:
    mrf = _mrf(n)
    for _ in range(m):
        size = rng.integers(1, min(4, n) + 1)
        idx = rng.choice(n, size=size, replace=False)
        coeffs = {X(int(i)): float(rng.normal()) for i in idx}
        mrf.add_potential(coeffs, float(rng.normal()), weight=float(rng.uniform(0.1, 3)))
    return mrf


def _lp_reference(mrf: HingeLossMRF) -> float:
    """Optimal energy via scipy linprog (hinges -> slack variables)."""
    n = mrf.num_variables
    m = len(mrf.potentials)
    c = np.zeros(n + m)
    a_ub, b_ub = [], []
    for k, (p, weight) in enumerate(zip(mrf.potentials, mrf.potential_weights())):
        c[n + k] = weight
        row = np.zeros(n + m)
        for i, coeff in p.coefficients:
            row[i] = coeff
        row[n + k] = -1.0
        a_ub.append(row)
        b_ub.append(-p.offset)
    bounds = [(0, 1)] * n + [(0, None)] * m
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs")
    assert res.success
    return res.fun


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_admm_matches_lp_reference_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    mrf = _random_linear_hinge_mrf(rng, n=6, m=12)
    settings = AdmmSettings(max_iterations=20000, epsilon_abs=1e-7, epsilon_rel=1e-6)
    result = AdmmSolver(mrf, settings).solve()
    reference = _lp_reference(mrf)
    assert result.energy == pytest.approx(reference, abs=2e-3)


def test_reports_non_convergence_when_capped():
    mrf = _mrf(3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        mrf.add_potential(
            {X(int(i)): float(rng.normal()) for i in range(3)},
            float(rng.normal()),
            weight=1.0,
        )
    result = AdmmSolver(mrf, AdmmSettings(max_iterations=3)).solve()
    assert not result.converged
    assert result.iterations == 3


@pytest.mark.parametrize(
    "bad",
    [
        {"check_every": 0},
        {"check_every": -3},
        {"rho": 0.0},
        {"rho": -1.0},
        {"max_iterations": -1},
        {"rho": float("nan")},
        {"rho": float("inf")},
        {"epsilon_abs": -1e-5},
        {"epsilon_abs": float("nan")},
        {"epsilon_rel": -1e-4},
        {"epsilon_rel": float("nan")},
    ],
    ids=lambda bad: next(iter(bad.items()))[0] + "=" + str(next(iter(bad.values()))),
)
def test_invalid_settings_rejected_at_construction(bad):
    # check_every=0 used to crash mid-solve with ZeroDivisionError at
    # the `iteration % check_every` gate; now every nonsense knob fails
    # fast at solver construction with a clear InferenceError.
    from repro.errors import InferenceError

    mrf = _mrf(1)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=2.0)
    with pytest.raises(InferenceError):
        AdmmSolver(mrf, AdmmSettings(**bad))


def test_zero_tolerances_are_valid():
    # epsilon 0 is a legitimate "never credit convergence" knob: the solve
    # runs to the cap and says it did not converge.
    mrf = _mrf(1)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=2.0)
    settings = AdmmSettings(epsilon_abs=0.0, epsilon_rel=0.0, max_iterations=30)
    result = AdmmSolver(mrf, settings).solve()
    assert result.iterations == 30
    assert not result.converged


@pytest.mark.parametrize(
    "start",
    [np.full(2, 0.5), np.full(5, 0.5), np.full((3, 1), 0.5), np.full(3, np.nan),
     np.array([0.5, np.inf, 0.5]), np.array([0.5, -np.inf, 0.5])],
    ids=["short", "long", "2d", "nan", "inf", "-inf"],
)
def test_bad_warm_start_rejected_before_iterating(start):
    # A wrong-shaped state is ignored, so the solve starts cold; a
    # non-finite one raises instead of running the whole budget and
    # returning NaN (np.clip keeps NaN).
    from repro.errors import InferenceError

    mrf = _mrf(3)
    mrf.add_potential({X(0): 1.0, X(1): -1.0}, 0.2, weight=2.0)
    mrf.add_constraint({X(1): 1.0, X(2): 1.0}, -1.0)
    solver = AdmmSolver(mrf)
    state = _primal_state(solver, start)
    if start.shape == (mrf.num_variables,):
        with pytest.raises(InferenceError, match="warm_state"):
            solver.solve(warm_state=state)
    else:
        assert not state.matches(solver.arrays)
        ignored, cold = solver.solve(warm_state=state), AdmmSolver(mrf).solve()
        assert np.array_equal(ignored.x, cold.x)
        assert ignored.iterations == cold.iterations
    # The rejected call left the solver usable.
    assert solver.solve().converged


def test_warm_start_accepts_any_float_sequence():
    mrf = _mrf(2)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    mrf.add_potential({X(1): -1.0}, 0.5, weight=1.0)
    solver = AdmmSolver(mrf)
    as_float64 = solver.solve(warm_state=_primal_state(solver, np.array([0.0, 2.0])))
    as_float32 = solver.solve(
        warm_state=_primal_state(solver, np.array([0.0, 1.0], dtype=np.float32))
    )
    assert np.array_equal(as_float64.x, as_float32.x)
    assert as_float64.iterations == as_float32.iterations


def test_zero_max_iterations_is_valid_and_returns_initial_point():
    # max_iterations=0 is a legitimate "evaluate, don't iterate" knob.
    mrf = _mrf(1)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=2.0)
    result = AdmmSolver(mrf, AdmmSettings(max_iterations=0)).solve()
    assert result.iterations == 0
    assert result.x[0] == 0.5


def test_truncated_exit_matches_scheduled_check_residuals():
    # Regression for the deduplicated convergence helper: a run capped
    # between checks (max_iterations < check_every) must report exactly
    # the residuals a run whose schedule lands on that iteration reports
    # — the two exit paths now share one definition of the criterion.
    mrf = _mrf(2)
    mrf.add_potential({X(0): -1.0, X(1): -1.0}, 1.0, weight=3.0)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    between = AdmmSolver(mrf, AdmmSettings(max_iterations=3, check_every=10)).solve()
    on_schedule = AdmmSolver(mrf, AdmmSettings(max_iterations=3, check_every=3)).solve()
    assert between.iterations == on_schedule.iterations == 3
    assert between.primal_residual == on_schedule.primal_residual
    assert between.dual_residual == on_schedule.dual_residual
    assert between.converged == on_schedule.converged
    assert np.array_equal(between.x, on_schedule.x)


def test_unconverged_exit_reports_finite_residuals():
    # max_iterations < check_every: the loop used to exit without ever
    # computing residuals, reporting inf for both.
    mrf = _mrf(2)
    mrf.add_potential({X(0): -1.0, X(1): -1.0}, 1.0, weight=3.0)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    result = AdmmSolver(mrf, AdmmSettings(max_iterations=3, check_every=10)).solve()
    assert result.iterations == 3
    assert np.isfinite(result.primal_residual)
    assert np.isfinite(result.dual_residual)


def test_exit_between_checks_reports_fresh_residuals():
    # 25 iterations with check_every=10: the last check is at 20; the
    # residuals must describe iteration 25, not iteration 20.
    mrf = _mrf(2)
    mrf.add_potential({X(0): -1.0, X(1): -1.0}, 1.0, weight=3.0)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    settings = AdmmSettings(
        max_iterations=25, check_every=10, epsilon_abs=1e-12, epsilon_rel=1e-12
    )
    result = AdmmSolver(mrf, settings).solve()
    reference = AdmmSolver(mrf, AdmmSettings()).solve()
    assert np.isfinite(result.primal_residual)
    assert np.isfinite(result.dual_residual)
    # Sanity: the truncated run's residuals are no better than a
    # converged run's.
    assert result.primal_residual >= reference.primal_residual or (
        result.dual_residual >= reference.dual_residual
    )


def test_final_check_can_credit_convergence():
    # An easy problem converges within a handful of iterations; even if
    # the cap falls between checks the final residual test should mark it
    # converged rather than claiming failure with tiny residuals.
    mrf = _mrf(1)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=2.0)
    result = AdmmSolver(mrf, AdmmSettings(max_iterations=99, check_every=1000)).solve()
    assert np.isfinite(result.primal_residual)
    assert np.isfinite(result.dual_residual)
    assert result.converged


def test_warm_state_resumes_near_optimum():
    mrf = _mrf(3)
    mrf.add_potential({X(0): -1.0, X(1): -1.0}, 1.0, weight=3.0)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    mrf.add_potential({X(1): 1.0, X(2): 1.0}, -0.5, weight=2.0)
    settings = AdmmSettings(check_every=1)
    cold = AdmmSolver(mrf, settings).solve()
    assert cold.converged and cold.state is not None
    rewarm = AdmmSolver(mrf, settings).solve(warm_state=cold.state)
    assert rewarm.converged
    assert rewarm.iterations < cold.iterations
    assert np.allclose(rewarm.x, cold.x, atol=1e-3)


def test_warm_state_shape_mismatch_falls_back():
    mrf = _mrf(2)
    mrf.add_potential({X(0): -1.0, X(1): -1.0}, 1.0, weight=3.0)
    other = _mrf(1)
    other.add_potential({X(0): 1.0}, 0.0, weight=2.0)
    foreign = AdmmSolver(other).solve().state
    result = AdmmSolver(mrf).solve(warm_state=foreign)
    assert result.converged  # state silently ignored, cold start used
    reference = AdmmSolver(mrf).solve()
    assert np.allclose(result.x, reference.x, atol=1e-3)
