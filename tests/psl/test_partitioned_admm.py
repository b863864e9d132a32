"""ADMM solver equivalence, verified against a frozen reference solver.

``_ReferenceFlatSolver`` is a frozen copy of the original ``AdmmSolver``
(one monolithic term array, boolean kind masks recomputed every
iteration).  The contract under test: the solver produces the
*identical* run — same iterates, same iteration count, same residuals,
same energy, same dual state — on fingerprint-verified collective
problems and on random MRFs alike, whatever term blocks built the MRF
and wherever it was ground.  Not approximately: bit for
bit.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.admm import AdmmResult, AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import Predicate
from repro.psl.sharding import TermBlockBuilder, mrf_fingerprint
from repro.selection.collective import (
    CollectiveSettings,
    GroundedCollective,
    ground_collective,
    solve_collective,
)
from repro.selection.metrics import build_selection_problem
from tests.collective_reference import ground_term_by_term
from tests.work_units import run_on

X = Predicate("x", 1)

_KIND_HINGE = 0
_KIND_SQUARED = 1
_KIND_LEQ = 2
_KIND_EQ = 3


class _ReferenceFlatSolver:
    """The pre-refactor AdmmSolver, kept verbatim as the ground truth."""

    def __init__(self, mrf, settings=None):
        self._mrf = mrf
        self._settings = settings or AdmmSettings()
        self._build_arrays()

    def _build_arrays(self):
        mrf = self._mrf
        terms = [
            (_KIND_HINGE, p.coefficients, p.offset, weight)
            for p, weight in zip(mrf.potentials, mrf.potential_weights().tolist())
        ] + [(_KIND_LEQ, c.coefficients, c.offset, 0.0) for c in mrf.constraints]
        var_index, term_index, coeff = [], [], []
        kinds, offsets, weights = [], [], []
        for t, (kind, coefficients, offset, weight) in enumerate(terms):
            kinds.append(kind)
            offsets.append(offset)
            weights.append(weight)
            for i, c in coefficients:
                var_index.append(i)
                term_index.append(t)
                coeff.append(c)
        self._n = mrf.num_variables
        self._num_terms = len(terms)
        self._var = np.asarray(var_index, dtype=np.int64)
        self._term = np.asarray(term_index, dtype=np.int64)
        self._a = np.asarray(coeff, dtype=np.float64)
        self._kind = np.asarray(kinds, dtype=np.int64)
        self._b = np.asarray(offsets, dtype=np.float64)
        self._w = np.asarray(weights, dtype=np.float64)
        self._normsq = np.maximum(
            np.bincount(self._term, weights=self._a**2, minlength=self._num_terms),
            1e-12,
        )
        degree = np.bincount(self._var, minlength=self._n).astype(np.float64)
        self._degree = np.maximum(degree, 1.0)

    def solve(self, warm_state=None):
        settings = self._settings
        n, copies = self._n, len(self._var)
        use_state = (
            warm_state is not None
            and warm_state.z.shape == (n,)
            and warm_state.u.shape == (copies,)
        )
        if use_state:
            z = np.clip(warm_state.z.astype(np.float64), 0.0, 1.0)
        else:
            z = np.full(n, 0.5)
        if copies == 0:
            return AdmmResult(
                z, 0, True, 0.0, 0.0, self._mrf.energy(z),
                state=AdmmWarmState(z.copy(), np.zeros(0), self._num_terms),
            )
        u = warm_state.u.astype(np.float64).copy() if use_state else np.zeros(copies)
        x_local = z[self._var].copy()
        rho = settings.rho
        primal = dual = float("inf")
        iteration = 0
        converged = False
        z_old = z
        checked_at = -1
        for iteration in range(1, settings.max_iterations + 1):
            v = z[self._var] - u
            dot = np.bincount(self._term, weights=self._a * v, minlength=self._num_terms)
            d0 = dot + self._b
            lam = np.zeros(self._num_terms)
            hinge = self._kind == _KIND_HINGE
            if hinge.any():
                w_over_rho = self._w[hinge] / rho
                d0_h = d0[hinge]
                full_step_ok = d0_h - w_over_rho * self._normsq[hinge] >= 0.0
                lam[hinge] = np.where(
                    d0_h <= 0.0,
                    0.0,
                    np.where(full_step_ok, w_over_rho, d0_h / self._normsq[hinge]),
                )
            squared = self._kind == _KIND_SQUARED
            if squared.any():
                d0_s = d0[squared]
                s = d0_s / (1.0 + 2.0 * self._w[squared] * self._normsq[squared] / rho)
                lam[squared] = np.where(d0_s <= 0.0, 0.0, 2.0 * self._w[squared] * s / rho)
            leq = self._kind == _KIND_LEQ
            if leq.any():
                lam[leq] = np.maximum(0.0, d0[leq]) / self._normsq[leq]
            eq = self._kind == _KIND_EQ
            if eq.any():
                lam[eq] = d0[eq] / self._normsq[eq]
            x_local = v - lam[self._term] * self._a
            z_old = z
            z = np.clip(
                np.bincount(self._var, weights=x_local + u, minlength=n) / self._degree,
                0.0,
                1.0,
            )
            u = u + x_local - z[self._var]
            if iteration % settings.check_every == 0:
                checked_at = iteration
                primal = float(np.linalg.norm(x_local - z[self._var]))
                dual = float(rho * np.linalg.norm((z - z_old)[self._var]))
                eps = settings.epsilon_abs * np.sqrt(copies) + settings.epsilon_rel * max(
                    float(np.linalg.norm(x_local)), float(np.linalg.norm(z[self._var]))
                )
                if primal < eps and dual < eps:
                    converged = True
                    break
        if iteration > 0 and checked_at != iteration:
            primal = float(np.linalg.norm(x_local - z[self._var]))
            dual = float(rho * np.linalg.norm((z - z_old)[self._var]))
            eps = settings.epsilon_abs * np.sqrt(copies) + settings.epsilon_rel * max(
                float(np.linalg.norm(x_local)), float(np.linalg.norm(z[self._var]))
            )
            converged = primal < eps and dual < eps
        return AdmmResult(
            x=z,
            iterations=iteration,
            converged=converged,
            primal_residual=primal,
            dual_residual=dual,
            energy=self._mrf.energy(z),
            state=AdmmWarmState(z.copy(), u.copy(), self._num_terms),
        )


def _assert_identical_run(result: AdmmResult, reference: AdmmResult) -> None:
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert np.array_equal(result.x, reference.x)
    assert result.primal_residual == reference.primal_residual
    assert result.dual_residual == reference.dual_residual
    assert result.energy == reference.energy
    assert np.array_equal(result.state.z, reference.state.z)
    assert np.array_equal(result.state.u, reference.state.u)


def _primal_state(mrf: HingeLossMRF, start: np.ndarray) -> AdmmWarmState:
    """A warm state seeding only the consensus vector: zero duals."""
    arrays = AdmmSolver(mrf).arrays
    return AdmmWarmState(start, np.zeros(arrays.num_copies), arrays.num_terms)


def _random_mrf(
    seed: int, n: int = 8, m: int = 20, block_size: int | None = None
) -> HingeLossMRF:
    """A random MRF, built term by term or (*block_size*) in term blocks."""
    rng = np.random.default_rng(seed)
    terms = []
    for k in range(m):
        size = int(rng.integers(1, 4))
        idx = rng.choice(n, size=size, replace=False)
        coeffs = {X(int(i)): float(rng.normal()) for i in idx}
        if k % 5 == 4:
            terms.append(("constraint", coeffs, float(rng.normal())))
        else:
            terms.append(
                ("potential", coeffs, float(rng.normal()), float(rng.uniform(0.1, 3)))
            )
    mrf = HingeLossMRF()
    for i in range(n):
        mrf.variable_index(X(i))
    if block_size is None:
        for kind, coeffs, offset, *rest in terms:
            if kind == "constraint":
                mrf.add_constraint(coeffs, offset)
            else:
                mrf.add_potential(coeffs, offset, weight=rest[0])
        return mrf
    for lo in range(0, m, block_size):
        builder = TermBlockBuilder()
        for kind, coeffs, offset, *rest in terms[lo : lo + block_size]:
            if kind == "constraint":
                builder.add_constraint(coeffs.items(), offset)
            else:
                builder.add_potential(coeffs.items(), offset, rest[0])
        mrf.add_term_block(*builder.finish())
    return mrf


@functools.cache
def _collective_problem(seed: int = 13):
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=4,
            rows_per_relation=8,
            pi_errors=50,
            pi_corresp=50,
            seed=seed,
        )
    )
    return build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )


@functools.cache
def _collective_mrf(seed: int = 13, executor: str | None = None) -> HingeLossMRF:
    problem = _collective_problem(seed)
    mrf, _ = run_on(executor, ground_collective, problem, CollectiveSettings())
    # Fingerprint-verified: the block grounding reproduced the
    # term-by-term reference, so the solve equivalence below is measured
    # on the exact model of the paper pipeline.
    assert mrf_fingerprint(mrf) == mrf_fingerprint(ground_term_by_term(problem))
    return mrf


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("block_size", [1, 3, 17, None])
def test_partitioned_matches_flat_reference_on_random_mrfs(seed, block_size):
    # block_size: terms per add_term_block call (None: built term by term).
    mrf = _random_mrf(seed, block_size=block_size)
    if block_size is not None:
        assert len(mrf._block_extents) == -(-20 // block_size)
    reference = _ReferenceFlatSolver(mrf).solve()
    result = AdmmSolver(mrf).solve()
    _assert_identical_run(result, reference)


@pytest.mark.parametrize("seed", [13, 5, 21, 34])
@pytest.mark.parametrize("executor", [None, "process:2"])
def test_partitioned_matches_flat_reference_on_collective_problem(seed, executor):
    # seed/executor: the scenario of the problem and the executor the
    # grounding runs as a work unit of.
    mrf = _collective_mrf(seed, executor)
    reference = _ReferenceFlatSolver(mrf).solve()
    result = AdmmSolver(mrf).solve()
    _assert_identical_run(result, reference)
    assert len(mrf._block_extents) > 1  # really ground in blocks


@pytest.mark.parametrize("max_iterations", [32, None])
def test_process_executor_blocks_match_reference(max_iterations):
    # Grounded in a process-pool worker: a run truncated at
    # *max_iterations* (None: run to convergence) must still be
    # bit-identical to the reference.
    mrf = _collective_mrf(executor="process:2")
    if max_iterations is None:
        settings = AdmmSettings(check_every=2)
    else:
        settings = AdmmSettings(max_iterations=max_iterations, check_every=2)
    reference = _ReferenceFlatSolver(mrf, settings).solve()
    result = AdmmSolver(mrf, settings).solve()
    _assert_identical_run(result, reference)


@pytest.mark.parametrize("executor", [None, "process:2"])
def test_reweight_resolve_bit_identical_to_fresh_ground_and_solve(executor):
    # The ground-once/reweight-many acceptance contract, measured against
    # the frozen reference solver: reweighting a cached grounding
    # (ground as a work unit of *executor*) in place and re-solving must
    # reproduce — bit for bit — the run of a solver built on a *fresh* grounding at the new
    # weights.
    from fractions import Fraction

    from repro.selection.collective import GroundedCollective
    from repro.selection.objective import ObjectiveWeights

    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=4, rows_per_relation=8, pi_errors=50, pi_corresp=50, seed=13
        )
    )
    problem = build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )
    grounded = run_on(executor, GroundedCollective, problem, CollectiveSettings())
    settings = AdmmSettings(max_iterations=40, check_every=5)
    solver = AdmmSolver(grounded.mrf, settings)
    solver.solve()  # prime the compiled arrays
    for triple in (("2", "1", "1/2"), ("1/3", "5", "1"), ("1", "1", "1")):
        weights = ObjectiveWeights(*(Fraction(w) for w in triple))
        grounded.reweight(weights)
        resolved = solver.solve()
        fresh_mrf, _ = ground_collective(problem, CollectiveSettings(weights=weights))
        assert mrf_fingerprint(grounded.mrf) == mrf_fingerprint(fresh_mrf)
        reference = _ReferenceFlatSolver(
            fresh_mrf, AdmmSettings(max_iterations=40, check_every=5)
        ).solve()
        _assert_identical_run(resolved, reference)


def test_reweight_resolve_with_warm_state_matches_reference_warm_run():
    # Warm-state reuse across reweighted solves: same trajectory as the
    # frozen solver restarted from the same state on a fresh grounding.
    from fractions import Fraction

    from repro.selection.collective import GroundedCollective
    from repro.selection.objective import ObjectiveWeights

    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=4, rows_per_relation=8, pi_errors=40, pi_corresp=40, seed=5
        )
    )
    problem = build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )
    grounded = GroundedCollective(problem)
    settings = AdmmSettings(check_every=1)
    solver = AdmmSolver(grounded.mrf, settings)
    state = solver.solve().state
    weights = ObjectiveWeights(Fraction(3, 2), Fraction(1), Fraction(1, 2))
    grounded.reweight(weights)
    warm = solver.solve(warm_state=state)
    fresh_mrf, _ = ground_collective(problem, CollectiveSettings(weights=weights))
    reference = _ReferenceFlatSolver(fresh_mrf, settings).solve(warm_state=state)
    _assert_identical_run(warm, reference)


def test_warm_state_with_warm_start_interactions_match_reference():
    mrf = _random_mrf(4)
    flat_cold = _ReferenceFlatSolver(mrf).solve()
    cold = AdmmSolver(mrf).solve()
    _assert_identical_run(cold, flat_cold)
    flat_warm = _ReferenceFlatSolver(mrf).solve(warm_state=flat_cold.state)
    warm = AdmmSolver(mrf).solve(warm_state=cold.state)
    _assert_identical_run(warm, flat_warm)
    start = _primal_state(mrf, np.linspace(0.0, 1.0, mrf.num_variables))
    _assert_identical_run(
        AdmmSolver(mrf).solve(warm_state=start),
        _ReferenceFlatSolver(mrf).solve(warm_state=start),
    )


def test_warm_state_survives_repartitioning():
    settings = AdmmSettings(check_every=1)
    first = AdmmSolver(_collective_mrf(), settings).solve()
    assert first.converged and first.state is not None
    # The same problem built term by term, with no block extents: the
    # state must still be honoured (dual layout is the flat copy order,
    # which the block merge never changes).
    resumed = AdmmSolver(ground_term_by_term(_collective_problem()), settings).solve(
        warm_state=first.state
    )
    assert resumed.iterations < first.iterations
    assert np.allclose(resumed.x, first.x, atol=1e-3)


def test_warm_state_rejected_on_structurally_different_mrf():
    # Same variable count AND same copy count, but a different number of
    # terms: raw shape checks alone would wrongly accept this state.
    two_terms = HingeLossMRF()
    for i in range(2):
        two_terms.variable_index(X(i))
    two_terms.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    two_terms.add_potential({X(1): -1.0}, 0.5, weight=2.0)

    one_term = HingeLossMRF()
    for i in range(2):
        one_term.variable_index(X(i))
    one_term.add_potential({X(0): 1.0, X(1): -1.0}, 0.25, weight=1.5)

    foreign = AdmmSolver(two_terms).solve().state
    assert foreign.num_terms == 2
    solver = AdmmSolver(one_term)
    assert not foreign.matches(solver.arrays)
    result = solver.solve(warm_state=foreign)
    cold = AdmmSolver(one_term).solve()
    _assert_identical_run(result, cold)  # the stale state was ignored


def test_solve_collective_threads_solver_knobs():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=2, rows_per_relation=6, seed=3)
    )
    problem = build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )
    plain = solve_collective(problem)
    assert plain.iterations > 3
    capped = solve_collective(
        problem, CollectiveSettings(admm=AdmmSettings(max_iterations=3))
    )
    assert capped.iterations == 3
    again = solve_collective(problem)
    assert again.fractional == plain.fractional
    assert again.iterations == plain.iterations


# -- hypothesis differential suite ---------------------------------------------

_KIND_NAMES = ("hinge", "leq")


@st.composite
def _mrf_specs(draw):
    """A random MRF: any non-empty kind mix, built contiguous or interleaved."""
    n = draw(st.integers(1, 6))
    kinds = draw(
        st.lists(st.sampled_from(_KIND_NAMES), min_size=1, max_size=4, unique=True)
    )
    magnitude = st.floats(0.1, 3.0)
    terms = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(kinds))
        size = draw(st.integers(1, min(3, n)))
        variables = draw(st.permutations(range(n)))[:size]
        coefficients = {
            X(i): draw(magnitude) * draw(st.sampled_from((-1.0, 1.0)))
            for i in variables
        }
        offset = draw(st.floats(-2.0, 2.0))
        terms.append((kind, coefficients, offset, draw(magnitude)))
    if draw(st.booleans()):
        # Contiguous: every kind's terms in one run (the collective layout).
        terms.sort(key=lambda term: _KIND_NAMES.index(term[0]))
    return n, terms


def _build_mrf(spec) -> HingeLossMRF:
    n, terms = spec
    mrf = HingeLossMRF()
    for i in range(n):
        mrf.variable_index(X(i))
    for kind, coefficients, offset, weight in terms:
        if kind == "leq":
            mrf.add_constraint(coefficients, offset)
        else:
            mrf.add_potential(coefficients, offset, weight=weight)
    return mrf


@st.composite
def _admm_settings(draw):
    check_every = draw(st.integers(2, 7))
    # Never a multiple of check_every: the last iteration is unchecked.
    max_iterations = check_every * draw(st.integers(0, 12)) + draw(
        st.integers(1, check_every - 1)
    )
    return AdmmSettings(
        rho=draw(st.floats(0.05, 5.0)),
        max_iterations=max_iterations,
        epsilon_abs=draw(st.sampled_from((1e-5, 1e-9))),
        epsilon_rel=draw(st.sampled_from((1e-4, 1e-9))),
        check_every=check_every,
    )


def _reweights(current: np.ndarray):
    """The weight vector of one re-solve: each weight kept or redrawn."""
    return st.tuples(
        *(st.one_of(st.just(float(w)), st.floats(0.1, 3.0)) for w in current)
    )


@hypothesis_settings(max_examples=80, deadline=None)
@given(_mrf_specs(), _admm_settings(), st.data())
def test_solver_matches_frozen_reference_on_random_warm_reweight_chains(
    spec, settings, data
):
    # Cold solve, then a chain of reweighted warm re-solves on one solver:
    # every run is bit-identical to the frozen reference solver built on
    # the reweighted MRF and restarted from the same state.
    mrf = _build_mrf(spec)
    solver = AdmmSolver(mrf, settings)
    result = solver.solve()
    reference = _ReferenceFlatSolver(mrf, settings).solve()
    _assert_identical_run(result, reference)
    for _ in range(data.draw(st.integers(1, 3))):
        mrf.set_potential_weights(data.draw(_reweights(mrf.potential_weights())))
        state = result.state
        result = solver.solve(warm_state=state)
        reference = _ReferenceFlatSolver(mrf, settings).solve(warm_state=state)
        _assert_identical_run(result, reference)


@hypothesis_settings(max_examples=40, deadline=None)
@given(_mrf_specs(), _admm_settings(), st.data())
def test_solver_matches_frozen_reference_from_warm_starts(spec, settings, data):
    mrf = _build_mrf(spec)
    start = np.array(
        data.draw(
            st.lists(
                st.floats(-0.5, 1.5), min_size=mrf.num_variables,
                max_size=mrf.num_variables,
            )
        )
    )
    state = _primal_state(mrf, start)
    _assert_identical_run(
        AdmmSolver(mrf, settings).solve(warm_state=state),
        _ReferenceFlatSolver(mrf, settings).solve(warm_state=state),
    )


# -- solve_collective readout ---------------------------------------------------


def _literal_readout(mrf, plan, x, num_candidates):
    """The per-atom ``index_of`` readout of the ``in`` atoms, verbatim."""
    in_atoms = plan.targets[:num_candidates]
    return {i: float(x[mrf.index_of(atom)]) for i, atom in enumerate(in_atoms)}


def _assert_same_dict(actual: dict, expected: dict) -> None:
    # Keys, key order and floats, exactly.
    assert list(actual.items()) == list(expected.items())


def test_collective_readout_matches_per_atom_readout():
    problem = _collective_problem()
    grounded = GroundedCollective(problem, CollectiveSettings())
    result = solve_collective(problem, CollectiveSettings(), grounded=grounded)
    fractional = _literal_readout(
        grounded.mrf, grounded.plan, result.admm_state.z, problem.num_candidates
    )
    assert result.fractional
    _assert_same_dict(result.fractional, fractional)
    # A second fresh ground resolves the same readout.
    fresh = solve_collective(
        problem, grounded=GroundedCollective(problem, CollectiveSettings())
    )
    _assert_same_dict(fresh.fractional, fractional)
