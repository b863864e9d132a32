"""Ground once, reweight many: the weight/structure split end to end.

The contract under test, at every layer: the HL-MRF energy is linear in
the potential weights, so a *reweighted* artifact — MRF, compiled ADMM
arrays, grounded collective — must be element-for-element identical to
one freshly ground at the new weights, and solves from it bit-identical
to the re-grounding path.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.admm import AdmmSettings, AdmmSolver
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import Predicate
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from repro.selection.collective import (
    CollectiveGroundingCache,
    CollectiveSettings,
    GroundedCollective,
    ground_collective,
    solve_collective,
)
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights

X = Predicate("x", 1)


def _mrf(weights=(2.0, 2.0, 3.0, 1.0)) -> HingeLossMRF:
    mrf = HingeLossMRF()
    for i in range(4):
        mrf.variable_index(X(i))
    terms = [
        ({X(0): 1.0, X(1): -1.0}, 0.25),
        ({X(1): 1.0}, 0.0),
        ({X(2): 1.0}, -0.5),
        ({X(3): 1.0}, 0.1),
    ]
    for (coefficients, offset), weight in zip(terms, weights):
        mrf.add_potential(coefficients, offset, weight=weight)
    mrf.add_constraint({X(0): 1.0, X(3): 1.0}, -1.0)
    return mrf


# -- HingeLossMRF weight mutation ---------------------------------------------


def test_reweighted_mrf_energy_matches_fresh_construction():
    mrf = _mrf()
    mrf.set_potential_weights([0.7, 0.7, 9.0, 1.0])
    assert mrf_fingerprint(mrf) == mrf_fingerprint(_mrf((0.7, 0.7, 9.0, 1.0)))


def test_zero_and_negative_reweights_rejected():
    mrf = _mrf()
    for bad in (
        [0.0, 2.0, 3.0, 1.0],  # potentials exist: a zero changes structure
        [2.0, 2.0, -1.0, 1.0],
        [2.0, 2.0, 3.0, float("nan")],
        [float("inf"), 2.0, 3.0, 1.0],
        [1.0, 0.0],  # length mismatch
        [2.0, 2.0, 3.0, 1.0, 1.0],
    ):
        with pytest.raises(InferenceError):
            mrf.set_potential_weights(bad)
    assert list(mrf.potential_weights()) == [2.0, 2.0, 3.0, 1.0]  # untouched
    # A zero-weight potential is dropped at grounding, so its weight has
    # no slot: reweighting it back up is a length mismatch.
    empty = HingeLossMRF()
    empty.variable_index(X(0))
    empty.add_potential({X(0): 1.0}, 0.0, weight=0.0)
    assert not empty.potentials
    empty.set_potential_weights([])  # does not raise
    with pytest.raises(InferenceError):
        empty.set_potential_weights([1.0])


def test_weight_vector_is_read_only_outside_its_writer():
    mrf = _mrf()
    with pytest.raises(ValueError):
        mrf.potential_weights()[0] = 5.0
    assert list(mrf.potential_weights()) == [2.0, 2.0, 3.0, 1.0]


# -- compiled arrays / solver reweight ----------------------------------------


def test_partition_weight_views_see_in_place_writes():
    mrf = _mrf()
    arrays = AdmmSolver(mrf).arrays
    structure = arrays.coeff.copy()
    mrf.set_potential_weights([6.0, 6.0, 0.25, 1.0])
    fresh = AdmmSolver(mrf).arrays
    assert np.array_equal(arrays.weight, fresh.weight)
    assert np.array_equal(arrays.weight, [6.0, 6.0, 0.25, 1.0])
    assert np.array_equal(arrays.coeff, structure)  # structure left alone
    with pytest.raises(InferenceError):
        mrf.set_potential_weights(np.ones(99))


def test_solver_reweighted_solve_matches_fresh_solver():
    mrf = _mrf()
    solver = AdmmSolver(mrf, AdmmSettings(check_every=1))
    first = solver.solve()
    mrf.set_potential_weights([4.0, 4.0, 0.5, 1.0])
    resolved = solver.solve()
    fresh = AdmmSolver(mrf, AdmmSettings(check_every=1)).solve()
    assert resolved.iterations == fresh.iterations
    assert np.array_equal(resolved.x, fresh.x)
    assert resolved.energy == fresh.energy
    assert first.iterations > 0  # the first solve really ran


# -- GroundedCollective + cache -----------------------------------------------


def _problem():
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=3, rows_per_relation=8, pi_errors=40, pi_corresp=30, seed=7
        )
    )
    return build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )


def _weights(explains="1", errors="1", size="1") -> ObjectiveWeights:
    return ObjectiveWeights(
        explains=Fraction(explains), errors=Fraction(errors), size=Fraction(size)
    )


def test_grounded_collective_reweight_matches_fresh_ground():
    problem = _problem()
    grounded = GroundedCollective(problem, CollectiveSettings())
    for weights in (_weights("2", "1/2", "3"), _weights("1/4", "5", "1/8")):
        settings = CollectiveSettings(weights=weights)
        assert grounded.can_reweight(weights)
        grounded.reweight(weights)
        fresh, _ = ground_collective(problem, settings)
        assert mrf_fingerprint(grounded.mrf) == mrf_fingerprint(fresh)
        # Weight-independent structure: identical across the sweep.
        assert structure_fingerprint(grounded.mrf) == structure_fingerprint(fresh)


def test_grounded_collective_rejects_zero_pattern_changes():
    problem = _problem()
    grounded = GroundedCollective(problem, CollectiveSettings())
    assert not grounded.can_reweight(_weights(explains="0"))
    assert not grounded.can_reweight(_weights(errors="0", size="0"))
    with pytest.raises(InferenceError):
        grounded.reweight(_weights(explains="0"))


def test_grounding_cache_reweights_hits_and_regrouds_on_pattern_change():
    problem = _problem()
    cache = CollectiveGroundingCache(capacity=2)
    first = cache.grounded(problem, CollectiveSettings())
    again = cache.grounded(
        problem, CollectiveSettings(weights=_weights("3", "2", "1"))
    )
    assert again is first  # hit: same structure, reweighted in place
    assert cache.hits == 1 and cache.misses == 1
    assert first.weights == _weights("3", "2", "1")
    # A zero-crossing forces a fresh ground under the same key.
    reground = cache.grounded(
        problem, CollectiveSettings(weights=_weights(errors="0", size="0"))
    )
    assert reground is not first
    assert cache.misses == 2
    other = _problem()
    cache.grounded(other, CollectiveSettings())
    cache.grounded(_problem(), CollectiveSettings())  # evicts past capacity
    assert len(cache._entries) == 2
    cache.clear()
    assert not cache._entries and cache.hits == cache.misses == 0


def test_grounding_cache_concurrent_threads_with_tiny_capacity():
    # Thread-keyed entries + lock: threads churning distinct problems
    # through a capacity-1 cache must never disturb each other's
    # artifacts mid-use.
    import threading

    problems = [_problem() for _ in range(3)]
    cache = CollectiveGroundingCache(capacity=1)
    errors: list[BaseException] = []

    def lane(problem):
        try:
            for weights in (_weights(), _weights("2", "1", "1"), _weights("1", "2", "1")):
                grounded = cache.grounded(
                    problem, CollectiveSettings(weights=weights)
                )
                result = grounded.solver.solve()
                assert result.converged
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=lane, args=(p,)) for p in problems]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    cache.clear()


def test_solve_collective_reuse_matches_fresh_ground_path():
    problem = _problem()
    sweep = [
        _weights("1", "1", "1"),
        _weights("2", "1", "1/2"),
        _weights("1/2", "3", "2"),
    ]
    fresh_results = [
        solve_collective(
            problem,
            CollectiveSettings(weights=w),
            grounded=GroundedCollective(problem, CollectiveSettings(weights=w)),
        )
        for w in sweep
    ]
    reused_results = [
        solve_collective(problem, CollectiveSettings(weights=w)) for w in sweep
    ]
    for fresh, reused in zip(fresh_results, reused_results):
        assert reused.selected == fresh.selected
        assert reused.objective == fresh.objective
        assert reused.fractional == fresh.fractional
        assert reused.iterations == fresh.iterations


# -- reweight chains on the p=24 base problem ---------------------------------


_LEVELS = (Fraction(1, 2), Fraction(1), Fraction(2))


def _latin_square_cells(seed: int) -> list[ObjectiveWeights]:
    """The nine cells of a 3x3 Latin square over ``_LEVELS``, seeded order."""
    import random

    cells = [
        ObjectiveWeights(_LEVELS[i], _LEVELS[j], _LEVELS[(-i - j) % 3])
        for i in range(3)
        for j in range(3)
    ]
    random.Random(seed).shuffle(cells)
    return cells


def _walk_reweight_chain(grounded: GroundedCollective, cells) -> None:
    """Reweight *grounded* through *cells*; each cell must equal a fresh ground."""
    admm = AdmmSettings()
    for weights in cells:
        settings = CollectiveSettings(weights=weights, admm=admm)
        assert grounded.can_reweight(weights)
        grounded.reweight(weights)
        fresh = GroundedCollective(grounded.problem, settings)
        assert mrf_fingerprint(grounded.mrf) == mrf_fingerprint(fresh.mrf)
        cold = grounded.solver_for(admm).solve()
        reference = fresh.solver_for(admm).solve()
        assert np.array_equal(cold.x, reference.x)
        assert cold.iterations == reference.iterations


def test_reweight_chains_stay_bit_identical_on_base_and_patched_p24():
    from repro.ibench.mutations import MutableSelection, RemoveTargetTuple

    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=24, rows_per_relation=20,
            pi_corresp=25, pi_errors=25, pi_unexplained=25, seed=3,
        )
    )
    selection = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    root = selection.problem
    cache = CollectiveGroundingCache()
    base = cache.grounded(root, CollectiveSettings())
    assert len(base.mrf.potentials) == 656
    assert (base.plan.coverage_potentials, base.plan.error_potentials) == (590, 21)
    _walk_reweight_chain(base, _latin_square_cells(seed=3))

    # One target edit: the cache patches the (reweighted) parent, and
    # the patched artifact walks the same kind of chain.
    edited = selection.apply(RemoveTargetTuple(sorted(selection.target, key=repr)[-1]))
    patched = cache.grounded(edited, CollectiveSettings())
    assert cache.patch_hits == 1 and patched.splice_stats is not None
    _walk_reweight_chain(patched, _latin_square_cells(seed=4))

    # A zero-crossing cell changes the structure, so neither artifact
    # reweights: the root grounds fresh, the edit is patched again.
    zero = ObjectiveWeights(Fraction(1), Fraction(0), Fraction(1))
    assert not base.can_reweight(zero) and not patched.can_reweight(zero)
    for problem, patch_hits in ((root, 1), (edited, 2)):
        misses = cache.misses
        served = cache.grounded(problem, CollectiveSettings(weights=zero))
        assert served is not base and served is not patched
        assert cache.misses == misses + 1 and cache.patch_hits == patch_hits
        fresh = GroundedCollective(problem, CollectiveSettings(weights=zero))
        assert mrf_fingerprint(served.mrf) == mrf_fingerprint(fresh.mrf)
