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
from repro.psl.partition import compile_term_arrays
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


def _grouped_mrf() -> HingeLossMRF:
    mrf = HingeLossMRF()
    for i in range(4):
        mrf.variable_index(X(i))
    mrf.add_potential({X(0): 1.0, X(1): -1.0}, 0.25, weight=2.0, group="a")
    mrf.add_potential({X(1): 1.0}, 0.0, weight=2.0, group="a")
    mrf.add_potential({X(2): 1.0}, -0.5, weight=3.0, group="b")
    mrf.add_potential({X(3): 1.0}, 0.1, weight=1.0)  # ungrouped: fixed
    mrf.add_constraint({X(0): 1.0, X(3): 1.0}, -1.0)
    return mrf


# -- HingeLossMRF weight mutation ---------------------------------------------


def test_set_group_weights_rewrites_members():
    mrf = _grouped_mrf()
    version = mrf.weights_version
    mrf.set_group_weights({"a": 5.0})
    assert mrf.weights_version == version + 1
    assert [p.weight for p in mrf.potentials] == [5.0, 5.0, 3.0, 1.0]
    assert np.array_equal(mrf.potential_weights(), [5.0, 5.0, 3.0, 1.0])
    # Unknown groups are skipped (no groundings from that origin here).
    mrf.set_group_weights({"nope": 7.0})
    assert [p.weight for p in mrf.potentials] == [5.0, 5.0, 3.0, 1.0]


def test_reweighted_mrf_energy_matches_fresh_construction():
    mrf = _grouped_mrf()
    mrf.set_group_weights({"a": 0.7, "b": 9.0})
    fresh = HingeLossMRF()
    for i in range(4):
        fresh.variable_index(X(i))
    fresh.add_potential({X(0): 1.0, X(1): -1.0}, 0.25, weight=0.7, group="a")
    fresh.add_potential({X(1): 1.0}, 0.0, weight=0.7, group="a")
    fresh.add_potential({X(2): 1.0}, -0.5, weight=9.0, group="b")
    fresh.add_potential({X(3): 1.0}, 0.1, weight=1.0)
    fresh.add_constraint({X(0): 1.0, X(3): 1.0}, -1.0)
    assert mrf_fingerprint(mrf) == mrf_fingerprint(fresh)


def test_zero_and_negative_reweights_rejected():
    mrf = _grouped_mrf()
    with pytest.raises(InferenceError):
        mrf.set_group_weights({"a": 0.0})  # members exist: structure change
    with pytest.raises(InferenceError):
        mrf.set_group_weights({"b": -1.0})
    with pytest.raises(InferenceError):
        mrf.set_group_potential_weights("a", [1.0, 0.0])
    # Zero -> zero on a group that was ground at weight zero is a no-op;
    # zero -> NON-zero cannot restore the dropped potentials and raises.
    empty = HingeLossMRF()
    empty.variable_index(X(0))
    empty.add_potential({X(0): 1.0}, 0.0, weight=0.0, group="off")
    assert not empty.potentials
    assert "off" in empty.group_keys  # registry matches the sharded path
    empty.set_group_weights({"off": 0.0})  # does not raise
    with pytest.raises(InferenceError):
        empty.set_group_weights({"off": 1.0})
    with pytest.raises(InferenceError):
        empty.set_group_potential_weights("off", [])


def test_set_group_potential_weights_per_member():
    mrf = _grouped_mrf()
    mrf.set_group_potential_weights("a", [1.5, 2.5])
    assert [p.weight for p in mrf.potentials[:2]] == [1.5, 2.5]
    with pytest.raises(InferenceError):
        mrf.set_group_potential_weights("a", [1.0])  # member count mismatch
    with pytest.raises(InferenceError):
        mrf.set_group_potential_weights("nope", [1.0])  # unknown, non-empty
    mrf.set_group_potential_weights("nope", [])  # unknown, empty: no-op


# -- compiled arrays / solver reweight ----------------------------------------


def test_partition_weight_views_see_in_place_writes():
    mrf = _grouped_mrf()
    arrays = compile_term_arrays(mrf)
    structure = arrays.coeff.copy()
    mrf.set_group_weights({"a": 6.0, "b": 0.25})
    arrays.set_potential_weights(mrf.potential_weights())
    fresh = compile_term_arrays(mrf)
    assert np.array_equal(arrays.weight, fresh.weight)
    assert np.array_equal(arrays.coeff, structure)  # structure left alone
    with pytest.raises(InferenceError):
        arrays.set_potential_weights(np.ones(99))


def test_solver_reweighted_solve_matches_fresh_solver():
    mrf = _grouped_mrf()
    solver = AdmmSolver(mrf, AdmmSettings(check_every=1))
    first = solver.solve()
    mrf.set_group_weights({"a": 4.0, "b": 0.5})
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
        fresh, _, _ = ground_collective(problem, settings)
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
