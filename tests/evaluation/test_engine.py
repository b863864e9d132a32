"""Tests for the grid-evaluation engine (caching, timing, parallel cells)."""

import pytest

from repro.errors import ReproError
from repro.evaluation.engine import (
    DEFAULT_GRID_METHODS,
    METHOD_REGISTRY,
    ConfigCells,
    EvaluationEngine,
    ScenarioCache,
    evaluate_config_cells,
)
from repro.evaluation.harness import run_methods
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario

SMALL = ScenarioConfig(num_primitives=2, rows_per_relation=6, seed=3)


def test_registry_covers_cli_methods():
    assert set(DEFAULT_GRID_METHODS) <= set(METHOD_REGISTRY)
    assert {"exact", "independent"} <= set(METHOD_REGISTRY)


def test_run_grid_cell_order_and_methods():
    engine = EvaluationEngine(methods=("greedy", "all-candidates"))
    result = engine.run_grid([SMALL])
    assert [c.method for c in result.cells] == ["greedy", "all-candidates", "gold"]
    assert all(c.config == SMALL for c in result.cells)


def test_scenario_cache_only_charges_first_cell():
    engine = EvaluationEngine(methods=("greedy",))
    first = engine.run_grid([SMALL])
    again = engine.run_grid([SMALL])
    assert first.cells[0].timing.generate_seconds > 0.0
    assert first.cells[0].timing.problem_seconds > 0.0
    assert all(c.timing.generate_seconds == 0.0 for c in again.cells)
    assert all(c.timing.problem_seconds == 0.0 for c in again.cells)


def test_grid_matches_run_methods():
    engine = EvaluationEngine(methods=("greedy", "collective"), warm_start=False)
    cells = engine.run_grid([SMALL]).cells
    scenario = generate_scenario(SMALL)
    runs = run_methods(
        scenario,
        methods={m: METHOD_REGISTRY[m] for m in ("greedy", "collective")},
    )
    assert [c.run.selected for c in cells] == [r.selected for r in runs]
    assert [c.run.objective for c in cells] == [r.objective for r in runs]


def test_sweep_rows_shape_and_gold():
    engine = EvaluationEngine(methods=("greedy",))
    sweep = engine.sweep(SMALL, "pi_errors", levels=(0, 50), seeds=(1, 2))
    rows = sweep.mean_f1_rows(["greedy", "gold"])
    assert [row[0] for row in rows] == [0.0, 50.0]
    assert all(len(row) == 3 for row in rows)
    gold_cells = sweep.grid.by_method("gold")
    assert len(gold_cells) == 4  # 2 levels x 2 seeds
    assert all(c.run.data.f1 == pytest.approx(1.0) for c in gold_cells)


def test_warm_start_lane_matches_cold_selection():
    # The relaxation is convex, so warm-started sweeps must select the
    # same mappings as cold ones.
    warm = EvaluationEngine(methods=("collective",), warm_start=True)
    cold = EvaluationEngine(methods=("collective",), warm_start=False)
    base = ScenarioConfig(num_primitives=2, rows_per_relation=6)
    a = warm.sweep(base, "pi_corresp", levels=(0, 50), seeds=(1,))
    b = cold.sweep(base, "pi_corresp", levels=(0, 50), seeds=(1,))
    assert [c.run.selected for c in a.grid.by_method("collective")] == [
        c.run.selected for c in b.grid.by_method("collective")
    ]


def test_process_warm_start_waves_match_serial_lanes():
    # Process-pool grids run warm-start lanes as waves, shipping each
    # cell's chained CollectiveWarmPayload into the next work unit.  The
    # payload IS the chained state, so the process grid must reproduce
    # the serial warm-started grid cell for cell.
    base = ScenarioConfig(num_primitives=2, rows_per_relation=6)
    serial = EvaluationEngine(methods=("collective",), warm_start=True)
    parallel = EvaluationEngine(
        methods=("collective",), warm_start=True, executor="process:2"
    )
    a = serial.sweep(base, "pi_corresp", levels=(0, 50), seeds=(1, 2))
    b = parallel.sweep(base, "pi_corresp", levels=(0, 50), seeds=(1, 2))
    assert [(c.config, c.method, c.run.selected, c.run.objective) for c in a.grid.cells] == [
        (c.config, c.method, c.run.selected, c.run.objective) for c in b.grid.cells
    ]


def _weight_grid():
    from fractions import Fraction

    from repro.selection.objective import ObjectiveWeights

    return [
        ObjectiveWeights(*(Fraction(w) for w in triple))
        for triple in (("1", "1", "1"), ("2", "1", "1/2"), ("1/2", "3", "1"))
    ]


def test_weight_sweep_reweights_instead_of_regrounding():
    from repro.selection.collective import GROUNDING_CACHE

    base = ScenarioConfig(num_primitives=2, rows_per_relation=6, pi_errors=25)
    engine = EvaluationEngine(methods=("collective",))
    GROUNDING_CACHE.clear()
    sweep = engine.weight_sweep(base, _weight_grid(), seeds=(1,))
    # One grounding for the lane's first cell, reweight-only for the rest.
    assert GROUNDING_CACHE.misses == 1
    assert GROUNDING_CACHE.hits == len(_weight_grid()) - 1
    rows = sweep.mean_f1_rows(["collective", "gold"])
    assert [row[0] for row in rows] == ["1/1/1", "2/1/0.5", "0.5/3/1"]
    assert all(len(row) == 3 for row in rows)
    groups = sweep.cells_by_weight()
    assert len(groups) == len(_weight_grid())
    assert all(len(cells) == 2 for _, cells in groups)  # collective + gold


def test_weight_sweep_matches_fresh_ground_cells():
    # Reweight+re-solve must reproduce the re-grounding path cell for
    # cell (selection, objective, fractional state).
    from dataclasses import replace as dc_replace

    from repro.selection.collective import CollectiveSettings, solve_collective

    base = ScenarioConfig(num_primitives=2, rows_per_relation=6, pi_errors=25)
    engine = EvaluationEngine(methods=("collective",), include_gold=False)
    sweep = engine.weight_sweep(base, _weight_grid(), seeds=(2,))
    scenario = generate_scenario(dc_replace(base, seed=2))
    problem = scenario.selection_problem()
    cold = None
    for (weights, cells) in sweep.cells_by_weight():
        fresh = solve_collective(
            problem,
            CollectiveSettings(weights=weights, reuse_grounding=False),
            warm_start=cold.fractional if cold else None,
            warm_state=cold.admm_state if cold else None,
            warm_start_aux=cold.fractional_aux if cold else None,
        )
        assert cells[0].run.selected == fresh.selected
        assert cells[0].run.objective == fresh.objective
        cold = fresh


def test_process_weight_sweep_matches_serial():
    base = ScenarioConfig(num_primitives=2, rows_per_relation=6, pi_errors=25)
    serial = EvaluationEngine(methods=("collective",))
    parallel = EvaluationEngine(methods=("collective",), executor="process:2")
    a = serial.weight_sweep(base, _weight_grid(), seeds=(1, 2))
    b = parallel.weight_sweep(base, _weight_grid(), seeds=(1, 2))
    assert [(c.config, c.method, c.run.selected, c.run.objective) for c in a.grid.cells] == [
        (c.config, c.method, c.run.selected, c.run.objective) for c in b.grid.cells
    ]


def test_warm_payload_roundtrips_through_work_units():
    from repro.evaluation.engine import _run_warm_work_unit
    from repro.selection.collective import WarmStartedCollective

    first = ConfigCells(SMALL, ("collective",))
    cells, payload = _run_warm_work_unit(first)
    assert cells and payload is not None
    assert payload.state is not None  # full ADMM state rides along
    # Seeding a fresh solver from the payload reproduces it verbatim.
    rebuilt = WarmStartedCollective(payload=payload).payload
    assert rebuilt is not None
    assert dict(rebuilt.fractional) == dict(payload.fractional)
    assert dict(rebuilt.aux) == dict(payload.aux)
    # The second wave, warm-started from the payload, matches a serial
    # lane's second call on the same scenario.
    second = ConfigCells(SMALL, ("collective",), warm_payload=payload)
    warm_cells, _ = _run_warm_work_unit(second)
    lane = WarmStartedCollective()
    problem = ScenarioCache().problem(SMALL)[0]
    lane(problem)
    expected = lane(problem)
    assert warm_cells[0].run.selected == expected.selected


def test_work_units_pickle_for_the_process_pool():
    # Grid cells are the only work a process pool ships: a work unit
    # with tuned settings and a real warm payload must survive pickle,
    # and both map targets must pickle by reference (module-level).
    import pickle
    from dataclasses import replace
    from fractions import Fraction

    import numpy as np

    from repro.evaluation.engine import _run_warm_work_unit, _run_work_unit
    from repro.psl.admm import AdmmSettings
    from repro.selection.collective import CollectiveSettings
    from repro.selection.objective import ObjectiveWeights

    _, payload = _run_warm_work_unit(ConfigCells(SMALL, ("collective",)))
    assert payload is not None and payload.state is not None
    settings = CollectiveSettings(
        weights=ObjectiveWeights(Fraction(2), Fraction(1, 2), Fraction(3)),
        admm=AdmmSettings(rho=2.0, max_iterations=700),
        squared_hinges=True,
        ground_shard_size=8,
        incremental=False,
    )
    work = ConfigCells(
        SMALL,
        ("collective", "greedy"),
        include_gold=True,
        collective_settings=settings,
        warm_payload=payload,
    )
    back = pickle.loads(pickle.dumps(work))
    assert replace(back, warm_payload=None) == replace(work, warm_payload=None)
    assert back.collective_settings == settings
    assert back.warm_payload.fractional == payload.fractional
    assert back.warm_payload.aux == payload.aux
    assert back.warm_payload.state.num_terms == payload.state.num_terms
    assert np.array_equal(back.warm_payload.state.z, payload.state.z)
    assert np.array_equal(back.warm_payload.state.u, payload.state.u)
    for target in (_run_work_unit, _run_warm_work_unit):
        assert pickle.loads(pickle.dumps(target)) is target


def test_engine_threads_solve_options_into_collective():
    plain = EvaluationEngine(methods=("collective",), warm_start=False)
    tuned = EvaluationEngine(
        methods=("collective",),
        warm_start=False,
        ground_shard_size=8,
    )
    assert tuned.collective_settings.ground_shard_size == 8
    a = plain.run_grid([SMALL])
    b = tuned.run_grid([SMALL])
    assert [c.run.selected for c in a.cells] == [c.run.selected for c in b.cells]
    assert [c.run.objective for c in a.cells] == [c.run.objective for c in b.cells]


def test_process_executor_grid_matches_serial():
    serial = EvaluationEngine(methods=("greedy",), warm_start=False)
    parallel = EvaluationEngine(
        methods=("greedy",), executor="process:2", warm_start=False
    )
    configs = [SMALL, ScenarioConfig(num_primitives=2, rows_per_relation=6, seed=4)]
    a = serial.run_grid(configs)
    b = parallel.run_grid(configs)
    assert [(c.config, c.method, c.run.selected) for c in a.cells] == [
        (c.config, c.method, c.run.selected) for c in b.cells
    ]
    assert [c.run.objective for c in a.cells] == [c.run.objective for c in b.cells]


def test_engine_threads_ground_options_into_collective():
    plain = EvaluationEngine(methods=("collective",), warm_start=False)
    sharded = EvaluationEngine(
        methods=("collective",),
        warm_start=False,
        ground_shard_size=2,
    )
    a = plain.run_grid([SMALL])
    b = sharded.run_grid([SMALL])
    assert [c.run.selected for c in a.cells] == [c.run.selected for c in b.cells]
    assert [c.run.objective for c in a.cells] == [c.run.objective for c in b.cells]


def test_unknown_method_rejected():
    with pytest.raises(ReproError):
        evaluate_config_cells(
            ConfigCells(SMALL, ("no-such-method",)), cache=ScenarioCache()
        )


def test_unknown_noise_parameter_rejected():
    with pytest.raises(ReproError):
        EvaluationEngine().sweep(SMALL, "pi_bogus", levels=(0,), seeds=(1,))
