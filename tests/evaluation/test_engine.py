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
    engine = EvaluationEngine(methods=("greedy", "collective"))
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
    # One grounding for the seed's first cell, reweight-only for the rest.
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

    from repro.selection.collective import (
        CollectiveSettings,
        GroundedCollective,
        solve_collective,
    )

    base = ScenarioConfig(num_primitives=2, rows_per_relation=6, pi_errors=25)
    engine = EvaluationEngine(methods=("collective",), include_gold=False)
    sweep = engine.weight_sweep(base, _weight_grid(), seeds=(2,))
    scenario = generate_scenario(dc_replace(base, seed=2))
    problem = scenario.selection_problem()
    for (weights, cells) in sweep.cells_by_weight():
        settings = CollectiveSettings(weights=weights)
        fresh = solve_collective(
            problem, settings, grounded=GroundedCollective(problem, settings)
        )
        assert cells[0].run.selected == fresh.selected
        assert cells[0].run.objective == fresh.objective


def test_process_weight_sweep_matches_serial():
    base = ScenarioConfig(num_primitives=2, rows_per_relation=6, pi_errors=25)
    serial = EvaluationEngine(methods=("collective",))
    parallel = EvaluationEngine(methods=("collective",), executor="process:2")
    a = serial.weight_sweep(base, _weight_grid(), seeds=(1, 2))
    b = parallel.weight_sweep(base, _weight_grid(), seeds=(1, 2))
    assert [(c.config, c.method, c.run.selected, c.run.objective) for c in a.grid.cells] == [
        (c.config, c.method, c.run.selected, c.run.objective) for c in b.grid.cells
    ]


def test_weight_sweep_grounds_each_seed_once():
    # Jobs run seed-major, so the two-entry grounding cache serves every
    # cell after a seed's first, however many seeds the sweep has.
    from repro.selection.collective import GROUNDING_CACHE

    base = ScenarioConfig(num_primitives=2, rows_per_relation=6, pi_errors=25)
    engine = EvaluationEngine(methods=("collective",), include_gold=False)
    GROUNDING_CACHE.clear()
    sweep = engine.weight_sweep(base, _weight_grid(), seeds=(1, 2, 3))
    cells = len(sweep.grid.cells)
    assert cells == 9
    assert GROUNDING_CACHE.misses == 3
    assert GROUNDING_CACHE.hits == cells - 3
    # The result stays weight-setting-major, seeds in sweep order.
    assert [
        (weights, [c.config.seed for c in group])
        for weights, group in sweep.cells_by_weight()
    ] == [(weights, [1, 2, 3]) for weights in _weight_grid()]


def _answers(sweep):
    return {
        (weights, cell.config.seed, cell.method): (cell.run.selected, cell.run.objective)
        for weights, cells in sweep.cells_by_weight()
        for cell in cells
    }


def test_weight_sweep_answers_do_not_depend_on_cell_order():
    # Every cell solves cold, so visiting the cells in another order
    # (and so hitting or missing the grounding cache elsewhere) cannot
    # change any cell's selection or objective.
    base = ScenarioConfig(num_primitives=4, rows_per_relation=8, pi_errors=25)
    seeds = (1, 2, 3)
    forward = EvaluationEngine(methods=("collective", "greedy")).weight_sweep(
        base, _weight_grid(), seeds
    )
    backward = EvaluationEngine(methods=("collective", "greedy")).weight_sweep(
        base, _weight_grid()[::-1], seeds[::-1]
    )
    assert len(_answers(forward)) == len(forward.grid.cells) == 27
    assert _answers(forward) == _answers(backward)


def test_collective_noise_sweep_matches_across_executors():
    base = ScenarioConfig(num_primitives=2, rows_per_relation=6)
    serial = EvaluationEngine(methods=("collective",))
    parallel = EvaluationEngine(methods=("collective",), executor="process:2")
    a = serial.sweep(base, "pi_corresp", levels=(0, 50), seeds=(1, 2))
    b = parallel.sweep(base, "pi_corresp", levels=(0, 50), seeds=(1, 2))
    assert [(c.config, c.method, c.run.selected, c.run.objective) for c in a.grid.cells] == [
        (c.config, c.method, c.run.selected, c.run.objective) for c in b.grid.cells
    ]


def test_work_units_pickle_for_the_process_pool():
    # Grid cells are the only work a process pool ships: a work unit
    # with tuned settings must survive pickle, and the map target must
    # pickle by reference (module-level).
    import pickle
    from fractions import Fraction

    from repro.evaluation.engine import _run_work_unit
    from repro.psl.admm import AdmmSettings
    from repro.selection.collective import CollectiveSettings
    from repro.selection.objective import ObjectiveWeights

    settings = CollectiveSettings(
        weights=ObjectiveWeights(Fraction(2), Fraction(1, 2), Fraction(3)),
        admm=AdmmSettings(rho=2.0, max_iterations=700),
        incremental=False,
    )
    work = ConfigCells(
        SMALL,
        ("collective", "greedy"),
        include_gold=True,
        collective_settings=settings,
    )
    back = pickle.loads(pickle.dumps(work))
    assert back == work
    assert back.collective_settings == settings
    assert pickle.loads(pickle.dumps(_run_work_unit)) is _run_work_unit


def test_engine_threads_solve_options_into_collective():
    # A work unit solves the collective method with its own settings
    # (weight_sweep builds one CollectiveSettings per weight setting).
    from fractions import Fraction

    from repro.selection.collective import CollectiveSettings
    from repro.selection.objective import ObjectiveWeights

    heavy = CollectiveSettings(weights=ObjectiveWeights(explains=Fraction(100)))
    [plain] = evaluate_config_cells(
        ConfigCells(SMALL, ("collective",)), cache=ScenarioCache()
    )
    [tuned] = evaluate_config_cells(
        ConfigCells(SMALL, ("collective",), collective_settings=heavy),
        cache=ScenarioCache(),
    )
    assert plain.run.selected == frozenset()
    assert tuned.run.selected


def test_process_executor_grid_matches_serial():
    serial = EvaluationEngine(methods=("greedy",))
    parallel = EvaluationEngine(methods=("greedy",), executor="process:2")
    configs = [SMALL, ScenarioConfig(num_primitives=2, rows_per_relation=6, seed=4)]
    a = serial.run_grid(configs)
    b = parallel.run_grid(configs)
    assert [(c.config, c.method, c.run.selected) for c in a.cells] == [
        (c.config, c.method, c.run.selected) for c in b.cells
    ]
    assert [c.run.objective for c in a.cells] == [c.run.objective for c in b.cells]


def test_unknown_method_rejected():
    with pytest.raises(ReproError):
        evaluate_config_cells(
            ConfigCells(SMALL, ("no-such-method",)), cache=ScenarioCache()
        )


def test_unknown_noise_parameter_rejected():
    with pytest.raises(ReproError):
        EvaluationEngine().sweep(SMALL, "pi_bogus", levels=(0,), seeds=(1,))


def test_scenario_cache_problem_reuses_the_generation_chases(monkeypatch):
    # The cached problem is built through the scenario, so no candidate
    # is chased again, and it equals a from-scratch build.
    from repro.selection import metrics

    noisy = ScenarioConfig(
        num_primitives=6, rows_per_relation=10, pi_corresp=50, pi_errors=50,
        pi_unexplained=50, seed=5,
    )
    cache = ScenarioCache()
    scenario, _ = cache.scenario(noisy)
    assert len(scenario.gold_indices) < len(scenario.candidates)
    chased = []
    chase_candidate = metrics.chase_candidate

    def counting(source, candidate, first_null=0):
        chased.append(candidate)
        return chase_candidate(source, candidate, first_null)

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "chase_candidate", counting)
        problem, _ = cache.problem(noisy)
    assert chased == []
    scratch = metrics.build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )
    assert metrics.problem_fingerprint(problem) == metrics.problem_fingerprint(scratch)
