"""Ablation: rounding schemes for the fractional MAP state.

Compares threshold sweep alone, sweep + 1-flip local search, and
classic randomized rounding, all scored by the exact discrete objective,
and reports how far each lands from the exact (MILP) optimum.  Paper
shape: local search closes most of the remaining gap at negligible cost;
randomized rounding is competitive but noisier.
"""

from benchmarks._common import record_result

from repro.evaluation.reporting import format_table, mean
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.rounding import randomized_rounding
from repro.selection.collective import CollectiveSettings, solve_collective
from repro.selection.exact import solve_milp
from repro.selection.objective import objective_value

SEEDS = (1, 2, 3, 4, 5)


def _rounding_rows():
    rows = []
    for seed in SEEDS:
        scenario = generate_scenario(
            ScenarioConfig(
                num_primitives=3, rows_per_relation=10, pi_corresp=75,
                pi_errors=10, pi_unexplained=10, seed=seed,
            )
        )
        problem = scenario.selection_problem()
        exact = solve_milp(problem)
        sweep_only = solve_collective(
            problem, CollectiveSettings(rounding_local_search=False)
        )
        with_search = solve_collective(
            problem, CollectiveSettings(rounding_local_search=True)
        )
        randomized = randomized_rounding(
            with_search.fractional,
            lambda s: objective_value(problem, s),
            trials=32,
            seed=seed,
        )
        randomized_value = objective_value(problem, randomized)
        rows.append(
            [
                seed,
                float(exact.objective),
                float(sweep_only.objective),
                float(with_search.objective),
                float(randomized_value),
                float(sweep_only.objective / exact.objective),
                float(with_search.objective / exact.objective),
                float(randomized_value / exact.objective),
            ]
        )
    return rows


def test_ablation_rounding_schemes(benchmark):
    rows = benchmark.pedantic(_rounding_rows, rounds=1, iterations=1)
    record_result(
        "ablation_rounding",
        format_table(
            ["seed", "F exact", "F sweep", "F sweep+ls", "F random", "sweep/exact", "+ls/exact", "rnd/exact"],
            rows,
            title="Ablation: rounding schemes (sweep / +local search / randomized)",
        ),
    )
    sweep_ratio = mean([row[5] for row in rows])
    search_ratio = mean([row[6] for row in rows])
    randomized_ratio = mean([row[7] for row in rows])
    assert search_ratio <= sweep_ratio + 1e-9  # local search never hurts
    assert search_ratio <= 1.05  # near-optimal after local search
    assert randomized_ratio <= 1.25  # randomized rounding stays in range
