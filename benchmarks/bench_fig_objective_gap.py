"""Figure: relaxation quality — collective objective vs the exact optimum.

At the paper's scale (p in {24, 48, 96} primitives, every noise kind at
0, 25 and 50%), measure the relative gap F(collective) / F(exact), with
the exact optimum from the certified MILP.  Paper shape: rounding the
PSL MAP state recovers (near-)optimal selections; the gap should be a
few percent at most, while greedy can stray further.
"""

import time

from benchmarks._common import record_result

from repro.evaluation.reporting import format_table, mean
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.collective import solve_collective
from repro.selection.exact import solve_milp
from repro.selection.greedy import solve_greedy

PRIMITIVES = (24, 48, 96)
NOISE = (0, 25, 50)
SEEDS = (1, 2, 3, 4, 5)


def _gap_rows():
    rows = []
    for primitives in PRIMITIVES:
        for noise in NOISE:
            for seed in SEEDS:
                scenario = generate_scenario(
                    ScenarioConfig(
                        num_primitives=primitives, rows_per_relation=20,
                        pi_corresp=noise, pi_errors=noise, pi_unexplained=noise,
                        seed=seed,
                    )
                )
                problem = scenario.selection_problem()
                start = time.perf_counter()
                exact = solve_milp(problem)
                exact_seconds = time.perf_counter() - start
                collective = solve_collective(problem)
                greedy = solve_greedy(problem)
                assert exact.objective > 0
                rows.append(
                    [
                        primitives,
                        noise,
                        seed,
                        float(exact.objective),
                        float(collective.objective),
                        float(greedy.objective),
                        float(collective.objective / exact.objective),
                        float(greedy.objective / exact.objective),
                        exact_seconds,
                    ]
                )
    return rows


def test_fig_objective_gap(benchmark):
    rows = benchmark.pedantic(_gap_rows, rounds=1, iterations=1)
    record_result(
        "fig_objective_gap",
        format_table(
            [
                "p", "noise", "seed", "F(exact)", "F(collective)", "F(greedy)",
                "coll/exact", "greedy/exact", "exact s",
            ],
            rows,
            title="Objective optimality gap at the paper's scale",
        ),
    )
    collective_ratios = [row[6] for row in rows]
    greedy_ratios = [row[7] for row in rows]
    assert all(r >= 1.0 - 1e-9 for r in collective_ratios)  # exact is a lower bound
    assert mean(collective_ratios) <= 1.05  # within 5% of optimal on average
    assert mean(collective_ratios) <= mean(greedy_ratios) + 1e-9
