"""Ablation: Section III-C problem reductions.

Measures how much the certain-unexplained / useless-candidate reductions
shrink the problem (facts, candidates, groundings) and the exact-solver
speedup they buy, while provably preserving the optimal value.
"""

import time

from benchmarks._common import record_result

from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.exact import solve_milp
from repro.selection.preprocess import preprocess

SEEDS = (1, 2, 3)


def _reduction_rows():
    rows = []
    for seed in SEEDS:
        scenario = generate_scenario(
            ScenarioConfig(
                num_primitives=4, rows_per_relation=10, pi_corresp=100, seed=seed
            )
        )
        problem = scenario.selection_problem()

        start = time.perf_counter()
        full_opt = solve_milp(problem)
        full_seconds = time.perf_counter() - start

        reduction = preprocess(problem)
        start = time.perf_counter()
        reduced_opt = solve_milp(reduction.problem)
        reduced_seconds = time.perf_counter() - start

        assert reduced_opt.objective + reduction.objective_offset == full_opt.objective
        rows.append(
            [
                seed,
                len(problem.j_facts),
                len(reduction.problem.j_facts),
                problem.num_candidates,
                reduction.problem.num_candidates,
                full_seconds,
                reduced_seconds,
            ]
        )
    return rows


def test_ablation_preprocessing_reductions(benchmark):
    rows = benchmark.pedantic(_reduction_rows, rounds=1, iterations=1)
    record_result(
        "ablation_preprocess",
        format_table(
            ["seed", "|J|", "|J| red.", "|C|", "|C| red.", "sec full", "sec red."],
            rows,
            title="Ablation: Section III-C reductions (optimum provably preserved)",
        ),
    )
    # The useless-candidate reduction fires: spurious candidates generated
    # from random correspondences cover nothing when no unexplained-tuple
    # noise was injected, so preprocessing removes them...
    assert all(row[4] < row[3] for row in rows)
    # ...which never slows the exact solver down materially.
    assert sum(row[6] for row in rows) <= sum(row[5] for row in rows) * 1.2
