"""Benchmark: the scenario-evaluation engine's grid runner.

The :class:`~repro.evaluation.engine.EvaluationEngine` runs a
(scenario x method x seed) grid with per-cell timing and scenario
caching, so re-running a grid is near-free: the cached rerun reports
zero generate and build time for every cell.
"""

from __future__ import annotations

import time

from benchmarks._common import record_result

from repro.evaluation.engine import EvaluationEngine
from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig


def test_engine_grid_with_caching(benchmark):
    base = ScenarioConfig(num_primitives=3, rows_per_relation=8)
    engine = EvaluationEngine()

    def grid():
        return engine.sweep(base, "pi_corresp", levels=(0, 50), seeds=(1, 2))

    sweep = benchmark.pedantic(grid, rounds=1, iterations=1)
    cold_seconds = benchmark.stats.stats.mean

    # Second run hits the scenario/problem cache: only solve time remains.
    start = time.perf_counter()
    warm = grid()
    warm_seconds = time.perf_counter() - start
    assert all(
        cell.timing.generate_seconds == 0.0 and cell.timing.problem_seconds == 0.0
        for cell in warm.grid.cells
    )

    rows = [
        [
            getattr(cell.config, "pi_corresp"),
            cell.config.seed,
            cell.method,
            cell.timing.generate_seconds,
            cell.timing.problem_seconds,
            cell.timing.solve_seconds,
        ]
        for cell in sweep.grid.cells
    ]
    table = format_table(
        ["pi_corresp", "seed", "method", "gen s", "build s", "solve s"],
        rows,
        title=(
            f"engine grid cells (cold {cold_seconds:.2f}s, cached rerun "
            f"{warm_seconds:.2f}s)"
        ),
    )
    record_result("parallel_engine_grid", table)
    assert len(sweep.grid.cells) == 2 * 2 * 4  # levels x seeds x (3 methods + gold)
