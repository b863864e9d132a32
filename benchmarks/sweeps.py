"""Shared sweep machinery for the quality-vs-noise figures.

Since the engine refactor this is a thin shim over
:class:`repro.evaluation.engine.EvaluationEngine`: the engine caches
scenarios, solves every sweep point cold, and can fan grid cells out
over a process pool; this module keeps the figure-facing
``(rows, table_text)`` contract the bench files consume.
"""

from __future__ import annotations

from repro.evaluation.engine import EvaluationEngine
from repro.evaluation.reporting import format_table, series_block
from repro.ibench.config import ScenarioConfig

METHOD_COLUMNS = ("collective", "greedy", "all-candidates", "gold")
LEVELS = (0, 25, 50, 75, 100)
SEEDS = (1, 2)

BASE_CONFIG = ScenarioConfig(num_primitives=4, rows_per_relation=12)


def noise_sweep(noise_parameter: str, base: ScenarioConfig = BASE_CONFIG):
    """Mean data-level F1 per method, per noise level.

    Returns (rows, table_text); rows are [level, f1...] in METHOD_COLUMNS
    order.
    """
    engine = EvaluationEngine(methods=[m for m in METHOD_COLUMNS if m != "gold"])
    sweep = engine.sweep(base, noise_parameter, LEVELS, SEEDS)
    rows = sweep.mean_f1_rows(METHOD_COLUMNS)
    table = format_table(
        [noise_parameter, *METHOD_COLUMNS],
        rows,
        title=(
            f"Mean data F1 vs {noise_parameter} "
            f"({base.num_primitives} primitives, {len(SEEDS)} seeds)"
        ),
    )
    trends = series_block(
        f"F1 trend over {noise_parameter} in {list(LEVELS)}:",
        {m: column(rows, m) for m in METHOD_COLUMNS},
    )
    return rows, table + "\n\n" + trends


def column(rows, method: str) -> list[float]:
    """F1 series of one method across the sweep."""
    return [row[1 + METHOD_COLUMNS.index(method)] for row in rows]
