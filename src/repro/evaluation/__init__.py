"""Evaluation: quality metrics, experiment harness, grid engine, reporting."""

from repro.evaluation.engine import (
    DEFAULT_GRID_METHODS,
    METHOD_REGISTRY,
    CellTiming,
    EvaluationEngine,
    GridCell,
    GridResult,
    ScenarioCache,
    SweepResult,
    WeightSweepResult,
    run_scenario,
)
from repro.evaluation.harness import MethodRun, run_methods
from repro.evaluation.metrics import (
    PrecisionRecall,
    data_quality,
    instance_precision_recall,
    mapping_quality,
)
from repro.evaluation.reporting import format_table, mean

__all__ = [
    "DEFAULT_GRID_METHODS",
    "METHOD_REGISTRY",
    "CellTiming",
    "EvaluationEngine",
    "GridCell",
    "GridResult",
    "MethodRun",
    "PrecisionRecall",
    "ScenarioCache",
    "SweepResult",
    "WeightSweepResult",
    "data_quality",
    "format_table",
    "instance_precision_recall",
    "mapping_quality",
    "mean",
    "run_methods",
    "run_scenario",
]
