"""Experiment harness: run every selection method on a scenario and score it.

One :class:`MethodRun` row per (scenario, method) pair carries the data-
and mapping-level quality plus the objective value and wall time — the
exact columns the paper's evaluation figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from repro.evaluation.metrics import PrecisionRecall, mapping_quality
from repro.ibench.scenario import Scenario
from repro.selection.baselines import select_all
from repro.selection.collective import solve_collective
from repro.selection.exact import SelectionResult, solve_milp
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import SelectionProblem

Solver = Callable[[SelectionProblem], SelectionResult]

DEFAULT_METHODS: dict[str, Solver] = {
    "collective": solve_collective,
    "greedy": solve_greedy,
    "all-candidates": select_all,
}


@dataclass(frozen=True)
class MethodRun:
    """Outcome of one selection method on one scenario."""

    method: str
    selected: frozenset[int]
    objective: Fraction
    data: PrecisionRecall
    mapping: PrecisionRecall
    seconds: float

    def row(self) -> str:
        return (
            f"{self.method:<16} F1={self.data.f1:.3f} "
            f"(P={self.data.precision:.3f} R={self.data.recall:.3f}) "
            f"mapF1={self.mapping.f1:.3f} F={float(self.objective):.2f} "
            f"|M|={len(self.selected)} t={self.seconds:.2f}s"
        )


def run_methods(
    scenario: Scenario,
    methods: Mapping[str, Solver] | None = None,
    problem: SelectionProblem | None = None,
    include_gold: bool = True,
) -> list[MethodRun]:
    """Score each method on *scenario*; optionally add the gold reference row.

    A thin wrapper over :func:`repro.evaluation.engine.run_scenario` — use
    :class:`repro.evaluation.engine.EvaluationEngine` directly for grids,
    caching, parallel execution, and per-cell timing breakdowns.
    """
    from repro.evaluation.engine import run_scenario

    methods = dict(methods if methods is not None else DEFAULT_METHODS)
    cells = run_scenario(
        scenario, methods, problem=problem, include_gold=include_gold
    )
    return [cell.run for cell in cells]


def exact_method(problem: SelectionProblem) -> SelectionResult:
    """The provably optimal solver, exposed with the harness signature."""
    return solve_milp(problem)


def score_selection(
    scenario: Scenario,
    problem: SelectionProblem,
    name: str,
    selected: frozenset[int],
    objective: Fraction,
    seconds: float,
) -> MethodRun:
    """Quality-score one method's selection against the scenario's gold.

    Data P/R is that of exchanging the *scenario's* source under the
    selected candidates — ``data_quality(scenario.source, tgds,
    scenario.reference_target)``, read from :meth:`Scenario.score_index`
    instead of re-chasing.  A problem built over an edited copy of the
    source is still scored against the scenario's source.
    """
    return MethodRun(
        method=name,
        selected=selected,
        objective=objective,
        data=scenario.score_index().precision_recall(problem, sorted(selected)),
        mapping=mapping_quality(selected, scenario.gold_indices),
        seconds=seconds,
    )
