"""The scenario-evaluation engine: (scenario × method × seed) grids.

The paper's evaluation — and every figure/table benchmark in this repo —
is a sweep: generate a scenario per (noise level, seed), build its
selection problem, run each selection method, score the result.  The
engine turns that single-shot loop into a reusable, parallelizable grid
runner:

* **work units** — one :class:`ConfigCells` job per scenario config runs
  every requested method on that scenario.  Jobs are picklable and
  independent, so they run serially in the calling process or on one
  ``ProcessPoolExecutor`` per grid run (``executor="process[:N]"``) —
  grid cells are the only parallel work in the pipeline;
* **scenario caching** — scenarios and their
  :class:`~repro.selection.metrics.SelectionProblem` tables are memoized
  per process, so a config appearing in several grids is generated and
  chased once;
* **ground once per problem** — the collective method's HL-MRF comes
  from the per-process
  :data:`~repro.selection.collective.GROUNDING_CACHE`, so a weight
  sweep's cells of one seed reweight one grounding;
* **per-cell timing** — every :class:`GridCell` records scenario
  generation, problem build, and solve time separately;
* **cold cells** — every cell solves cold, so no cell's answer depends
  on which cells ran before it or on which process ran it.

:func:`repro.evaluation.harness.run_methods`, the CLI ``sweep``/``select``
commands, and :mod:`benchmarks.sweeps` all sit on top of this module.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

from repro.errors import ReproError
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.scenario import Scenario
from repro.selection.baselines import select_all, solve_independent
from repro.selection.collective import CollectiveSettings, solve_collective
from repro.selection.exact import SelectionResult, solve_milp
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import SelectionProblem
from repro.selection.objective import ObjectiveWeights

Solver = Callable[[SelectionProblem], SelectionResult]

#: Every selection method the engine can run by name.  Values are
#: module-level callables, so the registry survives pickling into workers.
METHOD_REGISTRY: dict[str, Solver] = {
    "collective": solve_collective,
    "greedy": solve_greedy,
    "all-candidates": select_all,
    "exact": solve_milp,
    "independent": solve_independent,
}

#: The methods the paper's figures sweep over, in column order.
DEFAULT_GRID_METHODS = ("collective", "greedy", "all-candidates")


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock breakdown of one grid cell.

    Generation and problem-build time are attributed to the first cell
    that needed the scenario; cells served from the cache report 0.0.
    """

    generate_seconds: float
    problem_seconds: float
    solve_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.generate_seconds + self.problem_seconds + self.solve_seconds


@dataclass(frozen=True)
class GridCell:
    """One (scenario config, method) evaluation outcome."""

    config: ScenarioConfig
    method: str
    run: "MethodRun"
    timing: CellTiming


class ScenarioCache:
    """Memoizes scenarios and their selection problems by config.

    One instance lives in each worker process (module-level singleton) and
    one in the driving process, so repeated grid points never re-chase.
    """

    def __init__(self):
        self._scenarios: dict[ScenarioConfig, tuple[Scenario, float]] = {}
        self._problems: dict[ScenarioConfig, tuple[SelectionProblem, float]] = {}

    def scenario(self, config: ScenarioConfig) -> tuple[Scenario, float]:
        """The scenario for *config* plus the seconds spent generating it
        (0.0 on a cache hit)."""
        hit = self._scenarios.get(config)
        if hit is not None:
            return hit[0], 0.0
        start = time.perf_counter()
        scenario = generate_scenario(config)
        elapsed = time.perf_counter() - start
        self._scenarios[config] = (scenario, elapsed)
        return scenario, elapsed

    def problem(self, config: ScenarioConfig) -> tuple[SelectionProblem, float]:
        """The selection problem for *config* plus build seconds (0.0 on hit)."""
        hit = self._problems.get(config)
        if hit is not None:
            return hit[0], 0.0
        scenario, _ = self.scenario(config)
        start = time.perf_counter()
        problem = scenario.selection_problem()
        elapsed = time.perf_counter() - start
        self._problems[config] = (problem, elapsed)
        return problem, elapsed

    def clear(self) -> None:
        """Drop every memoized scenario and problem."""
        self._scenarios.clear()
        self._problems.clear()


#: Per-process cache used by worker-side jobs.
_PROCESS_CACHE = ScenarioCache()


@dataclass(frozen=True)
class ConfigCells:
    """A picklable work unit: run *methods* on the scenario of *config*.

    ``collective_settings`` configures the collective solver (weights,
    ADMM settings…) wherever the unit runs.
    """

    config: ScenarioConfig
    methods: tuple[str, ...]
    include_gold: bool = False
    collective_settings: CollectiveSettings | None = None

    def __call__(self) -> list[GridCell]:
        return evaluate_config_cells(self)


def run_scenario(
    scenario: Scenario,
    methods: Mapping[str, Solver],
    problem: SelectionProblem | None = None,
    include_gold: bool = True,
    config: ScenarioConfig | None = None,
    generate_seconds: float = 0.0,
    problem_seconds: float = 0.0,
) -> list[GridCell]:
    """Run each solver in *methods* on one prepared scenario.

    The engine-level primitive under both the config-grid path and
    :func:`repro.evaluation.harness.run_methods` — any name→solver mapping
    works, including stateful solver instances.
    """
    from repro.evaluation.harness import score_selection

    config = config if config is not None else scenario.config
    if problem is None:
        start = time.perf_counter()
        problem = scenario.selection_problem()
        problem_seconds += time.perf_counter() - start

    cells: list[GridCell] = []
    for method, solver in methods.items():
        start = time.perf_counter()
        result = solver(problem)
        solve_seconds = time.perf_counter() - start
        run = score_selection(
            scenario, problem, method, result.selected, result.objective, solve_seconds
        )
        cells.append(
            GridCell(
                config=config,
                method=method,
                run=run,
                timing=CellTiming(generate_seconds, problem_seconds, solve_seconds),
            )
        )
        # Only the first cell of a scenario pays the shared build costs.
        generate_seconds = problem_seconds = 0.0

    if include_gold:
        from repro.selection.objective import objective_evaluator

        gold = frozenset(scenario.gold_indices)
        run = score_selection(
            scenario, problem, "gold", gold, objective_evaluator(problem)(gold), 0.0
        )
        cells.append(
            GridCell(
                config=config,
                method="gold",
                run=run,
                timing=CellTiming(generate_seconds, problem_seconds, 0.0),
            )
        )
    return cells


def evaluate_config_cells(
    work: ConfigCells, cache: ScenarioCache | None = None
) -> list[GridCell]:
    """Evaluate one config's cells (the worker-side entry point)."""
    cache = cache if cache is not None else _PROCESS_CACHE
    unknown = [m for m in work.methods if m not in METHOD_REGISTRY]
    if unknown:
        raise ReproError(f"unknown methods {unknown}; known: {sorted(METHOD_REGISTRY)}")
    scenario, generate_seconds = cache.scenario(work.config)
    problem, problem_seconds = cache.problem(work.config)
    methods = {m: METHOD_REGISTRY[m] for m in work.methods}
    if "collective" in methods and work.collective_settings is not None:
        methods["collective"] = partial(
            solve_collective, settings=work.collective_settings
        )
    return run_scenario(
        scenario,
        methods,
        problem=problem,
        include_gold=work.include_gold,
        config=work.config,
        generate_seconds=generate_seconds,
        problem_seconds=problem_seconds,
    )


def _run_work_unit(work: ConfigCells) -> list[GridCell]:
    """Module-level adapter so the process pool can pickle the job."""
    return evaluate_config_cells(work)


@dataclass
class GridResult:
    """All cells of a grid run, with structured accessors."""

    cells: list[GridCell] = field(default_factory=list)

    def by_method(self, method: str) -> list[GridCell]:
        return [c for c in self.cells if c.method == method]

    def for_config(self, config: ScenarioConfig) -> list[GridCell]:
        return [c for c in self.cells if c.config == config]

    def methods(self) -> list[str]:
        seen: dict[str, None] = {}
        for c in self.cells:
            seen.setdefault(c.method, None)
        return list(seen)

    @property
    def total_seconds(self) -> float:
        return sum(c.timing.total_seconds for c in self.cells)


def parse_executor_spec(spec: str | None) -> int | None:
    """The worker count of an engine executor spec; ``None`` means serial.

    Accepts ``None``/``"serial"`` and ``"process"``/``"process:N"`` with
    ``N >= 1`` (bare ``"process"`` uses the CPU count); anything else
    raises :class:`~repro.errors.ReproError`.
    """
    if spec is None or spec == "serial":
        return None
    if not isinstance(spec, str):
        raise ReproError(f"cannot interpret {spec!r} as an executor spec")
    name, colon, arg = spec.partition(":")
    if name != "process":
        raise ReproError(
            f"unknown executor spec {spec!r} (use 'serial' or 'process[:N]')"
        )
    if not colon:
        return os.cpu_count() or 1
    try:
        workers = int(arg)
    except ValueError:
        raise ReproError(f"bad worker count in executor spec {spec!r}") from None
    if workers < 1:
        raise ReproError(f"worker count must be >= 1 in {spec!r}")
    return workers


class EvaluationEngine:
    """Runs (scenario × method × seed) grids, serially or on a process pool.

    Args:
        methods: method names to run per scenario (registry keys);
            defaults to the paper's sweep columns.
        executor: where config jobs run — ``None``/``"serial"`` (default)
            for the calling process, or ``"process[:N]"`` for a pool of
            *N* worker processes (default: the CPU count) opened per
            grid run and shut down before it returns.  Anything else
            raises :class:`~repro.errors.ReproError`.
        include_gold: add the gold-reference row per scenario.
        cache: scenario cache for the serial path; defaults to a fresh
            private cache.
    """

    def __init__(
        self,
        methods: Sequence[str] | None = None,
        executor: str | None = None,
        include_gold: bool = True,
        cache: ScenarioCache | None = None,
    ):
        self.methods = tuple(methods if methods is not None else DEFAULT_GRID_METHODS)
        self.workers = parse_executor_spec(executor)
        self.include_gold = include_gold
        self.cache = cache if cache is not None else ScenarioCache()

    def run_grid(self, configs: Sequence[ScenarioConfig]) -> GridResult:
        """Evaluate every config; cells come back in (config, method) order."""
        jobs = [
            ConfigCells(config, self.methods, include_gold=self.include_gold)
            for config in configs
        ]
        cells = [cell for group in self._execute_jobs(jobs) for cell in group]
        return GridResult(cells)

    def _execute_jobs(self, jobs: Sequence[ConfigCells]) -> list[list[GridCell]]:
        """Each job's cells, in job order."""
        if self.workers is None:
            return [evaluate_config_cells(job, cache=self.cache) for job in jobs]
        # One pool per grid run: the ``with`` block shuts it down (and
        # joins its workers) before returning, even when a cell raises.
        # The platform's default start method is kept on purpose: spawn
        # re-imports the package in every worker and made an 8-primitive
        # sweep about 0.8 s slower on 2 CPUs.
        with ProcessPoolExecutor(self.workers) as pool:
            return list(pool.map(_run_work_unit, jobs))

    def sweep(
        self,
        base: ScenarioConfig,
        noise: str,
        levels: Sequence[float],
        seeds: Sequence[int],
    ) -> "SweepResult":
        """Run the paper's quality-vs-noise grid and aggregate per level."""
        if noise not in ("pi_corresp", "pi_errors", "pi_unexplained"):
            raise ReproError(f"unknown noise parameter {noise!r}")
        configs = [
            replace(base, seed=seed, **{noise: float(level)})
            for level in levels
            for seed in seeds
        ]
        result = self.run_grid(configs)
        return SweepResult(
            noise=noise,
            levels=tuple(float(level) for level in levels),
            seeds=tuple(seeds),
            grid=result,
        )

    def weight_sweep(
        self,
        base: ScenarioConfig,
        weight_grid: Sequence["ObjectiveWeights"],
        seeds: Sequence[int],
    ) -> "WeightSweepResult":
        """Sweep the objective weights on a *fixed* scenario structure.

        Every cell of one seed re-solves the **same** selection problem
        under different :class:`~repro.selection.objective.
        ObjectiveWeights`.  The scenario/problem come from the scenario
        cache and the collective method's grounding from the per-process
        :data:`~repro.selection.collective.GROUNDING_CACHE`.  Jobs run
        seed-major, so after a seed's first cell each further cell only
        *reweights* the cached ground structure and re-solves cold — no
        re-generation, no re-chase, no re-ground.  Results are
        bit-identical to grounding each cell from scratch, and the
        returned cells are weight-setting-major (see
        :class:`WeightSweepResult`).

        Note the gold reference row (``include_gold``) is scored at the
        default objective weights, like everywhere else in the engine.
        """
        # Seed-major, so the grounding cache holds each seed's problem
        # while all of its weight settings run.
        order = [(w, s) for s in range(len(seeds)) for w in range(len(weight_grid))]
        jobs = [
            ConfigCells(
                replace(base, seed=seeds[s]),
                self.methods,
                include_gold=self.include_gold,
                collective_settings=CollectiveSettings(weights=weight_grid[w]),
            )
            for w, s in order
        ]
        by_job = dict(zip(order, self._execute_jobs(jobs)))
        cells = [
            cell
            for w in range(len(weight_grid))
            for s in range(len(seeds))
            for cell in by_job[w, s]
        ]
        return WeightSweepResult(
            weight_grid=tuple(weight_grid),
            seeds=tuple(seeds),
            cells_per_job=len(self.methods) + int(self.include_gold),
            grid=GridResult(cells),
        )


@dataclass
class SweepResult:
    """A noise sweep's cells plus figure-ready aggregation."""

    noise: str
    levels: tuple[float, ...]
    seeds: tuple[int, ...]
    grid: GridResult

    def mean_f1_rows(self, methods: Sequence[str] | None = None) -> list[list[float]]:
        """``[level, mean data-F1 per method...]`` rows, sweep order."""
        from repro.evaluation.reporting import mean

        methods = list(methods if methods is not None else self.grid.methods())
        rows = []
        for level in self.levels:
            per_method: dict[str, list[float]] = {m: [] for m in methods}
            for cell in self.grid.cells:
                if getattr(cell.config, self.noise) == level and cell.method in per_method:
                    per_method[cell.method].append(cell.run.data.f1)
            rows.append([level] + [mean(per_method[m]) for m in methods])
        return rows


def weights_label(weights: ObjectiveWeights) -> str:
    """Compact ``explains/errors/size`` rendering for table rows."""
    return (
        f"{float(weights.explains):g}/{float(weights.errors):g}/"
        f"{float(weights.size):g}"
    )


@dataclass
class WeightSweepResult:
    """A weight sweep's cells plus per-weight-setting aggregation.

    The grid holds ``cells_per_job`` consecutive cells per (weight
    setting × seed) job, weight-setting-major (the engine runs the jobs
    seed-major and reorders them), which is what :meth:`cells_by_weight`
    slices on (scenario configs alone
    cannot distinguish weight settings: the whole point of the sweep is
    that the scenario is fixed).
    """

    weight_grid: tuple[ObjectiveWeights, ...]
    seeds: tuple[int, ...]
    cells_per_job: int
    grid: GridResult

    def cells_by_weight(self) -> list[tuple[ObjectiveWeights, list[GridCell]]]:
        """All cells grouped per weight setting, sweep order."""
        per_weight = len(self.seeds) * self.cells_per_job
        groups = []
        for w_idx, weights in enumerate(self.weight_grid):
            lo = w_idx * per_weight
            groups.append((weights, self.grid.cells[lo : lo + per_weight]))
        return groups

    def mean_f1_rows(self, methods: Sequence[str] | None = None) -> list[list]:
        """``[weights label, mean data-F1 per method...]`` rows."""
        from repro.evaluation.reporting import mean

        methods = list(methods if methods is not None else self.grid.methods())
        rows = []
        for weights, cells in self.cells_by_weight():
            per_method: dict[str, list[float]] = {m: [] for m in methods}
            for cell in cells:
                if cell.method in per_method:
                    per_method[cell.method].append(cell.run.data.f1)
            rows.append(
                [weights_label(weights)] + [mean(per_method[m]) for m in methods]
            )
        return rows
