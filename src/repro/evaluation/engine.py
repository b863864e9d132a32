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
* **sharded grounding** — the collective method's HL-MRF compilation
  runs shard by shard
  (:func:`~repro.selection.collective.ground_collective`), with the
  shard granularity set by the engine's ``ground_shard_size`` knob;
* **per-cell timing** — every :class:`GridCell` records scenario
  generation, problem build, and solve time separately;
* **warm starting** — the collective method chains ADMM warm starts
  across the cells of a sweep lane (one lane per seed) via
  :class:`~repro.selection.collective.WarmStartedCollective`; serial
  runs keep one solver per lane, parallel runs execute the lanes as
  waves and ship each cell's chained state
  (:class:`~repro.selection.collective.CollectiveWarmPayload`) to the
  lane's next cell inside the work unit.

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
from repro.selection.collective import (
    CollectiveSettings,
    CollectiveWarmPayload,
    WarmStartedCollective,
    solve_collective,
)
from repro.selection.exact import SelectionResult, solve_milp
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import SelectionProblem, build_selection_problem
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
        problem = build_selection_problem(
            scenario.source, scenario.target, scenario.candidates
        )
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

    ``collective_settings`` configures the collective solver (grounding
    shard size, ADMM settings, weights…) wherever the unit runs.
    ``warm_payload`` carries the previous lane cell's chained collective
    warm-start state (fractional vectors + full ADMM state) into the
    executing process — the engine's wave scheduler sets it so
    process-pool grids warm-start exactly like serial ones.
    """

    config: ScenarioConfig
    methods: tuple[str, ...]
    include_gold: bool = False
    collective_settings: CollectiveSettings | None = None
    warm_payload: CollectiveWarmPayload | None = None

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
    work: ConfigCells,
    cache: ScenarioCache | None = None,
    solvers: Mapping[str, Solver] | None = None,
) -> list[GridCell]:
    """Evaluate one config's cells (the worker-side entry point).

    *solvers* overrides registry lookups per method name — the hook the
    serial path uses to substitute warm-started solver instances.
    """
    cache = cache if cache is not None else _PROCESS_CACHE
    unknown = [m for m in work.methods if m not in METHOD_REGISTRY]
    if unknown:
        raise ReproError(f"unknown methods {unknown}; known: {sorted(METHOD_REGISTRY)}")
    scenario, generate_seconds = cache.scenario(work.config)
    problem, problem_seconds = cache.problem(work.config)
    methods: dict[str, Solver] = {}
    for m in work.methods:
        solver = (solvers or {}).get(m)
        if solver is None:
            solver = METHOD_REGISTRY[m]
            if m == "collective" and work.collective_settings is not None:
                solver = partial(solve_collective, settings=work.collective_settings)
        methods[m] = solver
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


def _run_warm_work_unit(
    work: ConfigCells,
) -> tuple[list[GridCell], CollectiveWarmPayload | None]:
    """One lane step: run the cells warm-started from the shipped payload.

    Reconstructs a :class:`WarmStartedCollective` from the work unit's
    ``warm_payload``, runs the cells, and returns the solver's new
    payload (None after an unconverged solve — the chain-reset rule) so
    the engine can thread it into the lane's next wave.
    """
    solver = WarmStartedCollective(work.collective_settings, payload=work.warm_payload)
    cells = evaluate_config_cells(work, solvers={"collective": solver})
    return cells, solver.payload


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
        warm_start: chain ADMM warm starts for the collective method
            across a seed's cells.  Serial grids keep one
            :class:`WarmStartedCollective` per lane; parallel grids run
            the lanes as waves, shipping each cell's chained state to
            the next cell inside the work unit, so both paths produce
            the same warm-started solves.  Chaining is inherently
            sequential within a lane, so waves bound concurrency by the
            number of lanes (seeds) and pay one pool dispatch per
            wave — with few seeds and many workers, a cold grid
            (``warm_start=False``) exposes more parallelism at the cost
            of cold solves.
        cache: scenario cache for the serial path; defaults to a fresh
            private cache.
        ground_shard_size: entries per grounding shard (``None`` → the
            sharding default).
        incremental: incremental (delta) grounding for the collective
            method — on a cache miss for a problem carrying a
            :class:`~repro.selection.metrics.ProblemLineage`, patch the
            cached parent revision's compiled structure (re-ground only
            the shards the edit touched) instead of grounding from
            scratch.  ``True`` by default; ``False`` forces full
            re-grounds.
    """

    def __init__(
        self,
        methods: Sequence[str] | None = None,
        executor: str | None = None,
        include_gold: bool = True,
        warm_start: bool = True,
        cache: ScenarioCache | None = None,
        ground_shard_size: int | None = None,
        incremental: bool = True,
    ):
        self.methods = tuple(methods if methods is not None else DEFAULT_GRID_METHODS)
        self.workers = parse_executor_spec(executor)
        self.include_gold = include_gold
        self.warm_start = warm_start
        self.cache = cache if cache is not None else ScenarioCache()
        self.incremental = bool(incremental)
        self.collective_settings: CollectiveSettings | None = None
        if ground_shard_size is not None or not self.incremental:
            self.collective_settings = CollectiveSettings(
                ground_shard_size=ground_shard_size,
                incremental=self.incremental,
            )

    def run_grid(self, configs: Sequence[ScenarioConfig]) -> GridResult:
        """Evaluate every config; cells come back in (config, method) order."""
        jobs = [
            ConfigCells(
                config,
                self.methods,
                include_gold=self.include_gold,
                collective_settings=self.collective_settings,
            )
            for config in configs
        ]
        return GridResult(self._execute_jobs(jobs))

    def _execute_jobs(self, jobs: Sequence[ConfigCells]) -> list[GridCell]:
        if self.workers is None:
            return self._run_serial(jobs)
        # One pool per grid run: the ``with`` block shuts it down (and
        # joins its workers) before returning, even when a cell raises.
        # The platform's default start method is kept on purpose: spawn
        # re-imports the package in every worker and made an 8-primitive
        # sweep about 0.8 s slower on 2 CPUs.
        with ProcessPoolExecutor(self.workers) as pool:
            if self.warm_start and "collective" in self.methods:
                return self._run_waves(pool, jobs)
            nested = pool.map(_run_work_unit, jobs)
            return [cell for group in nested for cell in group]

    def _run_waves(
        self, pool: ProcessPoolExecutor, jobs: Sequence[ConfigCells]
    ) -> list[GridCell]:
        # Parallel grids with warm starts: cells of one lane (seed) must
        # run in order so each can chain the previous solve's state, but
        # lanes are independent — so run the grid as waves, one cell per
        # lane at a time, shipping each lane's CollectiveWarmPayload into
        # its next work unit.  Per-lane results are identical to the
        # serial path's because the payload *is* the chained state.
        lanes: dict[int, list[int]] = {}
        for position, job in enumerate(jobs):
            lanes.setdefault(job.config.seed, []).append(position)
        payloads: dict[int, CollectiveWarmPayload | None] = {}
        groups: list[list[GridCell] | None] = [None] * len(jobs)
        depth = max((len(positions) for positions in lanes.values()), default=0)
        for step in range(depth):
            wave = [
                (seed, positions[step])
                for seed, positions in lanes.items()
                if len(positions) > step
            ]
            wave_jobs = [
                replace(jobs[position], warm_payload=payloads.get(seed))
                for seed, position in wave
            ]
            results = pool.map(_run_warm_work_unit, wave_jobs)
            for (seed, position), (cells, payload) in zip(wave, results):
                groups[position] = cells
                payloads[seed] = payload
        return [cell for group in groups if group is not None for cell in group]

    def _run_serial(self, jobs: Sequence[ConfigCells]) -> list[GridCell]:
        # One warm-start lane per (method, seed): successive levels of a
        # sweep re-solve a near-identical relaxation, so the previous
        # fractional optimum is an excellent ADMM starting point.  Lanes
        # chain CollectiveWarmPayload batons (like the wave path) rather
        # than one long-lived solver instance, so per-job settings — a
        # weight sweep gives every cell its own weights — are honoured
        # cell by cell.
        lanes: dict[tuple[str, int], CollectiveWarmPayload | None] = {}
        cells: list[GridCell] = []
        for job in jobs:
            solvers: dict[str, Solver] = {}
            lane_solver: WarmStartedCollective | None = None
            key = ("collective", job.config.seed)
            if self.warm_start and "collective" in job.methods:
                lane_solver = WarmStartedCollective(
                    job.collective_settings, payload=lanes.get(key)
                )
                solvers["collective"] = lane_solver
            cells.extend(evaluate_config_cells(job, cache=self.cache, solvers=solvers))
            if lane_solver is not None:
                lanes[key] = lane_solver.payload
        return cells

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

        Every cell of one seed's lane re-solves the **same** selection
        problem under different :class:`~repro.selection.objective.
        ObjectiveWeights`.  The scenario/problem come from the scenario
        cache and the collective method's grounding from the per-process
        :data:`~repro.selection.collective.GROUNDING_CACHE`, so after a
        lane's first cell each further cell only *reweights* the cached
        ground structure and re-solves (warm-started, when enabled) —
        no re-generation, no re-chase, no re-ground.  Results are
        bit-identical to grounding each cell from scratch.

        Note the gold reference row (``include_gold``) is scored at the
        default objective weights, like everywhere else in the engine.
        """
        base_settings = (
            self.collective_settings
            if self.collective_settings is not None
            else CollectiveSettings()
        )
        jobs = [
            ConfigCells(
                replace(base, seed=seed),
                self.methods,
                include_gold=self.include_gold,
                collective_settings=replace(base_settings, weights=weights),
            )
            for weights in weight_grid
            for seed in seeds
        ]
        cells = self._execute_jobs(jobs)
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

    The grid's cells arrive in job order — ``cells_per_job`` consecutive
    cells per (weight setting × seed) job, weight-setting-major — which
    is what :meth:`cells_by_weight` slices on (scenario configs alone
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
