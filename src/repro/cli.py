"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — create an iBench-style scenario and write it as JSON;
* ``select``   — load a scenario JSON, run a selection method, report quality;
* ``sweep``    — quality-vs-noise sweep printed as a table;
* ``weight-sweep`` — objective-weight sweep on a fixed scenario (the
  ground-once/reweight-many path: one grounding per seed, every further
  cell reweights and re-solves cold);
* ``chain``    — replay a tuple-edit mutation chain with incremental
  (delta) grounding (docs/incremental.md): each revision patches the
  previous one's compiled structure instead of re-grounding;
* ``demo``     — the paper's running example with its appendix objective table.

A library error (:class:`~repro.errors.ReproError`) or an I/O error in
any command prints ``repro <command>: error: <message>`` on stderr and
exits 2 instead of raising a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from repro.errors import ReproError
from repro.evaluation.engine import (
    DEFAULT_GRID_METHODS,
    METHOD_REGISTRY,
    EvaluationEngine,
    run_scenario,
)
from repro.evaluation.reporting import format_table
from repro.ibench.config import ALL_PRIMITIVES, ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.io.serialize import load_scenario, save_scenario
from repro.selection.objective import ObjectiveWeights


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _weight_triple(spec: str) -> ObjectiveWeights:
    """An ``explains,errors,size`` triple of non-negative rationals."""
    parts = spec.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"bad weight setting {spec!r}: expected explains,errors,size"
        )
    try:
        return ObjectiveWeights(*(Fraction(p.strip()) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad weight setting {spec!r}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Collective, probabilistic schema-mapping selection (ICDE 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a scenario and write JSON")
    generate.add_argument("output", help="path of the scenario JSON to write")
    generate.add_argument("--primitives", type=int, default=4)
    generate.add_argument(
        "--kinds", nargs="+", default=list(ALL_PRIMITIVES), choices=ALL_PRIMITIVES
    )
    generate.add_argument("--rows", type=int, default=12)
    generate.add_argument("--pi-corresp", type=float, default=0.0)
    generate.add_argument("--pi-errors", type=float, default=0.0)
    generate.add_argument("--pi-unexplained", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)

    select = sub.add_parser("select", help="run selection methods on a scenario JSON")
    select.add_argument("scenario", help="path of a scenario JSON")
    select.add_argument(
        "--method",
        choices=[*METHOD_REGISTRY, "all"],
        default="all",
    )

    sweep = sub.add_parser("sweep", help="quality-vs-noise sweep")
    sweep.add_argument(
        "--noise",
        choices=["pi_corresp", "pi_errors", "pi_unexplained"],
        default="pi_corresp",
    )
    sweep.add_argument("--primitives", type=int, default=4)
    sweep.add_argument("--rows", type=int, default=12)
    sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    sweep.add_argument("--levels", type=float, nargs="+", default=[0, 25, 50, 75, 100])
    sweep.add_argument(
        "--executor",
        default="serial",
        help="where grid cells run: serial or process[:N] (one worker "
        "pool per grid run)",
    )
    sweep.add_argument(
        "--timing",
        action="store_true",
        help="also print the per-cell timing breakdown",
    )

    weight_sweep = sub.add_parser(
        "weight-sweep",
        help="objective-weight sweep on a fixed scenario (reweight + re-solve, "
        "one grounding per seed)",
    )
    weight_sweep.add_argument("--primitives", type=int, default=4)
    weight_sweep.add_argument("--rows", type=int, default=12)
    weight_sweep.add_argument("--pi-corresp", type=float, default=25.0)
    weight_sweep.add_argument("--pi-errors", type=float, default=25.0)
    weight_sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    weight_sweep.add_argument(
        "--grid",
        type=_weight_triple,
        nargs="+",
        default=[_weight_triple(t) for t in ("1,1,1", "2,1,1", "1,2,1", "1,1,2")],
        help="weight settings as explains,errors,size triples "
        "(fractions or decimals, e.g. 1,1/2,0.25)",
    )
    weight_sweep.add_argument(
        "--executor",
        default="serial",
        help="where grid cells run: serial or process[:N] (one worker "
        "pool per grid run)",
    )
    weight_sweep.add_argument(
        "--timing",
        action="store_true",
        help="also print the per-cell timing breakdown",
    )

    chain = sub.add_parser(
        "chain",
        help="replay a mutation chain with incremental (delta) grounding: "
        "generate a scenario, edit a few tuples per step, solve every "
        "revision, report how much grounding each step reused",
    )
    chain.add_argument("--primitives", type=int, default=4)
    chain.add_argument("--rows", type=int, default=12)
    chain.add_argument("--seed", type=int, default=0)
    chain.add_argument(
        "--steps", type=_non_negative_int, default=6, help="mutations to replay"
    )
    chain.add_argument(
        "--no-incremental",
        action="store_true",
        help="replay the same chain with full re-grounds (for comparison)",
    )

    sub.add_parser("demo", help="the paper's running example")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        num_primitives=args.primitives,
        primitive_kinds=tuple(args.kinds),
        rows_per_relation=args.rows,
        pi_corresp=args.pi_corresp,
        pi_errors=args.pi_errors,
        pi_unexplained=args.pi_unexplained,
        seed=args.seed,
    )
    scenario = generate_scenario(config)
    save_scenario(scenario, args.output)
    print(f"wrote {args.output}: {scenario.summary()}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    import time

    scenario = load_scenario(args.scenario)
    names = list(METHOD_REGISTRY) if args.method == "all" else [args.method]
    methods = {name: METHOD_REGISTRY[name] for name in names}
    start = time.perf_counter()
    problem = scenario.selection_problem()
    problem_seconds = time.perf_counter() - start
    cells = run_scenario(
        scenario,
        methods,
        problem=problem,
        problem_seconds=problem_seconds,
    )
    print(scenario.summary())
    print(
        format_table(
            ["method", "data F1", "map F1", "objective", "|M|", "sec"],
            [
                [
                    c.method,
                    c.run.data.f1,
                    c.run.mapping.f1,
                    float(c.run.objective),
                    len(c.run.selected),
                    c.run.seconds,
                ]
                for c in cells
            ],
        )
    )
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    import time

    from repro.ibench.mutations import (
        AddTargetTuple,
        RemoveTargetTuple,
        mutation_chain,
    )
    from repro.selection.collective import (
        CollectiveGroundingCache,
        CollectiveSettings,
        solve_collective,
    )

    config = ScenarioConfig(
        num_primitives=args.primitives,
        rows_per_relation=args.rows,
        seed=args.seed,
    )
    scenario = generate_scenario(config)
    # Remove a target tuple, re-add it, repeat over a small pool.  A
    # target edit re-grounds the coverage block; the patch reuses
    # whichever of the shared-error and prior blocks it leaves unchanged.
    j_facts = sorted(scenario.target, key=repr)
    pool = j_facts[-max(2, min(4, len(j_facts))):]
    mutations = []
    for step in range(args.steps):
        f = pool[(step // 2) % len(pool)]
        mutations.append(
            RemoveTargetTuple(f) if step % 2 == 0 else AddTargetTuple(f)
        )
    settings = CollectiveSettings(incremental=not args.no_incremental)
    cache = CollectiveGroundingCache()
    rows = []
    for mutation, problem in mutation_chain(
        scenario.source, scenario.target, scenario.candidates, mutations
    ):
        start = time.perf_counter()
        grounded = cache.grounded(problem, settings)
        ground_seconds = time.perf_counter() - start
        result = solve_collective(problem, settings, grounded=grounded)
        stats = grounded.splice_stats
        rows.append(
            [
                "base" if mutation is None else type(mutation).__name__,
                "-" if stats is None else f"{stats.reused_shards}/{stats.num_shards}",
                "-" if stats is None else round(stats.reuse_fraction, 3),
                round(ground_seconds, 4),
                float(result.objective),
            ]
        )
    print(scenario.summary())
    print(
        format_table(
            ["edit", "blocks reused", "term reuse", "ground s", "objective"],
            rows,
            title=(
                "mutation chain "
                f"(incremental={'off' if args.no_incremental else 'on'}, "
                f"patched {cache.patch_hits}/{cache.misses} misses)"
            ),
        )
    )
    cache.clear()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = ScenarioConfig(num_primitives=args.primitives, rows_per_relation=args.rows)
    engine = EvaluationEngine(
        methods=DEFAULT_GRID_METHODS,
        executor=args.executor,
    )
    sweep = engine.sweep(base, args.noise, args.levels, args.seeds)
    columns = [*DEFAULT_GRID_METHODS, "gold"]
    print(format_table([args.noise, *columns], sweep.mean_f1_rows(columns)))
    if args.timing:
        print()
        print(
            format_table(
                ["level", "seed", "method", "gen s", "build s", "solve s"],
                [
                    [
                        getattr(c.config, args.noise),
                        c.config.seed,
                        c.method,
                        c.timing.generate_seconds,
                        c.timing.problem_seconds,
                        c.timing.solve_seconds,
                    ]
                    for c in sweep.grid.cells
                ],
                title=f"cell timing (total {sweep.grid.total_seconds:.2f}s)",
            )
        )
    return 0


def _cmd_weight_sweep(args: argparse.Namespace) -> int:
    base = ScenarioConfig(
        num_primitives=args.primitives,
        rows_per_relation=args.rows,
        pi_corresp=args.pi_corresp,
        pi_errors=args.pi_errors,
    )
    engine = EvaluationEngine(methods=DEFAULT_GRID_METHODS, executor=args.executor)
    sweep = engine.weight_sweep(base, args.grid, args.seeds)
    columns = [*DEFAULT_GRID_METHODS, "gold"]
    print(
        format_table(
            ["explains/errors/size", *columns],
            sweep.mean_f1_rows(columns),
            title="mean data F1 per objective-weight setting",
        )
    )
    if args.timing:
        print()
        rows = []
        for weights, cells in sweep.cells_by_weight():
            from repro.evaluation.engine import weights_label

            for c in cells:
                rows.append(
                    [
                        weights_label(weights),
                        c.config.seed,
                        c.method,
                        c.timing.generate_seconds,
                        c.timing.problem_seconds,
                        c.timing.solve_seconds,
                    ]
                )
        print(
            format_table(
                ["weights", "seed", "method", "gen s", "build s", "solve s"],
                rows,
                title=f"cell timing (total {sweep.grid.total_seconds:.2f}s)",
            )
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.examples_data import paper_example
    from repro.selection.collective import solve_collective
    from repro.selection.metrics import build_selection_problem
    from repro.selection.objective import objective_breakdown

    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    rows = []
    for label, selected in [("{}", []), ("{t1}", [0]), ("{t3}", [1]), ("{t1,t3}", [0, 1])]:
        b = objective_breakdown(problem, selected)
        rows.append([label, str(b.unexplained), str(b.errors), str(b.size), str(b.total)])
    print(
        format_table(
            ["M", "sum 1-explains", "sum error", "size", "Eq.(9)"],
            rows,
            title="Appendix Section I objective table",
        )
    )
    result = solve_collective(problem)
    print(f"\ncollective selection: {sorted(result.selected) or '{}'} F={result.objective}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "select": _cmd_select,
    "sweep": _cmd_sweep,
    "weight-sweep": _cmd_weight_sweep,
    "chain": _cmd_chain,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # ``repro sweep | head`` and friends: a pipe closed by the
        # downstream reader is normal usage, not a traceback.  Point
        # stdout at devnull so interpreter shutdown does not re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
