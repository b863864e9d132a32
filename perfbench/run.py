"""End-to-end pipeline benchmark: one client, closed loop, default settings.

Run from the repository root::

    python3 perfbench/run.py --workload select-p48 --seed 0 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same ops with every layer entry point wrapped (see
``layers.py``) and prints the per-layer metrics instead.  Times are
seconds at the reference host speed (see ``hostspeed.py``); the raw wall
seconds are printed too.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are for people.  Each run also writes the outcome
records and digest of its quality set to
``.perfbench_out/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Runs per set: the benchmark is judged on sets of ten runs, one per seed.
SET_RUNS = 10


@dataclass
class Pass:
    """What one pass over a workload's op plan measured.

    ``setup_s`` and ``durations`` are in reference seconds, ``raw_s``
    holds the ops' wall seconds.
    """

    setup_s: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    raw_s: list[float] = field(default_factory=list)
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    quality: list = field(default_factory=list)
    #: Inclusive span seconds of the traced set-up, by span name.
    setup_spans: dict = field(default_factory=dict)
    #: Reference ÷ wall seconds of the traced set-up.
    setup_scale: float = 1.0

    @property
    def digest(self) -> str:
        records = json.dumps([o.record for o in self.quality], sort_keys=True)
        return hashlib.sha256(records.encode()).hexdigest()


def run_pass(workload, seed, seconds, setups, probe, tracer=None) -> Pass:
    """Set up *setups* times, then run whole cycles of ops until
    *seconds* of wall time have gone into ops.

    *tracer* (if given) records the last set-up and every op, and
    nothing of the checks.
    """
    import workloads

    result = Pass()
    for i in range(setups):
        workloads.reset_caches()
        gc.collect()
        if tracer is not None and i == setups - 1:
            tracer.active = True
        start = time.perf_counter()
        state = workload.setup()
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        result.setup_s.append(probe.reference_seconds(start, end))
        result.setup_scale = result.setup_s[-1] / (end - start)
    if tracer is not None:
        result.setup_spans = dict(tracer.span_s)
        tracer.reset()

    plan = random.Random(f"{workload.name}:{seed}")
    while result.cycles == 0 or sum(result.raw_s) < seconds:
        for spec in workload.cycle(plan):
            result.attempted += 1
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                done = workload.run_op(state, spec)
            except Exception:
                done = None
                traceback.print_exc()
            end = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            result.raw_s.append(end - start)
            if done is None:
                result.failed += 1
                continue
            result.durations.append(probe.reference_seconds(start, end))
            try:
                outcome = workload.finish(state, spec, done)
            except Exception:
                traceback.print_exc()
                result.failed += 1
                continue
            if outcome.errors:
                result.failed += 1
                for error in outcome.errors:
                    print(f"check failed: {error}", file=sys.stderr)
            if result.cycles == 0:
                result.quality.append(outcome)
        result.cycles += 1
    return result


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, pooled
    over a set of :data:`SET_RUNS` runs; returns (seconds, percentile).

    Pooled over the set's runs of n ops each, the nearest-rank value at
    rank ``n - 10 / SET_RUNS`` of every run leaves ten samples beyond,
    so each run reports its own value at that rank and the set's median
    estimates the pooled one.
    """
    ordered = sorted(durations)
    rank = max(1, len(ordered) - 10 // SET_RUNS)
    return ordered[rank - 1], 100 * rank / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(p: Pass) -> tuple[dict, str]:
    tail_s, q = tail(p.durations)
    quality = p.quality
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_s_p50": metric(statistics.median(p.durations), "s"),
        "op_s_tail": metric(tail_s, "s"),
        "ops_per_s": metric(len(p.durations) / sum(p.durations), "1/s"),
        "setup_s": metric(statistics.median(p.setup_s), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "data_f1": metric(statistics.fmean(o.data_f1 for o in quality), "F1"),
        "map_f1": metric(statistics.fmean(o.map_f1 for o in quality), "F1"),
        "collective_objective": metric(float(sum(o.objective for o in quality)), "F"),
    }
    note = (f"op_s_tail is p{q:.4g} of n={len(p.durations)} ops "
            f"(n={SET_RUNS * len(p.durations)} pooled over a set)")
    return metrics, note


def per_layer_metrics(tracer, traced: Pass) -> dict:
    from layers import SHARE_LAYERS, overhead_seconds

    n = len(traced.durations)
    raw_total = sum(traced.raw_s)
    scale = sum(traced.durations) / raw_total  # reference ÷ wall seconds
    span, counts = tracer.span_s, tracer.counts

    def per_op(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    seconds = {
        "ibench.generate.s": span["ibench.generate"],
        "build.s": span["build"],
        "mutations.apply.s": span["mutations.apply"],
        "ground.s": span["ground"],
        "admm.s": span["admm"],
        "rounding.s": span["rounding"],
        "rounding.sweep.s": span["rounding.sweep"],
        "rounding.local.s": span["rounding.local"],
        "objective.s": span["objective"],
        "greedy.s": span["greedy"],
        "score.s": span["score"],
    }
    per_op_counts = (
        "build.candidates", "build.j_facts", "build.chase_facts",
        "mutations.rechased",
        "ground.memory_hits", "ground.patch_hits", "ground.disk_hits", "ground.fresh",
        "ground.terms", "admm.iterations", "rounding.objective_evals", "objective.calls",
    )
    metrics = {name: metric(per_op(value * scale), "s/op") for name, value in seconds.items()}
    for name in per_op_counts:
        metrics[name] = metric(per_op(counts[name]), "count/op")
    metrics["ground.reuse_fraction"] = metric(
        ratio(counts["ground.reused_terms"], counts["ground.terms"]), "ratio"
    )
    metrics["admm.converged_ratio"] = metric(
        ratio(counts["admm.converged"], counts["admm.solves"]), "ratio"
    )
    metrics["rounding.improving_ratio"] = metric(
        ratio(counts["rounding.improving_evals"], counts["rounding.objective_evals"]), "ratio"
    )
    metrics["rounding.ascents"] = metric(counts["rounding.ascents"], "count")
    shares = {layer: ratio(tracer.self_s[layer], raw_total) for layer in SHARE_LAYERS}
    for layer, share in shares.items():
        metrics[f"{layer}.share"] = metric(share, "ratio")
    metrics["other.share"] = metric(1.0 - sum(shares.values()), "ratio")
    setup = traced.setup_spans
    for name in ("ibench.generate", "build", "ground"):
        metrics[f"setup.{name}.s"] = metric(setup.get(name, 0.0) * traced.setup_scale, "s")
    # Traced ops/s relative to untraced ops/s over the same ops.
    metrics["trace.overhead"] = metric(1.0 - overhead_seconds(tracer) / raw_total, "ratio")
    return metrics


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((HERE / "digests.json").read_text())
    return pins["digests"].get(workload) if seed == pins["seed"] else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # One client on serial executors; cap BLAS threads at the core count.
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.path.insert(0, str(SRC))

    import hostspeed
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    with hostspeed.SpeedProbe() as probe:
        if args.trace:
            tracer = layers.Tracer()
            patched = layers.install(tracer)
            try:
                result = run_pass(workload, args.seed, args.seconds, 1, probe, tracer)
            finally:
                layers.uninstall(patched)
            metrics = per_layer_metrics(tracer, result)
            note = "traced"
        else:
            result = run_pass(workload, args.seed, args.seconds, SETUPS, probe)
            metrics, note = end_to_end_metrics(result)

    digest = result.digest
    correct = result.failed == 0
    pinned = pinned_digest(args.workload, args.seed)
    if pinned is not None and pinned != digest:
        print(f"check failed: digest {digest} differs from pinned {pinned}", file=sys.stderr)
        correct = False

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"digest": digest, "records": [o.record for o in result.quality]}, indent=1
    ))
    print(f"{args.workload} seed={args.seed}: {len(result.durations)} ops in "
          f"{result.cycles} cycles, {sum(result.raw_s):.2f} s wall, "
          f"{sum(result.durations):.2f} s at reference speed; {note}")
    print("op seconds (wall): " + " ".join(f"{d:.3f}" for d in result.raw_s))
    print(f"fail_rate={result.failed}/{result.attempted} digest={digest}"
          + ("" if pinned is None else f" (pinned: {'match' if pinned == digest else 'MISMATCH'})"))
    print(json.dumps({
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
