"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload select-p48 --seeds 1 10 --seconds 5
    python3 perfbench/spread.py ... --label seed-state   # also append to baselines.json

Runs ``run.py`` once per seed, one after another, and prints each
metric's median and its spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  With ``--label`` the medians and spreads are appended to
``perfbench/baselines.json`` under that label.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label")
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {
            "median": statistics.median(values),
            "spread": spread(values) if len(values) > 1 else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
        }
        print(f"{name:28s} median={summary[name]['median']:<14.6g} "
              f"spread={summary[name]['spread']:.4f} {summary[name]['unit']}  "
              + " ".join(f"{v:.4g}" for v in values))

    if args.label:
        path = HERE / "baselines.json"
        baselines = json.loads(path.read_text()) if path.exists() else []
        baselines.append({
            "label": args.label, "workload": args.workload, "seeds": list(args.seeds),
            "seconds": args.seconds, "trace": args.trace,
            "all_correct": all(r["correct"] for r in runs), "metrics": summary,
        })
        path.write_text(json.dumps(baselines, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
