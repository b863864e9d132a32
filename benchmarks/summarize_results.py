"""Aggregate the CI benchmark JSON artifacts into one markdown table.

Every performance-bearing benchmark in this repo records a
machine-readable twin of its stdout table under ``benchmarks/results/``
(:func:`benchmarks._common.record_json`).  CI uploads that directory as
an artifact per run; this script folds whichever of the known artifacts
are present into a single EXPERIMENTS-style speedup table
(``results/SUMMARY.md``), so the recorded multi-core numbers read as one
document instead of separate JSON blobs — the "pull the recorded speedup
numbers into EXPERIMENTS-style results" item of the ROADMAP.

Usage::

    python benchmarks/summarize_results.py \
        [--results-dir benchmarks/results] [--output SUMMARY.md]

Missing artifacts are skipped (each CI job only runs some benches);
malformed ones are reported and skipped.  Exit code 0 unless *no* known
artifact could be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _fmt_seconds(value: float) -> str:
    if value >= 0.1:
        return f"{value:.2f} s"
    if value >= 1e-4:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} µs"


def _fmt_speedup(value: float) -> str:
    return f"{value:.1f}×"


def _fmt_bytes(value: float) -> str:
    if value >= 1024 * 1024:
        return f"{value / (1024 * 1024):.2f} MiB"
    if value >= 1024:
        return f"{value / 1024:.2f} KiB"
    return f"{value:.0f} B"


def _rows_reweight(data: dict) -> list[list[str]]:
    return [
        [
            "ground once, reweight many (sweep)",
            f"re-ground+solve vs reweight+warm re-solve "
            f"({data.get('num_potentials', '?')} potentials, per weight update)",
            _fmt_seconds(data["fresh_sec_per_update"]),
            _fmt_seconds(data["reweight_sec_per_update"]),
            _fmt_speedup(data["speedup_per_update"]),
        ],
    ]


def _rows_grounding_store(data: dict) -> list[list[str]]:
    rows = []
    for name, r in data.get("scenarios", {}).items():
        rows.append(
            [
                f"grounding store cold start ({name})",
                f"fresh ground vs store attach+reweight "
                f"({r.get('num_potentials', '?')} potentials, entry "
                f"{_fmt_bytes(r['entry_bytes'])}; warm in-process reweight "
                f"{_fmt_seconds(r['warm_reweight_seconds'])} for context)",
                _fmt_seconds(r["ground_seconds"]),
                _fmt_seconds(r["attach_seconds"]),
                _fmt_speedup(r["speedup"]),
            ]
        )
    return rows


def _rows_incremental(data: dict) -> list[list[str]]:
    lane = data["collective_lane"]
    edits = lane["edits"]
    return [
        [
            "delta grounding (collective chain)",
            f"fresh ground vs patch tier per target-tuple edit "
            f"({len(edits)} edits, "
            f"{edits[0]['reused_shards']}/{edits[0]['num_shards']} shards "
            f"spliced, median over the chain)",
            _fmt_seconds(max(e["full_ground_seconds"] for e in edits)),
            _fmt_seconds(max(e["patch_seconds"] for e in edits)),
            _fmt_speedup(lane["median_speedup"]),
        ]
    ]


#: filename -> row extractor.  Order fixes the table's row order.
KNOWN_ARTIFACTS = {
    "reweight.json": _rows_reweight,
    "grounding_store.json": _rows_grounding_store,
    "incremental.json": _rows_incremental,
}

_HEADER = ["benchmark", "comparison", "baseline", "optimized", "speedup"]


def _render_markdown(rows: list[list[str]], host_cpus: set[int]) -> str:
    widths = [
        max(len(_HEADER[i]), *(len(r[i]) for r in rows)) for i in range(len(_HEADER))
    ]

    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    cpus = ", ".join(str(c) for c in sorted(host_cpus)) or "unknown"
    out = [
        "# Benchmark speedup summary",
        "",
        f"Aggregated from `benchmarks/results/*.json` (host CPUs: {cpus}).",
        "Timing numbers are machine-dependent; the equivalence guarantees",
        "(fingerprint-identical grounding, bit-identical solves) are asserted",
        "unconditionally by the benchmarks themselves.",
        "",
        line(_HEADER),
        line(["-" * w for w in widths]),
        *[line(r) for r in rows],
        "",
    ]
    return "\n".join(out)


def summarize(results_dir: Path) -> tuple[str, int]:
    """Render the summary markdown; returns (text, artifacts found)."""
    rows: list[list[str]] = []
    host_cpus: set[int] = set()
    found = 0
    for name, extractor in KNOWN_ARTIFACTS.items():
        path = results_dir / name
        if not path.exists():
            continue
        try:
            data = json.loads(path.read_text())
            rows.extend(extractor(data))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"[summarize] skipping {path}: {exc}", file=sys.stderr)
            continue
        found += 1
        if isinstance(data.get("host_cpus"), int):
            host_cpus.add(data["host_cpus"])
    if not rows:
        return "", found
    return _render_markdown(rows, host_cpus), found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        default=str(Path(__file__).parent / "results"),
        help="directory holding the benchmark *.json artifacts",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the markdown (default: <results-dir>/SUMMARY.md)",
    )
    args = parser.parse_args(argv)
    results_dir = Path(args.results_dir)
    text, found = summarize(results_dir)
    if not text:
        print(f"[summarize] no known benchmark artifacts in {results_dir}", file=sys.stderr)
        return 1
    output = Path(args.output) if args.output else results_dir / "SUMMARY.md"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text)
    print(text)
    print(f"[summarize] {found} artifact(s) -> {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
