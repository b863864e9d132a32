"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's
evaluation, or measures one subsystem.  Besides the pytest-benchmark
timing, each bench writes its paper-style rows to
``benchmarks/results/<name>.txt`` and echoes them to stdout.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def record_result(name: str, text: str) -> str:
    """Persist *text* under results/ and print it; returns the text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return text


def record_json(name: str, payload: dict) -> Path:
    """Persist *payload* as ``results/<name>.json`` (CI artifact format).

    The JSON twin of :func:`record_result`: machine-readable numbers
    (speedups, peak counters) that the CI run uploads as artifacts so
    multi-core results are recorded without gating merges on them.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"[json written to {path}]")
    return path
