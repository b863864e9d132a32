"""Tests for the benchmark-artifact summarizer (CI speedup table)."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "summarize_results.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True
    )


def test_summarizes_known_artifacts_into_markdown(tmp_path):
    (tmp_path / "reweight.json").write_text(
        json.dumps(
            {
                "host_cpus": 4,
                "num_potentials": 500,
                "weight_settings": 6,
                "fresh_sec_per_update": 0.05,
                "reweight_sec_per_update": 0.005,
                "speedup_per_update": 10.0,
            }
        )
    )
    (tmp_path / "incremental.json").write_text(
        json.dumps(
            {
                "host_cpus": 4,
                "collective_lane": {
                    "median_speedup": 6.0,
                    "edits": [
                        {
                            "edit": "RemoveTargetTuple",
                            "reused_shards": 30,
                            "num_shards": 32,
                            "full_ground_seconds": 0.02,
                            "patch_seconds": 0.004,
                            "speedup": 6.0,
                        }
                    ],
                },
            }
        )
    )
    (tmp_path / "grounding_store.json").write_text(
        json.dumps(
            {
                "host_cpus": 4,
                "ground_shard_size": 64,
                "reps": 5,
                "scenarios": {
                    "large": {
                        "num_potentials": 4100,
                        "ground_seconds": 0.15,
                        "attach_seconds": 0.02,
                        "warm_reweight_seconds": 0.001,
                        "speedup": 7.5,
                        "entry_bytes": 800000,
                        "bit_identical": True,
                    }
                },
            }
        )
    )
    out = tmp_path / "TABLE.md"
    result = _run("--results-dir", str(tmp_path), "--output", str(out))
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    assert "| benchmark" in text
    assert "10.0×" in text and "6.0×" in text
    assert "reweight many (sweep)" in text
    assert "delta grounding (collective chain)" in text
    assert "30/32 shards" in text
    assert "grounding store cold start (large)" in text
    assert "7.5×" in text
    assert "warm in-process reweight" in text  # the cold-vs-warm column
    assert "host CPUs: 4" in text


def test_malformed_artifact_skipped_not_fatal(tmp_path):
    (tmp_path / "reweight.json").write_text("{not json")
    (tmp_path / "grounding_store.json").write_text(
        json.dumps(
            {
                "host_cpus": 2,
                "scenarios": {
                    "small": {
                        "num_potentials": 90,
                        "ground_seconds": 0.02,
                        "attach_seconds": 0.01,
                        "warm_reweight_seconds": 0.001,
                        "speedup": 2.0,
                        "entry_bytes": 4096,
                    }
                },
            }
        )
    )
    result = _run("--results-dir", str(tmp_path))
    assert result.returncode == 0
    assert "skipping" in result.stderr
    assert "grounding store cold start (small)" in result.stdout


def test_no_artifacts_is_an_error(tmp_path):
    result = _run("--results-dir", str(tmp_path))
    assert result.returncode == 1
    assert "no known benchmark artifacts" in result.stderr


def test_summarizes_the_repo_results_when_present():
    results = SCRIPT.parent / "results"
    if not any(
        (results / name).exists()
        for name in ("reweight.json", "grounding_store.json")
    ):  # pragma: no cover - depends on prior bench runs
        return
    result = _run("--results-dir", str(results), "--output", "/dev/null")
    assert result.returncode == 0
