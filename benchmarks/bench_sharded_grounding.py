"""Benchmark: sharded HL-MRF grounding vs the monolithic serial path.

Three claims about :func:`~repro.selection.collective.ground_collective`
are measured on a large-noise scenario (many error groups and coverage
caps, so the ground program is the dominant data structure):

1. **equivalence** — the sharded build is fingerprint-identical to the
   serial ``build_program(...)[0].ground()`` path for every shard size
   tested;
2. **bounded peak working set** — the driver never materializes more
   than one shard's term block between merges, so the peak intermediate
   size is O(shard size), not O(program).  Verified two ways: the
   structural ``GroundingStats.peak_shard_terms`` counter (deterministic,
   asserted unconditionally) and a tracemalloc comparison against the
   dict-based monolithic build (recorded; asserted only with
   ``REPRO_ASSERT_SHARD_MEMORY=1`` since allocator behaviour is
   host-dependent);
3. **build time** — monolithic vs sharded build seconds, recorded to
   ``benchmarks/results/sharded_grounding_build.txt``.  Grounding runs
   on the calling thread; the table is a diagnostic, nothing is
   asserted on it.
"""

from __future__ import annotations

import os
import time
import tracemalloc

from benchmarks._common import record_result

from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig
from repro.psl.sharding import mrf_fingerprint
from repro.selection.collective import (
    CollectiveSettings,
    build_program,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem

# High error/unexplained noise maximizes error groups and coverage caps —
# the ground-program terms the sharded path is meant to keep off-heap.
CONFIG = ScenarioConfig(
    num_primitives=12,
    rows_per_relation=40,
    pi_corresp=50,
    pi_errors=40,
    pi_unexplained=30,
    seed=11,
)
SHARD_SIZE = 64


def _problem(scenario_cache):
    scenario = scenario_cache(CONFIG)
    return build_selection_problem(scenario.source, scenario.target, scenario.candidates)


def _serial_build(problem, settings):
    program, _ = build_program(problem, settings)
    return program.ground()


def test_sharded_build_matches_serial_bytes(scenario_cache):
    problem = _problem(scenario_cache)
    settings = CollectiveSettings()
    reference = mrf_fingerprint(_serial_build(problem, settings))
    for shard_size in (1, SHARD_SIZE, None):
        mrf, _, _ = ground_collective(problem, settings, shard_size=shard_size)
        assert mrf_fingerprint(mrf) == reference, shard_size


def test_sharded_build_peak_working_set(scenario_cache):
    problem = _problem(scenario_cache)
    settings = CollectiveSettings()

    tracemalloc.start()
    monolithic = _serial_build(problem, settings)
    _, monolithic_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    sharded, _, stats = ground_collective(problem, settings, shard_size=SHARD_SIZE)
    _, sharded_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert mrf_fingerprint(monolithic) == mrf_fingerprint(sharded)
    # The structural guarantee: between merges the driver holds at most
    # one shard's block, and a shard of S entries emits O(S) terms —
    # a coverage entry is 1 potential + 1 cap, an error entry is
    # 1 potential + one cap per owner, a prior entry is 1 potential —
    # independent of how big the whole program is.
    owner_groups: dict = {}
    for i, facts in enumerate(problem.error_facts):
        for f in facts:
            owner_groups.setdefault(f, []).append(i)
    max_group = max((len(who) for who in owner_groups.values()), default=1)
    assert stats.num_shards > 2
    assert stats.peak_shard_terms <= SHARD_SIZE * (1 + max_group)
    assert stats.peak_shard_terms < stats.total_terms / 4

    rows = [
        ["monolithic (dict program)", stats.total_terms, monolithic_peak / 1024.0],
        [f"sharded (size={SHARD_SIZE})", stats.peak_shard_terms, sharded_peak / 1024.0],
    ]
    table = format_table(
        ["path", "peak pending terms", "tracemalloc peak KiB"],
        rows,
        title=(
            f"grounding working set on |C|={problem.num_candidates}, "
            f"|J|={len(problem.j_facts)}: {stats.total_terms} terms, "
            f"{stats.num_shards} shards"
        ),
    )
    record_result("sharded_grounding_memory", table)
    if os.environ.get("REPRO_ASSERT_SHARD_MEMORY") == "1":
        assert sharded_peak < monolithic_peak


def test_sharded_build_time(benchmark, scenario_cache):
    problem = _problem(scenario_cache)
    settings = CollectiveSettings()

    start = time.perf_counter()
    serial_mrf = _serial_build(problem, settings)
    monolithic_seconds = time.perf_counter() - start

    sharded_mrf, _, stats = benchmark.pedantic(
        lambda: ground_collective(problem, settings, shard_size=SHARD_SIZE),
        rounds=1,
        iterations=1,
    )
    sharded_seconds = benchmark.stats.stats.mean

    assert mrf_fingerprint(serial_mrf) == mrf_fingerprint(sharded_mrf)
    table = format_table(
        ["path", "seconds"],
        [
            ["monolithic serial", monolithic_seconds],
            [f"sharded serial (size={SHARD_SIZE})", sharded_seconds],
        ],
        title=(
            f"HL-MRF build: {stats.total_terms} terms, {stats.num_shards} shards, "
            f"host CPUs: {os.cpu_count()}"
        ),
    )
    record_result("sharded_grounding_build", table)
