"""Benchmark: sharded HL-MRF grounding across shard sizes.

Two claims about :func:`~repro.selection.collective.ground_collective`
are checked on a large-noise scenario (many error groups and coverage
caps, so the ground model is the dominant data structure):

1. **equivalence** — every shard size tested gives a fingerprint-
   identical MRF;
2. **bounded peak working set** — the driver never materializes more
   than one shard's term block between merges, so the peak intermediate
   size is O(shard size), not O(model).  The structural
   ``GroundingStats.peak_shard_terms`` counter is deterministic and
   asserted unconditionally.

Build seconds per shard size are recorded to
``benchmarks/results/sharded_grounding_build.txt``.  Grounding runs on
the calling thread; the table is a diagnostic, nothing is asserted on
it.
"""

from __future__ import annotations

import os
import time

from benchmarks._common import record_result

from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig
from repro.psl.sharding import mrf_fingerprint
from repro.selection.collective import CollectiveSettings, ground_collective
from repro.selection.metrics import build_selection_problem

# High error/unexplained noise maximizes error groups and coverage caps —
# the ground-model terms the sharded path keeps one shard at a time.
CONFIG = ScenarioConfig(
    num_primitives=12,
    rows_per_relation=40,
    pi_corresp=50,
    pi_errors=40,
    pi_unexplained=30,
    seed=11,
)
SHARD_SIZE = 64
SHARD_SIZES = (1, SHARD_SIZE, None)


def _problem(scenario_cache):
    scenario = scenario_cache(CONFIG)
    return build_selection_problem(scenario.source, scenario.target, scenario.candidates)


def test_shard_sizes_give_identical_bytes(scenario_cache):
    problem = _problem(scenario_cache)
    fingerprints = {
        shard_size: mrf_fingerprint(
            ground_collective(
                problem, CollectiveSettings(ground_shard_size=shard_size)
            )[0]
        )
        for shard_size in SHARD_SIZES
    }
    assert len(set(fingerprints.values())) == 1, fingerprints.keys()


def test_sharded_build_peak_working_set(scenario_cache):
    problem = _problem(scenario_cache)
    _, _, stats = ground_collective(
        problem, CollectiveSettings(ground_shard_size=SHARD_SIZE)
    )
    # The structural guarantee: between merges the driver holds at most
    # one shard's block, and a shard of S entries emits O(S) terms —
    # a coverage entry is 1 potential + 1 cap, an error entry is
    # 1 potential + one cap per owner, a prior entry is 1 potential —
    # independent of how big the whole model is.
    owner_groups: dict = {}
    for i, facts in enumerate(problem.error_facts):
        for f in facts:
            owner_groups.setdefault(f, []).append(i)
    max_group = max((len(who) for who in owner_groups.values()), default=1)
    assert stats.num_shards > 2
    assert stats.peak_shard_terms <= SHARD_SIZE * (1 + max_group)
    assert stats.peak_shard_terms < stats.total_terms / 4


def test_sharded_build_time(scenario_cache):
    problem = _problem(scenario_cache)
    rows = []
    for shard_size in SHARD_SIZES:
        start = time.perf_counter()
        _, _, stats = ground_collective(
            problem, CollectiveSettings(ground_shard_size=shard_size)
        )
        seconds = time.perf_counter() - start
        rows.append(
            [
                f"size={shard_size or 'default'}",
                stats.num_shards,
                stats.peak_shard_terms,
                seconds,
            ]
        )
    table = format_table(
        ["shard size", "shards", "peak shard terms", "seconds"],
        rows,
        title=(
            f"HL-MRF build on |C|={problem.num_candidates}, "
            f"|J|={len(problem.j_facts)}: {stats.total_terms} terms, "
            f"host CPUs: {os.cpu_count()}"
        ),
    )
    record_result("sharded_grounding_build", table)
