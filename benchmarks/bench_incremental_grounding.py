"""Incremental (delta) grounding: re-ground only what changed.

A k-tuple edit to a grounded problem re-pays the *whole* grounding on a
fresh ground, although it leaves some of the model's three blocks
(coverage, shared errors, priors) unchanged.  The delta tier
(:mod:`repro.psl.delta`, :func:`repro.selection.collective.
patch_collective`) re-grounds only the changed blocks and splices the
rest out of the cached compiled arrays.  The bench replays a generated
selection scenario through a primitive-level mutation chain
(:mod:`repro.ibench.mutations`): target-tuple edits, each revision
served by the cache's patch tier.  A target edit re-grounds the
coverage block; the reuse comes from the shared-error and prior blocks.
It reports each edit with its block and term reuse.

Bit-identity is asserted unconditionally: every patched MRF
fingerprints equal to a from-scratch ground of the edited problem and
solves to the identical run.  Timings are recorded, not asserted.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks._common import record_json, record_result

from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig
from repro.ibench.mutations import AddTargetTuple, MutableSelection, RemoveTargetTuple
from repro.psl.admm import AdmmSettings, AdmmSolver
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from repro.selection.collective import (
    CollectiveGroundingCache,
    CollectiveSettings,
    GroundedCollective,
)

#: Scenario scale and edit-chain length.
SCENARIO = ScenarioConfig(
    num_primitives=12, rows_per_relation=40, pi_errors=40, pi_corresp=50, seed=17
)
CHAIN_EDITS = 4


def _assert_identical_solves(patched, fresh) -> None:
    assert structure_fingerprint(patched) == structure_fingerprint(fresh)
    assert mrf_fingerprint(patched) == mrf_fingerprint(fresh)
    identity = AdmmSettings(max_iterations=150)
    a = AdmmSolver(patched, identity).solve()
    b = AdmmSolver(fresh, identity).solve()
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert a.energy == b.energy


def _bench_collective_lane(scenario_cache) -> dict:
    scenario = scenario_cache(SCENARIO)
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    settings = CollectiveSettings()
    cache = CollectiveGroundingCache()
    cache.grounded(chain.problem, settings)

    pool = sorted(chain.target, key=repr)[-CHAIN_EDITS:]
    edits = []
    for step in range(CHAIN_EDITS):
        fact = pool[(step // 2) % len(pool)]  # remove, then re-add, then next
        edits.append(RemoveTargetTuple(fact) if step % 2 == 0 else AddTargetTuple(fact))

    per_edit = []
    for edit in edits:
        problem = chain.apply(edit)
        start = time.perf_counter()
        patched = cache.grounded(problem, settings)
        patch_seconds = time.perf_counter() - start
        assert patched.splice_stats is not None  # served by the patch tier

        start = time.perf_counter()
        fresh = GroundedCollective(problem, settings)
        full_seconds = time.perf_counter() - start
        _assert_identical_solves(patched.mrf, fresh.mrf)
        per_edit.append(
            {
                "edit": type(edit).__name__,
                "reuse_fraction": patched.splice_stats.reuse_fraction,
                "reused_shards": patched.splice_stats.reused_shards,
                "num_shards": patched.splice_stats.num_shards,
                "full_ground_seconds": full_seconds,
                "patch_seconds": patch_seconds,
                "speedup": full_seconds / patch_seconds
                if patch_seconds
                else float("inf"),
            }
        )
    assert cache.patch_hits == CHAIN_EDITS
    cache.clear()
    return {
        "config": repr(SCENARIO),
        "edits": per_edit,
        "median_speedup": sorted(e["speedup"] for e in per_edit)[len(per_edit) // 2],
        "bit_identical": True,
    }


def test_delta_grounding_vs_full_reground(scenario_cache):
    collective = _bench_collective_lane(scenario_cache)

    rows = [
        [
            e["edit"],
            f"{e['reused_shards']}/{e['num_shards']}",
            f"{e['reuse_fraction']:.3f}",
            e["full_ground_seconds"],
            e["patch_seconds"],
            f"{e['speedup']:.1f}x",
        ]
        for e in collective["edits"]
    ]
    table = format_table(
        ["edit", "blocks reused", "term reuse", "full ground s", "delta s", "speedup"],
        rows,
        title=(
            "delta grounding: re-ground only changed blocks, splice the rest "
            "(every patched MRF solve bit-identical to scratch)"
        ),
    )
    record_result("incremental_grounding", table)
    record_json(
        "incremental",
        {
            "host_cpus": os.cpu_count(),
            "collective_lane": collective,
        },
    )
