"""Ground once per structure, *ever*: the disk grounding store benchmark.

PR 7 collapsed warm weight updates to in-place reweights, but a new
process lifetime still paid the full HL-MRF grounding on its first
solve.  The content-addressed store (:mod:`repro.psl.store`) spills the
compiled grounding once and lets every later process *attach* it — mmap
the flat solver arrays, rebuild the MRF registry, rewrite the weights —
instead of re-grounding.  This bench measures that collapse on two
scenario scales:

* **cold lane (pre-store)** — plan + sharded ground, the historical
  first-solve cost of every fresh process;
* **attach lane (cold start with a store)** — structure key + load
  (mmap) + ``from_store`` + reweight, the new first-solve cost — no
  shard planning and no term-object construction;
* **warm lane** — the in-process reweight, for the cold-vs-warm context
  column (a store attach sits between a fresh ground and a warm hit).

Bit-identity is asserted unconditionally: the attached MRF fingerprints
equal to the fresh grounding and solves to the identical run.  The ≥5×
attach-vs-ground speedup is asserted under ``REPRO_ASSERT_SPEEDUP=1``
(timing belongs to CI artifacts, not merge gates, everywhere else).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np

from benchmarks._common import record_json, record_result

from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig
from repro.psl.admm import AdmmSettings, AdmmSolver
from repro.psl.sharding import mrf_fingerprint
from repro.psl.store import GroundingStore
from repro.selection.collective import (
    CollectiveSettings,
    GroundedCollective,
    collective_structure_key,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights

#: The two bench scales: the reweight bench's scenario and a smaller
#: sibling, so the speedup is demonstrated on more than one structure.
SCENARIOS = {
    "large": ScenarioConfig(
        num_primitives=32,
        rows_per_relation=120,
        pi_corresp=50,
        pi_errors=40,
        pi_unexplained=30,
        seed=11,
    ),
    "medium": ScenarioConfig(
        num_primitives=28,
        rows_per_relation=100,
        pi_corresp=50,
        pi_errors=40,
        pi_unexplained=30,
        seed=7,
    ),
}
GROUND_SHARD_SIZE = 64
REPS = 5

#: Same zero pattern as the grounding weights, so attach + reweight is
#: exact (the store key guarantees it).
ATTACH_WEIGHTS = ObjectiveWeights(
    explains=Fraction(2), errors=Fraction(1), size=Fraction(1)
)


def _bench_one(name, config, store_root, scenario_cache):
    scenario = scenario_cache(config)
    problem = build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )
    base = CollectiveSettings()

    # Cold lane — the historical first-solve cost: plan + sharded ground.
    ground_seconds = []
    grounded = None
    for _ in range(REPS):
        start = time.perf_counter()
        grounded = GroundedCollective(problem, base, shard_size=GROUND_SHARD_SIZE)
        ground_seconds.append(time.perf_counter() - start)
    mrf = grounded.mrf

    # Populate the store once (what the first process of a fleet does).
    store = GroundingStore(store_root / name)
    key = collective_structure_key(problem, base)
    spill_start = time.perf_counter()
    assert store.put(key, mrf, extra=grounded.store_extra())
    spill_seconds = time.perf_counter() - spill_start

    # Attach lane — the new cold start: key + mmap + registry rebuild +
    # reweight.  No shard planning and no term-object construction.
    attach_seconds = []
    attached = None
    for _ in range(REPS):
        start = time.perf_counter()
        stored = store.load(collective_structure_key(problem, base))
        assert stored is not None
        attached = GroundedCollective.from_store(problem, base, stored)
        attached.reweight(ATTACH_WEIGHTS)
        attach_seconds.append(time.perf_counter() - start)

    # Warm lane — the in-process reweight, for cold-vs-warm context.
    warm_seconds = []
    for _ in range(REPS):
        start = time.perf_counter()
        attached.reweight(base.weights)
        attached.reweight(ATTACH_WEIGHTS)
        warm_seconds.append(time.perf_counter() - start)
    warm_per_update = sum(warm_seconds) / (2 * REPS)

    # Bit-identity, unconditional: the attached artifact solves to the
    # identical run of a fresh grounding at the same weights.
    fresh_mrf, _, _ = ground_collective(
        problem,
        CollectiveSettings(weights=ATTACH_WEIGHTS),
        shard_size=GROUND_SHARD_SIZE,
    )
    assert mrf_fingerprint(attached.mrf) == mrf_fingerprint(fresh_mrf)
    # A capped run keeps the bench fast; comparing the truncated
    # trajectories is exactly as discriminating as comparing converged
    # ones (any divergence shows up at the first differing iterate).
    identity = AdmmSettings(max_iterations=300)
    attach_run = AdmmSolver(attached.mrf, identity).solve()
    fresh_run = AdmmSolver(fresh_mrf, identity).solve()
    assert attach_run.iterations == fresh_run.iterations
    assert np.array_equal(attach_run.x, fresh_run.x)
    assert attach_run.energy == fresh_run.energy

    # Best-of-reps: both lanes are single-process microbenchmarks, so
    # min is the noise-robust estimator (means smear scheduler blips
    # into the asserted ratio).
    ground = min(ground_seconds)
    attach = min(attach_seconds)
    speedup = ground / attach if attach else float("inf")
    entry_bytes = store.ls()[0].bytes
    return {
        "config": repr(config),
        "num_potentials": len(mrf.potentials),
        "num_constraints": len(mrf.constraints),
        "ground_seconds": ground,
        "attach_seconds": attach,
        "warm_reweight_seconds": warm_per_update,
        "spill_seconds": spill_seconds,
        "speedup": speedup,
        "entry_bytes": entry_bytes,
        "bit_identical": True,
    }


def test_store_attach_vs_reground_cold_start(tmp_path, scenario_cache):
    results = {
        name: _bench_one(name, config, tmp_path, scenario_cache)
        for name, config in SCENARIOS.items()
    }

    rows = []
    for name, r in results.items():
        rows.append(
            [
                name,
                r["ground_seconds"],
                r["attach_seconds"],
                r["warm_reweight_seconds"],
                f"{r['speedup']:.1f}x",
                r["entry_bytes"],
            ]
        )
    table = format_table(
        ["scenario", "ground s", "attach s", "warm reweight s", "speedup", "bytes"],
        rows,
        title=(
            "cold start: fresh ground vs store attach+reweight "
            f"(shard size {GROUND_SHARD_SIZE}, {REPS} reps, "
            "attached solves bit-identical)"
        ),
    )
    record_result("grounding_store", table)
    record_json(
        "grounding_store",
        {
            "host_cpus": os.cpu_count(),
            "ground_shard_size": GROUND_SHARD_SIZE,
            "reps": REPS,
            "scenarios": results,
        },
    )

    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        for name, r in results.items():
            assert r["speedup"] >= 5.0, (
                f"expected >=5x cold-start collapse on {name!r} from "
                f"attaching instead of re-grounding, got {r['speedup']:.2f}x"
            )
