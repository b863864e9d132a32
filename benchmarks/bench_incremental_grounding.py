"""Incremental (delta) grounding: re-ground only what changed.

A k-tuple edit to a grounded problem historically re-paid the *whole*
grounding — every shard re-enumerated, every term object rebuilt — even
though the edit touches a handful of shards.  The delta tier
(:mod:`repro.psl.delta`, :func:`repro.selection.collective.
patch_collective`) re-grounds only the touched shards and splices the
rest out of the cached compiled arrays.  Two lanes:

* **program lane** — an R-rule PSL program where each rule reads its
  own predicate; a one-tuple observation edit touches one rule.  Full
  re-ground (the historical cost of any edit) vs
  :meth:`IncrementalProgramGrounding.refresh` (delta).  This is the
  asserted lane: the touched fraction is 1/R by construction, so the
  speedup is structural, not a scheduler accident.
* **collective lane** — a generated selection scenario replayed through
  a primitive-level mutation chain (:mod:`repro.ibench.mutations`):
  late-sorting target-tuple edits, each revision served by the cache's
  patch tier.  Reported per edit with the shard-reuse fraction.

Bit-identity is asserted unconditionally in both lanes: every patched
MRF fingerprints equal to a from-scratch ground of the edited problem
and solves to the identical run.  The ≥5× delta-vs-full speedup is
asserted under ``REPRO_ASSERT_SPEEDUP=1`` (timing belongs to CI
artifacts, not merge gates, everywhere else).
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
from repro.psl.delta import IncrementalProgramGrounding
from repro.psl.program import PslProgram
from repro.psl.rule import lit
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from repro.selection.collective import (
    CollectiveGroundingCache,
    CollectiveSettings,
    GroundedCollective,
)

#: Program lane: rules (= predicate families) and observed tuples per
#: family.  An edit touches 1 family, so ~1/RULES of the shards re-ground.
RULES = 24
ROWS_PER_RULE = 40
REPS = 5

#: Collective lane: scenario scale, explicit shard size (finer shards →
#: a tuple edit stays inside fewer of them), and edit-chain length.
SCENARIO = ScenarioConfig(
    num_primitives=12, rows_per_relation=40, pi_errors=40, pi_corresp=50, seed=17
)
GROUND_SHARD_SIZE = 16
CHAIN_EDITS = 4


def _edit_program() -> tuple[PslProgram, object]:
    """An R-family program plus the atom whose observation the edit adds."""
    program = PslProgram()
    for r in range(RULES):
        p = program.predicate(f"p{r}", 2)
        q = program.predicate(f"q{r}", 2, closed=False)
        program.rule([lit(p, "X", "Y")], [lit(q, "X", "Y")], weight=0.5 + 0.01 * r)
        program.rule([lit(q, "X", "Y")], [], weight=0.1)
        for i in range(ROWS_PER_RULE):
            program.observe(p(f"a{i}", f"b{i}"), 0.5 + (i % 5) / 10)
            program.target(q(f"a{i}", f"b{i}"))
    p0 = program.predicate("p0", 2)
    q0 = program.predicate("q0", 2, closed=False)
    program.target(q0("edit", "edit"))
    return program, p0("edit", "edit")


def _assert_identical_solves(patched, fresh) -> None:
    assert structure_fingerprint(patched) == structure_fingerprint(fresh)
    assert mrf_fingerprint(patched) == mrf_fingerprint(fresh)
    identity = AdmmSettings(max_iterations=150)
    a = AdmmSolver(patched, identity).solve()
    b = AdmmSolver(fresh, identity).solve()
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert a.energy == b.energy


def _bench_program_lane() -> dict:
    program, edit_atom = _edit_program()
    inc = IncrementalProgramGrounding(program)

    # Full lane: what every edit historically cost.
    full_seconds = []
    for _ in range(REPS):
        start = time.perf_counter()
        fresh, _ = program.ground_sharded()
        full_seconds.append(time.perf_counter() - start)

    # Delta lane: alternate the edit on/off so every rep patches.
    delta_seconds = []
    for rep in range(REPS):
        if rep % 2 == 0:
            program.observe(edit_atom, 0.9)
        else:
            program.database.retract_observation(edit_atom)
        start = time.perf_counter()
        patched = inc.refresh()
        delta_seconds.append(time.perf_counter() - start)
    assert inc.patched_grounds == REPS and inc.full_grounds == 1

    fresh, _ = program.ground_sharded()
    _assert_identical_solves(patched, fresh)
    stats = inc.splice_stats
    full = min(full_seconds)
    delta = min(delta_seconds)
    return {
        "rules": RULES,
        "num_potentials": len(patched.potentials),
        "num_shards": stats.num_shards,
        "reused_shards": stats.reused_shards,
        "reuse_fraction": stats.reuse_fraction,
        "full_ground_seconds": full,
        "delta_refresh_seconds": delta,
        "speedup": full / delta if delta else float("inf"),
        "bit_identical": True,
    }


def _bench_collective_lane(scenario_cache) -> dict:
    scenario = scenario_cache(SCENARIO)
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    settings = CollectiveSettings(ground_shard_size=GROUND_SHARD_SIZE)
    cache = CollectiveGroundingCache()
    cache.grounded(chain.problem, settings)

    # Late-sorting facts keep earlier j_facts' indices stable, so target
    # edits stay inside a few shards (see docs/incremental.md).
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
        fresh = GroundedCollective(problem, settings, shard_size=GROUND_SHARD_SIZE)
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
        "ground_shard_size": GROUND_SHARD_SIZE,
        "edits": per_edit,
        "median_speedup": sorted(e["speedup"] for e in per_edit)[len(per_edit) // 2],
        "bit_identical": True,
    }


def test_delta_grounding_vs_full_reground(scenario_cache):
    program = _bench_program_lane()
    collective = _bench_collective_lane(scenario_cache)

    rows = [
        [
            f"program ({program['rules']} rules, 1-tuple edit)",
            f"{program['reused_shards']}/{program['num_shards']}",
            program["full_ground_seconds"],
            program["delta_refresh_seconds"],
            f"{program['speedup']:.1f}x",
        ]
    ]
    for e in collective["edits"]:
        rows.append(
            [
                f"collective {e['edit']}",
                f"{e['reused_shards']}/{e['num_shards']}",
                e["full_ground_seconds"],
                e["patch_seconds"],
                f"{e['speedup']:.1f}x",
            ]
        )
    table = format_table(
        ["lane", "shards reused", "full ground s", "delta s", "speedup"],
        rows,
        title=(
            "delta grounding: re-ground only touched shards, splice the rest "
            "(every patched MRF solve bit-identical to scratch)"
        ),
    )
    record_result("incremental_grounding", table)
    record_json(
        "incremental",
        {
            "host_cpus": os.cpu_count(),
            "reps": REPS,
            "program_lane": program,
            "collective_lane": collective,
        },
    )

    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert program["speedup"] >= 5.0, (
            f"expected >=5x from re-grounding 1 of {program['rules']} rule "
            f"families, got {program['speedup']:.2f}x"
        )
