"""Benchmark: ground-once/reweight-many vs re-ground per weight update.

The HL-MRF energy is linear in the objective weights, so an
objective-weight sweep (one update per grid cell) never needs to rebuild
structure.  This bench measures that claim on a gentle weight ladder
(the step profile of MM/perceptron-style reweighting) over a fixed
scenario.  The pre-refactor path paid, per update, a fresh plan +
ground + solver compile + cold ADMM solve; the reweight path rewrites
the cached :class:`~repro.selection.collective.GroundedCollective`'s
weight vector in place and warm-resolves on its compiled solver.  A
separate matched-chain verification pass asserts that a reweighted solve
is **bit-identical** to a freshly ground one given the same warm state —
the timing gap is speed, not drift.

Timing/speedup numbers land in ``benchmarks/results/reweight.json`` (a
CI artifact; see ``benchmarks/summarize_results.py``).  Like every
timing claim in this repo, the hard ``>=5x per weight update`` assertion
is opt-in via ``REPRO_ASSERT_SPEEDUP=1`` — shared runners are too noisy
to gate merges on — but the equivalence assertions always run.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np
import pytest

from benchmarks._common import record_json, record_result

from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig
from repro.psl.admm import AdmmSolver
from repro.selection.collective import (
    CollectiveSettings,
    GroundedCollective,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights

CONFIG = ScenarioConfig(
    num_primitives=12,
    rows_per_relation=40,
    pi_corresp=50,
    pi_errors=40,
    pi_unexplained=30,
    seed=11,
)

#: A gentle weight ladder, all components non-zero (same zero pattern,
#: so one ground structure serves the whole sweep).  Small steps are the
#: realistic profile of iterative reweighting — perceptron epochs and
#: MM updates move weights a few percent at a time — and they are what
#: warm-started re-solves convert into a handful of ADMM iterations.
WEIGHT_GRID = tuple(
    ObjectiveWeights(
        explains=Fraction(100 + 2 * k, 100),
        errors=Fraction(100 - k, 100),
        size=Fraction(100 + k, 100),
    )
    for k in range(1, 7)
)


def _problem(scenario_cache):
    scenario = scenario_cache(CONFIG)
    return build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )


def test_reweight_resolve_vs_reground_solve_per_cell(scenario_cache):
    problem = _problem(scenario_cache)

    # Lane A — pre-refactor default: every weight update re-plans,
    # re-grounds, re-compiles the solver arrays, and solves cold
    # (the historical solve_collective carried no state between calls).
    fresh_seconds = []
    fresh_energies = []
    for weights in WEIGHT_GRID:
        settings = CollectiveSettings(weights=weights)
        start = time.perf_counter()
        mrf, _ = ground_collective(problem, settings)
        result = AdmmSolver(mrf).solve()
        fresh_seconds.append(time.perf_counter() - start)
        fresh_energies.append(result.energy)
        assert result.converged

    # Lane B — ground once, then per update an in-place weight rewrite +
    # warm re-solve on the same compiled solver.
    ground_start = time.perf_counter()
    grounded = GroundedCollective(problem)
    solver = grounded.solver
    state = solver.solve().state
    ground_seconds = time.perf_counter() - ground_start
    reweight_seconds = []
    reweight_energies = []
    for weights in WEIGHT_GRID:
        start = time.perf_counter()
        grounded.reweight(weights)
        result = solver.solve(warm_state=state)
        reweight_seconds.append(time.perf_counter() - start)
        reweight_energies.append(result.energy)
        assert result.converged
        state = result.state

    # Both lanes converge to the same optimum of the same convex model.
    for fresh, reweighted in zip(fresh_energies, reweight_energies):
        assert reweighted == pytest.approx(fresh, rel=1e-3, abs=1e-5)

    # Matched-chain equivalence: given the SAME warm state, a reweighted
    # solve and a freshly-ground solve are bit-identical — the timing
    # gap above is pure structure-rebuild work, not solution drift.
    probe = WEIGHT_GRID[-1]
    grounded.reweight(probe)
    reweighted_run = solver.solve(warm_state=state)
    fresh_mrf, _ = ground_collective(problem, CollectiveSettings(weights=probe))
    fresh_run = AdmmSolver(fresh_mrf).solve(warm_state=state)
    assert reweighted_run.iterations == fresh_run.iterations
    assert np.array_equal(reweighted_run.x, fresh_run.x)
    assert reweighted_run.energy == fresh_run.energy

    fresh_per_update = sum(fresh_seconds) / len(WEIGHT_GRID)
    reweight_per_update = sum(reweight_seconds) / len(WEIGHT_GRID)
    speedup = fresh_per_update / reweight_per_update if reweight_per_update else float("inf")

    mrf = grounded.mrf
    table = format_table(
        ["path", "sec/weight update"],
        [
            ["re-ground + solve (pre-refactor)", fresh_per_update],
            ["reweight + warm re-solve", reweight_per_update],
            ["(one-time ground + first solve)", ground_seconds],
        ],
        title=(
            f"weight sweep on {len(mrf.potentials)} potentials / "
            f"{len(mrf.constraints)} constraints x {len(WEIGHT_GRID)} settings "
            f"(speedup {speedup:.1f}x, matched-chain solves bit-identical)"
        ),
    )
    record_result("reweight_sweep", table)
    payload = {
        "config": repr(CONFIG),
        "host_cpus": os.cpu_count(),
        "num_potentials": len(mrf.potentials),
        "num_constraints": len(mrf.constraints),
        "weight_settings": len(WEIGHT_GRID),
        "one_time_ground_seconds": ground_seconds,
        "fresh_sec_per_update": fresh_per_update,
        "reweight_sec_per_update": reweight_per_update,
        "speedup_per_update": speedup,
        "matched_chain_bit_identical": True,
    }
    record_json("reweight", payload)

    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert speedup >= 5.0, (
            f"expected >=5x per weight update from skipping re-grounding, "
            f"got {speedup:.2f}x"
        )

