"""Benchmark: ground-once/reweight-many vs re-ground per weight update.

The HL-MRF energy is linear in the rule/objective weights, so iterative
reweighting workloads — perceptron weight learning (one update per
epoch), objective-weight sweeps (one update per grid cell) — never need
to rebuild structure.  This bench measures exactly that claim on both
workloads:

1. **weight-sweep cells** — a gentle weight ladder (the step profile of
   MM/perceptron-style reweighting) over a fixed scenario.  The
   pre-refactor path paid, per update, a fresh plan + ground + solver
   compile + cold ADMM solve; the reweight path rewrites the cached
   :class:`~repro.selection.collective.GroundedCollective`'s weight
   vector in place and warm-resolves on its compiled solver.  A
   separate matched-chain verification pass asserts that a reweighted
   solve is **bit-identical** to a freshly ground one given the same
   warm state — the timing gap is speed, not drift;
2. **learning epochs** — ``learn_rule_weights`` (grounds once per call)
   vs a frozen replica of the historical loop (re-grounds ~3x per
   epoch: one for the solve, one per ``rule_features`` call).  Learned
   weights and energy-gap trajectories are asserted identical.

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
from repro.psl.learning import learn_rule_weights
from repro.psl.program import PslProgram
from repro.psl.rule import lit
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
GROUND_SHARD_SIZE = 64

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
        mrf, _, _ = ground_collective(
            problem, settings, shard_size=GROUND_SHARD_SIZE
        )
        result = AdmmSolver(mrf).solve()
        fresh_seconds.append(time.perf_counter() - start)
        fresh_energies.append(result.energy)
        assert result.converged

    # Lane B — ground once, then per update an in-place weight rewrite +
    # warm re-solve on the same compiled solver.
    ground_start = time.perf_counter()
    grounded = GroundedCollective(
        problem, CollectiveSettings(), shard_size=GROUND_SHARD_SIZE
    )
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
    fresh_mrf, _, _ = ground_collective(
        problem, CollectiveSettings(weights=probe), shard_size=GROUND_SHARD_SIZE
    )
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
        "ground_shard_size": GROUND_SHARD_SIZE,
        "one_time_ground_seconds": ground_seconds,
        "fresh_sec_per_update": fresh_per_update,
        "reweight_sec_per_update": reweight_per_update,
        "speedup_per_update": speedup,
        "matched_chain_bit_identical": True,
    }

    # Learning workload: one grounding per call vs the historical
    # re-ground-every-epoch loop, identical trajectories asserted.
    learn_payload = _learning_comparison()
    payload.update(learn_payload)
    record_json("reweight", payload)

    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert speedup >= 5.0, (
            f"expected >=5x per weight update from skipping re-grounding, "
            f"got {speedup:.2f}x"
        )
        assert learn_payload["learning_speedup"] >= 5.0, (
            f"expected >=5x per learning epoch, got "
            f"{learn_payload['learning_speedup']:.2f}x"
        )


def _learning_program() -> PslProgram:
    program = PslProgram()
    knows = program.predicate("knows", 2)
    topic = program.predicate("interested", 2)
    likes = program.predicate("likes", 2, closed=False)
    program.rule(
        [lit(knows, "A", "B"), lit(likes, "A", "T")], [lit(likes, "B", "T")], weight=0.2
    )
    program.rule(
        [lit(topic, "A", "T")], [lit(likes, "A", "T")], weight=0.3
    )
    program.rule([lit(likes, "A", "T")], [], weight=1.5)  # abstain prior
    people = [f"p{i}" for i in range(12)]
    topics = ["t0", "t1", "t2"]
    for i, person in enumerate(people):
        program.observe(knows(person, people[(i + 1) % len(people)]))
        program.observe(topic(person, topics[i % len(topics)]))
        for t in topics:
            program.target(likes(person, t))
    return program


def _legacy_learn(program, truth, epochs, learning_rate, floor):
    """Frozen replica of the pre-refactor loop: re-grounds ~3x per epoch."""
    from repro.psl.program import GroundedProgram

    def features(assignment, weights):
        mrf, _ = program.ground_with_origins(weights)
        return GroundedProgram(program, mrf).rule_features(assignment)

    soft_rules = [r for r in program.rules if not r.is_hard]
    weights = {r: float(r.weight) for r in soft_rules}
    energy_gaps = []
    for _ in range(epochs):
        mrf, _ = program.ground_with_origins(weights)
        solved = AdmmSolver(mrf).solve()
        prediction = {
            atom: float(solved.x[mrf.index_of(atom)])
            for atom in program.database.targets
        }
        phi_prediction = features(prediction, weights)
        phi_truth = features(truth, weights)
        energy_prediction = sum(
            weights[r] * phi_prediction.get(r, 0.0) for r in soft_rules
        )
        energy_truth = sum(weights[r] * phi_truth.get(r, 0.0) for r in soft_rules)
        gap = energy_truth - energy_prediction
        energy_gaps.append(gap)
        if gap <= 1e-6:
            break
        for r in soft_rules:
            delta = phi_prediction.get(r, 0.0) - phi_truth.get(r, 0.0)
            weights[r] = max(floor, weights[r] + learning_rate * delta)
    return weights, energy_gaps


def _learning_comparison() -> dict:
    epochs, learning_rate, floor = 8, 0.5, 0.01
    program = _learning_program()
    likes = program.predicate("likes", 2, closed=False)
    truth = {}
    for atom in program.database.targets:
        person, t = atom.arguments
        truth[likes(person, t)] = 1.0 if t == "t0" else 0.0

    legacy_program = _learning_program()
    start = time.perf_counter()
    legacy_weights, legacy_gaps = _legacy_learn(
        legacy_program, truth, epochs, learning_rate, floor
    )
    legacy_seconds = time.perf_counter() - start
    legacy_epochs = len(legacy_gaps)

    start = time.perf_counter()
    result = learn_rule_weights(
        program, truth, epochs=epochs, learning_rate=learning_rate, floor=floor
    )
    learn_seconds = time.perf_counter() - start

    # Same trajectory, bit for bit: the artifact loop IS the old loop
    # minus the re-grounding.
    assert program.grounding_count == 1
    assert legacy_program.grounding_count == 3 * legacy_epochs
    assert result.energy_gaps == legacy_gaps
    assert {r.name or repr(r): w for r, w in result.weights.items()} == {
        r.name or repr(r): w for r, w in legacy_weights.items()
    }

    legacy_per_epoch = legacy_seconds / max(legacy_epochs, 1)
    new_per_epoch = learn_seconds / max(len(result.energy_gaps), 1)
    speedup = legacy_per_epoch / new_per_epoch if new_per_epoch else float("inf")
    table = format_table(
        ["path", "groundings", "sec/epoch"],
        [
            ["re-ground per epoch (legacy)", 3 * legacy_epochs, legacy_per_epoch],
            ["ground once + reweight", 1, new_per_epoch],
        ],
        title=(
            f"weight learning, {legacy_epochs} epochs "
            f"(speedup {speedup:.1f}x, identical weights + gaps)"
        ),
    )
    record_result("reweight_learning", table)
    return {
        "learning_epochs": legacy_epochs,
        "learning_legacy_sec_per_epoch": legacy_per_epoch,
        "learning_sec_per_epoch": new_per_epoch,
        "learning_speedup": speedup,
        "learning_identical_trajectory": True,
    }
