"""Ablation: collective vs per-candidate (independent) selection.

The paper's central modeling claim: candidates must be selected *jointly*
because coverage overlaps and errors interact.  This ablation scores the
independent per-candidate rule (include theta iff F({theta}) < F({}))
against the collective selector on scenarios with heavy correspondence
noise, where overlapping candidates abound.
"""

from benchmarks._common import record_result

from repro.evaluation.harness import score_selection
from repro.evaluation.reporting import format_table, mean
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.baselines import solve_independent
from repro.selection.collective import solve_collective

SEEDS = (1, 2, 3, 4)


def _ablation_rows():
    rows = []
    for seed in SEEDS:
        scenario = generate_scenario(
            ScenarioConfig(
                num_primitives=4, rows_per_relation=12, pi_corresp=100, seed=seed
            )
        )
        problem = scenario.selection_problem()
        collective = solve_collective(problem)
        independent = solve_independent(problem)
        scored = [
            score_selection(scenario, problem, name, result.selected, result.objective, 0.0)
            for name, result in (("collective", collective), ("independent", independent))
        ]
        rows.append(
            [seed]
            + [float(run.objective) for run in scored]
            + [run.data.f1 for run in scored]
            + [len(run.selected) for run in scored]
        )
    return rows


def test_ablation_collective_vs_independent(benchmark):
    rows = benchmark.pedantic(_ablation_rows, rounds=1, iterations=1)
    record_result(
        "ablation_collective",
        format_table(
            ["seed", "F coll", "F indep", "F1 coll", "F1 indep", "|M| coll", "|M| indep"],
            rows,
            title="Ablation: collective vs independent selection (piCorresp=100)",
        ),
    )
    # The collective objective weakly dominates on every seed...
    assert all(row[1] <= row[2] + 1e-9 for row in rows)
    # ...and the independent rule over-selects (it double-counts coverage).
    assert mean([row[6] for row in rows]) >= mean([row[5] for row in rows])
