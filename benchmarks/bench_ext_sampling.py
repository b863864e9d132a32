"""Extension experiment: J-sampling size/quality trade-off.

Restrict the selection problem to progressively smaller samples of the
target example and measure (a) the wall time of building the sampled
problem and (b) the selection's mapping-level F1 against gold.  What
sampling shrinks is ``j_facts``, and with it the HL-MRF's coverage
block; the build does not shrink, because a sampled problem is the full
build restricted to the sample (errors and null corroboration test
every chase fact against all of J).  The build column is therefore flat
across rates: 0.019-0.031 s per build at every rate on a 2-CPU Linux
container.  Shape: F1 stays high until the sample gets thin.

Asserted on every seed: the 25% sample keeps fewer J facts than the
full problem.
"""

import time

from benchmarks._common import record_result

from repro.evaluation.metrics import mapping_quality
from repro.evaluation.reporting import format_table, mean
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.collective import CollectiveSettings, solve_collective
from repro.selection.sampling import sample_selection_problem

RATES = (1.0, 0.5, 0.25, 0.1)
SEEDS = (1, 2)


def _tradeoff_rows():
    """(table rows, J facts per (rate, seed))."""
    rows, j_facts = [], {}
    for rate in RATES:
        seconds, f1 = [], []
        for seed in SEEDS:
            scenario = generate_scenario(
                ScenarioConfig(
                    num_primitives=4, rows_per_relation=20, pi_corresp=50, seed=seed
                )
            )
            start = time.perf_counter()
            sampled = sample_selection_problem(
                scenario.source, scenario.target, scenario.candidates,
                rate=rate, seed=seed,
            )
            build_seconds = time.perf_counter() - start
            j_facts[rate, seed] = len(sampled.problem.j_facts)
            result = solve_collective(
                sampled.problem, CollectiveSettings(weights=sampled.weights)
            )
            seconds.append(build_seconds)
            f1.append(
                mapping_quality(result.selected, scenario.gold_indices).f1
            )
        rows.append([rate, mean(seconds), mean(f1)])
    return rows, j_facts


def test_ext_sampling_tradeoff(benchmark):
    rows, j_facts = benchmark.pedantic(_tradeoff_rows, rounds=1, iterations=1)
    record_result(
        "ext_sampling",
        format_table(
            ["sample rate", "build sec", "map F1"],
            rows,
            title="J-sampling: sampled-problem build time vs selection quality",
        ),
    )
    by_rate = {row[0]: row for row in rows}
    # Sampling at 25% must keep fewer J facts than the full problem...
    for seed in SEEDS:
        assert j_facts[0.25, seed] < j_facts[1.0, seed]
    # ...while keeping most of the quality at moderate rates.
    assert by_rate[0.5][2] >= by_rate[1.0][2] - 0.25
