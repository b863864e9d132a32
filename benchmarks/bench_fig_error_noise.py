"""Figure: data F1 vs error noise (piErrors).

Deleting non-certain error tuples from J makes the gold tgds look
error-prone.  The other two noise parameters stay 0: with no spurious
correspondences, selecting every candidate exchanges no wrong data, so
all-candidates is as good as gold and scores data F1 1.000 at every
level.  Collective and greedy tie and fall with the noise (0.962 at 0
down to 0.675 at 100 on the default sweep), because the deleted facts
make some gold tgds look error-prone enough to drop.

The asserts check only the selectors' own trend: collective is near
gold at zero noise, the clean level is its best, it is never more than
0.05 below greedy, and its mean over the sweep is at least 0.5.  They
do not compare it with all-candidates.
"""

from benchmarks._common import record_result
from benchmarks.sweeps import column, noise_sweep

from repro.evaluation.reporting import mean


def test_fig_quality_vs_error_noise(benchmark):
    rows, table = benchmark.pedantic(
        lambda: noise_sweep("pi_errors"), rounds=1, iterations=1
    )
    record_result("fig_error_noise", table)

    collective = column(rows, "collective")
    greedy = column(rows, "greedy")

    # Quality under zero noise is near-gold.
    assert collective[0] >= 0.85
    # Degradation is monotone-ish: the clean level is the best level.
    assert collective[0] >= max(collective) - 1e-9
    # The collective selector is never much worse than greedy anywhere.
    assert all(c >= g - 0.05 for c, g in zip(collective, greedy))
    assert mean(collective) >= 0.5
