"""Host-speed sampling: time a tiny fixed kernel many times a second.

The virtual machines this benchmark runs on flip between a fast and a
slow speed every few seconds and drift by up to 2x over minutes; a fixed
pure-Python loop shows both with nothing else running.  No repetition
inside a run averages that out, so the benchmark reports every
end-to-end time at the reference host speed.  While a :class:`SpeedProbe`
is open, a timer signal runs the kernel every :data:`INTERVAL` seconds
and records how long it took.  Over an interval, the work done at the
reference speed is its raw seconds, less the probes' own time, times the
mean of ``REFERENCE_S / probe seconds``.

The kernel uses no repository code and does the kind of work the
pipeline does (exact fractions, dict and frozenset traffic), so a change
to the program never moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: Seconds between probes.
INTERVAL = 0.05
#: Probe seconds at the reference host speed (the fast state of the
#: 2-vCPU host the baseline was recorded on).
REFERENCE_S = 0.00042


def _kernel() -> None:
    total = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(100):
        total += Fraction(i % 7, 3 + i % 5)
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        len(frozenset(range(i % 50)) ^ {i % 50})


class SpeedProbe:
    """Samples host speed from a ``SIGALRM`` timer while open."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:  # shorter than one probe interval: the latest speed
            inside = [s for t, s in self.samples if t <= end][-1:] or [REFERENCE_S]
        speed = statistics.fmean(REFERENCE_S / s for s in inside)
        return (end - start - sum(s for t, s in self.samples if start <= t <= end)) * speed
