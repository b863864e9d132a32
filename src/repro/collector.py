"""Pausing CPython's cyclic garbage collector around cycle-free work.

Reference counting frees every object that is not part of a reference
cycle the moment its last reference goes; the cyclic collector exists
for the rest.  It runs whenever enough new container objects have been
allocated, and each full (oldest-generation) collection rescans every
live tracked object.  Scenario generation and the problem build allocate
hundreds of thousands of facts, tuples and dicts while the earlier
problems are still alive, so a collection during them rescans those
problems and finds nothing to free: the chase, the match index and the
cover tables create no reference cycle (``tests/test_collector.py``
checks that a pooled scenario's generation and build leave no garbage a
collection would find).  :func:`paused_collector` skips those scans.

The collector's switch is process-wide, so the pause assumes one thread
builds at a time.  Another thread's own ``gc.disable()`` taken while a
pause is open is undone when the pause ends (``repro`` starts no thread
of its own).  Nothing else in ``src`` or ``benchmarks`` may switch or tune the
collector (rule RPL003 in ``tests/test_invariants.py``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_collector() -> Iterator[None]:
    """Disable the cyclic collector for the block, then restore its prior state.

    Reentrant: a collector that was already disabled on entry (by an
    enclosing pause or by the caller) stays disabled on exit.  The state
    is restored also when the block raises.  Also a decorator.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
