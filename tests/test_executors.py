"""Tests for the engine's executor spec and its one pool per grid run.

``EvaluationEngine`` accepts ``None``/``"serial"`` or ``"process[:N]"``
and rejects everything else at construction.  A process grid opens one
``ProcessPoolExecutor`` per run and shuts it down before returning, so
no worker process outlives the grid — not even when a cell raises.
"""

import multiprocessing
import os

import pytest

from repro.errors import ReproError
from repro.evaluation.engine import EvaluationEngine, parse_executor_spec
from repro.ibench.config import ScenarioConfig


def test_resolve_none_and_serial():
    assert parse_executor_spec(None) is None
    assert parse_executor_spec("serial") is None
    assert EvaluationEngine().workers is None


def test_resolve_process_with_and_without_count():
    assert parse_executor_spec("process") == (os.cpu_count() or 1)
    assert EvaluationEngine(executor="process:3").workers == 3


@pytest.mark.parametrize("spec", ["process:0", "process:-1", "thread:0"])
def test_resolve_rejects_nonpositive_worker_counts(spec):
    with pytest.raises(ReproError):
        EvaluationEngine(executor=spec)


@pytest.mark.parametrize(
    "spec",
    ["process:x", "thread:2.5", "gpu", "serial-ish", "thread", "thread:2", "threads"],
)
def test_resolve_rejects_malformed_specs(spec):
    with pytest.raises(ReproError):
        EvaluationEngine(executor=spec)


def test_resolve_rejects_objects_with_map():
    class Custom:
        def map(self, fn, items):
            return map(fn, items)

    with pytest.raises(ReproError):
        EvaluationEngine(executor=Custom())


def test_resolve_rejects_objects_without_map():
    with pytest.raises(ReproError):
        EvaluationEngine(executor=42)


def _configs():
    return [ScenarioConfig(num_primitives=2, rows_per_relation=6, seed=s) for s in (3, 4, 5)]


def test_process_map_preserves_order():
    # A cold process grid maps its cells on the pool in job order, and
    # the pool's workers are joined once run_grid returns.
    engine = EvaluationEngine(methods=("greedy",), executor="process:2")
    result = engine.run_grid(_configs())
    assert [(c.config, c.method) for c in result.cells] == [
        (config, method) for config in _configs() for method in ("greedy", "gold")
    ]
    assert multiprocessing.active_children() == []


def test_process_map_propagates_worker_exceptions():
    # With or without "collective" in the methods, the worker's
    # ReproError reaches the caller and the pool's workers are joined.
    for methods in (("nope",), ("collective", "nope")):
        engine = EvaluationEngine(methods=methods, executor="process:2")
        with pytest.raises(ReproError, match="unknown methods"):
            engine.run_grid(_configs())
        assert multiprocessing.active_children() == []
