"""The cyclic-collector pause around scenario generation and the problem build.

The pause is only sound while the paused work leaves no reference cycle:
reference counting then frees all of it.  So generation and the build of
a pooled p=48 scenario must leave nothing a collection would find, and
the pause must hand back the collector's state as it found it.
"""

import gc

import pytest

from repro.collector import paused_collector
from repro.datamodel.instance import Instance
from repro.errors import SelectionError
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.metrics import build_selection_problem

#: One scenario of perfbench's ``select-p48`` pool (pi_corresp 25).
POOL_SCENARIO = ScenarioConfig(
    num_primitives=48, rows_per_relation=20, pi_corresp=25,
    pi_errors=0, pi_unexplained=25, seed=1101828441,
)


@pytest.fixture
def collector_state():
    """Restore the collector's state however the test leaves it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_generation_and_build_leave_no_cyclic_garbage(collector_state):
    gc.collect()
    gc.disable()
    scenario = generate_scenario(POOL_SCENARIO)
    problem = scenario.selection_problem()
    assert gc.collect() == 0
    assert problem.num_candidates == len(scenario.candidates)


def test_pause_restores_an_enabled_collector(collector_state):
    gc.enable()
    with paused_collector():
        assert not gc.isenabled()
        with paused_collector():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_leaves_a_disabled_collector_disabled(collector_state):
    gc.disable()
    with paused_collector():
        assert not gc.isenabled()
    assert not gc.isenabled()
    generate_scenario(ScenarioConfig(num_primitives=2, rows_per_relation=3, seed=1))
    assert not gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_raising_build_restores_the_collector_state(collector_state, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with pytest.raises(SelectionError):
        build_selection_problem(Instance(), Instance(), ["not a tgd"])
    assert gc.isenabled() is enabled
