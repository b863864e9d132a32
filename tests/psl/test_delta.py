"""Delta grounding is bit-identical to grounding from scratch.

The contract of :class:`repro.psl.delta.IncrementalProgramGrounding`:
after ANY journal-replayable edit sequence, the patched MRF has the same
:func:`structure_fingerprint` / :func:`mrf_fingerprint` — and therefore
the same ADMM solve trajectory — as a from-scratch ground of the edited
program, for every shard size and wherever it runs.  Only shards whose rules
read a touched predicate are re-ground; everything else splices.
"""

import numpy as np
import pytest

from repro.psl.admm import AdmmSettings, AdmmSolver
from repro.psl.delta import IncrementalProgramGrounding
from repro.psl.program import PslProgram
from repro.psl.rule import lit
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from tests.work_units import run_on

SHARD_SIZES = (1, 2, 7, None)
EXECUTORS = ("serial", "process:2")


def _program() -> PslProgram:
    """Four-rule voting model over two predicate families.

    ``likes`` feeds only the last two rules, so edits to it must leave
    the friend-driven shards spliced, not re-ground.
    """
    program = PslProgram()
    friend = program.predicate("friend", 2)
    likes = program.predicate("likes", 2)
    votes = program.predicate("votes", 2, closed=False)
    program.rule(
        [lit(friend, "A", "B"), lit(votes, "A", "P")], [lit(votes, "B", "P")], weight=0.5
    )
    program.rule([lit(friend, "A", "B")], [lit(friend, "B", "A")], weight=0.25)
    program.rule([lit(likes, "A", "P")], [lit(votes, "A", "P")], weight=2.0)
    program.rule([lit(votes, "A", "P")], [], weight=0.1)
    for pair in (("a", "b"), ("b", "c"), ("a", "c")):
        program.observe(friend(*pair))
    program.observe(likes("a", "l"), 0.9)
    for who in "abc":
        for party in ("l", "r"):
            program.target(votes(who, party))
    return program


def _fresh_mrf(program: PslProgram):
    mrf, _ = program.ground_sharded()
    return mrf


def _assert_same_solve(patched, fresh) -> None:
    assert structure_fingerprint(patched) == structure_fingerprint(fresh)
    assert mrf_fingerprint(patched) == mrf_fingerprint(fresh)
    settings = AdmmSettings(max_iterations=120)
    a = AdmmSolver(patched, settings).solve()
    b = AdmmSolver(fresh, settings).solve()
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)
    assert a.energy == b.energy


def _observation_edit(shard_size):
    """Ground, observe one ``likes`` fact, refresh; report both MRFs."""
    program = _program()
    likes = program.predicate("likes", 2)
    inc = IncrementalProgramGrounding(program, shard_size=shard_size)
    full_grounds = inc.full_grounds
    program.observe(likes("b", "r"), 0.7)
    patched = inc.refresh()
    return full_grounds, inc.patched_grounds, patched, _fresh_mrf(program)


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_observation_edit_matches_scratch(executor, shard_size):
    full_grounds, patched_grounds, patched, fresh = run_on(
        executor, _observation_edit, shard_size
    )
    assert full_grounds == 1
    assert patched_grounds == 1
    _assert_same_solve(patched, fresh)


def test_untouched_predicates_splice():
    program = _program()
    likes = program.predicate("likes", 2)
    inc = IncrementalProgramGrounding(program, shard_size=1)
    program.observe(likes("c", "l"), 0.4)
    inc.refresh()
    stats = inc.splice_stats
    assert stats is not None
    # Only the likes->votes rule shards re-ground; friend rules, the
    # symmetry rule, and the prior splice straight through.
    assert stats.reused_shards > 0
    assert stats.fresh_shards < stats.num_shards
    assert stats.reuse_fraction > 0.5


def test_noop_refresh_keeps_mrf_object():
    program = _program()
    inc = IncrementalProgramGrounding(program)
    mrf = inc.mrf
    assert inc.refresh() is mrf
    assert inc.full_grounds == 1
    assert inc.patched_grounds == 0


def test_value_identical_reobserve_does_not_reground():
    program = _program()
    likes = program.predicate("likes", 2)
    inc = IncrementalProgramGrounding(program)
    mrf = inc.mrf
    program.observe(likes("a", "l"), 0.9)  # same value: token-stable
    assert inc.refresh() is mrf
    assert inc.patched_grounds == 0


@pytest.mark.parametrize("shard_size", (1, 3, None))
def test_multi_step_chain_matches_scratch(shard_size):
    program = _program()
    friend = program.predicate("friend", 2)
    likes = program.predicate("likes", 2)
    votes = program.predicate("votes", 2, closed=False)
    inc = IncrementalProgramGrounding(program, shard_size=shard_size)

    steps = [
        lambda: program.observe(likes("b", "l"), 0.6),
        lambda: program.observe(friend("c", "b"), 0.8),
        lambda: program.database.retract_observation(likes("a", "l")),
        lambda: program.observe(likes("a", "l"), 0.9),  # re-add after retract
        lambda: program.target(votes("d", "l")),
        lambda: program.database.retract_target(votes("d", "l")),
    ]
    for step in steps:
        step()
        patched = inc.refresh()
        _assert_same_solve(patched, _fresh_mrf(program))
    assert inc.full_grounds == 1
    assert inc.patched_grounds == len(steps)


def test_retract_then_readd_round_trips_to_original_structure():
    program = _program()
    likes = program.predicate("likes", 2)
    inc = IncrementalProgramGrounding(program)
    before = structure_fingerprint(inc.mrf)
    program.database.retract_observation(likes("a", "l"))
    inc.refresh()
    program.observe(likes("a", "l"), 0.9)
    after = inc.refresh()
    assert structure_fingerprint(after) == before
    _assert_same_solve(after, _fresh_mrf(program))


def test_weight_override_change_forces_reground_of_that_rule():
    program = _program()
    rule = program._rules[0]
    inc = IncrementalProgramGrounding(program, shard_size=1)
    likes = program.predicate("likes", 2)
    program.observe(likes("b", "r"), 0.3)
    inc.weight_overrides = {rule: 1.5}
    patched = inc.refresh()
    fresh, _ = program.ground_sharded({rule: 1.5})
    assert mrf_fingerprint(patched) == mrf_fingerprint(fresh)


def test_foreign_database_swap_degrades_to_full_ground():
    program = _program()
    likes = program.predicate("likes", 2)
    inc = IncrementalProgramGrounding(program)
    # Replace the database wholesale: a foreign salt the journal cannot
    # bridge.  Refresh must fall back to a full re-ground, never error.
    import pickle

    program.database = pickle.loads(pickle.dumps(program.database))
    program.database._salt = ("foreign", 0)
    program.observe(likes("c", "r"), 0.2)
    refreshed = inc.refresh()
    assert inc.full_grounds == 2
    assert inc.patched_grounds == 0
    _assert_same_solve(refreshed, _fresh_mrf(program))


def test_journal_truncation_degrades_to_full_ground(monkeypatch):
    import repro.psl.database as database_module

    monkeypatch.setattr(database_module, "JOURNAL_LIMIT", 4)
    program = _program()
    likes = program.predicate("likes", 2)
    inc = IncrementalProgramGrounding(program)
    for i in range(6):  # overflow the tiny journal window
        program.observe(likes(f"p{i}", "l"), 0.5)
    refreshed = inc.refresh()
    assert inc.full_grounds == 2
    assert inc.patched_grounds == 0
    _assert_same_solve(refreshed, _fresh_mrf(program))
