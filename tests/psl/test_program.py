"""End-to-end tests of PslProgram: the classic collective-voting model."""

import pytest

from repro.errors import GroundingError, InferenceError
from repro.psl.program import PslProgram
from repro.psl.rule import lit, neg


def _voting_program():
    """Friends vote alike; one person's vote is observed via a strong prior."""
    program = PslProgram()
    friend = program.predicate("friend", 2)
    leans = program.predicate("leans", 2)  # observed side information
    votes = program.predicate("votes", 2, closed=False)

    program.rule(
        [lit(friend, "A", "B"), lit(votes, "A", "P")],
        [lit(votes, "B", "P")],
        weight=1.0,
        name="peer-influence",
    )
    program.rule(
        [lit(leans, "A", "P")],
        [lit(votes, "A", "P")],
        weight=2.0,
        name="own-leaning",
    )
    program.rule([lit(votes, "A", "P")], [], weight=0.1, name="abstain-prior")
    return program, friend, leans, votes


def test_influence_propagates_through_friendship():
    program, friend, leans, votes = _voting_program()
    program.observe(friend("alice", "bob"))
    program.observe(leans("alice", "left"))
    for person in ("alice", "bob"):
        program.target(votes(person, "left"))
    result = program.infer()
    assert result.converged
    assert result.truth(votes("alice", "left")) > 0.8
    assert result.truth(votes("bob", "left")) > 0.5


def test_no_evidence_means_low_truth():
    program, friend, leans, votes = _voting_program()
    program.target(votes("carol", "left"))
    result = program.infer()
    assert result.truth(votes("carol", "left")) < 0.1


def test_soft_evidence_gives_intermediate_truth():
    program, friend, leans, votes = _voting_program()
    program.observe(leans("dave", "left"), 0.5)
    program.target(votes("dave", "left"))
    result = program.infer()
    assert 0.2 < result.truth(votes("dave", "left")) < 0.9


def test_hard_rule_becomes_constraint():
    program = PslProgram()
    person = program.predicate("person", 1)
    a_pred = program.predicate("a", 1, closed=False)
    b_pred = program.predicate("b", 1, closed=False)
    # hard: a(X) -> b(X); weighted: pull a up, b down a bit
    program.rule([lit(person, "X"), lit(a_pred, "X")], [lit(b_pred, "X")], weight=None)
    program.rule([lit(person, "X")], [lit(a_pred, "X")], weight=5.0)
    program.rule([lit(person, "X"), lit(b_pred, "X")], [], weight=1.0)
    program.observe(person("p"))
    program.target(a_pred("p"))
    program.target(b_pred("p"))
    result = program.infer()
    assert result.truth(b_pred("p")) >= result.truth(a_pred("p")) - 1e-3


def test_raw_potential_and_constraint():
    program = PslProgram()
    x = program.predicate("x", 1, closed=False)
    program.target(x(0))
    program.add_raw_potential({x(0): -1.0}, 1.0, weight=1.0)  # pull up
    program.add_linear_constraint({x(0): 1.0}, -0.5)  # x <= 0.5
    result = program.infer()
    assert result.truth(x(0)) == pytest.approx(0.5, abs=1e-3)


def test_inconsistent_predicate_redeclaration_rejected():
    program = PslProgram()
    program.predicate("p", 1)
    with pytest.raises(GroundingError):
        program.predicate("p", 2)


def test_redeclaration_with_same_signature_is_idempotent():
    program = PslProgram()
    p1 = program.predicate("p", 1)
    p2 = program.predicate("p", 1)
    assert p1 is p2


def test_truth_of_non_target_raises():
    program, friend, leans, votes = _voting_program()
    program.target(votes("x", "left"))
    result = program.infer()
    with pytest.raises(InferenceError):
        result.truth(votes("y", "left"))


def test_negated_head_pushes_down():
    program = PslProgram()
    person = program.predicate("person", 1)
    bad = program.predicate("bad", 1, closed=False)
    program.rule([lit(person, "X")], [neg(lit(bad, "X"))], weight=3.0)
    program.rule([lit(person, "X")], [lit(bad, "X")], weight=1.0)
    program.observe(person("p"))
    program.target(bad("p"))
    result = program.infer()
    assert result.truth(bad("p")) < 0.2


def test_warm_start_accepts_partial_assignment():
    program, friend, leans, votes = _voting_program()
    program.observe(leans("alice", "left"))
    program.target(votes("alice", "left"))
    result = program.infer(warm_start={votes("alice", "left"): 1.0})
    assert result.truth(votes("alice", "left")) > 0.8


def test_grounding_counts_reported():
    program, friend, leans, votes = _voting_program()
    program.observe(friend("a", "b"))
    program.observe(leans("a", "left"))
    program.target(votes("a", "left"))
    program.target(votes("b", "left"))
    result = program.infer()
    assert result.num_potentials >= 3


def test_reground_after_mutation_matches_serial_in_a_worker_process():
    # A re-ground in a worker process after observe()/add_target()
    # mutate the program must ground the mutated database, never a
    # stale copy.
    from repro.psl.sharding import mrf_fingerprint
    from tests.work_units import run_on

    program, friend, leans, votes = _voting_program()
    program.observe(friend("a", "b"))
    program.observe(leans("a", "left"))
    program.target(votes("a", "left"))
    program.target(votes("b", "left"))
    first = run_on("process:2", program.ground, shard_size=2)
    assert mrf_fingerprint(first) == mrf_fingerprint(program.ground())

    program.observe(friend("b", "c"))
    program.target(votes("c", "left"))
    second = run_on("process:2", program.ground, shard_size=2)
    assert mrf_fingerprint(second) == mrf_fingerprint(program.ground())
    assert mrf_fingerprint(second) != mrf_fingerprint(first)
