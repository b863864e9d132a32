"""Regression tests for the real violations repro-lint surfaced.

Each test pins the deterministic behaviour restored by a fix:

* ``PslProgram.infer`` / ``GroundedProgram.assignment_vector`` iterated
  the ``Database.targets`` frozenset (RPL002) — now ``targets_in_order``.
* ``learning.learn_rule_weights`` built predictions from the frozenset.
* ``CoverComputer`` deduped nulls with ``set()`` — now first-appearance
  order via ``dict.fromkeys``.
* ``solve_greedy`` scanned a ``set`` in its argmin, so objective ties
  broke by hash order — now lowest candidate index wins.
"""

from __future__ import annotations

import pytest

from repro.chase.engine import chase_single
from repro.datamodel.instance import Instance, fact
from repro.errors import InferenceError
from repro.examples_data import paper_example
from repro.homomorphism.covers import CoverComputer
from repro.mappings.parser import parse_tgds
from repro.psl.learning import learn_rule_weights
from repro.psl.program import PslProgram
from repro.psl.rule import lit
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import build_selection_problem


def _voting_program(people):
    program = PslProgram()
    leans = program.predicate("leans", 2)
    votes = program.predicate("votes", 2, closed=False)
    program.rule(
        [lit(leans, "A", "P")], [lit(votes, "A", "P")], weight=2.0, name="own"
    )
    program.rule([lit(votes, "A", "P")], [], weight=0.1, name="prior")
    for person in people:
        program.observe(leans(person, "left"))
        program.target(votes(person, "left"))
    return program, votes


def test_infer_assignment_follows_target_insertion_order():
    # Names chosen to collide-or-not arbitrarily under the hash seed;
    # the assignment dict must follow insertion order regardless.
    people = ["mallory", "alice", "zed", "bob", "carol"]
    program, votes = _voting_program(people)
    result = program.infer()
    expected = [votes(person, "left") for person in people]
    assert list(result.assignment) == expected
    assert list(program.database.targets_in_order) == expected


def test_assignment_vector_reports_earliest_missing_target():
    people = ["alice", "bob", "carol"]
    program, votes = _voting_program(people)
    grounded = program.ground_program({})
    partial = {votes("alice", "left"): 1.0}  # bob AND carol missing
    with pytest.raises(InferenceError) as excinfo:
        grounded.assignment_vector(partial)
    # targets_in_order makes the first-inserted missing atom the one
    # reported, whatever the per-process hash seed says.
    assert "bob" in str(excinfo.value)


def test_weight_learning_is_deterministic_across_runs():
    def run():
        program, votes = _voting_program(["alice", "bob"])
        truth = {
            votes("alice", "left"): 1.0,
            votes("bob", "left"): 1.0,
        }
        return learn_rule_weights(program, truth, epochs=3)

    first, second = run(), run()
    assert [w for w in first.weights.values()] == [
        w for w in second.weights.values()
    ]


def test_cover_computer_null_index_keeps_chase_order():
    ex = paper_example()
    k3 = chase_single(ex.source, ex.theta3)
    computer = CoverComputer(k3, ex.target)
    # The null-to-facts index must list nulls in first-appearance order
    # over the chase, not set order.
    appearance = []
    for f in k3:
        for n in dict.fromkeys(f.nulls):
            if n not in appearance:
                appearance.append(n)
    assert list(computer._facts_with_null) == appearance


def test_greedy_breaks_objective_ties_toward_lowest_index():
    # Two identical candidates: every delta ties; the pick must be the
    # lower index, not whichever a set yields first.
    source = Instance([fact("r", i) for i in range(3)])
    target = Instance([fact("u", i) for i in range(3)])
    candidates = parse_tgds("r(X) -> u(X)\nr(X) -> u(X)")
    problem = build_selection_problem(source, target, candidates)
    result = solve_greedy(problem, backward_pass=False)
    assert result.selected == frozenset({0})
