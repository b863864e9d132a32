"""Unit tests for PSL predicates and ground atoms."""

import pytest

from repro.psl.predicate import GroundAtom, Predicate


def test_predicate_call_builds_atom():
    friend = Predicate("friend", 2)
    a = friend("alice", "bob")
    assert a == GroundAtom(friend, ("alice", "bob"))


def test_predicate_arity_enforced():
    friend = Predicate("friend", 2)
    with pytest.raises(ValueError):
        friend("alice")
