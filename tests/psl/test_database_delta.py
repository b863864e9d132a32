"""Journal / delta semantics of the observation database.

Covers the structured change journal behind incremental grounding:
``state_token`` identity, ``delta_since`` replay (net-out, windowing,
foreign tokens), the token-stable value-identical re-observe, and the
insertion-order ``__iter__`` guarantee (with a lint regression pinning
the RPL002 hash-order class out of ``database.py``).
"""

import pickle

import pytest

from repro.errors import GroundingError
from repro.psl.database import EMPTY_DELTA, JOURNAL_LIMIT, Database, DatabaseDelta
from repro.psl.predicate import Predicate

P = Predicate("p", 1, closed=True)
Q = Predicate("q", 1, closed=False)


def test_state_token_changes_on_mutation():
    db = Database()
    t0 = db.state_token()
    db.observe(P("a"), 0.5)
    t1 = db.state_token()
    assert t0 != t1
    db.add_target(Q("x"))
    assert db.state_token() != t1


def test_tokens_of_distinct_databases_never_alias():
    a, b = Database(), Database()
    a.observe(P("a"), 1.0)
    b.observe(P("a"), 1.0)
    # Same mutation sequence, same version — still distinct snapshots.
    assert a.state_token() != b.state_token()
    assert b.delta_since(a.state_token()) is None


def test_pickled_copy_keeps_its_salt():
    db = Database()
    db.observe(P("a"), 1.0)
    copy = pickle.loads(pickle.dumps(db))
    assert copy.state_token() == db.state_token()
    assert copy.delta_since(db.state_token()) == EMPTY_DELTA


def test_delta_since_equal_version_is_empty_and_falsy():
    db = Database()
    db.observe(P("a"), 1.0)
    delta = db.delta_since(db.state_token())
    assert delta == EMPTY_DELTA
    assert not delta


def test_delta_since_reports_new_observations_and_targets():
    db = Database()
    token = db.state_token()
    db.observe(P("a"), 0.25)
    db.add_target(Q("x"))
    delta = db.delta_since(token)
    assert delta
    assert delta.observed == ((P("a"), 0.25),)
    assert delta.added_targets == (Q("x"),)
    assert delta.retracted_observations == ()
    assert delta.retracted_targets == ()
    assert delta.touched_atoms == (P("a"), Q("x"))
    assert delta.predicates == {P, Q}


def test_delta_since_nets_out_observe_then_retract():
    db = Database()
    token = db.state_token()
    db.observe(P("a"), 0.5)
    db.retract_observation(P("a"))
    assert db.delta_since(token) == EMPTY_DELTA
    # ... but the version did move: the token is not the current one.
    assert db.state_token() != token


def test_delta_since_nets_out_value_roundtrip():
    db = Database()
    db.observe(P("a"), 0.5)
    token = db.state_token()
    db.observe(P("a"), 0.9)
    db.observe(P("a"), 0.5)
    assert db.delta_since(token) == EMPTY_DELTA


def test_delta_since_reports_net_value_change_once():
    db = Database()
    db.observe(P("a"), 0.1)
    token = db.state_token()
    db.observe(P("a"), 0.2)
    db.observe(P("a"), 0.3)
    delta = db.delta_since(token)
    assert delta.observed == ((P("a"), 0.3),)


def test_delta_since_retract_then_re_add_target():
    db = Database()
    db.add_target(Q("x"))
    token = db.state_token()
    db.retract_target(Q("x"))
    db.add_target(Q("x"))
    assert db.delta_since(token) == EMPTY_DELTA
    db.retract_target(Q("x"))
    delta = db.delta_since(token)
    assert delta.retracted_targets == (Q("x"),)
    assert delta.added_targets == ()


def test_delta_since_observation_becomes_target():
    db = Database()
    db.observe(Q("x"), 1.0)
    token = db.state_token()
    db.retract_observation(Q("x"))
    db.add_target(Q("x"))
    delta = db.delta_since(token)
    assert delta.retracted_observations == (Q("x"),)
    assert delta.added_targets == (Q("x"),)
    assert delta.observed == ()


def test_delta_since_rejects_foreign_future_and_malformed_tokens():
    db = Database()
    db.observe(P("a"), 1.0)
    other = Database()
    assert db.delta_since(other.state_token()) is None
    salt, version = db.state_token()
    assert db.delta_since((salt, version + 1)) is None  # from the future
    assert db.delta_since((salt, "0")) is None
    assert db.delta_since("not-a-token") is None
    assert db.delta_since(None) is None


def test_delta_since_pre_window_token_returns_none():
    db = Database()
    token = db.state_token()
    for i in range(JOURNAL_LIMIT + 1):
        db.observe(P(f"a{i}"), 1.0)
    # The journal truncated from the front; the root token predates it.
    assert db.delta_since(token) is None
    # A recent token is still inside the retained window.
    recent = db.state_token()
    db.observe(P("tail"), 1.0)
    assert db.delta_since(recent) == DatabaseDelta(
        observed=((P("tail"), 1.0),),
        retracted_observations=(),
        added_targets=(),
        retracted_targets=(),
    )


def test_value_identical_reobserve_is_token_stable():
    db = Database()
    db.observe(P("a"), 0.75)
    token = db.state_token()
    db.observe(P("a"), 0.75)
    assert db.state_token() == token
    assert db.delta_since(token) == EMPTY_DELTA


def test_retract_unknown_raises():
    db = Database()
    with pytest.raises(GroundingError):
        db.retract_observation(P("a"))
    with pytest.raises(GroundingError):
        db.retract_target(Q("x"))


def test_duplicate_add_target_is_token_stable():
    db = Database()
    db.add_target(Q("x"))
    token = db.state_token()
    db.add_target(Q("x"))
    assert db.state_token() == token


def test_retract_restores_closed_world_default():
    db = Database()
    db.observe(P("a"), 0.8)
    db.retract_observation(P("a"))
    assert db.truth(P("a")) == 0.0
    assert db.atoms_of(P) == frozenset()
    db.add_target(Q("x"))
    db.retract_target(Q("x"))
    assert not db.is_target(Q("x"))
    assert Q("x") not in db.targets_in_order


def test_iteration_is_insertion_ordered():
    db = Database()
    atoms = [P(f"a{i}") for i in range(20)] + [Q(f"b{i}") for i in range(5)]
    for atom in atoms[:20]:
        db.observe(atom, 1.0)
    for atom in atoms[20:]:
        db.add_target(atom)
    assert list(db) == atoms
    # Retract-then-re-add moves the atom to the back of its bucket —
    # iteration order tracks *current* insertion order, not history.
    db.retract_observation(atoms[0])
    db.observe(atoms[0], 1.0)
    assert list(db) == atoms[1:20] + [atoms[0]] + atoms[20:]


def test_database_module_is_hash_order_clean():
    """Lint regression: no RPL002 (hash-order iteration) in database.py."""
    from repro.psl import database
    from repro.analysis.runner import lint_paths

    report = lint_paths([database.__file__])
    assert not report.parse_errors
    assert [f for f in report.findings if f.rule == "RPL002"] == []
