"""Unit tests for st tgds: variable classification, size, canonical form."""

import pytest

from repro.errors import MappingError
from repro.mappings.atoms import atom
from repro.mappings.parser import parse_tgd
from repro.mappings.tgd import StTgd
from repro.mappings.terms import Variable


def test_universal_and_existential_variables():
    t = parse_tgd("proj(P, E, C) -> task(P, E, O)")
    assert t.universal_variables == {Variable("P"), Variable("E"), Variable("C")}
    assert t.existential_variables == {Variable("O")}
    assert t.exported_variables == {Variable("P"), Variable("E")}


def test_full_tgd_has_no_existentials():
    t = parse_tgd("r(X, Y) -> s(X, Y)")
    assert t.is_full
    assert t.existential_variables == frozenset()


def test_size_counts_atoms_plus_existentials():
    theta1 = parse_tgd("proj(P, E, C) -> task(P, E, O)")
    theta3 = parse_tgd("proj(P, E, C) -> task(P, E, O) & org(O, C)")
    assert theta1.size == 3  # matches the appendix
    assert theta3.size == 4
    assert parse_tgd("r(X) -> s(X)").size == 2


def test_empty_body_or_head_rejected():
    with pytest.raises(MappingError):
        StTgd((), (atom("s", "X"),))
    with pytest.raises(MappingError):
        StTgd((atom("r", "X"),), ())


def test_rename_substitutes_everywhere():
    t = parse_tgd("r(X, Y) -> s(Y, Z)")
    renamed = t.rename({Variable("Y"): Variable("W")})
    assert repr(renamed.body[0]) == "r(X, W)"
    assert repr(renamed.head[0]) == "s(W, Z)"


def test_canonical_ignores_variable_names():
    a = parse_tgd("r(X, Y) -> s(X, Z)")
    b = parse_tgd("r(P, Q) -> s(P, R)")
    assert a.canonical() == b.canonical()


def test_canonical_ignores_atom_order():
    a = parse_tgd("r(X) -> s(X, F) & t(F, X)")
    b = parse_tgd("r(X) -> t(F, X) & s(X, F)")
    assert a.canonical() == b.canonical()


def test_canonical_distinguishes_different_join_structure():
    joined = parse_tgd("r(X) -> s(X, F) & t(F, X)")
    unjoined = parse_tgd("r(X) -> s(X, F) & t(G, X)")
    assert joined.canonical() != unjoined.canonical()


def test_canonical_distinguishes_constants_from_variables():
    with_const = parse_tgd("r(X) -> s(X, 7)")
    with_var = parse_tgd("r(X) -> s(X, Y)")
    assert with_const.canonical() != with_var.canonical()


def test_canonical_drops_name():
    named = parse_tgd("mine: r(X) -> s(X)")
    assert named.canonical().name == ""


def test_source_and_target_relations():
    t = parse_tgd("a(X) & b(X) -> c(X) & d(X)")
    assert t.source_relations() == {"a", "b"}
    assert t.target_relations() == {"c", "d"}


def test_validate_against_schemas():
    from repro.datamodel.schema import Schema, relation

    source, target = Schema("S"), Schema("T")
    source.add(relation("r", "a", "b"))
    target.add(relation("s", "x"))
    parse_tgd("r(X, Y) -> s(X)").validate_against(source, target)
    with pytest.raises(MappingError):
        parse_tgd("r(X) -> s(X)").validate_against(source, target)  # arity


def test_repr_roundtrips_through_parser():
    t = parse_tgd("t3: proj(P, E, C) -> task(P, E, O) & org(O, C)")
    again = parse_tgd(repr(t))
    assert again.canonical() == t.canonical()
    assert again.name == "t3"
