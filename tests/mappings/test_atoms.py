"""Unit tests for atoms and terms."""

from repro.datamodel.values import Constant
from repro.mappings.atoms import Atom, atom
from repro.mappings.terms import Variable, is_variable, var


def test_atom_helper_wraps_strings_as_variables():
    a = atom("proj", "P", "E", 7)
    assert a.terms == (Variable("P"), Variable("E"), Constant(7))
    assert a.variables == (Variable("P"), Variable("E"))


def test_atom_helper_accepts_explicit_terms():
    a = atom("r", Constant("ibm"), var("X"))
    assert a.terms == (Constant("ibm"), Variable("X"))


def test_is_variable():
    assert is_variable(Variable("X"))
    assert not is_variable(Constant("X"))


def test_rename():
    a = atom("r", "X", "Y")
    b = a.rename({Variable("X"): Variable("Z")})
    assert b == atom("r", "Z", "Y")


def test_rename_can_substitute_constants():
    a = atom("r", "X")
    b = a.rename({Variable("X"): Constant(3)})
    assert b.terms == (Constant(3),)


def test_repeated_variables_repeat_in_variables():
    a = atom("r", "X", "X")
    assert a.variables == (Variable("X"), Variable("X"))


def test_atom_repr():
    assert repr(atom("task", "P", "E", 111)) == "task(P, E, 111)"
