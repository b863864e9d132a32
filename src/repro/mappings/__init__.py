"""Mapping language: variables, atoms, st tgds, and a textual parser."""

from repro.mappings.atoms import Atom, atom
from repro.mappings.parser import parse_tgd, parse_tgds
from repro.mappings.terms import Term, Variable, is_variable, var
from repro.mappings.tgd import StTgd

__all__ = [
    "Atom",
    "StTgd",
    "Term",
    "Variable",
    "atom",
    "is_variable",
    "parse_tgd",
    "parse_tgds",
    "var",
]
