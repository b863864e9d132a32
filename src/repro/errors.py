"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the broad failure classes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class SchemaError(ReproError):
    """A schema, relation, or attribute is malformed or unknown."""


class InstanceError(ReproError):
    """A fact or instance violates its schema."""


class MappingError(ReproError):
    """An st tgd is malformed (unsafe variables, unknown relations, ...)."""


class ParseError(MappingError):
    """A textual mapping or atom could not be parsed."""


class InferenceError(ReproError):
    """MAP inference failed to produce a usable solution."""


class SelectionError(ReproError):
    """Mapping selection was invoked on inconsistent inputs."""


class ScenarioError(ReproError):
    """Scenario generation received invalid parameters."""
