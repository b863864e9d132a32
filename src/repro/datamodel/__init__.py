"""Relational data model: values, schemas, facts, instances."""

from repro.datamodel.instance import Fact, Instance, fact
from repro.datamodel.schema import Attribute, ForeignKey, Relation, Schema, relation
from repro.datamodel.values import (
    Constant,
    LabeledNull,
    NullFactory,
    Value,
    is_null,
)

__all__ = [
    "Attribute",
    "Constant",
    "Fact",
    "ForeignKey",
    "Instance",
    "LabeledNull",
    "NullFactory",
    "Relation",
    "Schema",
    "Value",
    "fact",
    "is_null",
    "relation",
]
