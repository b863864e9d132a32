"""Matching single facts with labeled nulls into instances.

A homomorphism h maps labeled nulls to values (constants or nulls) and is
the identity on constants.  :func:`fact_matches` finds the null binding
that maps one fact exactly onto another; :func:`image_ranks` lists every
fact of an instance one fact maps onto, from the instance's match index.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import LabeledNull, Value


def fact_matches(
    f: Fact,
    target: Fact,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> dict[LabeledNull, Value] | None:
    """Match fact *f* onto *target* under an optional pre-bound null map.

    Returns the (minimal) null assignment extending *fixed* that maps *f*
    exactly onto *target*, or None if no such assignment exists.  Constants
    must agree position-wise; a null may bind to any value but must bind
    consistently across positions.
    """
    if f.relation != target.relation or len(f.values) != len(target.values):
        return None
    pinned = fixed or {}
    binding: dict[LabeledNull, Value] = {}
    for mine, theirs in zip(f.values, target.values):
        if isinstance(mine, LabeledNull):
            bound = pinned.get(mine, binding.get(mine))
            if bound is None:
                binding[mine] = theirs
            elif bound != theirs:
                return None
        elif mine != theirs:
            return None
    return binding


def image_ranks(f: Fact, instance: Instance) -> Iterator[int]:
    """Ranks of the facts of *instance* that *f* maps onto.

    A rank is a position in ``instance.match_index().ordered`` (``repr``
    order); ranks come out ascending.  This is the index's exact
    :meth:`~repro.datamodel.instance.MatchIndex.probe`.
    """
    return iter(instance.match_index().probe(f)[0])
