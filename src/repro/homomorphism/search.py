"""Homomorphism search between instances with labeled nulls.

A homomorphism h maps labeled nulls to values (constants or nulls) and is
the identity on constants; it maps an instance K into an instance J if
h(f) is a fact of J for every fact f of K.  Homomorphisms are the standard
tool for comparing instances with incomplete information and underpin the
paper's graded ``covers``/``creates`` semantics.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.datamodel.instance import Fact, Instance, MatchIndex
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


def image_ranks(
    f: Fact,
    instance: Instance,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> Iterator[int]:
    """Ranks of the facts of *instance* that *f* maps onto (given *fixed*).

    A rank is a position in ``instance.match_index().ordered`` (``repr``
    order); ranks come out ascending.  With no *fixed* map this is the
    index's exact :meth:`~repro.datamodel.instance.MatchIndex.probe`.
    With one, the index's projection at *f*'s constants and pinned
    nulls gives the candidates and :func:`fact_matches` stays the final
    test, so the answer is exactly the facts a full scan of the relation
    would accept.
    """
    index = instance.match_index()
    if not fixed:
        return iter(index.probe(f)[0])
    ordered = index.ordered
    return (
        rank
        for rank in _pinned_candidates(f, index, fixed)
        if fact_matches(f, ordered[rank], fixed) is not None
    )


def _pinned_candidates(
    f: Fact, index: MatchIndex, fixed: Mapping[LabeledNull, Value]
) -> tuple[int, ...]:
    """Ranks of the facts agreeing with *f*'s constants and its nulls pinned in *fixed*."""
    positions: list[int] = []
    known: list[Value] = []
    for position, value in enumerate(f.values):
        if isinstance(value, LabeledNull):
            value = fixed.get(value)
            if value is None:
                continue
        positions.append(position)
        known.append(value)
    table = index.projection(f.relation, len(f.values), tuple(positions))
    return table.get(tuple(known), ())


def fact_homomorphisms(
    f: Fact,
    instance: Instance,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> Iterator[dict[LabeledNull, Value]]:
    """All ways of mapping the single fact *f* into *instance*.

    Yields the null bindings (excluding the entries of *fixed*), one per
    image, in the image order of :func:`image_ranks`.
    """
    ordered = instance.match_index().ordered
    for rank in image_ranks(f, instance, fixed):
        yield fact_matches(f, ordered[rank], fixed)


def has_fact_homomorphism(
    f: Fact,
    instance: Instance,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> bool:
    """True iff the single fact *f* maps into *instance* (given *fixed*)."""
    return next(image_ranks(f, instance, fixed), None) is not None


def find_homomorphism(
    source: Instance,
    target: Instance,
) -> dict[LabeledNull, Value] | None:
    """Find a homomorphism mapping *all* of *source* into *target*.

    Backtracking over source facts, most-constrained (fewest candidate
    images) first.  Returns the null assignment or None.  This is the
    decision procedure behind universality checks: a canonical chase
    result must map into every solution of the data-exchange problem.
    """
    facts = sorted(source, key=lambda f: len(target.facts_of(f.relation)))

    def extend(index: int, binding: dict[LabeledNull, Value]) -> dict[LabeledNull, Value] | None:
        if index == len(facts):
            return dict(binding)
        f = facts[index]
        # repro-lint: disable=RPL002 -- backtracking existence search:
        # any satisfying homomorphism is as good as any other.
        for candidate in target.facts_of(f.relation):
            local = fact_matches(f, candidate, binding)
            if local is None:
                continue
            binding.update(local)
            result = extend(index + 1, binding)
            if result is not None:
                return result
            for null in local:
                del binding[null]
        return None

    return extend(0, {})


def is_homomorphic(source: Instance, target: Instance) -> bool:
    """True iff some homomorphism maps *source* into *target*."""
    return find_homomorphism(source, target) is not None
