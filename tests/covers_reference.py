"""Graded ``covers`` and Boolean ``creates``: the literal Eq. (9) reference.

Reconstructed from the paper's appendix (Section I), which fixes the
semantics numerically:

* ``creates(theta, t) = 1`` for a chase fact t of K_theta iff t has **no**
  homomorphic image in J — the candidate invents a fact the data example
  cannot justify at all.

* ``covers(theta, t') in [0,1]`` for a target-example fact t' in J is the
  best *fraction of attribute positions of t'* explained by some chase
  fact t with h(t) = t':

  - a position holding a **constant** counts iff it equals t' there;
  - a position holding a **null** n counts iff n is *corroborated*: n also
    occurs in another chase fact u of K_theta that itself maps into J by a
    homomorphism consistent with n -> t'[position].

  This reproduces the appendix exactly: theta1's lone null Null2 is not
  corroborated, so task(ML, Alice, Null2) covers task(ML, Alice, 111) to
  degree 2/3, while theta3's Null4 is corroborated through
  org(Null4, SAP) -> org(111, SAP), lifting the degree to 3/3.

All three are defined through homomorphisms of chase facts into J.  The
functions here evaluate them literally, one question at a time, and
:func:`repro.selection.metrics.candidate_metrics`, which answers all
three from one enumeration of each chase fact's images, is held to them.

The homomorphism searches they rest on live here too: single-fact
images under a pre-bound null map (:func:`pinned_image_ranks`,
:func:`fact_homomorphisms`, :func:`has_fact_homomorphism`) and the
instance-level backtracking :func:`find_homomorphism`, which the chase
property tests use as their oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from repro.datamodel.instance import Fact, Instance, MatchIndex
from repro.datamodel.values import LabeledNull, Value, is_null
from repro.homomorphism.search import fact_matches, image_ranks


def pinned_image_ranks(
    f: Fact,
    instance: Instance,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> Iterator[int]:
    """Ranks of the facts of *instance* that *f* maps onto (given *fixed*).

    A rank is a position in ``instance.match_index().ordered`` (``repr``
    order); ranks come out ascending.  With no *fixed* map this is
    :func:`~repro.homomorphism.search.image_ranks`.  With one, the
    index's projection at *f*'s constants and pinned nulls gives the
    candidates and :func:`fact_matches` stays the final test, so the
    answer is exactly the facts a full scan of the relation would accept.
    """
    if not fixed:
        return image_ranks(f, instance)
    index = instance.match_index()
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
    image, in the image order of :func:`pinned_image_ranks`.
    """
    ordered = instance.match_index().ordered
    for rank in pinned_image_ranks(f, instance, fixed):
        yield fact_matches(f, ordered[rank], fixed)


def has_fact_homomorphism(
    f: Fact,
    instance: Instance,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> bool:
    """True iff the single fact *f* maps into *instance* (given *fixed*)."""
    return next(pinned_image_ranks(f, instance, fixed), None) is not None


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


class CoverComputer:
    """Computes cover degrees of J-facts by one candidate's chase instance.

    Construction indexes the chase instance by null so corroboration
    checks touch only the facts sharing the null.  Every "which J facts
    can this chase fact map onto" question goes through J's
    :class:`~repro.datamodel.instance.MatchIndex`.

    :meth:`degree` answers one J fact at a time, with one homomorphism
    search per corroboration test.
    """

    def __init__(self, chase_instance: Instance, target_example: Instance):
        self._chase = chase_instance
        self._j = target_example
        self._facts_with_null: dict[LabeledNull, list[Fact]] = {}
        for f in chase_instance:
            # dict.fromkeys dedups while keeping first-appearance order,
            # so _facts_with_null's key order is chase-order stable.
            for n in dict.fromkeys(f.nulls):
                self._facts_with_null.setdefault(n, []).append(f)

    def _is_corroborated(self, origin: Fact, null: LabeledNull, image: Value) -> bool:
        """Does *null* (bound to *image*) occur in another chase fact mapping into J?"""
        fixed = {null: image}
        return any(
            witness != origin and has_fact_homomorphism(witness, self._j, fixed)
            for witness in self._facts_with_null.get(null, ())
        )

    def _explained(self, chase_fact: Fact, target_fact: Fact) -> int:
        """Positions of *target_fact* explained by *chase_fact*, which maps onto it."""
        explained = 0
        for value, image in zip(chase_fact.values, target_fact.values):
            if not is_null(value) or self._is_corroborated(chase_fact, value, image):
                explained += 1
        return explained

    def degree_via(self, chase_fact: Fact, target_fact: Fact) -> Fraction:
        """Cover degree of *target_fact* via the single *chase_fact* (0 if no hom)."""
        if fact_matches(chase_fact, target_fact) is None:
            return Fraction(0)
        return Fraction(self._explained(chase_fact, target_fact), target_fact.arity)

    def degree(self, target_fact: Fact) -> Fraction:
        """Best cover degree of *target_fact* over all chase facts (the paper's covers)."""
        best = Fraction(0)
        for chase_fact in self._chase.facts_of(target_fact.relation):
            d = self.degree_via(chase_fact, target_fact)
            if d > best:
                best = d
                if best == 1:
                    break
        return best


def covers(chase_instance: Instance, target_fact: Fact, target_example: Instance) -> Fraction:
    """One-shot cover degree; prefer :class:`CoverComputer` for many queries."""
    return CoverComputer(chase_instance, target_example).degree(target_fact)


def creates(chase_fact: Fact, target_example: Instance) -> bool:
    """True iff *chase_fact* has no homomorphic image in the target example.

    Such a fact is a (potential) error of any selection containing the
    candidate that produced it.
    """
    return not has_fact_homomorphism(chase_fact, target_example)


def error_facts(chase_instance: Instance, target_example: Instance) -> list[Fact]:
    """All facts of *chase_instance* that :func:`creates` flags as errors."""
    return [f for f in chase_instance if creates(f, target_example)]
