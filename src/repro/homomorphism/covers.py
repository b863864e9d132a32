"""Graded ``covers`` and Boolean ``creates`` — the Eq. (9) building blocks.

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
functions here evaluate them literally, one question at a time, and are
the reference for :func:`repro.selection.metrics.candidate_metrics`,
which answers all three from one enumeration of each chase fact's images.
"""

from __future__ import annotations

from fractions import Fraction

from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import LabeledNull, Value, is_null
from repro.homomorphism.search import fact_matches, has_fact_homomorphism


class CoverComputer:
    """Computes cover degrees of J-facts by one candidate's chase instance.

    Construction indexes the chase instance by null so corroboration
    checks touch only the facts sharing the null.  Every "which J facts
    can this chase fact map onto" question goes through J's
    :class:`~repro.datamodel.instance.MatchIndex`.

    This is the literal reference: :meth:`degree` answers one J fact at
    a time, with one homomorphism search per corroboration test.
    Problem builds use the one-pass
    :func:`~repro.selection.metrics.candidate_metrics`, which must agree
    with it.
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
        # repro-lint: disable=RPL002 -- max over all chase facts with a
        # strict improvement test: the result is order-independent.
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
