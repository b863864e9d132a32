"""Unit tests for the graded covers / creates semantics of Eq. (9)."""

from fractions import Fraction

from repro.chase.engine import chase_single
from repro.datamodel.instance import Instance, fact
from repro.datamodel.values import LabeledNull
from repro.examples_data import paper_example
from repro.homomorphism.covers import CoverComputer, covers, creates, error_facts
from repro.mappings.parser import parse_tgd

N0, N1 = LabeledNull(0), LabeledNull(1)


def _appendix_setup():
    ex = paper_example()
    k1 = chase_single(ex.source, ex.theta1)
    k3 = chase_single(ex.source, ex.theta3)
    return ex, k1, k3


def test_lone_null_gets_partial_credit():
    # theta1's Null is uncorroborated: degree 2/3 per the appendix.
    ex, k1, _ = _appendix_setup()
    assert covers(k1, fact("task", "ML", "Alice", 111), ex.target) == Fraction(2, 3)


def test_corroborated_null_gets_full_credit():
    # theta3's null also appears in org(Null, SAP) -> org(111, SAP) in J.
    ex, _, k3 = _appendix_setup()
    assert covers(k3, fact("task", "ML", "Alice", 111), ex.target) == Fraction(1)
    assert covers(k3, fact("org", 111, "SAP"), ex.target) == Fraction(1)


def test_mismatched_constants_give_zero():
    ex, k1, _ = _appendix_setup()
    assert covers(k1, fact("task", "Search", "Carol", 222), ex.target) == Fraction(0)


def test_unrelated_relation_gives_zero():
    ex, k1, _ = _appendix_setup()
    assert covers(k1, fact("org", 111, "SAP"), ex.target) == Fraction(0)


def test_creates_flags_unjustified_facts():
    ex, k1, k3 = _appendix_setup()
    assert error_facts(k1, ex.target) == [
        f for f in k1 if "BigData" in repr(f)
    ]
    errors3 = {repr(f) for f in error_facts(k3, ex.target)}
    assert len(errors3) == 2
    assert any("BigData" in e for e in errors3)
    assert any("IBM" in e for e in errors3)


def test_creates_is_false_for_mappable_facts():
    target = Instance([fact("r", 1, 2)])
    assert not creates(fact("r", N0, 2), target)
    assert creates(fact("r", N0, 3), target)


def test_degree_via_specific_chase_fact():
    chase_instance = Instance([fact("t", "a", N0)])
    target = Instance([fact("t", "a", 5)])
    computer = CoverComputer(chase_instance, target)
    assert computer.degree_via(fact("t", "a", N0), fact("t", "a", 5)) == Fraction(1, 2)


def test_degree_takes_best_over_chase_facts():
    # One chase fact matches partially, another (ground) matches exactly.
    chase_instance = Instance([fact("t", "a", N0), fact("t", "a", 5)])
    target = Instance([fact("t", "a", 5)])
    assert covers(chase_instance, fact("t", "a", 5), target) == Fraction(1)


def test_corroboration_requires_consistent_binding():
    # N0 occurs in a second fact, but that fact can only map into J with
    # N0 -> 99, conflicting with the binding N0 -> 5 under test.
    chase_instance = Instance([fact("t", "a", N0), fact("u", N0, "x")])
    target = Instance([fact("t", "a", 5), fact("u", 99, "x")])
    assert covers(chase_instance, fact("t", "a", 5), target) == Fraction(1, 2)


def test_corroboration_with_consistent_binding():
    chase_instance = Instance([fact("t", "a", N0), fact("u", N0, "x")])
    target = Instance([fact("t", "a", 5), fact("u", 5, "x")])
    assert covers(chase_instance, fact("t", "a", 5), target) == Fraction(1)


def test_corroborating_fact_must_be_distinct():
    # A null appearing twice in the *same* fact does not corroborate itself.
    chase_instance = Instance([fact("t", N0, N0)])
    target = Instance([fact("t", 5, 5)])
    assert covers(chase_instance, fact("t", 5, 5), target) == Fraction(0)


def test_all_constant_chase_fact_covers_fully():
    chase_instance = Instance([fact("t", 1, 2)])
    target = Instance([fact("t", 1, 2)])
    assert covers(chase_instance, fact("t", 1, 2), target) == Fraction(1)


def test_cover_computer_caches_are_transparent():
    ex, _, k3 = _appendix_setup()
    computer = CoverComputer(k3, ex.target)
    t = fact("task", "ML", "Alice", 111)
    assert computer.degree(t) == computer.degree(t) == Fraction(1)


def test_cover_computer_null_index_keeps_chase_order():
    ex = paper_example()
    k3 = chase_single(ex.source, ex.theta3)
    computer = CoverComputer(k3, ex.target)
    # The null-to-facts index must list nulls in first-appearance order
    # over the chase, not set order.
    appearance = []
    for f in k3:
        for n in dict.fromkeys(f.nulls):
            if n not in appearance:
                appearance.append(n)
    assert list(computer._facts_with_null) == appearance
