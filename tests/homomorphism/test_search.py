"""Unit tests for homomorphism search."""

from repro.datamodel.instance import Instance, fact
from repro.datamodel.values import Constant, LabeledNull
from repro.homomorphism.search import fact_matches
from tests.covers_reference import (
    fact_homomorphisms,
    find_homomorphism,
    has_fact_homomorphism,
    is_homomorphic,
)

N0, N1, N2 = LabeledNull(0), LabeledNull(1), LabeledNull(2)


def test_fact_matches_constants_must_agree():
    assert fact_matches(fact("r", 1, 2), fact("r", 1, 2)) == {}
    assert fact_matches(fact("r", 1, 2), fact("r", 1, 3)) is None


def test_fact_matches_different_relation_or_arity():
    assert fact_matches(fact("r", 1), fact("s", 1)) is None
    assert fact_matches(fact("r", 1), fact("r", 1, 2)) is None


def test_fact_matches_binds_nulls():
    binding = fact_matches(fact("r", N0, 2), fact("r", 7, 2))
    assert binding == {N0: Constant(7)}


def test_fact_matches_repeated_null_must_be_consistent():
    assert fact_matches(fact("r", N0, N0), fact("r", 1, 1)) == {N0: Constant(1)}
    assert fact_matches(fact("r", N0, N0), fact("r", 1, 2)) is None


def test_fact_matches_respects_fixed_bindings():
    assert fact_matches(fact("r", N0), fact("r", 5), fixed={N0: Constant(5)}) == {}
    assert fact_matches(fact("r", N0), fact("r", 5), fixed={N0: Constant(6)}) is None


def test_null_can_map_to_null():
    binding = fact_matches(fact("r", N0), fact("r", N1))
    assert binding == {N0: N1}


def test_fact_homomorphisms_enumerates_all_images():
    target = Instance([fact("r", 1), fact("r", 2)])
    images = list(fact_homomorphisms(fact("r", N0), target))
    assert {b[N0] for b in images} == {Constant(1), Constant(2)}


def test_has_fact_homomorphism():
    target = Instance([fact("r", 1, 2)])
    assert has_fact_homomorphism(fact("r", N0, 2), target)
    assert not has_fact_homomorphism(fact("r", N0, 3), target)


def test_find_homomorphism_requires_global_consistency():
    # N0 must map to the same value in both facts.
    source = Instance([fact("a", N0, 1), fact("b", N0, 2)])
    target_good = Instance([fact("a", 9, 1), fact("b", 9, 2)])
    target_bad = Instance([fact("a", 9, 1), fact("b", 8, 2)])
    assert find_homomorphism(source, target_good) == {N0: Constant(9)}
    assert find_homomorphism(source, target_bad) is None


def test_find_homomorphism_backtracks():
    # First image choice for the "a" fact fails on the "b" fact.
    source = Instance([fact("a", N0), fact("b", N0)])
    target = Instance([fact("a", 1), fact("a", 2), fact("b", 2)])
    assert find_homomorphism(source, target) == {N0: Constant(2)}


def test_empty_source_is_trivially_homomorphic():
    assert is_homomorphic(Instance(), Instance([fact("r", 1)]))


def test_ground_source_needs_subset():
    source = Instance([fact("r", 1)])
    assert is_homomorphic(source, Instance([fact("r", 1), fact("r", 2)]))
    assert not is_homomorphic(source, Instance([fact("r", 2)]))


def test_chase_result_maps_into_grounded_solution():
    # The canonical solution must map into any grounded solution —
    # the defining property of universal solutions.
    from repro.chase.engine import chase_single
    from repro.mappings.parser import parse_tgd

    source = Instance([fact("proj", "ML", "Alice")])
    canonical = chase_single(source, parse_tgd("proj(P, E) -> task(P, E, O) & org(O)"))
    grounded = Instance(
        [fact("task", "ML", "Alice", 111), fact("org", 111), fact("extra", 1)]
    )
    assert is_homomorphic(canonical, grounded)
