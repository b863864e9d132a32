"""Unit tests for threshold-sweep and local-search rounding."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.psl.rounding import local_search, round_solution, threshold_sweep


def _objective_from_table(table):
    def objective(selected: frozenset):
        return table[frozenset(selected)]

    return objective


def test_threshold_sweep_picks_best_prefix():
    fractional = {"a": 0.9, "b": 0.6, "c": 0.1}
    table = {
        frozenset(): 10,
        frozenset({"a"}): 5,
        frozenset({"a", "b"}): 3,
        frozenset({"a", "b", "c"}): 7,
    }
    assert threshold_sweep(fractional, _objective_from_table(table)) == {"a", "b"}


def test_threshold_sweep_can_return_empty():
    fractional = {"a": 0.4}
    table = {frozenset(): 1, frozenset({"a"}): 2}
    assert threshold_sweep(fractional, _objective_from_table(table)) == frozenset()


def test_local_search_escapes_prefix_structure():
    # Optimal set {c} is not a prefix of the fractional ranking.
    fractional = {"a": 0.9, "b": 0.8, "c": 0.1}
    values = {
        frozenset(): 10,
        frozenset({"a"}): 9,
        frozenset({"b"}): 9,
        frozenset({"c"}): 1,
        frozenset({"a", "b"}): 8,
        frozenset({"a", "c"}): 5,
        frozenset({"b", "c"}): 5,
        frozenset({"a", "b", "c"}): 6,
    }
    objective = _objective_from_table(values)
    start = threshold_sweep(fractional, objective)
    assert local_search(start, fractional, objective) == {"c"}


def test_round_solution_combines_both():
    fractional = {"a": 0.9, "b": 0.2}
    values = {
        frozenset(): 4,
        frozenset({"a"}): 3,
        frozenset({"b"}): 1,
        frozenset({"a", "b"}): 2,
    }
    assert round_solution(fractional, _objective_from_table(values)) == {"b"}


def test_round_solution_without_local_search_is_prefix_only():
    fractional = {"a": 0.9, "b": 0.2}
    values = {
        frozenset(): 4,
        frozenset({"a"}): 3,
        frozenset({"b"}): 1,
        frozenset({"a", "b"}): 2,
    }
    result = round_solution(
        fractional, _objective_from_table(values), with_local_search=False
    )
    assert result == {"a", "b"}  # best prefix; {b} unreachable by sweep


def test_local_search_terminates_at_local_optimum():
    fractional = {i: 0.5 for i in range(4)}
    objective = lambda s: len(s)  # noqa: E731 - monotone, empty set optimal
    assert local_search(frozenset(range(4)), fractional, objective) == frozenset()


def test_empty_universe():
    assert round_solution({}, lambda s: 0) == frozenset()


def test_randomized_rounding_finds_non_prefix_optimum():
    from repro.psl.rounding import randomized_rounding

    fractional = {"a": 0.5, "b": 0.5, "c": 0.5}
    values = {
        frozenset(): 10,
        frozenset({"a"}): 9,
        frozenset({"b"}): 9,
        frozenset({"c"}): 9,
        frozenset({"a", "b"}): 8,
        frozenset({"a", "c"}): 1,  # optimum, not a fractional-order prefix
        frozenset({"b", "c"}): 8,
        frozenset({"a", "b", "c"}): 7,
    }
    result = randomized_rounding(
        fractional, _objective_from_table(values), trials=64, seed=3
    )
    assert result == {"a", "c"}


def test_randomized_rounding_includes_deterministic_extremes():
    from repro.psl.rounding import randomized_rounding

    fractional = {"a": 1.0, "b": 1.0}
    values = {
        frozenset(): 0,  # the all-excluded extreme is optimal
        frozenset({"a"}): 5,
        frozenset({"b"}): 5,
        frozenset({"a", "b"}): 5,
    }
    result = randomized_rounding(fractional, _objective_from_table(values), trials=4)
    assert result == frozenset()


def test_randomized_rounding_deterministic_under_seed():
    from repro.psl.rounding import randomized_rounding

    fractional = {i: 0.5 for i in range(6)}
    objective = lambda s: abs(len(s) - 3)  # noqa: E731
    a = randomized_rounding(fractional, objective, trials=16, seed=9)
    b = randomized_rounding(fractional, objective, trials=16, seed=9)
    assert a == b
    assert len(a) == 3


def test_threshold_sweep_tie_breaking_is_repr_order():
    # Equal fractional values: the sweep ranks by repr, so "a" enters the
    # prefix before "b" and the {a} prefix is evaluated, {b} never is.
    fractional = {"b": 0.5, "a": 0.5}
    table = {
        frozenset(): 10,
        frozenset({"a"}): 1,
        frozenset({"b"}): 0,  # better, but not reachable as a prefix
        frozenset({"a", "b"}): 5,
    }
    assert threshold_sweep(fractional, _objective_from_table(table)) == {"a"}


def test_threshold_sweep_prefers_smaller_prefix_on_value_tie():
    # A larger prefix must strictly improve to replace the incumbent.
    fractional = {"a": 0.9, "b": 0.2}
    table = {
        frozenset(): 5,
        frozenset({"a"}): 3,
        frozenset({"a", "b"}): 3,
    }
    assert threshold_sweep(fractional, _objective_from_table(table)) == {"a"}


def test_local_search_keeps_start_items_outside_universe():
    # Items in `start` that the universe does not know are never flipped:
    # the search only proposes flips of universe members.
    universe = {"a": 0.9}

    def objective(selected: frozenset):
        return -len(selected)  # bigger sets are better

    result = local_search(frozenset({"ghost"}), universe, objective)
    assert "ghost" in result
    assert result == {"ghost", "a"}


def test_local_search_respects_max_rounds():
    universe = {i: 0.5 for i in range(5)}
    calls = []

    def objective(selected: frozenset):
        calls.append(selected)
        return -len(selected)

    result = local_search(frozenset(), universe, objective, max_rounds=1)
    # One round of first-improvement flips adds every item exactly once.
    assert result == frozenset(range(5))


def test_randomized_rounding_deterministic_per_seed():
    from repro.psl.rounding import randomized_rounding

    fractional = {f"item{i}": 0.3 + 0.05 * i for i in range(8)}

    def objective(selected: frozenset):
        # Arbitrary but deterministic: prefer even-sized sets, then lexicographic.
        return (len(selected) % 2, len(selected), tuple(sorted(selected)))

    a = randomized_rounding(fractional, objective, trials=16, seed=42)
    b = randomized_rounding(fractional, objective, trials=16, seed=42)
    c = randomized_rounding(fractional, objective, trials=16, seed=43)
    assert a == b
    # Different seeds may land elsewhere, but the result is still a valid subset.
    assert c <= set(fractional)


def test_randomized_rounding_considers_extremes():
    from repro.psl.rounding import randomized_rounding

    fractional = {"a": 0.99, "b": 0.99}

    def objective(selected: frozenset):
        return 0 if not selected else 1  # empty set is optimal

    assert randomized_rounding(fractional, objective, trials=4, seed=0) == frozenset()


def _recording_objective(calls):
    def objective(selected: frozenset):
        calls.append(selected)
        return 0  # nothing ever improves, so every visit is recorded

    return objective


#: ``sorted(range(12), key=repr)``: "10" and "11" sort before "2".
REPR_ORDER = [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9]


def test_local_search_flips_items_in_repr_order():
    calls = []
    universe = {i: 0.5 for i in range(12)}
    local_search(frozenset(), universe, _recording_objective(calls))
    assert calls[0] == frozenset()
    flipped = [next(iter(s)) for s in calls[1:]]
    assert flipped == REPR_ORDER == sorted(range(12), key=repr)


def test_threshold_sweep_grows_prefixes_in_value_then_repr_order():
    calls = []
    # Two value levels, so ties inside each level fall back to repr order.
    fractional = {i: 0.9 if i % 2 == 0 else 0.4 for i in range(12)}
    threshold_sweep(fractional, _recording_objective(calls))
    assert calls[0] == frozenset()
    added = [next(iter(b - a)) for a, b in zip(calls, calls[1:])]
    assert added == [0, 10, 2, 4, 6, 8, 1, 11, 3, 5, 7, 9]


# -- monotone descent (the MM property of the rounding step) -----------------


@st.composite
def objective_tables(draw):
    """(fractional values, exact F table over every subset, a start set)."""
    items = range(draw(st.integers(min_value=0, max_value=8)))
    # One seeded generator per table: 2**8 per-entry draws would make
    # every example slow without shrinking any better.
    rng = draw(st.randoms(use_true_random=False))
    table = {
        frozenset(i for i in items if mask >> i & 1): Fraction(
            rng.randint(-40, 40), rng.randint(1, 12)
        )
        for mask in range(2 ** len(items))
    }
    fractional = {i: draw(st.floats(min_value=0, max_value=1)) for i in items}
    start = frozenset(i for i in items if draw(st.booleans()))
    return fractional, table, start


def _recording(table, calls):
    def objective(selected: frozenset):
        calls.append(selected)
        return table[selected]

    return objective


def _accepted_path(calls, result):
    """The states a 1-flip search moved through, read off its probes.

    ``calls[0]`` evaluates the start; every later call probes one flip
    of the current state.  A probe was accepted iff the next probe is
    one flip away from it: the next probe is one flip from exactly one
    of the old state and the accepted probe, never both.
    """
    path = [calls[0]]
    probes = calls[1:]
    for probe, following in zip(probes, probes[1:]):
        assert len(probe ^ path[-1]) == 1
        if len(following ^ probe) == 1:
            path.append(probe)
    if probes and result == probes[-1] != path[-1]:
        path.append(probes[-1])
    assert path[-1] == result
    return path


@settings(max_examples=80, deadline=None)
@given(objective_tables())
def test_local_search_accepts_only_strictly_decreasing_flips(case):
    fractional, table, start = case
    calls: list[frozenset] = []
    result = local_search(start, fractional, _recording(table, calls))
    values = [table[state] for state in _accepted_path(calls, result)]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))


@settings(max_examples=80, deadline=None)
@given(objective_tables())
def test_rounding_never_ends_above_the_sweep_or_the_empty_set(case):
    fractional, table, _ = case
    objective = _recording(table, [])
    swept = threshold_sweep(fractional, objective)
    rounded = round_solution(fractional, objective)
    assert table[rounded] <= table[swept] <= table[frozenset()]
