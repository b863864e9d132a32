"""Differential and lifecycle tests for the per-scenario score index.

``ScoreIndex.precision_recall`` must give, float for float, what
``data_quality`` gives by chasing the source under the selection, both
when a row reuses the problem's own chase and when it chases the index's
source.  Hand-built candidates produce nulls, repeat a null inside one
fact, share an existential across head atoms, and produce the same
ground fact from different candidates; selections may list a candidate
twice; references may be empty or hold nulls.
"""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import Constant, LabeledNull
from repro.evaluation.harness import score_selection
from repro.evaluation.metrics import data_quality
from repro.evaluation.score_index import ScoreIndex
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.mutations import MutableSelection, RemoveSourceTuple
from repro.io.serialize import scenario_to_json
from repro.mappings.parser import parse_tgd
from repro.selection.metrics import build_selection_problem

CANDIDATES = [
    parse_tgd(text)
    for text in (
        "s(X, Y) -> t(X, Y)",
        # The same ground facts as the first, from a second candidate.
        "s(X, Y) & u(X) -> t(X, Y)",
        "s(X, Y) -> t(X, N)",
        # One null repeated inside a fact.
        "u(X) -> r(N, N)",
        # Two head atoms sharing an existential.
        "s(X, Y) -> t(X, N) & r(N, Y)",
        "u(X) -> t(X, X) & t(X, 1)",
        "s(X, Y) -> r(Y, X)",
    )
]
DOMAIN = [Constant(1), Constant(2), Constant(3), Constant("a")]

domain = st.sampled_from(DOMAIN)
sources = st.lists(
    st.one_of(
        st.tuples(domain, domain).map(lambda vs: Fact("s", vs)),
        domain.map(lambda v: Fact("u", (v,))),
    ),
    max_size=8,
).map(Instance)
#: Mostly ground, sometimes holding nulls, possibly empty.
references = st.lists(
    st.tuples(
        st.sampled_from(["t", "r"]),
        st.one_of(domain, domain, domain, st.sampled_from([LabeledNull(0), LabeledNull(1)])),
        domain,
    ).map(lambda p: Fact(p[0], (p[1], p[2]))),
    max_size=10,
).map(Instance)
#: Index lists, repeats allowed.
selections = st.lists(st.integers(0, len(CANDIDATES) - 1), max_size=9)


def reference_pr(source, problem, indices, reference):
    return data_quality(source, [problem.candidates[i] for i in indices], reference)


def without_chases(problem):
    """The same problem minus its chases, so every row takes the fallback chase."""
    return dataclasses.replace(problem, chase_by_candidate=[])


@given(sources, references, st.lists(selections, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_index_equals_data_quality_on_hand_built_inputs(source, reference, picks):
    problem = build_selection_problem(source, reference, CANDIDATES)
    reused = ScoreIndex(source, reference)
    chased = ScoreIndex(source, reference)
    for indices in picks:
        expected = reference_pr(source, problem, indices, reference)
        assert reused.precision_recall(problem, indices) == expected
        assert chased.precision_recall(without_chases(problem), indices) == expected


def test_repeated_candidate_counts_its_null_facts_twice():
    source = Instance([Fact("s", (Constant(1), Constant(2)))])
    reference = Instance([Fact("t", (Constant(1), Constant(2)))])
    problem = build_selection_problem(source, reference, CANDIDATES)
    index = ScoreIndex(source, reference)
    # Candidate 2 makes one null fact that maps onto the reference; the
    # ground fact of candidate 0 is counted once however often it is listed.
    once = index.precision_recall(problem, [0, 2])
    twice = index.precision_recall(problem, [0, 0, 2, 2])
    assert (once.precision, once.recall) == (1.0, 1.0)
    assert twice == reference_pr(source, problem, [0, 0, 2, 2], reference)
    # Candidate 6 adds a miss: 2 of 3 facts match, then 3 of 4.
    assert index.precision_recall(problem, [0, 6, 2]).precision == 2 / 3
    assert index.precision_recall(problem, [0, 6, 2, 2]).precision == 3 / 4


def test_empty_result_and_empty_reference():
    source = Instance([Fact("s", (Constant(1), Constant(2)))])
    empty = Instance()
    problem = build_selection_problem(source, empty, CANDIDATES)
    index = ScoreIndex(source, empty)
    assert index.precision_recall(problem, []) == data_quality(source, [], empty)
    assert index.precision_recall(problem, [0, 2]) == reference_pr(source, problem, [0, 2], empty)
    assert index.precision_recall(problem, [0, 2]).recall == 1.0


@pytest.fixture(
    scope="module",
    params=[
        ScenarioConfig(num_primitives=6, rows_per_relation=8, pi_corresp=50, pi_errors=25, seed=2),
        ScenarioConfig(num_primitives=12, rows_per_relation=10, pi_corresp=25,
                       pi_errors=25, pi_unexplained=25, seed=7),
    ],
    ids=["p6", "p12"],
)
def generated(request):
    scenario = generate_scenario(request.param)
    return scenario, scenario.selection_problem()


def ibench_selections(scenario, problem):
    n = problem.num_candidates
    rng = random.Random(n)
    randoms = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(8)]
    return [[], list(range(n)), sorted(scenario.gold_indices)] + randoms


def test_index_equals_data_quality_on_ibench(generated):
    scenario, problem = generated
    chased = ScoreIndex(scenario.source, scenario.reference_target)
    for indices in ibench_selections(scenario, problem):
        expected = reference_pr(scenario.source, problem, indices, scenario.reference_target)
        assert scenario.score_index().precision_recall(problem, indices) == expected
        assert chased.precision_recall(without_chases(problem), indices) == expected


def test_score_selection_reads_the_index(generated):
    scenario, problem = generated
    gold = frozenset(scenario.gold_indices)
    run = score_selection(scenario, problem, "gold", gold, 0, 0.0)
    assert run.data == reference_pr(
        scenario.source, problem, sorted(gold), scenario.reference_target
    )
    assert scenario.score_index() is scenario.score_index()


def fresh_scenario():
    return generate_scenario(
        ScenarioConfig(num_primitives=6, rows_per_relation=8, pi_corresp=50, seed=4)
    )


def test_scoring_changes_no_scenario_pickle():
    scenario = fresh_scenario()
    # The build itself fills the tgds' cached variable sets, so the
    # "before" bytes are taken after it.
    problem = scenario.selection_problem()
    pickled, serialized = pickle.dumps(scenario), scenario_to_json(scenario)
    for indices in ibench_selections(scenario, problem):
        score_selection(scenario, problem, "m", frozenset(indices), 0, 0.0)
    score_selection(scenario, without_chases(problem), "m", frozenset([0]), 0, 0.0)
    assert pickle.dumps(scenario) == pickled
    assert scenario_to_json(scenario) == serialized
    assert not hasattr(pickle.loads(pickle.dumps(scenario)), "_score_index")


def test_edit_chain_revision_scores_against_the_scenario_source():
    scenario = fresh_scenario()
    selection = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    everything = frozenset(range(len(scenario.candidates)))
    tgds = list(scenario.candidates)
    # Remove a source tuple whose loss changes the exchange's score.
    for removed in sorted(scenario.source, key=repr):
        edited = scenario.source.copy()
        edited.discard(removed)
        if data_quality(edited, tgds, scenario.reference_target) != data_quality(
            scenario.source, tgds, scenario.reference_target
        ):
            break
    else:
        pytest.fail("no source tuple moves the all-candidates score")
    revision = selection.apply(RemoveSourceTuple(removed))
    run = score_selection(scenario, revision, "collective", everything, 0, 0.0)
    assert run.data == data_quality(scenario.source, tgds, scenario.reference_target)
    # The untouched root, scored after the revision, agrees as well.
    root = score_selection(scenario, scenario.selection_problem(), "c", everything, 0, 0.0)
    assert root.data == run.data


def test_equal_source_in_another_object_scores_the_same():
    scenario = fresh_scenario()
    problem = scenario.selection_problem()
    twin = pickle.loads(pickle.dumps(scenario))
    twin_problem = build_selection_problem(
        scenario.source.copy(), scenario.target, scenario.candidates
    )
    assert twin_problem.source is not twin.source
    for indices in ibench_selections(scenario, problem):
        chosen = frozenset(indices)
        assert (
            score_selection(twin, twin_problem, "m", chosen, 0, 0.0).data
            == score_selection(scenario, problem, "m", chosen, 0, 0.0).data
        )


def test_editing_the_scenario_rebuilds_the_index():
    scenario = fresh_scenario()
    problem = scenario.selection_problem()
    everything = list(range(problem.num_candidates))
    before = scenario.score_index()
    before.precision_recall(problem, everything)
    assert scenario.score_index() is before
    scenario.source.discard(sorted(scenario.source, key=repr)[0])
    after = scenario.score_index()
    assert after is not before
    # The old problem's chases are stale too; score a rebuilt one.
    problem = scenario.selection_problem()
    assert after.precision_recall(problem, everything) == reference_pr(
        scenario.source, problem, everything, scenario.reference_target
    )
