"""Direct unit tests for SelectionProblem metric tables."""

from fractions import Fraction

import pytest

from repro.datamodel.instance import Instance, fact
from repro.errors import SelectionError
from repro.examples_data import paper_example
from repro.mappings.parser import parse_tgds
from repro.selection.metrics import build_selection_problem


@pytest.fixture(scope="module")
def problem():
    ex = paper_example()
    return build_selection_problem(ex.source, ex.target, ex.candidates)


def test_rejects_non_tgd_candidates():
    ex = paper_example()
    with pytest.raises(SelectionError):
        build_selection_problem(ex.source, ex.target, ["not a tgd"])


def test_covers_store_only_nonzero(problem):
    for table in problem.covers:
        assert all(degree > 0 for degree in table.values())


def test_max_cover_over_selections(problem):
    ml_task = next(t for t in problem.j_facts if "ML" in repr(t) and t.relation == "task")
    assert problem.max_cover(ml_task, []) == 0
    assert problem.max_cover(ml_task, [0]) == Fraction(2, 3)
    assert problem.max_cover(ml_task, [0, 1]) == Fraction(1)


def test_union_error_facts_counts_shared_once():
    source = Instance([fact("a", 1), fact("b", 1)])
    target = Instance([fact("u", 99)])
    tgds = parse_tgds("a(X) -> u(X)\nb(X) -> u(X)")
    problem = build_selection_problem(source, target, tgds)
    assert problem.union_error_facts([0]) == {fact("u", 1)}
    assert problem.union_error_facts([0, 1]) == {fact("u", 1)}


def test_null_error_facts_are_per_candidate():
    source = Instance([fact("a", 1)])
    target = Instance([fact("u", 99, 99)])
    tgds = parse_tgds("a(X) -> u(X, Y)\na(X) -> u(X, Z)")
    problem = build_selection_problem(source, target, tgds)
    # Isomorphic but distinct (fresh nulls): two errors when both selected.
    assert len(problem.union_error_facts([0, 1])) == 2


def test_coverable_facts_and_certain_unexplained_partition(problem):
    coverable = problem.coverable_facts()
    inert = set(problem.certain_unexplained())
    assert coverable | inert == set(problem.j_facts)
    assert coverable & inert == set()


def test_chase_by_candidate_matches_candidates(problem):
    assert len(problem.chase_by_candidate) == problem.num_candidates
    # theta1 produces one fact per source row, theta3 two.
    assert len(problem.chase_by_candidate[0]) == 2
    assert len(problem.chase_by_candidate[1]) == 4


def test_j_facts_are_sorted_and_complete(problem):
    assert problem.j_facts == sorted(problem.j_facts, key=repr)
    assert set(problem.j_facts) == set(problem.target)


#: ``problem_fingerprint`` SHA-256s of ``ScenarioConfig(num_primitives=p,
#: rows_per_relation=20, seed=3)``, computed with the full-scan cover
#: tables that preceded the match index.
PINNED_FINGERPRINTS = {
    24: "844b57d60cb104868abbae3899dbb05bee1ed5365ca82433cc30747627c095f7",
    48: "a807e0022f6a21ded2bef8d35c2b65c2c3e62374d6a00f78d75e790d8070e6f1",
}


@pytest.mark.parametrize("primitives", sorted(PINNED_FINGERPRINTS))
def test_problem_fingerprint_is_pinned(primitives):
    import hashlib

    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario
    from repro.selection.metrics import problem_fingerprint

    config = ScenarioConfig(num_primitives=primitives, rows_per_relation=20, seed=3)
    problem = generate_scenario(config).selection_problem()
    digest = hashlib.sha256(problem_fingerprint(problem)).hexdigest()
    assert digest == PINNED_FINGERPRINTS[primitives]


def test_match_indexes_change_no_problem_pickle(problem):
    import pickle

    from repro.selection.metrics import problem_fingerprint

    pickled, fingerprint = pickle.dumps(problem), problem_fingerprint(problem)
    for instance in [problem.source, problem.target, *problem.chase_by_candidate]:
        instance.match_index()
    assert pickle.dumps(problem) == pickled
    assert problem_fingerprint(problem) == fingerprint
    restored = pickle.loads(pickled)
    assert "_match_index" not in vars(restored.target)
    assert restored.j_facts == list(restored.target.match_index().ordered)


class TestCandidateMerge:
    """Per-candidate tables merge into one problem with disjoint nulls."""

    def test_null_labels_stay_disjoint_across_candidates(self):
        source = Instance([fact("a", 1), fact("a", 2)])
        target = Instance([fact("u", 9, 9)])
        tgds = parse_tgds("a(X) -> u(X, Y)\na(X) -> u(X, Z)")
        problem = build_selection_problem(source, target, tgds)
        nulls_0 = {n for f in problem.chase_by_candidate[0] for n in f.nulls}
        nulls_1 = {n for f in problem.chase_by_candidate[1] for n in f.nulls}
        assert nulls_0 and nulls_1
        assert nulls_0.isdisjoint(nulls_1)

    def test_merge_rejects_missing_candidate_tables(self):
        from repro.selection.metrics import evaluate_candidate, merge_candidate_tables

        ex = paper_example()
        tables = [
            evaluate_candidate(ex.source, ex.target, c, i)
            for i, c in enumerate(ex.candidates)
        ]
        with pytest.raises(SelectionError):
            merge_candidate_tables(ex.source, ex.target, ex.candidates, tables[:-1])
