"""Direct unit tests for SelectionProblem metric tables."""

from fractions import Fraction

import pytest

from repro.datamodel.instance import Instance, fact
from repro.errors import SelectionError
from repro.examples_data import paper_example
from repro.mappings.parser import parse_tgds
from repro.selection.metrics import build_selection_problem, restrict_problem


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


def test_restriction_keeps_j_order_and_shares_candidate_tables(problem):
    kept = problem.j_facts[1::2]
    restricted = restrict_problem(problem, reversed(kept))
    assert restricted.j_facts == kept
    assert restricted.target.match_index().ordered == tuple(kept)
    for full, cut in zip(problem.covers, restricted.covers):
        assert list(cut.items()) == [(t, d) for t, d in full.items() if t in kept]
    assert restricted.error_facts is problem.error_facts
    assert restricted.chase_by_candidate is problem.chase_by_candidate


def test_restriction_rejects_facts_outside_j(problem):
    with pytest.raises(SelectionError):
        restrict_problem(problem, [fact("u", "not in J")])


#: ``problem_fingerprint`` SHA-256s of ``ScenarioConfig(num_primitives=p,
#: rows_per_relation=20, pi_corresp=n, pi_errors=n, pi_unexplained=n,
#: seed=3)``, keyed by ``(p, n)``.  The noise-free ones were computed with
#: the full-scan cover tables that preceded the match index.  The noisy
#: ones (the perfbench p=24 base, and p=48 at noise 50) run data noise and
#: were computed with the per-fact corroboration searches and the separate
#: noise and build chases that preceded the one-pass tables.
PINNED_FINGERPRINTS = {
    (24, 0): "844b57d60cb104868abbae3899dbb05bee1ed5365ca82433cc30747627c095f7",
    (48, 0): "a807e0022f6a21ded2bef8d35c2b65c2c3e62374d6a00f78d75e790d8070e6f1",
    (24, 25): "48d37f0edde2b50a6437d0ab41cddc174a0a6639b622e102197a1b77bb5676c3",
    (48, 50): "0be6271b83eb83e56221158d7f47166212014667c2c20c38938326b8fbf3a3d6",
}


@pytest.mark.parametrize(
    "primitives,noise",
    sorted(PINNED_FINGERPRINTS),
    ids=[f"{p}-noise{n}" if n else f"{p}" for p, n in sorted(PINNED_FINGERPRINTS)],
)
def test_problem_fingerprint_is_pinned(primitives, noise):
    import hashlib

    from repro.ibench.config import ScenarioConfig
    from repro.ibench.generator import generate_scenario
    from repro.selection.metrics import problem_fingerprint

    config = ScenarioConfig(
        num_primitives=primitives,
        rows_per_relation=20,
        pi_corresp=noise,
        pi_errors=noise,
        pi_unexplained=noise,
        seed=3,
    )
    problem = generate_scenario(config).selection_problem()
    digest = hashlib.sha256(problem_fingerprint(problem)).hexdigest()
    assert digest == PINNED_FINGERPRINTS[primitives, noise]


def test_handed_chase_is_used_only_for_its_own_candidate(monkeypatch):
    from repro.selection import metrics
    from repro.selection.metrics import chase_candidate, problem_fingerprint

    ex = paper_example(extra_projects=2)
    candidates = ex.candidates
    assert len(candidates) >= 2
    # Index 0 is handed the chase of another candidate: it must be
    # chased again; index 1 is handed its own and must not be.
    chases = {0: chase_candidate(ex.source, candidates[1]),
              1: chase_candidate(ex.source, candidates[1])}
    chased = []

    def counting(source, candidate):
        chased.append(candidate)
        return chase_candidate(source, candidate)

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "chase_candidate", counting)
        problem = build_selection_problem(ex.source, ex.target, candidates, chases=chases)
    assert chased == [c for i, c in enumerate(candidates) if i != 1]
    scratch = build_selection_problem(ex.source, ex.target, candidates)
    assert problem_fingerprint(problem) == problem_fingerprint(scratch)


class TestScenarioSelectionProblem:
    """``Scenario.selection_problem()`` reuses generation's chases, and only
    while they are chases of the scenario's current source."""

    NOISY = dict(num_primitives=6, rows_per_relation=10, pi_corresp=50, seed=5)

    def generate(self, noise):
        from repro.ibench.config import ScenarioConfig
        from repro.ibench.generator import generate_scenario

        return generate_scenario(
            ScenarioConfig(**self.NOISY, pi_errors=noise, pi_unexplained=noise)
        )

    def built(self, scenario, monkeypatch):
        """The scenario's problem, the scratch build's, and the build's chases."""
        from repro.selection import metrics

        chased = []
        chase_candidate = metrics.chase_candidate

        def counting(source, candidate):
            chased.append(candidate)
            return chase_candidate(source, candidate)

        with monkeypatch.context() as patch:
            patch.setattr(metrics, "chase_candidate", counting)
            problem = scenario.selection_problem()
        scratch = build_selection_problem(scenario.source, scenario.target, scenario.candidates)
        return problem, scratch, chased

    def assert_scratch_equal(self, scenario, monkeypatch, chases_all):
        from repro.selection.metrics import problem_fingerprint

        problem, scratch, chased = self.built(scenario, monkeypatch)
        assert problem_fingerprint(problem) == problem_fingerprint(scratch)
        gold = [scenario.candidates[i] for i in sorted(scenario.gold_indices)]
        expected = scenario.candidates if chases_all else gold
        assert chased == expected
        return problem

    def test_fresh_scenario_chases_only_gold(self, monkeypatch):
        scenario = self.generate(50)
        assert len(scenario.gold_indices) < len(scenario.candidates)
        self.assert_scratch_equal(scenario, monkeypatch, chases_all=False)

    def test_zero_noise_chases_everything(self, monkeypatch):
        self.assert_scratch_equal(self.generate(0), monkeypatch, chases_all=True)

    def test_pickle_round_trip(self, monkeypatch):
        import pickle

        scenario = self.generate(50)
        pickled = pickle.dumps(scenario)
        # The kept chases are not part of the pickle.
        scenario.keep_chases({})
        assert pickle.dumps(scenario) == pickled
        self.assert_scratch_equal(pickle.loads(pickled), monkeypatch, chases_all=True)

    def test_save_load_round_trip(self, monkeypatch, tmp_path):
        from repro.io.serialize import load_scenario, save_scenario

        save_scenario(self.generate(50), tmp_path / "s.json")
        self.assert_scratch_equal(load_scenario(tmp_path / "s.json"), monkeypatch, chases_all=True)

    def test_target_edit_keeps_the_chases(self, monkeypatch):
        scenario = self.generate(50)
        scenario.target.discard(next(iter(scenario.target)))
        self.assert_scratch_equal(scenario, monkeypatch, chases_all=False)

    def test_source_edit_drops_the_chases(self, monkeypatch):
        from repro.selection.metrics import problem_fingerprint

        scenario = self.generate(50)
        before = problem_fingerprint(
            build_selection_problem(scenario.source, scenario.target, scenario.candidates)
        )
        # A tuple some non-gold candidate reads, so a stale chase would show.
        read = {
            a.relation
            for i, c in enumerate(scenario.candidates)
            if i not in scenario.gold_indices
            for a in c.body
        }
        scenario.source.discard(
            next(f for f in sorted(scenario.source, key=repr) if f.relation in read)
        )
        problem = self.assert_scratch_equal(scenario, monkeypatch, chases_all=True)
        assert problem_fingerprint(problem) != before


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
