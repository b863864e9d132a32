"""Unit and integration tests for scenario generation (incl. noise)."""

import pytest

from repro.errors import ScenarioError
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario


@pytest.fixture(scope="module")
def clean_scenario():
    return generate_scenario(ScenarioConfig(num_primitives=4, seed=11))


def test_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(num_primitives=0)
    with pytest.raises(ScenarioError):
        ScenarioConfig(pi_corresp=150)
    with pytest.raises(ScenarioError):
        ScenarioConfig(primitive_kinds=("NOPE",))
    with pytest.raises(ScenarioError):
        ScenarioConfig(rows_per_relation=0)
    with pytest.raises(ScenarioError):
        ScenarioConfig(add_remove_range=(0, 3))


def test_determinism(clean_scenario):
    again = generate_scenario(ScenarioConfig(num_primitives=4, seed=11))
    assert [c.canonical() for c in again.candidates] == [
        c.canonical() for c in clean_scenario.candidates
    ]
    assert again.target == clean_scenario.target


def test_gold_is_subset_of_candidates(clean_scenario):
    assert len(clean_scenario.gold_indices) >= clean_scenario.config.num_primitives
    for tgd in clean_scenario.gold_mapping:
        assert tgd in clean_scenario.candidates


def test_target_example_is_ground(clean_scenario):
    assert clean_scenario.target.is_ground
    assert clean_scenario.reference_target.is_ground


def test_clean_scenario_has_no_noise_edits(clean_scenario):
    assert clean_scenario.deleted_facts == []
    assert clean_scenario.added_facts == []
    assert clean_scenario.target == clean_scenario.reference_target


def test_instances_validate_against_schemas(clean_scenario):
    clean_scenario.source.validate_against(clean_scenario.source_schema)
    clean_scenario.target.validate_against(clean_scenario.target_schema)


def test_candidates_validate_against_schemas(clean_scenario):
    for c in clean_scenario.candidates:
        c.validate_against(clean_scenario.source_schema, clean_scenario.target_schema)


def test_pi_corresp_adds_candidates():
    clean = generate_scenario(ScenarioConfig(num_primitives=4, seed=5))
    noisy = generate_scenario(ScenarioConfig(num_primitives=4, seed=5, pi_corresp=100))
    assert len(noisy.candidates) > len(clean.candidates)
    assert len(noisy.correspondences) > len(clean.correspondences)
    # Gold must survive metadata noise (the appendix's donor restriction).
    assert len(noisy.gold_indices) == len(clean.gold_indices)


def test_pi_errors_deletes_from_target():
    noisy = generate_scenario(
        ScenarioConfig(num_primitives=4, seed=5, pi_errors=50)
    )
    assert noisy.deleted_facts
    for f in noisy.deleted_facts:
        assert f not in noisy.target
        assert f in noisy.reference_target


def test_pi_unexplained_adds_to_target():
    noisy = generate_scenario(
        ScenarioConfig(num_primitives=4, seed=5, pi_corresp=100, pi_unexplained=50)
    )
    assert noisy.added_facts
    for f in noisy.added_facts:
        assert f in noisy.target
        assert f not in noisy.reference_target
        assert f.is_ground


def test_added_facts_are_not_fully_explainable_by_gold():
    from fractions import Fraction

    from repro.chase.engine import chase
    from repro.homomorphism.covers import CoverComputer

    noisy = generate_scenario(
        ScenarioConfig(num_primitives=3, seed=7, pi_corresp=100, pi_unexplained=100)
    )
    gold_chase = chase(noisy.source, noisy.gold_mapping)
    computer = CoverComputer(gold_chase.instance, noisy.target)
    for added in noisy.added_facts:
        # An all-null gold chase fact may weakly match anything, but the
        # gold mapping must never fully explain an added noise fact.
        assert computer.degree(added) < Fraction(1)
        assert added not in noisy.reference_target


def test_single_kind_scenarios():
    for kind in ("CP", "ME", "VP", "VNM"):
        scenario = generate_scenario(
            ScenarioConfig(num_primitives=2, primitive_kinds=(kind,), seed=3)
        )
        assert all(p.kind == kind for p in scenario.primitives)
        assert scenario.gold_indices


def test_summary_mentions_key_quantities(clean_scenario):
    text = clean_scenario.summary()
    assert "|C|=" in text and "|J|=" in text


def test_selection_problem_roundtrip(clean_scenario):
    problem = clean_scenario.selection_problem()
    assert problem.num_candidates == len(clean_scenario.candidates)
    assert set(problem.j_facts) == set(clean_scenario.target)


NOISE_LEVELS = (0, 50, 100)
NOISE_GRID = [
    ScenarioConfig(
        num_primitives=primitives,
        rows_per_relation=10,
        pi_corresp=corresp,
        pi_errors=errors,
        pi_unexplained=unexplained,
        seed=seed,
    )
    for primitives, seed in ((13, 1), (14, 2))
    for corresp in NOISE_LEVELS
    for errors in NOISE_LEVELS
    for unexplained in NOISE_LEVELS
]


def _noise_against_reference(config, monkeypatch):
    """The generated scenario, and the reference noise step run on its inputs.

    Returns the scenario, the target the reference edited, its deleted
    and added facts, and how many of the unexplained null facts it could
    sample from follow a gold candidate that used nulls (the facts whose
    labels generation moves).
    """
    import random

    from repro.ibench import generator
    from repro.selection.metrics import chase_candidate
    from tests.ibench.noise_reference import reference_data_noise

    inputs = {}
    apply_data_noise = generator._apply_data_noise

    def spy(source, target, candidates, gold_indices, config, rng):
        inputs.update(
            source=source, target=target.copy(), candidates=list(candidates),
            gold_indices=list(gold_indices), config=config, state=rng.getstate(),
        )
        return apply_data_noise(source, target, candidates, gold_indices, config, rng)

    with monkeypatch.context() as patch:
        patch.setattr(generator, "_apply_data_noise", spy)
        scenario = generate_scenario(config)

    probe = inputs["target"].match_index().probe
    moved = gold_nulls = 0
    for i, candidate in enumerate(inputs["candidates"]):
        chased = chase_candidate(inputs["source"], candidate)
        if i in inputs["gold_indices"]:
            gold_nulls += chased.nulls_used
        elif gold_nulls:
            moved += sum(1 for f in chased.instance if f.nulls and not probe(f)[0])

    rng = random.Random()
    rng.setstate(inputs.pop("state"))
    target = inputs["target"]
    deleted, added = reference_data_noise(**inputs, rng=rng)
    return scenario, target, deleted, added, moved


def test_data_noise_equals_the_non_gold_exchange_reference(monkeypatch):
    # Every noise level at 0, 50 and 100: generation chases each candidate
    # at its problem labels and moves only the unexplained facts into the
    # non-gold exchange's labels; the reference chases that exchange.
    moved_and_added = 0
    for config in NOISE_GRID:
        scenario, target, deleted, added, moved = _noise_against_reference(config, monkeypatch)
        assert scenario.deleted_facts == deleted, config
        assert scenario.added_facts == added, config
        assert list(scenario.target) == list(target), config
        if config.pi_unexplained and moved:
            moved_and_added += 1
    # The grid must exercise the label move where it picks added facts.
    assert moved_and_added >= 5
