"""Unit and integration tests for scenario generation (incl. noise)."""

from dataclasses import replace

import pytest

from repro.errors import ScenarioError
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from tests.chase.test_chase_plan import SELECT_P48_POOL


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

    def spy(target, chases, gold_indices, config, rng):
        inputs.update(
            target=target.copy(), gold_indices=list(gold_indices), config=config,
            state=rng.getstate(),
        )
        return apply_data_noise(target, chases, gold_indices, config, rng)

    with monkeypatch.context() as patch:
        patch.setattr(generator, "_apply_data_noise", spy)
        scenario = generate_scenario(config)
    # Noise edits neither the source nor the candidates.
    inputs.update(source=scenario.source, candidates=list(scenario.candidates))

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


#: perfbench's ``BASE_CONFIG``, the base of its two p=24 workloads.
BASE_CONFIG = ScenarioConfig(
    num_primitives=24, rows_per_relation=20,
    pi_corresp=25, pi_errors=25, pi_unexplained=25, seed=3,
)
REFERENCE_GRID = (
    [
        ScenarioConfig(
            num_primitives=48, rows_per_relation=20, pi_corresp=level,
            pi_errors=errors, pi_unexplained=unexplained, seed=seed,
        )
        for level, (errors, unexplained, seeds) in SELECT_P48_POOL.items()
        for seed in seeds
    ]
    + [BASE_CONFIG, replace(BASE_CONFIG, pi_corresp=0, pi_errors=0, pi_unexplained=0)]
    + [
        ScenarioConfig(
            num_primitives=primitives, pi_corresp=noise, pi_errors=noise,
            pi_unexplained=noise, seed=seed,
        )
        for primitives in (4, 8, 13, 24, 48, 96)
        for seed in range(1, 7)
        for noise in NOISE_LEVELS
    ]
)


@pytest.mark.parametrize(
    "config",
    REFERENCE_GRID,
    ids=lambda c: (
        f"p{c.num_primitives}-rows{c.rows_per_relation}-noise"
        f"{c.pi_corresp:g}.{c.pi_errors:g}.{c.pi_unexplained:g}-seed{c.seed}"
    ),
)
def test_generation_equals_the_reference(config, monkeypatch):
    # The reference chases MG for J and populates the source value by
    # value; generation reads J off the gold tgds' twins' chases and
    # populates from per-relation draw plans.
    from repro.ibench import generator
    from repro.selection.metrics import build_selection_problem, problem_fingerprint
    from tests.ibench.generation_reference import reference_generate_scenario

    states = []
    populate = generator.populate

    def spy(schema, rows_per_relation, rng, value_pool):
        instance = populate(schema, rows_per_relation, rng, value_pool)
        states.append(rng.getstate())
        return instance

    with monkeypatch.context() as patch:
        patch.setattr(generator, "populate", spy)
        scenario = generate_scenario(config)
    reference = reference_generate_scenario(config)

    assert states == [reference.populate_state]
    assert list(scenario.source) == list(reference.source)
    assert list(scenario.reference_target) == list(reference.reference_target)
    assert list(scenario.target) == list(reference.target)
    assert scenario.deleted_facts == reference.deleted_facts
    assert scenario.added_facts == reference.added_facts
    assert scenario.candidates == reference.candidates
    assert scenario.gold_indices == reference.gold_indices
    assert problem_fingerprint(scenario.selection_problem()) == problem_fingerprint(
        build_selection_problem(reference.source, reference.target, reference.candidates)
    )


def _exchange_against_reference(source, gold_tgds, twins):
    """The exchange read off *twins*' chases, and the reference MG chase."""
    from repro.ibench.generator import _grounded_gold_exchange
    from repro.selection.metrics import chase_candidate
    from tests.ibench.generation_reference import reference_grounded_gold_exchange

    chases, offset = {}, 0
    for twin in dict.fromkeys(twins):
        chases[twin] = chase_candidate(source, twin, offset)
        offset += chases[twin].nulls_used
    exchange = _grounded_gold_exchange(gold_tgds, [chases[t] for t in twins])
    return list(exchange), list(reference_grounded_gold_exchange(source, gold_tgds))


def _instance(*facts):
    from repro.datamodel.instance import Instance, fact

    return Instance(fact(relation, *values) for relation, *values in facts)


HAND_SOURCE = (
    ("s", "a", "1"), ("s", "b", "2"), ("s", "c", "1"),
    ("u", "1", "x"), ("u", "2", "y"),
)


def test_a_gold_tgd_that_never_fires_opens_no_bucket():
    from repro.mappings.parser import parse_tgd

    source = _instance(*HAND_SOURCE)
    # The first gold tgd reads an empty relation, so its head relations
    # must not take their place in the exchange before the second's.
    gold = [
        parse_tgd("w(X, Y) -> t(X, Z) & v(Z, Y)"),
        parse_tgd("s(A, B) -> v(A, N) & t(N, B)"),
    ]
    twins = [
        parse_tgd("w(P, Q) -> v(R, Q) & t(P, R)"),
        parse_tgd("s(K, L) -> t(M, L) & v(K, M)"),
    ]
    exchange, reference = _exchange_against_reference(source, gold, twins)
    assert exchange == reference
    assert [f.relation for f in exchange][:3] == ["v", "v", "v"]


def test_two_gold_tgds_writing_one_relation():
    from repro.mappings.parser import parse_tgd

    source = _instance(*HAND_SOURCE)
    # All three write t: the first with a null, the other two the same
    # ground facts, which stay where the second put them.
    gold = [
        parse_tgd("s(A, B) -> t(B, N) & r(A, N)"),
        parse_tgd("s(A, B) & u(B, C) -> q(A) & t(B, C)"),
        parse_tgd("u(B, C) -> t(B, C)"),
    ]
    twins = [
        parse_tgd("s(X, Y) -> r(X, Z) & t(Y, Z)"),
        parse_tgd("s(X, Y) & u(Y, W) -> t(Y, W) & q(X)"),
        parse_tgd("u(X, Y) -> t(X, Y)"),
    ]
    exchange, reference = _exchange_against_reference(source, gold, twins)
    assert exchange == reference
    assert [f.relation for f in exchange] == ["t"] * 5 + ["r"] * 3 + ["q"] * 3


def test_gold_tgds_sharing_a_twin_get_distinct_constants():
    from repro.mappings.parser import parse_tgd

    source = _instance(*HAND_SOURCE)
    gold = [
        parse_tgd("s(A, B) -> t(A, N)"),
        parse_tgd("s(C, D) -> t(C, M)"),
    ]
    twin = parse_tgd("s(X, Y) -> t(X, Z)")
    exchange, reference = _exchange_against_reference(source, gold, [twin, twin])
    assert exchange == reference
    assert len({f.values[1] for f in exchange}) == 6


@pytest.mark.parametrize(
    "gold, twin",
    [
        # The body atoms in another order.
        ("s(A, B) & u(B, C) -> t(A, C)", "u(Y, Z) & s(X, Y) -> t(X, Z)"),
        # Not one renaming: A goes to both X and Y.
        ("s(A, A) -> t(A)", "s(X, Y) -> t(X)"),
        # Not injective: B and C both go to Y.
        ("s(A, B) & u(C, D) -> t(A, D)", "s(X, Y) & u(Y, W) -> t(X, W)"),
        # A constant where the gold tgd has a variable.
        ("s(A, B) -> t(A, B)", "s(X, 'a') -> t(X, X)"),
        # One head relation written twice.
        ("s(A, B) -> t(A, N) & t(N, B)", "s(X, Y) -> t(X, Z) & t(Z, Y)"),
    ],
)
def test_the_exchange_rejects_a_twin_it_cannot_read(gold, twin):
    from repro.mappings.parser import parse_tgd

    with pytest.raises(ScenarioError):
        _exchange_against_reference(
            _instance(*HAND_SOURCE), [parse_tgd(gold)], [parse_tgd(twin)]
        )


@pytest.mark.parametrize("kind", ScenarioConfig().primitive_kinds)
def test_every_primitive_kind_has_twins_the_exchange_can_read(kind):
    from repro.ibench.generator import _check_twin

    checked = 0
    for seed in range(1, 7):
        scenario = generate_scenario(
            ScenarioConfig(num_primitives=6, primitive_kinds=(kind,), pi_corresp=50, seed=seed)
        )
        gold_tgds = [t for p in scenario.primitives for t in p.gold_tgds]
        for gold, i in zip(gold_tgds, scenario.gold_indices):
            _check_twin(gold, scenario.candidates[i])
            checked += 1
    assert checked >= 6
