"""The index-built collective grounding against the frozen dict-walking plan.

``plan_collective_grounding`` builds the HL-MRF's three blocks with numpy
from the problem's :class:`~repro.selection.index.ObjectiveIndex`;
``tests/collective_plan_reference.py`` keeps the plan it replaced, which
walks the ``Fact``-keyed cover tables and error sets.  Both must give the
same MRF byte for byte: rows, weights, variables, block extents and both
fingerprints.  The blocks' content keys (the patch tier's identity) must
be equal exactly when a block's content is.
"""

import functools
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel.instance import Instance, fact
from repro.examples_data import paper_example
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.mutations import AddTargetTuple, MutableSelection, RemoveTargetTuple
from repro.mappings.parser import parse_tgds
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from repro.selection.collective import (
    CollectiveSettings,
    CoverageShard,
    ErrorShard,
    GroundedCollective,
    PriorShard,
    ground_collective,
    plan_collective_grounding,
)
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights
from tests.collective_plan_reference import ground_reference
from tests.integration.test_properties import selection_problems, weights_strategy
from tests.subprocess_env import child_env

ROW_FIELDS = ("offset", "ptr", "var", "coeff")


def assert_same_mrf(problem, weights=None):
    """Index-built and reference MRFs are equal byte for byte; returns the plan."""
    settings = CollectiveSettings(weights=weights or ObjectiveWeights())
    reference = ground_reference(problem, settings)
    mrf, plan = ground_collective(problem, settings)
    for name in ("hinges", "caps"):
        for field in ROW_FIELDS:
            expected = getattr(getattr(reference, name), field)
            actual = getattr(getattr(mrf, name), field)
            assert actual.dtype == expected.dtype, (name, field)
            assert actual.tobytes() == expected.tobytes(), (name, field)
    weights_ = mrf.potential_weights()
    assert weights_.tobytes() == reference.potential_weights().tobytes()
    assert mrf.variables == reference.variables
    assert all(type(a.arguments[0]) is int for a in mrf.variables)
    assert mrf._block_extents == reference._block_extents
    assert mrf_fingerprint(mrf) == mrf_fingerprint(reference)
    assert structure_fingerprint(mrf) == structure_fingerprint(reference)
    return plan


@functools.cache
def ibench_problem(primitives: int, seed: int):
    # All three noise kinds on, so candidates share ground error facts.
    config = ScenarioConfig(
        num_primitives=primitives, rows_per_relation=10,
        pi_corresp=25, pi_errors=25, pi_unexplained=25, seed=seed,
    )
    return generate_scenario(config).selection_problem()


@functools.cache
def paper_problem(extra_projects: int = 0):
    ex = paper_example(extra_projects=extra_projects)
    return build_selection_problem(ex.source, ex.target, ex.candidates)


def shared_error_problem():
    """Two candidates whose only error fact, u(1), they share."""
    source = Instance([fact("r", 1), fact("s", 1)])
    target = Instance([fact("u", 2)])
    tgds = parse_tgds("r(X) -> u(X)\ns(X) -> u(X)")
    return build_selection_problem(source, target, tgds)


def shard_types(plan):
    return [type(shard) for shard in plan.shards]


@given(selection_problems(), weights_strategy)
@settings(max_examples=80, deadline=None)
def test_index_built_mrf_equals_reference_on_random_problems(problem, weights):
    assert_same_mrf(problem, weights)


@given(st.sampled_from((2, 4, 6, 8, 12)), st.integers(1, 3), weights_strategy)
@settings(max_examples=25, deadline=None)
def test_index_built_mrf_equals_reference_on_ibench(primitives, seed, weights):
    assert_same_mrf(ibench_problem(primitives, seed), weights)


def test_ibench_problems_exercise_every_block():
    plan = assert_same_mrf(ibench_problem(12, 1))
    assert shard_types(plan) == [CoverageShard, ErrorShard, PriorShard]


@pytest.mark.parametrize(
    "triple", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0), (Fraction(1, 3), 2, 0)]
)
def test_zero_weight_components(triple):
    weights = ObjectiveWeights(*(Fraction(w) for w in triple))
    plan = assert_same_mrf(ibench_problem(12, 1), weights)
    covered = 0 if weights.explains == 0 else len(plan.shards[0].facts)
    assert plan.coverage_potentials == covered
    if weights.errors == 0 and weights.size == 0:
        assert PriorShard not in shard_types(plan)


def test_zero_degree_cover_entry_keeps_the_fact_and_drops_the_coefficient():
    problem = paper_problem(2)
    covered = set().union(*problem.covers)
    uncovered = next(t for t in problem.j_facts if t not in covered)
    other = next(
        t for t in problem.j_facts if t in covered and t not in problem.covers[0]
    )
    covers = [dict(table) for table in problem.covers]
    covers[0][uncovered] = Fraction(0)
    covers[0][other] = Fraction(0)
    edited = replace(problem, covers=covers)
    plan = assert_same_mrf(edited)
    coverage = plan.shards[0]
    k = int(np.searchsorted(coverage.facts, problem.j_facts.index(uncovered)))
    assert coverage.facts[k] == problem.j_facts.index(uncovered)
    mrf, _ = ground_collective(edited)
    # Its cap is explained(t) <= 0: one entry, the explained atom.
    cap = mrf.constraints[k]
    assert len(cap.coefficients) == 1 and cap.coefficients[0][1] == 1.0


def test_cover_entries_for_facts_outside_j_are_skipped():
    problem = paper_problem(2)
    outside = fact("nowhere", 1, 2)
    covers = [{**table, outside: Fraction(1, 2)} for table in problem.covers]
    edited = replace(problem, covers=covers)
    assert mrf_fingerprint(ground_collective(edited)[0]) == mrf_fingerprint(
        ground_collective(problem)[0]
    )
    assert_same_mrf(edited)


def test_no_error_facts():
    problem = ibench_problem(6, 2)
    edited = replace(problem, error_facts=[frozenset()] * problem.num_candidates)
    assert ErrorShard not in shard_types(assert_same_mrf(edited))


def test_only_shared_error_facts():
    plan = assert_same_mrf(shared_error_problem())
    assert shard_types(plan) == [ErrorShard, PriorShard]
    assert plan.shards[0].owners.tolist() == [0, 1]
    assert plan.private_errors.tolist() == [0, 0]


def test_zero_candidates():
    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, [])
    plan = assert_same_mrf(problem)
    assert plan.shards == () and plan.targets == ()


# -- the patch tier's content keys ---------------------------------------------


def block_keys(problem) -> dict:
    plan = plan_collective_grounding(problem)
    return {type(shard): shard.content_key() for shard in plan.shards}


def first_cover_entry(problem):
    """A (candidate, fact, degree) cover entry and a fact that candidate misses."""
    for i, table in enumerate(problem.covers):
        for t, degree in table.items():
            missed = next(u for u in problem.j_facts if u not in table)
            return i, t, degree, missed
    raise AssertionError("no cover entry")


def test_keys_are_bytes_and_equal_for_equal_blocks():
    problem = ibench_problem(12, 1)
    keys = block_keys(problem)
    assert set(keys) == {CoverageShard, ErrorShard, PriorShard}
    assert all(isinstance(key, bytes) for key in keys.values())
    assert len(set(keys.values())) == 3
    # A rebuilt problem object with the same tables has the same keys.
    assert block_keys(replace(problem)) == keys
    # Larger sizes move only prior penalties, which are weights.
    bigger = replace(problem, sizes=[s + 1 for s in problem.sizes])
    assert block_keys(bigger) == keys


def test_coverage_key_sees_one_fact_candidate_or_degree():
    problem = ibench_problem(12, 1)
    keys = block_keys(problem)
    i, t, degree, missed = first_cover_entry(problem)
    other = next(j for j, table in enumerate(problem.covers) if t not in table)

    def edited(*moves):
        covers = [dict(table) for table in problem.covers]
        for j, fact_, value in moves:
            if value is None:
                del covers[j][fact_]
            else:
                covers[j][fact_] = value
        return replace(problem, covers=covers)

    revisions = {
        "degree": edited((i, t, Fraction(1) if degree != 1 else Fraction(1, 2))),
        "candidate": edited((i, t, None), (other, t, degree)),
        "fact": edited((i, t, None), (i, missed, degree)),
    }
    for label, revision in revisions.items():
        changed = block_keys(revision)
        assert changed[CoverageShard] != keys[CoverageShard], label
        assert changed[ErrorShard] == keys[ErrorShard], label


def test_error_and_prior_keys_see_their_block():
    problem = ibench_problem(12, 1)
    keys = block_keys(problem)
    plan = plan_collective_grounding(problem)
    errors = plan.shards[1]
    owner = int(errors.owners[0])
    shared = next(
        f for f in problem.error_facts[owner]
        if sum(f in facts for facts in problem.error_facts) > 1
    )
    outsider = next(
        j for j, facts in enumerate(problem.error_facts) if shared not in facts
    )
    error_facts = list(problem.error_facts)
    error_facts[outsider] = error_facts[outsider] | {shared}
    one_more_owner = block_keys(replace(problem, error_facts=error_facts))
    assert one_more_owner[ErrorShard] != keys[ErrorShard]
    assert one_more_owner[CoverageShard] == keys[CoverageShard]

    free = int(plan.shards[2].candidates[0])
    sizes = list(problem.sizes)
    error_facts = list(problem.error_facts)
    sizes[free], error_facts[free] = 0, frozenset()
    dropped = block_keys(replace(problem, sizes=sizes, error_facts=error_facts))
    assert dropped[PriorShard] != keys[PriorShard]


def test_keys_equal_across_revisions_with_unchanged_blocks():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=6, rows_per_relation=10, pi_errors=25, seed=4)
    )
    selection = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    base = block_keys(selection.problem)
    t = sorted(scenario.target, key=repr)[-1]
    removed = block_keys(selection.apply(RemoveTargetTuple(t)))
    restored = block_keys(selection.apply(AddTargetTuple(t)))
    assert restored == base
    assert removed[CoverageShard] != base[CoverageShard]
    assert removed[PriorShard] == base[PriorShard]


# -- hash-seed independence -----------------------------------------------------


def test_index_built_fingerprint_is_hash_seed_independent():
    # The index numbers error facts in frozenset iteration order; the
    # plan's repr ranks must hide it.
    script = (
        "import hashlib\n"
        "from repro.ibench.config import ScenarioConfig\n"
        "from repro.ibench.generator import generate_scenario\n"
        "from repro.psl.sharding import mrf_fingerprint\n"
        "from repro.selection.collective import ErrorShard, ground_collective\n"
        "config = ScenarioConfig(num_primitives=12, rows_per_relation=10,\n"
        "    pi_corresp=25, pi_errors=25, pi_unexplained=25, seed=1)\n"
        "problem = generate_scenario(config).selection_problem()\n"
        "mrf, plan = ground_collective(problem)\n"
        "assert any(isinstance(s, ErrorShard) for s in plan.shards)\n"
        "print(hashlib.sha256(mrf_fingerprint(mrf)).hexdigest())\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=child_env(PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "1")
    }
    assert len(outputs) == 1


def test_a_weight_below_the_smallest_float_is_a_zero_weight():
    # float(1/10**400) == 0.0: the coverage block grounds no potentials,
    # so a reweight to a real explains weight must re-ground, not
    # stretch the weight vector over potentials that do not exist.
    problem = paper_problem(2)
    tiny = ObjectiveWeights(Fraction(1, 10**400), Fraction(1), Fraction(1))
    zero = ObjectiveWeights(Fraction(0), Fraction(1), Fraction(1))
    grounded = GroundedCollective(problem, CollectiveSettings(weights=tiny))
    assert grounded.plan.coverage_potentials == 0
    assert mrf_fingerprint(grounded.mrf) == mrf_fingerprint(
        GroundedCollective(problem, CollectiveSettings(weights=zero)).mrf
    )
    assert not grounded.can_reweight(ObjectiveWeights())
    assert grounded.can_reweight(zero)
    assert_same_mrf(problem, tiny)
