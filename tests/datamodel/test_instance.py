"""Unit tests for facts and instances."""

import pytest

from repro.datamodel.instance import Fact, Instance, fact
from repro.datamodel.schema import Schema, relation
from repro.datamodel.values import Constant, LabeledNull
from repro.errors import InstanceError


def test_fact_helper_wraps_constants():
    f = fact("task", "ML", "Alice", 111)
    assert f.values == (Constant("ML"), Constant("Alice"), Constant(111))


def test_fact_helper_keeps_nulls():
    n = LabeledNull(5)
    f = fact("task", "ML", n)
    assert f.values[1] is n
    assert f.nulls == (n,)
    assert not f.is_ground


def test_ground_fact_has_no_nulls():
    assert fact("r", 1, 2).is_ground


def test_fact_substitute():
    n = LabeledNull(0)
    f = fact("r", "a", n)
    g = f.substitute({n: Constant(111)})
    assert g == fact("r", "a", 111)
    assert f.values[1] is n  # original untouched


def test_instance_add_and_membership():
    inst = Instance()
    assert inst.add(fact("r", 1))
    assert not inst.add(fact("r", 1))  # duplicate
    assert fact("r", 1) in inst
    assert fact("r", 2) not in inst
    assert len(inst) == 1


def test_instance_discard():
    inst = Instance([fact("r", 1)])
    assert inst.discard(fact("r", 1))
    assert not inst.discard(fact("r", 1))
    assert len(inst) == 0
    assert inst.relation_names == frozenset()


def test_instance_facts_of_groups_by_relation():
    inst = Instance([fact("r", 1), fact("r", 2), fact("s", 1)])
    assert inst.facts_of("r") == {fact("r", 1), fact("r", 2)}
    assert inst.facts_of("missing") == frozenset()


def test_instance_union_and_difference():
    a = Instance([fact("r", 1), fact("r", 2)])
    b = Instance([fact("r", 2), fact("s", 3)])
    assert set(a | b) == {fact("r", 1), fact("r", 2), fact("s", 3)}
    assert set(a - b) == {fact("r", 1)}


def test_instance_equality_is_set_based():
    assert Instance([fact("r", 1), fact("r", 2)]) == Instance([fact("r", 2), fact("r", 1)])
    assert Instance([fact("r", 1)]) != Instance([fact("r", 2)])


def test_instance_copy_is_independent():
    a = Instance([fact("r", 1)])
    b = a.copy()
    b.add(fact("r", 2))
    assert len(a) == 1
    assert len(b) == 2


def test_copy_keeps_insertion_order_and_private_buckets():
    a = Instance([fact("s", 9), fact("r", 2), fact("r", 1)])
    b = a.copy()
    assert list(b) == list(a)
    b.discard(fact("s", 9))
    a.add(fact("r", 3))
    assert list(a) == [fact("s", 9), fact("r", 2), fact("r", 1), fact("r", 3)]
    assert list(b) == [fact("r", 2), fact("r", 1)]
    assert a.relation_names == {"r", "s"}
    assert b.relation_names == {"r"}


def test_instance_nulls_and_groundness():
    n = LabeledNull(9)
    inst = Instance([fact("r", 1), fact("r", n)])
    assert inst.nulls == {n}
    assert not inst.is_ground
    assert Instance([fact("r", 1)]).is_ground


def test_validate_against_schema():
    schema = Schema("S")
    schema.add(relation("r", "a", "b"))
    Instance([fact("r", 1, 2)]).validate_against(schema)
    with pytest.raises(InstanceError):
        Instance([fact("r", 1)]).validate_against(schema)  # wrong arity
    with pytest.raises(InstanceError):
        Instance([fact("q", 1)]).validate_against(schema)  # unknown relation


def test_non_fact_membership_is_false():
    assert "not a fact" not in Instance([fact("r", 1)])


def test_iteration_is_insertion_ordered():
    # Hash-order iteration here leaked the per-process hash seed into
    # the scenario generator's skolem-constant numbering, making
    # "deterministic" generation differ across processes.
    facts = [fact("r", f"a{i}") for i in range(20)] + [fact("s", i) for i in range(5)]
    inst = Instance(facts)
    assert list(inst) == facts
    # Discard-then-re-add moves a fact to the back of its bucket —
    # iteration tracks current insertion order, not history.
    inst.discard(facts[0])
    inst.add(facts[0])
    assert list(inst) == facts[1:20] + [facts[0]] + facts[20:]


def test_scenario_generation_is_hash_seed_independent():
    # End to end: same config, same bytes, whatever the hash seed and
    # whatever the heap looked like first.  Interned values hash by
    # address, so each child first allocates its own number of throwaway
    # objects (constants among them) to shift where the scenario's
    # values land; an order leak through a set of values then shows.
    import subprocess
    import sys

    from tests.subprocess_env import child_env

    # Data noise on, so the noise step's chases, which the problem build
    # reuses, and the build's corroboration counts are in the answer too;
    # then the grounding (at p=3 this seed has six shared-error groups to
    # order) and both solvers' selections, so a hash-order leak in
    # planning, grounding or rounding shows as well.
    script = (
        "import hashlib, random, sys\n"
        "from repro.datamodel.values import Constant, LabeledNull\n"
        "from repro.ibench.config import ScenarioConfig\n"
        "from repro.ibench.generator import generate_scenario\n"
        "from repro.psl.sharding import mrf_fingerprint\n"
        "from repro.selection.collective import GroundedCollective, solve_collective\n"
        "from repro.selection.greedy import solve_greedy\n"
        "from repro.selection.metrics import problem_fingerprint\n"
        "rng = random.Random(int(sys.argv[1]))\n"
        "junk = [(object(), Constant(f'junk{i}'), LabeledNull(-1 - i))\n"
        "        for i in range(rng.randrange(50_001))]\n"
        "del junk[::3]\n"
        "for primitives in (3, 12):\n"
        "    s = generate_scenario(ScenarioConfig(num_primitives=primitives,\n"
        "        rows_per_relation=6, pi_corresp=50, pi_errors=50,\n"
        "        pi_unexplained=50, seed=2))\n"
        "    print(sorted(repr(f) for f in s.target))\n"
        "    print(sorted(repr(f) for f in s.source))\n"
        "    p = s.selection_problem()\n"
        "    print(hashlib.sha256(problem_fingerprint(p)).hexdigest())\n"
        "    g = GroundedCollective(p)\n"
        "    print(hashlib.sha256(mrf_fingerprint(g.mrf)).hexdigest())\n"
        "    for r in (solve_collective(p, grounded=g), solve_greedy(p)):\n"
        "        print(sorted(r.selected), r.objective)\n"
    )
    outputs = set()
    # The two junk seeds draw 3,706 and 40,822 throwaway triples.
    for hash_seed, junk_seed in (("1", "2"), ("2", "5")):
        env = child_env(PYTHONHASHSEED=hash_seed)
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", script, junk_seed],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            ).stdout
        )
    assert len(outputs) == 1


def test_re_adding_a_fact_changes_nothing():
    facts = [fact("r", i) for i in range(3)]
    inst = Instance(facts)
    index = inst.match_index()
    again = fact("r", 1)
    assert again is not facts[1]
    assert not inst.add(again)
    assert list(inst) == facts
    assert next(f for f in inst if f == again) is facts[1]
    assert inst.match_index() is index


def test_add_and_discard_drop_the_match_index():
    from tests.covers_reference import has_fact_homomorphism

    inst = Instance([fact("r", 1, 2)])
    probe = fact("r", 1, 3)
    index = inst.match_index()
    assert inst.match_index() is index
    assert not has_fact_homomorphism(probe, inst)
    inst.add(probe)
    assert inst.match_index() is not index
    assert has_fact_homomorphism(probe, inst)
    index = inst.match_index()
    inst.discard(probe)
    assert inst.match_index() is not index
    assert not has_fact_homomorphism(probe, inst)
    # A no-op edit keeps the index.
    index = inst.match_index()
    assert not inst.add(fact("r", 1, 2))
    assert not inst.discard(probe)
    assert inst.match_index() is index


def test_match_index_is_never_pickled():
    import pickle

    inst = Instance([fact("r", 1, LabeledNull(0)), fact("s", "a"), fact("r", 2, 2)])
    before = pickle.dumps(inst)
    inst.match_index()
    assert pickle.dumps(inst) == before
    restored = pickle.loads(before)
    assert "_match_index" not in vars(restored)
    assert restored.match_index().ordered == inst.match_index().ordered


def test_copy_shares_the_index_until_either_side_is_edited():
    inst = Instance([fact("r", 1, 2), fact("r", 3, 4)])
    index = inst.match_index()
    duplicate = inst.copy()
    assert duplicate.match_index() is index
    duplicate.add(fact("r", 5, 6))
    assert inst.match_index() is index
    assert len(duplicate.match_index().ordered) == 3

