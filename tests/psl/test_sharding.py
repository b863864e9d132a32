"""Shard/serial equivalence properties of the sharded grounding path.

The contract under test: for ANY shard size — including degenerate
single-entry and empty shards — the sharded merge produces an MRF that
is byte-identical (variables, potentials, constraints, constant energy,
energies at random points) to adding the same terms one at a time
through the dict-keyed ``HingeLossMRF`` calls — for a hand-written term
program and for the collective model
(:func:`tests.collective_reference.ground_term_by_term`) — also when the
grounding runs in a worker process.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.examples_data import paper_example
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import Predicate
from repro.psl.sharding import (
    ShardResult,
    TermBlockBuilder,
    ground_shards,
    iter_slices,
    mrf_fingerprint,
    structure_fingerprint,
)
from repro.selection.collective import (
    CollectiveSettings,
    CoverageShard,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem
from tests.collective_reference import ground_term_by_term
from tests.work_units import run_on

SHARD_SIZES = (1, 2, 7, None)
EXECUTORS = ("serial", "process:2")

X = Predicate("x", 1)


def _assert_identical(serial: HingeLossMRF, sharded: HingeLossMRF) -> None:
    assert mrf_fingerprint(serial) == mrf_fingerprint(sharded)
    # Belt and braces: same energies/violations at random points too.
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.random(serial.num_variables)
        assert serial.energy(x) == sharded.energy(x)
        assert serial.max_violation(x) == sharded.max_violation(x)


# A hand-written program: (kind, coefficients, offset, weight, group)
# terms over open ``votes`` atoms.  ``influence`` is the ground form of
# friend(A, B) & votes(A, P) -> votes(B, P) with ``friend`` observed;
# the constraints are the hard rule votes(A, "l") -> votes(A, "r") plus
# raw linear and equality constraints; one raw potential is constant.
FRIEND = Predicate("friend", 2)
VOTES = Predicate("votes", 2)


def _sample_program(influence_weight: float = 0.5) -> tuple[list, list]:
    targets = [VOTES(who, party) for who in "abc" for party in ("l", "r")]
    friends = {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0, ("c", "a"): 0.6}
    terms = []
    for (a, b), truth in friends.items():
        for party in ("l", "r"):
            coefficients = [(VOTES(a, party), 1.0), (VOTES(b, party), -1.0)]
            terms.append(("hinge", coefficients, truth - 1.0, influence_weight, "influence"))
    for who in "abc":
        coefficients = [(VOTES(who, "l"), 1.0), (VOTES(who, "r"), -1.0)]
        terms.append(("leq", coefficients, 0.0, 0.0, None))
    terms += [
        ("hinge", [(VOTES("a", "l"), 1.0)], -0.5, 2.0, "raw"),
        ("squared", [(VOTES("b", "l"), 1.0), (VOTES("b", "r"), 0.5)], -0.25, 1.0, "raw"),
        ("hinge", [], 0.25, 2.0, "raw"),  # constant: folds into constant_energy
        ("leq", [(VOTES("a", "l"), 1.0), (VOTES("a", "r"), 1.0)], -1.0, 0.0, None),
        ("eq", [(VOTES("c", "l"), 1.0)], -0.5, 0.0, None),
    ]
    return targets, terms


@dataclass(frozen=True)
class TermListShard:
    """A slice of a hand-written term list as a grounding work unit."""

    order: int
    terms: tuple

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for kind, coefficients, offset, weight, group in self.terms:
            if kind in ("hinge", "squared"):
                builder.add_potential(
                    coefficients, offset, weight, kind == "squared", group=group
                )
            else:
                builder.add_constraint(coefficients, offset, kind == "eq")
        atoms, block = builder.finish()
        return ShardResult(order=self.order, atoms=atoms, block=block)


def _ground_serial(targets, terms) -> HingeLossMRF:
    mrf = HingeLossMRF()
    for atom in targets:
        mrf.variable_index(atom)
    for kind, coefficients, offset, weight, group in terms:
        if kind in ("hinge", "squared"):
            mrf.add_potential(
                dict(coefficients), offset, weight, kind == "squared", group=group
            )
        else:
            mrf.add_constraint(dict(coefficients), offset, kind == "eq")
    return mrf


def _term_shards(terms, shard_size) -> list[TermListShard]:
    return [
        TermListShard(order=i, terms=tuple(terms[lo:hi]))
        for i, (lo, hi) in enumerate(iter_slices(len(terms), shard_size))
    ]


def _ground_sharded(targets, terms, shard_size):
    mrf = HingeLossMRF()
    for atom in targets:
        mrf.variable_index(atom)
    return ground_shards(_term_shards(terms, shard_size), mrf)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_program_sharded_ground_matches_serial(executor, shard_size):
    targets, terms = _sample_program()
    serial = _ground_serial(targets, terms)
    sharded, stats = run_on(executor, _ground_sharded, targets, terms, shard_size)
    _assert_identical(serial, sharded)
    assert stats.num_shards == len(_term_shards(terms, shard_size))
    assert stats.num_potentials == len(serial.potentials)
    assert stats.num_constraints == len(serial.constraints)
    assert stats.constant_energy == serial.constant_energy
    assert stats.peak_shard_terms <= stats.total_terms


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_collective_sharded_ground_matches_serial(executor, shard_size):
    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    settings = CollectiveSettings()
    serial = ground_term_by_term(problem, settings)
    sharded, plan, stats = run_on(
        executor, ground_collective, problem, settings, shard_size=shard_size
    )
    _assert_identical(serial, sharded)
    assert len(plan.in_atoms) == problem.num_candidates
    assert stats.num_potentials == len(serial.potentials)


def test_collective_sharded_ground_matches_serial_on_noisy_scenario():
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=5, rows_per_relation=10, pi_errors=50, pi_corresp=50, seed=13
        )
    )
    problem = build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )
    settings = CollectiveSettings(squared_hinges=True)
    serial = ground_term_by_term(problem, settings)
    for shard_size in (1, 5, 64):
        sharded, _, _ = ground_collective(problem, settings, shard_size=shard_size)
        _assert_identical(serial, sharded)


def test_collective_degenerate_problems():
    """No candidates / no coverage / shared errors all shard correctly."""
    from repro.datamodel.instance import Instance, fact
    from repro.mappings.parser import parse_tgds

    source = Instance([fact("r", 1), fact("s", 1)])
    target = Instance([fact("u", 2)])  # u(1) is an error for both candidates
    tgds = parse_tgds("r(X) -> u(X)\ns(X) -> u(X)")
    shared_errors = build_selection_problem(source, target, tgds)
    empty = build_selection_problem(source, target, [])
    for problem in (shared_errors, empty):
        serial = ground_term_by_term(problem)
        for shard_size in (1, None):
            sharded, _, _ = ground_collective(problem, shard_size=shard_size)
            _assert_identical(serial, sharded)


def test_empty_shard_merges_as_noop():
    shard = CoverageShard(order=0, entries=(), weight=1.0, squared=False)
    mrf, stats = ground_shards([shard])
    assert mrf.num_variables == 0
    assert mrf.potentials == [] and mrf.constraints == []
    assert stats.num_shards == 1 and stats.total_terms == 0


def test_out_of_order_shard_results_rejected():
    shards = [
        CoverageShard(order=1, entries=(), weight=1.0, squared=False),
        CoverageShard(order=0, entries=(), weight=1.0, squared=False),
    ]
    with pytest.raises(InferenceError):
        ground_shards(shards)


def test_term_block_builder_mirrors_mrf_semantics():
    builder = TermBlockBuilder()
    builder.add_potential([(X(0), 1.0)], 0.0, 0.0)  # zero weight: dropped
    builder.add_potential([(X(0), 0.0)], 0.5, 2.0)  # all-zero coeffs: constant
    builder.add_potential([], -1.0, 3.0)  # negative offset constant: no energy
    builder.add_constraint([(X(1), 0.0)], -1.0)  # satisfied constant: dropped
    atoms, block = builder.finish()
    assert atoms == ()
    assert block.num_terms == 0
    assert block.constant_energy == pytest.approx(1.0)
    with pytest.raises(InferenceError):
        builder.add_potential([(X(0), 1.0)], 0.0, -1.0)
    with pytest.raises(InferenceError):
        builder.add_constraint([], 1.0)


def test_structure_fingerprint_weight_independent_across_sweep():
    # The scenario-cache contract: a weight-only change leaves the
    # structure fingerprint untouched (the full fingerprint must move).
    from fractions import Fraction

    from repro.selection.objective import ObjectiveWeights

    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    base, _, _ = ground_collective(problem, CollectiveSettings())
    reference_structure = structure_fingerprint(base)
    for triple in (("2", "1", "1"), ("1/2", "3", "1"), ("1", "1", "1/4")):
        weights = ObjectiveWeights(*(Fraction(w) for w in triple))
        mrf, _, _ = ground_collective(
            problem, CollectiveSettings(weights=weights)
        )
        assert structure_fingerprint(mrf) == reference_structure
        assert mrf_fingerprint(mrf) != mrf_fingerprint(base)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shard_size", (1, 7, None))
def test_structure_fingerprint_identical_across_executors_and_shards(
    executor, shard_size
):
    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    reference, _, _ = ground_collective(problem, CollectiveSettings())
    mrf, _, _ = run_on(
        executor,
        ground_collective,
        problem,
        CollectiveSettings(),
        shard_size=shard_size,
    )
    assert structure_fingerprint(mrf) == structure_fingerprint(reference)


def test_structure_fingerprint_weight_independent_for_rule_overrides():
    targets, terms = _sample_program()
    base = _ground_serial(targets, terms)
    overridden = _ground_serial(*_sample_program(influence_weight=4.25))
    assert structure_fingerprint(base) == structure_fingerprint(overridden)
    assert mrf_fingerprint(base) != mrf_fingerprint(overridden)
    sharded, _ = _ground_sharded(*_sample_program(influence_weight=4.25), 2)
    assert structure_fingerprint(sharded) == structure_fingerprint(base)
    assert mrf_fingerprint(sharded) == mrf_fingerprint(overridden)


def test_structure_fingerprint_agrees_on_zero_weight_rules():
    # A zero-weight group contributes no potentials, but a merged block
    # must still leave the group registry (intern order and the
    # zero-dropped marker) the term-by-term calls leave, or equal models
    # would miss the structure cache — and a later reweight of the
    # dropped group must raise on both paths.
    terms = [([(X(0), 1.0)], 0.0, 0.0, "off"), ([(X(0), -1.0)], 1.0, 1.0, "on")]
    serial = HingeLossMRF()
    serial.variable_index(X(0))
    builder = TermBlockBuilder()
    for coefficients, offset, weight, group in terms:
        serial.add_potential(dict(coefficients), offset, weight, group=group)
        builder.add_potential(coefficients, offset, weight, group=group)
    sharded = HingeLossMRF()
    sharded.variable_index(X(0))
    sharded.add_term_block(*builder.finish())
    assert structure_fingerprint(serial) == structure_fingerprint(sharded)
    assert serial.group_keys == sharded.group_keys == ("off", "on")
    for mrf in (serial, sharded):
        with pytest.raises(InferenceError):
            mrf.set_group_weights({"off": 1.0})


def test_structure_fingerprint_sees_structural_changes():
    a = HingeLossMRF()
    a.variable_index(X(0))
    a.add_potential({X(0): 1.0}, 0.0, weight=1.0, group="g")
    b = HingeLossMRF()
    b.variable_index(X(0))
    b.add_potential({X(0): 1.0}, 0.5, weight=1.0, group="g")  # offset differs
    c = HingeLossMRF()
    c.variable_index(X(0))
    c.add_potential({X(0): 1.0}, 0.0, weight=1.0, group="other")  # group differs
    assert structure_fingerprint(a) != structure_fingerprint(b)
    assert structure_fingerprint(a) != structure_fingerprint(c)


def test_fingerprint_distinguishes_repr_colliding_atoms():
    """p(1) and p("1") render identically via str; fingerprints must not."""
    a = HingeLossMRF()
    a.add_potential({X(1): 1.0}, 0.0, weight=1.0)
    b = HingeLossMRF()
    b.add_potential({X("1"): 1.0}, 0.0, weight=1.0)
    assert repr(X(1)) == repr(X("1"))  # the collision the key must survive
    assert mrf_fingerprint(a) != mrf_fingerprint(b)


def test_sharded_ground_deterministic_with_repr_colliding_constants():
    # q(1) and q("1") print alike but are distinct atoms: each ground
    # of p(X) -> q(X) must keep them apart and in the same order.
    q = Predicate("q", 1)
    targets = [q(const) for const in (1, "1", 2, "2")]
    terms = [("hinge", [(atom, -1.0)], 1.0, 1.0, "rule") for atom in targets]
    serial = _ground_serial(targets, terms)
    assert serial.num_variables == 4
    for executor in EXECUTORS:
        sharded, _ = run_on(executor, _ground_sharded, targets, terms, 1)
        _assert_identical(serial, sharded)


def test_iter_slices_covers_range_exactly():
    assert list(iter_slices(0, 4)) == []
    assert list(iter_slices(10, 4)) == [(0, 4), (4, 8), (8, 10)]
    assert list(iter_slices(3, None))[0] == (0, 3)
