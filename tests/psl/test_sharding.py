"""Block/serial equivalence properties of the block grounding path.

The contract under test: the block merge produces an MRF that is
byte-identical (variables, potentials, constraints, energies at random
points) to adding the same terms one at a time through the dict-keyed
``HingeLossMRF`` calls — for a hand-written term program at several
slicings (including single-term and empty blocks) and for the
collective model's three blocks on several problems
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
from repro.psl.predicate import GroundAtom, Predicate
from repro.psl.sharding import (
    ShardResult,
    ground_shards,
    mrf_fingerprint,
    structure_fingerprint,
)
from repro.selection.collective import (
    IN_PREDICATE,
    CollectiveSettings,
    CoverageShard,
    ErrorShard,
    PriorShard,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem
from tests.collective_reference import ground_term_by_term
from tests.psl.term_blocks import TermBlockBuilder
from tests.work_units import run_on

#: Terms per block of the hand-written program (None: one block).
SLICE_SIZES = (1, 2, 7, None)
#: Extra projects of the paper's running example (None: as printed).
EXTRA_PROJECTS = (1, 2, 7, None)
EXECUTORS = ("serial", "process:2")


def _paper_problem(extra_projects):
    ex = paper_example(extra_projects=extra_projects or 0)
    return build_selection_problem(ex.source, ex.target, ex.candidates)

X = Predicate("x", 1)


def _assert_identical(serial: HingeLossMRF, sharded: HingeLossMRF) -> None:
    assert mrf_fingerprint(serial) == mrf_fingerprint(sharded)
    # Belt and braces: same energies/violations at random points too.
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.random(serial.num_variables)
        assert serial.energy(x) == sharded.energy(x)
        assert serial.max_violation(x) == sharded.max_violation(x)


# A hand-written program: (kind, coefficients, offset, weight) terms
# over open ``votes`` atoms.  ``influence`` is the ground form of
# friend(A, B) & votes(A, P) -> votes(B, P) with ``friend`` observed;
# the constraints are the hard rule votes(A, "l") -> votes(A, "r") plus
# a raw linear constraint.
FRIEND = Predicate("friend", 2)
VOTES = Predicate("votes", 2)


def _sample_program(influence_weight: float = 0.5) -> tuple[list, list]:
    targets = [VOTES(who, party) for who in "abc" for party in ("l", "r")]
    friends = {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0, ("c", "a"): 0.6}
    terms = []
    for (a, b), truth in friends.items():
        for party in ("l", "r"):
            coefficients = [(VOTES(a, party), 1.0), (VOTES(b, party), -1.0)]
            terms.append(("hinge", coefficients, truth - 1.0, influence_weight))
    for who in "abc":
        coefficients = [(VOTES(who, "l"), 1.0), (VOTES(who, "r"), -1.0)]
        terms.append(("leq", coefficients, 0.0, 0.0))
    terms += [
        ("hinge", [(VOTES("a", "l"), 1.0)], -0.5, 2.0),
        ("hinge", [(VOTES("b", "l"), 1.0), (VOTES("b", "r"), 0.5)], -0.25, 1.0),
        ("leq", [(VOTES("a", "l"), 1.0), (VOTES("a", "r"), 1.0)], -1.0, 0.0),
    ]
    return targets, terms


@dataclass(frozen=True)
class TermListShard:
    """A slice of a hand-written term list as a grounding work unit."""

    order: int
    terms: tuple

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for kind, coefficients, offset, weight in self.terms:
            if kind == "hinge":
                builder.add_potential(coefficients, offset, weight)
            else:
                builder.add_constraint(coefficients, offset)
        atoms, block = builder.finish()
        return ShardResult(order=self.order, atoms=atoms, block=block)


def _ground_serial(targets, terms) -> HingeLossMRF:
    mrf = HingeLossMRF()
    for atom in targets:
        mrf.variable_index(atom)
    for kind, coefficients, offset, weight in terms:
        if kind == "hinge":
            mrf.add_potential(dict(coefficients), offset, weight)
        else:
            mrf.add_constraint(dict(coefficients), offset)
    return mrf


def _term_shards(terms, slice_size) -> list[TermListShard]:
    size = slice_size or len(terms)
    return [
        TermListShard(order=i, terms=tuple(terms[lo : lo + size]))
        for i, lo in enumerate(range(0, len(terms), size))
    ]


def _ground_sharded(targets, terms, slice_size):
    mrf = HingeLossMRF()
    for atom in targets:
        mrf.variable_index(atom)
    return ground_shards(_term_shards(terms, slice_size), mrf)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("slice_size", SLICE_SIZES)
def test_program_sharded_ground_matches_serial(executor, slice_size):
    targets, terms = _sample_program()
    serial = _ground_serial(targets, terms)
    sharded = run_on(executor, _ground_sharded, targets, terms, slice_size)
    _assert_identical(serial, sharded)
    assert len(sharded._block_extents) == len(_term_shards(terms, slice_size))


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("extra_projects", EXTRA_PROJECTS)
def test_collective_sharded_ground_matches_serial(executor, extra_projects):
    problem = _paper_problem(extra_projects)
    serial = ground_term_by_term(problem)
    sharded, plan = run_on(executor, ground_collective, problem)
    _assert_identical(serial, sharded)
    assert plan.targets[: problem.num_candidates] == tuple(
        GroundAtom(IN_PREDICATE, (i,)) for i in range(problem.num_candidates)
    )
    assert len(sharded._block_extents) == len(plan.shards)


def test_collective_sharded_ground_matches_serial_on_noisy_scenario():
    # The p=12 scenario's coverage block holds 1,378 entries, and is
    # still one shard.
    configs = (
        ScenarioConfig(
            num_primitives=5, rows_per_relation=10, pi_errors=50, pi_corresp=50, seed=13
        ),
        ScenarioConfig(
            num_primitives=12,
            rows_per_relation=100,
            pi_corresp=50,
            pi_errors=25,
            pi_unexplained=25,
            seed=1,
        ),
    )
    for config in configs:
        scenario = generate_scenario(config)
        problem = build_selection_problem(
            scenario.source, scenario.target, scenario.candidates
        )
        sharded, plan = ground_collective(problem)
        _assert_identical(ground_term_by_term(problem), sharded)
        assert [type(shard) for shard in plan.shards] == [
            CoverageShard,
            ErrorShard,
            PriorShard,
        ]


def test_collective_degenerate_problems():
    """No candidates / no coverage / shared errors all shard correctly."""
    from repro.datamodel.instance import Instance, fact
    from repro.mappings.parser import parse_tgds

    source = Instance([fact("r", 1), fact("s", 1)])
    target = Instance([fact("u", 2)])  # u(1) is an error for both candidates
    tgds = parse_tgds("r(X) -> u(X)\ns(X) -> u(X)")
    shared_errors = build_selection_problem(source, target, tgds)
    empty = build_selection_problem(source, target, [])
    # An empty block emits no shard.
    for problem, blocks in ((shared_errors, [ErrorShard, PriorShard]), (empty, [])):
        sharded, plan = ground_collective(problem)
        _assert_identical(ground_term_by_term(problem), sharded)
        assert [type(shard) for shard in plan.shards] == blocks


def _empty_coverage(order: int) -> CoverageShard:
    none = np.zeros(0, dtype=np.int64)
    return CoverageShard(
        order=order, facts=none, ptr=np.zeros(1, dtype=np.int64),
        candidates=none, degrees=np.zeros(0), weight=1.0,
    )


def test_empty_shard_merges_as_noop():
    shard = _empty_coverage(0)
    mrf = ground_shards([shard])
    assert mrf.num_variables == 0
    assert mrf.potentials == [] and mrf.constraints == []
    assert mrf._block_extents == [(0, 0, 0, 0)]


def test_out_of_order_shard_results_rejected():
    shards = [_empty_coverage(1), _empty_coverage(0)]
    with pytest.raises(InferenceError):
        ground_shards(shards)


def test_term_block_builder_mirrors_mrf_semantics():
    builder = TermBlockBuilder()
    builder.add_potential([(X(0), 1.0)], 0.0, 0.0)  # zero weight: dropped
    builder.add_potential([(X(0), 0.0), (X(1), 2)], 0.5, 2.0)  # zero coeff filtered
    for bad in (
        lambda: builder.add_potential([(X(0), 0.0)], 0.5, 2.0),  # no term left
        lambda: builder.add_potential([], -1.0, 3.0),
        lambda: builder.add_potential([(X(0), 1.0)], 0.0, -1.0),
        lambda: builder.add_constraint([(X(1), 0.0)], -1.0),
        lambda: builder.add_constraint([], 1.0),
    ):
        with pytest.raises(InferenceError):
            bad()
    atoms, block = builder.finish()
    assert atoms == (X(1),)
    assert block.num_terms == 1
    assert list(block.hinges.coeff) == [2.0]


@pytest.mark.parametrize(
    "add",
    [
        lambda b: b.add_potential([(X(0), 1.0)], -0.5, float("nan")),
        lambda b: b.add_potential([(X(0), 1.0)], -0.5, float("inf")),
        lambda b: b.add_potential([(X(0), float("nan"))], -0.5, 1.0),
        lambda b: b.add_potential([(X(0), 1.0)], float("inf"), 1.0),
        lambda b: b.add_constraint([(X(0), 1.0), (X(1), float("-inf"))], 0.0),
        lambda b: b.add_constraint([(X(0), 1.0)], float("nan")),
    ],
)
def test_term_block_builder_rejects_non_finite_terms(add):
    builder = TermBlockBuilder()
    with pytest.raises(InferenceError):
        add(builder)
    atoms, block = builder.finish()
    assert block.num_terms == 0


def test_structure_fingerprint_weight_independent_across_sweep():
    # The scenario-cache contract: a weight-only change leaves the
    # structure fingerprint untouched (the full fingerprint must move).
    from fractions import Fraction

    from repro.selection.objective import ObjectiveWeights

    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    base, _ = ground_collective(problem, CollectiveSettings())
    reference_structure = structure_fingerprint(base)
    for triple in (("2", "1", "1"), ("1/2", "3", "1"), ("1", "1", "1/4")):
        weights = ObjectiveWeights(*(Fraction(w) for w in triple))
        mrf, _ = ground_collective(problem, CollectiveSettings(weights=weights))
        assert structure_fingerprint(mrf) == reference_structure
        assert mrf_fingerprint(mrf) != mrf_fingerprint(base)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("extra_projects", (1, 7, None))
def test_structure_fingerprint_identical_across_executors_and_shards(
    executor, extra_projects
):
    problem = _paper_problem(extra_projects)
    reference, _ = ground_collective(problem, CollectiveSettings())
    mrf, _ = run_on(executor, ground_collective, problem)
    assert structure_fingerprint(mrf) == structure_fingerprint(reference)


def test_structure_fingerprint_weight_independent_for_rule_overrides():
    targets, terms = _sample_program()
    base = _ground_serial(targets, terms)
    overridden = _ground_serial(*_sample_program(influence_weight=4.25))
    assert structure_fingerprint(base) == structure_fingerprint(overridden)
    assert mrf_fingerprint(base) != mrf_fingerprint(overridden)
    sharded = _ground_sharded(*_sample_program(influence_weight=4.25), 2)
    assert structure_fingerprint(sharded) == structure_fingerprint(base)
    assert mrf_fingerprint(sharded) == mrf_fingerprint(overridden)


def test_structure_fingerprint_agrees_on_zero_weight_rules():
    # A zero-weight potential is dropped by the merged block exactly as
    # by the term-by-term calls, and on both paths its weight has no
    # slot a reweight could bring back.
    terms = [([(X(0), 1.0)], 0.0, 0.0), ([(X(0), -1.0)], 1.0, 1.0)]
    serial = HingeLossMRF()
    serial.variable_index(X(0))
    builder = TermBlockBuilder()
    for coefficients, offset, weight in terms:
        serial.add_potential(dict(coefficients), offset, weight)
        builder.add_potential(coefficients, offset, weight)
    sharded = HingeLossMRF()
    sharded.variable_index(X(0))
    sharded.add_term_block(*builder.finish())
    assert structure_fingerprint(serial) == structure_fingerprint(sharded)
    assert mrf_fingerprint(serial) == mrf_fingerprint(sharded)
    for mrf in (serial, sharded):
        assert list(mrf.potential_weights()) == [1.0]
        with pytest.raises(InferenceError):
            mrf.set_potential_weights([1.0, 1.0])


def test_structure_fingerprint_sees_structural_changes():
    a = HingeLossMRF()
    a.variable_index(X(0))
    a.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    b = HingeLossMRF()
    b.variable_index(X(0))
    b.add_potential({X(0): 1.0}, 0.5, weight=1.0)  # offset differs
    c = HingeLossMRF()
    c.variable_index(X(0))
    c.add_potential({X(0): 2.0}, 0.0, weight=1.0)  # coefficient differs
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
    terms = [("hinge", [(atom, -1.0)], 1.0, 1.0) for atom in targets]
    serial = _ground_serial(targets, terms)
    assert serial.num_variables == 4
    for executor in EXECUTORS:
        sharded = run_on(executor, _ground_sharded, targets, terms, 1)
        _assert_identical(serial, sharded)
