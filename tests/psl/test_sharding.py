"""Shard/serial equivalence properties of the sharded grounding path.

The contract under test: for ANY shard size — including degenerate
single-entry and empty shards — the sharded merge produces an MRF that
is byte-identical (variables, potentials, constraints, constant energy,
energies at random points) to the serial dict-based compilation, also
when the grounding runs in a worker process.
"""

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.examples_data import paper_example
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import Predicate
from repro.psl.program import PslProgram
from repro.psl.rule import lit
from repro.psl.sharding import (
    TermBlockBuilder,
    ground_shards,
    iter_slices,
    mrf_fingerprint,
    structure_fingerprint,
)
from repro.selection.collective import (
    CollectiveSettings,
    CoverageShard,
    build_program,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem
from tests.work_units import run_on

SHARD_SIZES = (1, 2, 7, None)
EXECUTORS = ("serial", "process:2")

X = Predicate("x", 1, closed=False)


def _assert_identical(serial: HingeLossMRF, sharded: HingeLossMRF) -> None:
    assert mrf_fingerprint(serial) == mrf_fingerprint(sharded)
    # Belt and braces: same energies/violations at random points too.
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.random(serial.num_variables)
        assert serial.energy(x) == sharded.energy(x)
        assert serial.max_violation(x) == sharded.max_violation(x)


def _sample_program() -> PslProgram:
    program = PslProgram()
    friend = program.predicate("friend", 2)
    votes = program.predicate("votes", 2, closed=False)
    program.rule(
        [lit(friend, "A", "B"), lit(votes, "A", "P")], [lit(votes, "B", "P")], weight=0.5
    )
    program.rule([lit(votes, "A", "l")], [lit(votes, "A", "r")], weight=None)
    for pair in (("a", "b"), ("b", "c"), ("a", "c")):
        program.observe(friend(*pair))
    program.observe(friend("c", "a"), 0.6)
    for who in "abc":
        for party in ("l", "r"):
            program.target(votes(who, party))
    program.add_raw_potential({votes("a", "l"): 1.0}, -0.5, 2.0)
    program.add_raw_potential({votes("b", "l"): 1.0, votes("b", "r"): 0.5}, -0.25, 1.0, True)
    program.add_raw_potential({}, 0.25, 2.0)  # constant: folds into constant_energy
    program.add_linear_constraint({votes("a", "l"): 1.0, votes("a", "r"): 1.0}, -1.0)
    program.add_linear_constraint({votes("c", "l"): 1.0}, -0.5, equality=True)
    return program


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_program_sharded_ground_matches_serial(executor, shard_size):
    program = _sample_program()
    serial = program.ground()
    sharded, stats = run_on(executor, program.ground_sharded, shard_size=shard_size)
    _assert_identical(serial, sharded)
    assert stats.num_shards == len(program.grounding_shards(shard_size=shard_size))
    assert stats.num_potentials == len(serial.potentials)
    assert stats.num_constraints == len(serial.constraints)
    assert stats.peak_shard_terms <= stats.total_terms


def test_program_ground_dispatches_to_sharded_path():
    program = _sample_program()
    _assert_identical(program.ground(), program.ground(shard_size=2))


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_collective_sharded_ground_matches_serial(executor, shard_size):
    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    settings = CollectiveSettings()
    program, _ = build_program(problem, settings)
    serial = program.ground()
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
    serial = build_program(problem, settings)[0].ground()
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
        serial = build_program(problem, CollectiveSettings())[0].ground()
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
    program = _sample_program()
    rules = [r for r in program.rules if not r.is_hard]
    base = program.ground()
    overridden = program.ground({rules[0]: 4.25})
    assert structure_fingerprint(base) == structure_fingerprint(overridden)
    assert mrf_fingerprint(base) != mrf_fingerprint(overridden)


def test_structure_fingerprint_agrees_on_zero_weight_rules():
    # A zero-weight rule contributes no potentials, but both paths must
    # still agree on the group registry (intern order and the
    # zero-dropped marker), or equal programs would miss the structure
    # cache — and a later reweight of the dropped group must raise on
    # either path instead of silently diverging from a fresh ground.
    from repro.errors import InferenceError as IE

    def build():
        program = PslProgram()
        friend = program.predicate("friend", 2)
        votes = program.predicate("votes", 2, closed=False)
        program.rule(
            [lit(friend, "A", "B")], [lit(votes, "A", "B")], weight=0.0, name="off"
        )
        program.rule([lit(votes, "A", "B")], [], weight=1.0, name="prior")
        program.observe(friend("a", "b"))
        program.target(votes("a", "b"))
        return program

    serial = build().ground()
    sharded = build().ground(shard_size=4)
    assert structure_fingerprint(serial) == structure_fingerprint(sharded)
    assert [repr(k) for k in serial.group_keys] == [
        repr(k) for k in sharded.group_keys
    ]
    for mrf in (serial, sharded):
        off = next(k for k in mrf.group_keys if getattr(k, "name", "") == "off")
        with pytest.raises(IE):
            mrf.set_group_weights({off: 1.0})


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
    program = PslProgram()
    p = program.predicate("p", 1)
    q = program.predicate("q", 1, closed=False)
    for const in (1, "1", 2, "2"):
        program.observe(p(const))
        program.target(q(const))
    program.rule([lit(p, "X")], [lit(q, "X")], weight=1.0)
    serial = program.ground()
    for executor in EXECUTORS:
        sharded, _ = run_on(executor, program.ground_sharded, shard_size=1)
        _assert_identical(serial, sharded)


def test_iter_slices_covers_range_exactly():
    assert list(iter_slices(0, 4)) == []
    assert list(iter_slices(10, 4)) == [(0, 4), (4, 8), (8, 10)]
    assert list(iter_slices(3, None))[0] == (0, 3)
