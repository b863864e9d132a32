"""Unit tests for the MRF's term rows and the solver's flat arrays.

The contract: an MRF stores its hinges and its caps as two sets of CSR
rows, whatever mix of bulk (``add_term_block``) and incremental
construction produced it; the block extents recorded at grounding time
slice those rows into contiguous runs without ever splitting a term
(the splice engine relies on that); and the solver's flat arrays are
the hinge rows followed by the cap rows, which gives the local step its
two kinds by position.
"""

import numpy as np

from repro.psl.admm import AdmmSolver
from repro.psl.hlmrf import HingeLossMRF, TermRows
from repro.psl.predicate import Predicate
from repro.selection.collective import CoverageShard, PriorShard, ground_collective
from repro.selection.metrics import build_selection_problem
from repro.examples_data import paper_example
from tests.collective_reference import ground_term_by_term
from tests.psl.term_blocks import TermBlockBuilder

X = Predicate("x", 1)


def _legacy_mrf() -> HingeLossMRF:
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0, X(1): -0.5}, 0.25, weight=2.0)
    mrf.add_constraint({X(0): 1.0, X(2): 1.0}, -1.0)
    mrf.add_potential({X(1): 1.0}, 0.0, weight=1.0)
    mrf.add_constraint({X(2): 1.0}, -0.5)
    return mrf


def _block_terms(b: int, terms_per_block: int):
    for t in range(terms_per_block):
        i = b * terms_per_block + t
        yield ([(X(i), 1.0), (X(i + 1), -1.0)], 0.1 * t, 1.0 + b), ([(X(i), 1.0)], -0.75)


def _block_built_mrf(num_blocks: int = 3, terms_per_block: int = 4) -> HingeLossMRF:
    mrf = HingeLossMRF()
    for b in range(num_blocks):
        builder = TermBlockBuilder()
        for potential, constraint in _block_terms(b, terms_per_block):
            builder.add_potential(*potential)
            builder.add_constraint(*constraint)
        atoms, block = builder.finish()
        mrf.add_term_block(atoms, block)
    return mrf


def _incrementally_built_mrf(num_blocks: int = 3, terms_per_block: int = 4) -> HingeLossMRF:
    """The same terms as :func:`_block_built_mrf`, in the same flat order."""
    mrf = HingeLossMRF()
    terms = [t for b in range(num_blocks) for t in _block_terms(b, terms_per_block)]
    for (pairs, offset, weight), _ in terms:
        mrf.add_potential(dict(pairs), offset, weight=weight)
    for _, (pairs, offset) in terms:
        mrf.add_constraint(dict(pairs), offset)
    return mrf


def test_legacy_mrf_partitions_as_single_run():
    # Incremental construction compiles to one flat run of all terms,
    # potentials first, then constraints.
    mrf = _legacy_mrf()
    assert list(mrf.hinges.ptr) == [0, 2, 3] and list(mrf.caps.ptr) == [0, 2, 3]
    arrays = AdmmSolver(mrf).arrays
    assert arrays.num_terms == 4 and arrays.num_potentials == 2
    assert list(arrays.term_ptr) == [0, 2, 3, 5, 6]
    assert list(arrays.offset) == [0.25, 0.0, -1.0, -0.5]
    # Constraints carry no weight: the vector covers the potentials only.
    assert list(arrays.weight) == [2.0, 1.0]


def test_empty_mrf_has_no_blocks():
    mrf = HingeLossMRF()
    assert mrf._block_extents == []
    arrays = AdmmSolver(mrf).arrays
    assert arrays.num_terms == 0
    assert arrays.num_copies == 0


def test_block_built_mrf_records_extents_per_shard():
    mrf = _block_built_mrf(num_blocks=3, terms_per_block=4)
    # One (pot_lo, pot_hi, con_lo, con_hi) extent per add_term_block call,
    # tiling both the potential and the constraint lists in order.
    assert mrf._block_extents == [(0, 4, 0, 4), (4, 8, 4, 8), (8, 12, 8, 12)]


def test_mixed_bulk_and_incremental_falls_back_to_single_run():
    mrf = _block_built_mrf(num_blocks=2, terms_per_block=2)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)  # incremental append
    arrays = AdmmSolver(mrf).arrays
    assert arrays.num_potentials == len(mrf.potentials) == 5
    assert arrays.num_terms == len(mrf.potentials) + len(mrf.constraints)
    # The appended potential lands at the end of the potential range.
    assert arrays.var[arrays.term_ptr[4]] == mrf.index_of(X(0))


def test_blocks_concatenate_to_flat_arrays():
    # Each recorded extent is a contiguous run of hinge and cap rows:
    # slicing the rows by extent and concatenating gives back exactly
    # the stored rows, and the solver arrays are the hinges, then the caps.
    mrf = _block_built_mrf()
    for rows, runs in (
        (mrf.hinges, [(lo, hi) for lo, hi, _, _ in mrf._block_extents]),
        (mrf.caps, [(lo, hi) for _, _, lo, hi in mrf._block_extents]),
    ):
        pieces = TermRows.concatenate([rows.rows(lo, hi) for lo, hi in runs])
        for field in ("offset", "ptr", "var", "coeff"):
            assert np.array_equal(getattr(pieces, field), getattr(rows, field))
    arrays = AdmmSolver(mrf).arrays
    both = TermRows.concatenate((mrf.hinges, mrf.caps))
    assert np.array_equal(arrays.term_ptr, both.ptr)
    assert np.array_equal(arrays.var, both.var)
    assert np.array_equal(arrays.coeff, both.coeff)
    assert np.array_equal(arrays.offset, both.offset)


def test_partition_degree_counts_every_copy():
    mrf = _legacy_mrf()
    arrays = AdmmSolver(mrf).arrays
    degree = np.maximum(
        np.bincount(arrays.var, minlength=mrf.num_variables).astype(float), 1.0
    )
    assert np.array_equal(arrays.degree, degree)


def test_collective_grounding_blocks_survive_into_partition():
    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    mrf, plan = ground_collective(problem)
    # One recorded extent per block: the coverage potentials and their
    # support caps, then the priors (this problem shares no error).
    assert [type(shard) for shard in plan.shards] == [CoverageShard, PriorShard]
    coverage, priors = len(plan.shards[0].facts), len(plan.shards[1].candidates)
    assert mrf._block_extents == [
        (0, coverage, 0, coverage),
        (coverage, coverage + priors, coverage, coverage),
    ]
    # The block structure never reaches the solver arrays.
    blocks = AdmmSolver(mrf).arrays
    single = AdmmSolver(ground_term_by_term(problem)).arrays
    for field in ("offset", "weight", "term_ptr", "var", "coeff", "normsq", "degree"):
        assert np.array_equal(getattr(blocks, field), getattr(single, field))


def test_block_x_update_matches_whole_problem_update():
    # The local step of a block-built MRF is the local step of the same
    # terms built one by one: construction never changes the arithmetic.
    blocks = AdmmSolver(_block_built_mrf())
    whole = AdmmSolver(_incrementally_built_mrf())
    assert blocks.arrays.num_copies == whole.arrays.num_copies
    rng = np.random.default_rng(5)
    v = rng.normal(size=whole.arrays.num_copies)
    assert np.array_equal(blocks._local_step(1.0)(v), whole._local_step(1.0)(v))


def test_kind_index_precompiles_the_kind_masks():
    # Interleaved construction still stores hinges and caps apart, so the
    # local step's slices [:num_potentials] and [num_potentials:] are
    # exactly the two kinds.
    mrf = HingeLossMRF()
    for t in range(4):
        mrf.add_potential({X(t): 1.0}, -0.25, weight=1.0 + t)
        mrf.add_constraint({X(t): 1.0, X(t + 1): 1.0}, -1.0)
    arrays = AdmmSolver(mrf).arrays
    assert arrays.num_potentials == 4 and arrays.num_terms == 8
    assert list(arrays.offset) == [-0.25] * 4 + [-1.0] * 4
    assert list(np.diff(arrays.term_ptr)) == [1] * 4 + [2] * 4


def test_solver_arrays_reuse_precompiled_and_resync_weights():
    # The solver builds its arrays once, and their weight vector is the
    # MRF's own: a reweight needs no resync step.
    mrf = _block_built_mrf()
    solver = AdmmSolver(mrf)
    arrays = solver.arrays
    mrf.set_potential_weights(np.full(len(mrf.potentials), 2.5))
    assert solver.arrays is arrays
    assert np.array_equal(arrays.weight[: arrays.num_potentials], mrf.potential_weights())
    assert arrays.weight is mrf._weights
