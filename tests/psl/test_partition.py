"""Unit tests for the flat term arrays under the ADMM solver.

The contract: an MRF compiles into one set of flat CSR arrays in
potentials-then-constraints term order, whatever mix of bulk
(``add_term_block``) and incremental construction produced it; the
block extents recorded at grounding time slice those arrays into
contiguous runs without ever splitting a term (the splice engine
relies on that), and the solver precompiles its
per-kind index sets once.
"""

import numpy as np

from repro.psl.admm import AdmmSolver
from repro.psl.hlmrf import KIND_EQ, KIND_HINGE, KIND_LEQ, KIND_SQUARED, HingeLossMRF
from repro.psl.partition import compile_term_arrays, solver_arrays
from repro.psl.predicate import Predicate
from repro.psl.sharding import TermBlockBuilder
from repro.selection.collective import CollectiveSettings, ground_collective
from repro.selection.metrics import build_selection_problem
from repro.examples_data import paper_example

X = Predicate("x", 1)


def _legacy_mrf() -> HingeLossMRF:
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0, X(1): -0.5}, 0.25, weight=2.0)
    mrf.add_potential({X(1): 1.0}, 0.0, weight=1.0, squared=True)
    mrf.add_constraint({X(0): 1.0, X(2): 1.0}, -1.0)
    mrf.add_constraint({X(2): 1.0}, -0.5, equality=True)
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
    arrays = compile_term_arrays(_legacy_mrf())
    assert arrays.num_terms == 4 and arrays.num_potentials == 2
    assert list(arrays.kind) == [KIND_HINGE, KIND_SQUARED, KIND_LEQ, KIND_EQ]
    assert list(arrays.term_ptr) == [0, 2, 3, 5, 6]
    assert list(arrays.weight) == [2.0, 1.0, 0.0, 0.0]


def test_empty_mrf_has_no_blocks():
    mrf = HingeLossMRF()
    assert mrf._block_extents == []
    arrays = compile_term_arrays(mrf)
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
    arrays = compile_term_arrays(mrf)
    assert arrays.num_potentials == len(mrf.potentials) == 5
    assert arrays.num_terms == len(mrf.potentials) + len(mrf.constraints)
    # The appended potential lands at the end of the potential range.
    assert arrays.var[arrays.term_ptr[4]] == mrf.index_of(X(0))


def test_blocks_concatenate_to_flat_arrays():
    # Each recorded extent is a contiguous run of CSR rows: slicing the
    # flat arrays by extent and concatenating (potentials, then
    # constraints) gives back exactly the flat arrays.
    mrf = _block_built_mrf()
    arrays = compile_term_arrays(mrf)
    num_potentials = arrays.num_potentials
    runs = [(lo, hi) for lo, hi, _, _ in mrf._block_extents] + [
        (num_potentials + lo, num_potentials + hi)
        for _, _, lo, hi in mrf._block_extents
    ]
    ptr = arrays.term_ptr
    for field in ("var", "coeff", "term"):
        flat = getattr(arrays, field)
        pieces = np.concatenate([flat[ptr[lo] : ptr[hi]] for lo, hi in runs])
        assert np.array_equal(pieces, flat)
    assert np.array_equal(
        np.concatenate([arrays.kind[lo:hi] for lo, hi in runs]), arrays.kind
    )


def test_partition_degree_counts_every_copy():
    mrf = _legacy_mrf()
    arrays = compile_term_arrays(mrf)
    degree = np.maximum(
        np.bincount(arrays.var, minlength=mrf.num_variables).astype(float), 1.0
    )
    assert np.array_equal(arrays.degree, degree)


def test_collective_grounding_blocks_survive_into_partition():
    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    mrf, _, stats = ground_collective(problem, CollectiveSettings(), shard_size=4)
    assert stats.num_shards > 1
    # One recorded extent per grounding shard, none larger than a shard.
    assert len(mrf._block_extents) == stats.num_shards
    for pot_lo, pot_hi, con_lo, con_hi in mrf._block_extents:
        assert (pot_hi - pot_lo) + (con_hi - con_lo) <= stats.peak_shard_terms
    # The shard structure never reaches the solver arrays.
    whole, _, _ = ground_collective(problem, CollectiveSettings(), shard_size=10**9)
    sharded, single = compile_term_arrays(mrf), compile_term_arrays(whole)
    for field in ("kind", "offset", "weight", "term_ptr", "var", "coeff", "degree"):
        assert np.array_equal(getattr(sharded, field), getattr(single, field))


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
    solver = AdmmSolver(_legacy_mrf())  # all four kinds present
    kind = solver.arrays.kind
    all_terms = np.arange(solver.arrays.num_terms)
    assert len(solver._kinds) == 4
    for (_, terms, normsq), k in zip(
        solver._kinds, (KIND_HINGE, KIND_SQUARED, KIND_LEQ, KIND_EQ)
    ):
        assert isinstance(terms, slice)  # one term per kind: contiguous
        assert np.array_equal(all_terms[terms], np.flatnonzero(kind == k))
        assert np.array_equal(normsq, solver.arrays.normsq[terms])
    # Together the index sets cover every term exactly once.
    covered = np.concatenate([all_terms[terms] for _, terms, _ in solver._kinds])
    assert sorted(covered) == list(range(solver.arrays.num_terms))


def test_interleaved_kinds_keep_their_index_sets():
    # Hinge and squared potentials alternate, as do <= and == constraints:
    # no kind is contiguous, so each is addressed by its index set.
    mrf = HingeLossMRF()
    for t in range(4):
        mrf.add_potential({X(t): 1.0}, -0.25, weight=1.0 + t, squared=t % 2 == 1)
        mrf.add_constraint({X(t): 1.0, X(t + 1): 1.0}, -1.0, equality=t % 2 == 1)
    solver = AdmmSolver(mrf)
    kind = solver.arrays.kind
    assert len(solver._kinds) == 4
    for (_, terms, normsq), k in zip(
        solver._kinds, (KIND_HINGE, KIND_SQUARED, KIND_LEQ, KIND_EQ)
    ):
        assert not isinstance(terms, slice)
        assert np.array_equal(terms, np.flatnonzero(kind == k))
        assert np.array_equal(normsq, solver.arrays.normsq[terms])


def test_solver_arrays_reuse_precompiled_and_resync_weights():
    mrf = _block_built_mrf()
    mrf._compiled = compile_term_arrays(mrf)
    mrf.set_potential_weights([2.5] * len(mrf.potentials))
    arrays = solver_arrays(mrf)
    assert arrays is mrf._compiled
    assert np.array_equal(arrays.weight[: arrays.num_potentials], mrf.potential_weights())
