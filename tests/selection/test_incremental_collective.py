"""The collective patch tier: splice a cached revision, bit-identically.

Contract under test: for a lineage-linked edit chain,
:func:`patch_collective` / the cache's patch tier produce an artifact
whose MRF fingerprints — and whole ADMM solve trajectory — equal a
from-scratch ground of the edited problem, for every shard size and
wherever the patch runs.  Plus the tier ordering (memory > patch >
fresh), the ``incremental=False`` opt-out, and the decline paths.
"""

from fractions import Fraction

import pytest

from repro.examples_data import paper_example
from repro.ibench.mutations import (
    AddTargetTuple,
    MutableSelection,
    RemoveTargetTuple,
)
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from repro.selection.collective import (
    CollectiveGroundingCache,
    CollectiveSettings,
    GroundedCollective,
    patch_collective,
    solve_collective,
)
from repro.selection.objective import ObjectiveWeights
from tests.work_units import run_on

SHARD_SIZES = (1, 2, 7, None)
EXECUTORS = ("serial", "process:2")


def _chain(extra_projects: int = 5) -> MutableSelection:
    ex = paper_example(extra_projects=extra_projects)
    return MutableSelection(ex.source, ex.target, ex.candidates)


def _edit_fact(chain: MutableSelection):
    """A late-sorting target fact: removing it keeps earlier j_facts stable."""
    return sorted(chain.target, key=repr)[-1]


def _assert_same_artifact(patched: GroundedCollective, problem, settings) -> None:
    fresh = GroundedCollective(problem, settings)
    assert structure_fingerprint(patched.mrf) == structure_fingerprint(fresh.mrf)
    assert mrf_fingerprint(patched.mrf) == mrf_fingerprint(fresh.mrf)
    a = solve_collective(problem, settings, grounded=patched)
    b = solve_collective(problem, settings, grounded=fresh)
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    assert a.selected == b.selected
    assert a.fractional == b.fractional


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_patch_matches_scratch(executor, shard_size):
    chain = _chain()
    settings = CollectiveSettings()
    parent = GroundedCollective(chain.problem, settings, shard_size=shard_size)
    child = chain.apply(RemoveTargetTuple(_edit_fact(chain)))
    patched = run_on(
        executor, patch_collective, parent, child, settings, shard_size=shard_size
    )
    assert patched is not None
    assert patched.splice_stats.reused_shards > 0
    _assert_same_artifact(patched, child, settings)


def test_patch_reweights_to_the_new_settings():
    chain = _chain()
    parent = GroundedCollective(chain.problem, CollectiveSettings(), shard_size=2)
    child = chain.apply(RemoveTargetTuple(_edit_fact(chain)))
    reweighted = CollectiveSettings(
        weights=ObjectiveWeights(Fraction(2), Fraction(3), Fraction(1))
    )
    patched = patch_collective(parent, child, reweighted, shard_size=2)
    assert patched is not None
    _assert_same_artifact(patched, child, reweighted)


def test_multi_step_chain_patches_every_revision():
    chain = _chain()
    settings = CollectiveSettings(ground_shard_size=2)
    cache = CollectiveGroundingCache()
    grounded = cache.grounded(chain.problem, settings)
    assert cache.misses == 1 and cache.patch_hits == 0
    assert grounded.stats is not None  # root revision grounds for real

    fact = _edit_fact(chain)
    edits = [RemoveTargetTuple(fact), AddTargetTuple(fact), RemoveTargetTuple(fact)]
    for step, edit in enumerate(edits, start=2):
        problem = chain.apply(edit)
        patched = cache.grounded(problem, settings)
        assert cache.misses == step
        assert cache.patch_hits == step - 1
        assert patched.splice_stats is not None
        _assert_same_artifact(patched, problem, settings)
    cache.clear()


def test_retract_then_readd_restores_structure():
    chain = _chain()
    settings = CollectiveSettings(ground_shard_size=2)
    cache = CollectiveGroundingCache()
    root_fp = structure_fingerprint(cache.grounded(chain.problem, settings).mrf)
    fact = _edit_fact(chain)
    chain.apply(RemoveTargetTuple(fact))
    cache.grounded(chain.problem, settings)
    back = chain.apply(AddTargetTuple(fact))
    assert structure_fingerprint(cache.grounded(back, settings).mrf) == root_fp
    assert cache.patch_hits == 2
    cache.clear()


def test_incremental_off_forces_full_reground():
    chain = _chain()
    settings = CollectiveSettings(ground_shard_size=2, incremental=False)
    cache = CollectiveGroundingCache()
    cache.grounded(chain.problem, settings)
    child = chain.apply(RemoveTargetTuple(_edit_fact(chain)))
    grounded = cache.grounded(child, settings)
    assert cache.patch_hits == 0
    assert grounded.stats is not None  # full ground, not a splice
    _assert_same_artifact(grounded, child, CollectiveSettings(ground_shard_size=2))
    cache.clear()


def test_squared_hinge_mismatch_declines_patch():
    chain = _chain()
    parent = GroundedCollective(chain.problem, CollectiveSettings(), shard_size=2)
    child = chain.apply(RemoveTargetTuple(_edit_fact(chain)))
    squared = CollectiveSettings(squared_hinges=True)
    assert patch_collective(parent, child, squared, shard_size=2) is None


def test_shard_size_mismatch_skips_patch_tier():
    chain = _chain()
    cache = CollectiveGroundingCache()
    cache.grounded(chain.problem, CollectiveSettings(), shard_size=2)
    child = chain.apply(RemoveTargetTuple(_edit_fact(chain)))
    grounded = cache.grounded(child, CollectiveSettings(), shard_size=4)
    assert cache.patch_hits == 0
    assert grounded.stats is not None
    cache.clear()


def test_unrelated_problem_does_not_patch():
    chain = _chain()
    cache = CollectiveGroundingCache()
    settings = CollectiveSettings(ground_shard_size=2)
    cache.grounded(chain.problem, settings)
    # A problem with a lineage whose parent token the cache never saw.
    other = _chain(extra_projects=3).problem
    grounded = cache.grounded(other, settings)
    assert cache.patch_hits == 0
    assert grounded.stats is not None
    cache.clear()


def test_solve_collective_default_cache_patches_lineage_chains():
    from repro.selection.collective import GROUNDING_CACHE

    GROUNDING_CACHE.clear()
    try:
        chain = _chain()
        settings = CollectiveSettings(ground_shard_size=2)
        base = solve_collective(chain.problem, settings)
        child = chain.apply(RemoveTargetTuple(_edit_fact(chain)))
        patched = solve_collective(child, settings)
        assert GROUNDING_CACHE.patch_hits == 1
        scratch = solve_collective(
            child, CollectiveSettings(ground_shard_size=2, reuse_grounding=False)
        )
        assert patched.objective == scratch.objective
        assert patched.selected == scratch.selected
        assert patched.iterations == scratch.iterations
        assert base.converged and patched.converged
    finally:
        GROUNDING_CACHE.clear()
