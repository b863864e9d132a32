"""Robustness of the content-addressed disk grounding store.

Every way an entry can go wrong on disk — truncation, corruption,
version skew, racing writers, unwritable directories, reclamation under
a live reader — must degrade to a cache miss (or a ``verify`` failure),
never to a crash or a torn read.  Functional equivalence (bit-identical
solves from attached entries) is covered by the frozen-solver harness in
``test_partitioned_admm.py``; this module is about failure modes.
"""

import functools
import os
import pickle
import threading

import numpy as np
import pytest

from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.admm import AdmmSettings, AdmmSolver
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from repro.psl.store import ARRAY_NAMES, STORE_FORMAT, GroundingStore
from repro.selection.collective import (
    CollectiveGroundingCache,
    CollectiveSettings,
    GroundedCollective,
    collective_structure_key,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem

CONFIG = ScenarioConfig(
    num_primitives=4, rows_per_relation=8, pi_errors=50, pi_corresp=50, seed=13
)


@functools.cache
def _problem():
    scenario = generate_scenario(CONFIG)
    return build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )


@functools.cache
def _grounding():
    mrf, plan, _ = ground_collective(_problem(), CollectiveSettings(), shard_size=8)
    return mrf, plan


def _populated(tmp_path):
    mrf, plan = _grounding()
    store = GroundingStore(tmp_path)
    key = collective_structure_key(_problem(), CollectiveSettings())
    assert store.put(key, mrf) is True
    return store, key, mrf


# -- roundtrip ----------------------------------------------------------------


def test_variable_packing_roundtrip_and_generic_fallback():
    # Single-int-arg atom tables pack into predicate-registry + int64
    # blobs (the fast attach path); anything else keeps the generic
    # tuple encoding.  Both decode back to equal atoms.
    from repro.psl.predicate import GroundAtom, Predicate
    from repro.psl.store import _pack_variables, _unpack_variables

    p = Predicate("in", 1, closed=False)
    q = Predicate("explained", 1, closed=False)
    atoms = [GroundAtom(p, (3,)), GroundAtom(q, (0,)), GroundAtom(p, (5,))]
    packed = _pack_variables(atoms)
    assert isinstance(packed, tuple) and packed[0] == "packed-atoms-v1"
    assert _unpack_variables(packed) == atoms

    generic = (GroundAtom(p, ("a",)), GroundAtom(p, (3,)))
    assert _pack_variables(list(generic)) == generic
    assert _unpack_variables(generic) == list(generic)


def test_roundtrip_reproduces_both_fingerprints(tmp_path):
    store, key, mrf = _populated(tmp_path)
    loaded = store.load(key)
    assert loaded is not None
    assert mrf_fingerprint(loaded.mrf) == mrf_fingerprint(mrf)
    assert structure_fingerprint(loaded.mrf) == structure_fingerprint(mrf)
    assert loaded.mrf._block_extents == mrf._block_extents


def test_loaded_arrays_are_readonly_mmap_views(tmp_path):
    store, key, _ = _populated(tmp_path)
    loaded = store.load(key)
    flat = loaded.mrf._compiled
    # Everything attaches zero-copy read-only except the weight vector,
    # which reweighting must write in place.
    assert isinstance(flat.coeff, np.memmap) and not flat.coeff.flags.writeable
    assert isinstance(flat.var, np.memmap) and not flat.var.flags.writeable
    assert not isinstance(flat.weight, np.memmap) and flat.weight.flags.writeable


def test_put_is_idempotent(tmp_path):
    store, key, mrf = _populated(tmp_path)
    assert store.put(key, mrf) is False
    assert store.keys() == [key]


def test_extra_payload_roundtrips(tmp_path):
    mrf, _ = _grounding()
    store = GroundingStore(tmp_path)
    assert store.put("k", mrf, extra={"weights": ("frozen", 1)})
    assert store.load("k").extra == {"weights": ("frozen", 1)}


def test_invalid_keys_rejected(tmp_path):
    store = GroundingStore(tmp_path)
    for bad in ("", "a/b", ".hidden"):
        with pytest.raises(ValueError):
            store.entry_dir(bad)


# -- corruption and skew ------------------------------------------------------


def test_truncated_array_is_a_miss(tmp_path):
    store, key, _ = _populated(tmp_path)
    path = store.entry_dir(key) / "coeff.npy"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert store.load(key) is None


def test_corrupt_payload_fails_verify_but_not_load_of_others(tmp_path):
    store, key, _ = _populated(tmp_path)
    path = store.entry_dir(key) / "offset.npy"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip one payload byte: same shape, wrong content
    path.write_bytes(bytes(raw))
    results = store.verify(key)
    assert results == [(key, False, "payload hash mismatch (corrupt or torn entry)")]


def test_verify_catches_wrong_structure(tmp_path):
    store, key, _ = _populated(tmp_path)
    import json

    manifest_path = store.entry_dir(key) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["structure_sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest, sort_keys=True))
    (_, ok, message), = store.verify(key)
    assert not ok and "mismatch" in message


def test_format_version_skew_is_a_miss(tmp_path):
    store, key, _ = _populated(tmp_path)
    import json

    manifest_path = store.entry_dir(key) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = STORE_FORMAT + 1
    manifest_path.write_text(json.dumps(manifest, sort_keys=True))
    assert store.load(key) is None
    (entry,) = store.ls()
    assert entry.stale
    assert store.gc() == [key]
    assert store.keys() == []


def test_unpicklable_meta_is_a_miss(tmp_path):
    # The classic version-skew failure: meta.pkl references a module
    # that no longer exists -> ModuleNotFoundError inside pickle.loads.
    store, key, _ = _populated(tmp_path)
    skew = b"cnonexistent_mod\nattr\n."
    with pytest.raises(ModuleNotFoundError):
        pickle.loads(skew)
    (store.entry_dir(key) / "meta.pkl").write_bytes(skew)
    assert store.load(key) is None


def test_missing_array_file_is_a_miss(tmp_path):
    store, key, _ = _populated(tmp_path)
    (store.entry_dir(key) / "normsq.npy").unlink()
    assert store.load(key) is None
    (_, ok, _), = store.verify(key)
    assert not ok


# -- write atomicity ----------------------------------------------------------


def test_concurrent_writers_single_winner(tmp_path):
    mrf, plan = _grounding()
    store = GroundingStore(tmp_path)
    barrier = threading.Barrier(2)
    results = []

    def writer():
        barrier.wait()
        results.append(store.put("raced", mrf))

    threads = [threading.Thread(target=writer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results.count(True) == 1
    # No torn read: the surviving entry is fully valid.
    (_, ok, message), = store.verify("raced")
    assert ok, message
    assert not any("tmp-" in name for name in os.listdir(tmp_path))


def test_rename_loser_cleans_up_and_reports_false(tmp_path):
    # Deterministic race loss: another writer published a (partial)
    # entry directory between our existence check and the rename.
    mrf, _ = _grounding()
    store = GroundingStore(tmp_path)
    entry = store.entry_dir("contested")
    entry.mkdir(parents=True)
    (entry / "squatter").write_text("partial")
    assert store.put("contested", mrf) is False
    assert (entry / "squatter").exists()  # the published dir is untouched
    assert not any("tmp-" in name for name in os.listdir(tmp_path))


def test_readonly_store_degrades_to_false(tmp_path, monkeypatch):
    # Tests run as root, so chmod cannot produce EACCES; simulate the
    # unwritable directory at the publish step instead.
    mrf, _ = _grounding()
    store = GroundingStore(tmp_path)

    def denied(src, dst):
        raise PermissionError(13, "read-only store")

    monkeypatch.setattr(os, "rename", denied)
    assert store.put("k", mrf) is False
    monkeypatch.undo()
    assert store.keys() == []
    assert not any("tmp-" in name for name in os.listdir(tmp_path))


def test_store_root_being_a_file_degrades_to_false(tmp_path):
    mrf, _ = _grounding()
    root = tmp_path / "not-a-dir"
    root.write_text("file")
    assert GroundingStore(root).put("k", mrf) is False
    assert GroundingStore(root).load("k") is None
    assert GroundingStore(root).keys() == []


# -- gc -----------------------------------------------------------------------


def test_gc_reclaims_crashed_writer_tmp_dirs(tmp_path):
    store, key, _ = _populated(tmp_path)
    crashed = tmp_path / "deadbeef.tmp-99999-0"
    crashed.mkdir()
    (crashed / "kind.npy").write_bytes(b"partial")
    assert store.gc() == [crashed.name]
    assert store.keys() == [key]  # live entries survive a plain gc


def test_gc_never_breaks_a_loaded_open_mmap(tmp_path):
    # POSIX unlink semantics: a reader holding attached mmap views keeps
    # the inodes alive; gc after load must not perturb the solve.
    store, key, mrf = _populated(tmp_path)
    loaded = store.load(key)
    reference = AdmmSolver(mrf, AdmmSettings(max_iterations=300))
    expected = reference.solve()
    assert store.gc(all_entries=True) == [key]
    assert store.keys() == []
    solver = AdmmSolver(loaded.mrf, AdmmSettings(max_iterations=300))
    result = solver.solve()
    assert result.iterations == expected.iterations
    assert np.array_equal(result.x, expected.x)
    assert result.energy == expected.energy


# -- the collective disk tier -------------------------------------------------


def test_cache_disk_tier_attaches_and_spills(tmp_path):
    problem = _problem()
    settings = CollectiveSettings(grounding_store=str(tmp_path))

    populate = CollectiveGroundingCache()
    grounded = populate.grounded(problem, settings, shard_size=8)
    assert populate.disk_misses == 1 and populate.disk_hits == 0
    assert grounded.stats is not None  # a real ground happened
    assert len(GroundingStore(tmp_path).keys()) == 1

    attach = CollectiveGroundingCache()  # a "new process lifetime"
    attached = attach.grounded(problem, settings, shard_size=8)
    assert attach.disk_hits == 1 and attach.disk_misses == 0
    assert attached.stats is None  # attached, nothing ground
    assert mrf_fingerprint(attached.mrf) == mrf_fingerprint(grounded.mrf)


def test_disk_tier_key_is_shard_size_independent(tmp_path):
    # The shard size never changes the flat term order the solver
    # iterates on, so one stored entry serves readers at any shard size.
    problem = _problem()
    settings = CollectiveSettings(grounding_store=str(tmp_path))
    populate = CollectiveGroundingCache()
    populate.grounded(problem, settings, shard_size=8)
    attach = CollectiveGroundingCache()
    attach.grounded(problem, settings, shard_size=256)
    assert attach.disk_hits == 1
    assert len(GroundingStore(tmp_path).keys()) == 1


def test_disk_tier_corrupt_entry_falls_back_to_fresh_ground(tmp_path):
    problem = _problem()
    settings = CollectiveSettings(grounding_store=str(tmp_path))
    populate = CollectiveGroundingCache()
    populate.grounded(problem, settings, shard_size=8)
    store = GroundingStore(tmp_path)
    (key,) = store.keys()
    path = store.entry_dir(key) / "var.npy"
    path.write_bytes(path.read_bytes()[:16])
    attach = CollectiveGroundingCache()
    grounded = attach.grounded(problem, settings, shard_size=8)
    assert attach.disk_hits == 0
    assert grounded.stats is not None  # fell back to a real ground


def test_from_store_reweight_guard(tmp_path):
    # The stored grounding-time weights drive can_reweight, exactly as
    # on an in-process artifact.
    settings = CollectiveSettings()
    writer = GroundedCollective(_problem(), settings, shard_size=8)
    store = GroundingStore(tmp_path)
    key = collective_structure_key(_problem(), settings)
    store.put(key, writer.mrf, extra=writer.store_extra())
    stored = store.load(key)
    attached = GroundedCollective.from_store(_problem(), settings, stored)
    assert attached.weights == settings.weights
    assert attached.can_reweight(settings.weights)


def test_from_store_rejects_entry_without_reweight_registry(tmp_path):
    # An entry spilled without the prior components / grounding weights
    # cannot be reweighted safely; from_store must refuse it (and the
    # disk cache tier then falls back to a fresh ground).
    from repro.errors import InferenceError

    mrf, _plan = _grounding()
    settings = CollectiveSettings()
    store = GroundingStore(tmp_path)
    key = collective_structure_key(_problem(), settings)
    store.put(key, mrf, extra={"weights": settings.weights})
    stored = store.load(key)
    with pytest.raises(InferenceError):
        GroundedCollective.from_store(_problem(), settings, stored)
