"""Content-addressed, disk-persistent store of compiled HL-MRF groundings.

Ground once per structure, *ever*: in-place reweighting and the
per-process grounding cache make warm reuse of a grounded structure
nearly free inside one process, but every new process lifetime would
still pay the grounding cost from scratch.
This module spills a compiled grounding — the flat
:class:`~repro.psl.partition.FlatTermArrays` CSR arrays plus the MRF's
variable table, origin-group registry, and folded-constant masses — to
mmap-able ``.npy`` files keyed by a caller-supplied structure key, and
re-attaches it in a fresh process as a solve-ready
:class:`~repro.psl.hlmrf.HingeLossMRF`:

* the solver arrays come back as **read-only mmap views** (zero-copy;
  the kernel shares the page cache across a whole fleet of workers
  attaching the same entry), seeded onto the MRF as precompiled
  :class:`~repro.psl.partition.FlatTermArrays` so the ADMM solver
  (:func:`~repro.psl.partition.solver_arrays`) skips array assembly;
* only the per-term weight vector is materialized as a writable
  in-memory copy — weights are the mutable half of the
  ground-once/reweight-many contract and get rewritten on attach;
* the potential/constraint lists are rebuilt eagerly through
  :func:`~repro.psl.hlmrf.rebuild_mrf` — no shard planning, no atom
  re-interning through the grounding path — so reweighting, energy
  evaluation, and fingerprints all behave exactly as on a fresh ground.

Entry layout (one directory per key under the store root)::

    <root>/<key>/
        manifest.json   format version, payload + structure hashes, counts
        kind.npy ... extents.npy   the arrays, one file each (npz cannot mmap)
        meta.pkl        variables, group registry, constants, caller extra

Writes are atomic: everything lands in a ``<key>.tmp-<pid>-...`` sibling
directory first, hashed file by file in the fixed :data:`ARRAY_NAMES`
order (fingerprint order — *never* set/dict-arrival or directory order,
or content-addressing breaks), and a single ``os.rename`` publishes the
entry.  Concurrent writers race safely: the first rename wins, losers
clean up their temp directory and report ``False`` — readers can never
observe a torn entry.  ``gc`` relies on POSIX unlink semantics: deleting
an entry's files while a loaded MRF still holds mmap views is safe (the
inode lives until the last mapping closes), so reclamation never has to
coordinate with readers.  See ``docs/grounding-store.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.psl.hlmrf import HingeLossMRF, rebuild_mrf
from repro.psl.partition import FlatTermArrays, compile_term_arrays
from repro.psl.predicate import GroundAtom
from repro.psl.sharding import structure_fingerprint

#: Bump on any change to the entry layout, array order, or meta schema.
#: Readers ignore entries whose manifest or meta carries a different
#: version — stale entries are skipped (and ``gc``-able), never crash.
STORE_FORMAT = 1

#: The spilled arrays, in the one fixed serialization order.  Writers
#: emit and hash the files in exactly this order and readers open them
#: by these names — content-addressing and the payload hash depend on
#: the order being a module constant, not set/dict/directory order.
ARRAY_NAMES = (
    "kind",
    "offset",
    "weight",
    "normsq",
    "term_ptr",
    "var",
    "term",
    "coeff",
    "degree",
    "groups",
    "extents",
)

_MANIFEST = "manifest.json"
_META = "meta.pkl"
_TMP_MARKER = ".tmp-"

#: Everything a reader can hit on a corrupt, truncated, raced, or
#: version-skewed entry.  ``ModuleNotFoundError``/``AttributeError``
#: are the unpickle version-skew cases (an entry written by a newer or
#: older code revision whose classes moved); the rest are plain
#: corruption/IO.  A load failure is always a cache miss, never a crash.
_LOAD_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    TypeError,
    IndexError,
    ImportError,  # ModuleNotFoundError subclasses this
    AttributeError,
    pickle.UnpicklingError,
    json.JSONDecodeError,
)


#: Tag for the packed variable-table encoding inside ``meta.pkl``.
_PACKED_VARS = "packed-atoms-v1"


def _pack_variables(variables) -> tuple:
    """Encode the MRF variable table for fast attach.

    The dominant attach cost after mmap'ing the solver arrays is
    unpickling thousands of :class:`GroundAtom` objects one by one.  The
    common case (every atom is a predicate applied to a single machine
    int — true for the whole collective model) packs into a tiny
    predicate registry plus two int64 blobs, which loads an order of
    magnitude faster than the generic pickle path.  Anything else falls
    back to the plain atom tuple.
    """
    variables = tuple(variables)
    if not variables or not all(
        type(a) is GroundAtom
        and len(a.arguments) == 1
        and type(a.arguments[0]) is int
        for a in variables
    ):
        return variables
    predicates: list = []
    pred_index: dict = {}
    pred_ids: list[int] = []
    args: list[int] = []
    for atom in variables:
        predicate = atom.predicate
        slot = pred_index.get(predicate)
        if slot is None:
            slot = len(predicates)
            pred_index[predicate] = slot
            predicates.append(predicate)
        pred_ids.append(slot)
        args.append(atom.arguments[0])
    try:
        pred_blob = np.asarray(pred_ids, dtype=np.int64).tobytes()
        arg_blob = np.asarray(args, dtype=np.int64).tobytes()
    except OverflowError:  # ints beyond int64: keep the generic encoding
        return variables
    return (_PACKED_VARS, tuple(predicates), pred_blob, arg_blob)


def _unpack_variables(stored) -> list:
    """Decode :func:`_pack_variables` output back into atom objects."""
    if not (
        isinstance(stored, tuple) and stored and stored[0] == _PACKED_VARS
    ):
        return list(stored)
    _, predicates, pred_blob, arg_blob = stored
    pred_ids = np.frombuffer(pred_blob, dtype=np.int64).tolist()
    args = np.frombuffer(arg_blob, dtype=np.int64).tolist()
    if len(pred_ids) != len(args):
        raise ValueError("packed variable table blobs disagree on length")
    # map() keeps the per-atom reconstruction loop in C; zip() hands each
    # constructor its ready-made single-int argument tuple.
    return list(map(GroundAtom, map(predicates.__getitem__, pred_ids), zip(args)))


def structure_key(payload: object) -> str:
    """Hash a JSON-able structure description into a store key.

    Canonical JSON (sorted keys) through sha256 — the helper every
    model-specific key builder (e.g.
    :func:`repro.selection.collective.collective_structure_key`) funnels
    through so keys are uniform hex directory names.
    """
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return digest


@dataclass(frozen=True)
class StoredGrounding:
    """One attached store entry: a solve-ready MRF plus caller metadata.

    ``mrf`` carries precompiled flat arrays (mmap-backed) — building an
    :class:`~repro.psl.admm.AdmmSolver` on it skips array assembly.
    ``extra`` is whatever the writer passed to :meth:`GroundingStore.put`
    (the collective tier stores its grounding-time objective weights
    there).
    """

    key: str
    mrf: HingeLossMRF
    extra: dict | None
    manifest: dict


@dataclass(frozen=True)
class StoreEntry:
    """One ``ls`` row: key plus the manifest counts (or a stale marker)."""

    key: str
    format: int | None
    num_variables: int
    num_potentials: int
    num_constraints: int
    num_copies: int
    bytes: int

    @property
    def stale(self) -> bool:
        return self.format != STORE_FORMAT


class GroundingStore:
    """A content-addressed directory of spilled groundings.

    Instances are cheap handles over a root directory; any number of
    processes may read and write one store concurrently (atomicity comes
    from the rename protocol, not locks).  All mutating operations are
    best-effort: a read-only or otherwise unwritable store degrades to
    a permanent miss (``put`` returns ``False``) rather than raising —
    persistence is an optimization, never a correctness requirement.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    # -- paths ----------------------------------------------------------------

    def entry_dir(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid store key {key!r}")
        return self.root / key

    def __contains__(self, key: str) -> bool:
        return (self.entry_dir(key) / _MANIFEST).exists()

    # -- write ----------------------------------------------------------------

    def put(self, key: str, mrf: HingeLossMRF, extra: dict | None = None) -> bool:
        """Spill *mrf* under *key*; ``True`` iff this call published it.

        Idempotent and race-safe: an existing entry (or a concurrent
        writer winning the rename) makes this a no-op returning
        ``False``.  Failures to write (read-only store, full disk) are
        swallowed the same way — the caller simply re-grounds next cold
        start.
        """
        entry = self.entry_dir(key)
        if (entry / _MANIFEST).exists():
            return False
        flat = getattr(mrf, "_compiled", None)
        if (
            flat is not None
            and flat.num_potentials == len(mrf.potentials)
            and flat.num_terms == len(mrf.potentials) + len(mrf.constraints)
        ):
            # Fast path for pre-compiled MRFs (a splice or a ground-time
            # seed): reuse the flat arrays instead of re-walking the term
            # lists.  The weight column is re-copied from the live
            # vector — in-place reweights mutate it without refreshing
            # the compiled snapshot — so the spill never persists stale
            # weights.
            weight = np.array(flat.weight, dtype=np.float64, copy=True)
            weight[: flat.num_potentials] = mrf._pot_weights
            flat = dataclasses.replace(flat, weight=weight)
        else:
            flat = compile_term_arrays(mrf)
        arrays = {
            "kind": flat.kind,
            "offset": flat.offset,
            "weight": flat.weight,
            "normsq": flat.normsq,
            "term_ptr": flat.term_ptr,
            "var": flat.var,
            "term": flat.term,
            "coeff": flat.coeff,
            "degree": flat.degree,
            "groups": np.asarray(mrf.potential_groups, dtype=np.int64),
            "extents": np.asarray(
                mrf._block_extents, dtype=np.int64
            ).reshape(-1, 4),
        }
        meta = {
            "format": STORE_FORMAT,
            "variables": _pack_variables(mrf.variables),
            "group_keys": tuple(mrf.group_keys),
            "zero_dropped": tuple(sorted(mrf._zero_dropped)),
            "constant_mass": tuple(sorted(mrf._constant_mass.items())),
            "constant_weighted": tuple(sorted(mrf._constant_weighted.items())),
            "constant_energy": float(mrf.constant_energy),
            "num_potentials": len(mrf.potentials),
            "extra": dict(extra) if extra else None,
        }
        # Unique per *call*, not just per process: two threads spilling
        # the same key concurrently must never share (and tear down) one
        # another's staging directory.
        token = os.urandom(6).hex()
        tmp = self.root / f"{key}{_TMP_MARKER}{os.getpid()}-{token}"
        try:
            tmp.mkdir(parents=True, exist_ok=False)
            digest = hashlib.sha256()
            for name in ARRAY_NAMES:
                path = tmp / f"{name}.npy"
                with open(path, "wb") as handle:
                    np.save(handle, arrays[name])
                digest.update(name.encode())
                digest.update(path.read_bytes())
            meta_bytes = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
            (tmp / _META).write_bytes(meta_bytes)
            digest.update(_META.encode())
            digest.update(meta_bytes)
            manifest = {
                "format": STORE_FORMAT,
                "key": key,
                "payload_sha256": digest.hexdigest(),
                "structure_sha256": hashlib.sha256(
                    structure_fingerprint(mrf)
                ).hexdigest(),
                "num_variables": mrf.num_variables,
                "num_potentials": len(mrf.potentials),
                "num_constraints": len(mrf.constraints),
                "num_copies": int(flat.num_copies),
            }
            (tmp / _MANIFEST).write_text(json.dumps(manifest, sort_keys=True))
            # The publish: one rename, atomic on POSIX.  A concurrent
            # winner makes the target a non-empty directory and this
            # raises (ENOTEMPTY/EEXIST) — the loser's temp dir is
            # removed below and readers only ever saw the winner.
            os.rename(tmp, entry)
            return True
        except OSError:
            return False
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # -- read -----------------------------------------------------------------

    def load(self, key: str) -> StoredGrounding | None:
        """Attach the entry under *key*, or ``None`` on any miss.

        Misses include: no entry, format-version skew (older/newer
        writer), truncated or corrupt payloads, and unpicklable metadata
        (classes that moved between revisions).  The arrays attach as
        read-only mmap views; only the weight vector is copied writable.
        The payload hash is deliberately *not* verified here — hashing
        would fault in every page and defeat the zero-copy attach; run
        :meth:`verify` for integrity audits.
        """
        entry = self.entry_dir(key)
        try:
            manifest = json.loads((entry / _MANIFEST).read_text())
            if manifest.get("format") != STORE_FORMAT:
                return None
            arrays = {
                name: np.load(
                    entry / f"{name}.npy", mmap_mode="r", allow_pickle=False
                )
                for name in ARRAY_NAMES
            }
            meta = pickle.loads((entry / _META).read_bytes())
            if meta.get("format") != STORE_FORMAT:
                return None
            num_potentials = int(meta["num_potentials"])
            num_terms = int(len(arrays["kind"]))
            variables = _unpack_variables(meta["variables"])
            if (
                len(arrays["term_ptr"]) != num_terms + 1
                or len(arrays["groups"]) != num_potentials
                or num_potentials > num_terms
            ):
                return None
            mrf = rebuild_mrf(
                variables,
                kind=arrays["kind"],
                offset=arrays["offset"],
                weight=arrays["weight"],
                term_ptr=arrays["term_ptr"],
                var=arrays["var"],
                coeff=arrays["coeff"],
                num_potentials=num_potentials,
                potential_groups=arrays["groups"],
                group_keys=meta["group_keys"],
                zero_dropped=meta["zero_dropped"],
                constant_mass=dict(meta["constant_mass"]),
                constant_weighted=dict(meta["constant_weighted"]),
                constant_energy=meta["constant_energy"],
                block_extents=arrays["extents"],
            )
            # Seed the precompiled solver arrays: everything stays a
            # zero-copy mmap view except the writable weight vector
            # (reweighting writes it in place).
            mrf._compiled = FlatTermArrays(
                num_variables=len(variables),
                num_potentials=num_potentials,
                kind=arrays["kind"],
                offset=arrays["offset"],
                weight=np.array(arrays["weight"], dtype=np.float64),
                normsq=arrays["normsq"],
                term_ptr=arrays["term_ptr"],
                var=arrays["var"],
                term=arrays["term"],
                coeff=arrays["coeff"],
                degree=arrays["degree"],
            )
            extra = meta.get("extra")
            return StoredGrounding(
                key=key, mrf=mrf, extra=extra, manifest=manifest
            )
        except _LOAD_ERRORS:
            return None

    # -- maintenance ----------------------------------------------------------

    def keys(self) -> list[str]:
        """All entry keys, sorted (directory order is never exposed)."""
        if not self.root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir() and _TMP_MARKER not in child.name
        )

    def ls(self) -> list[StoreEntry]:
        """Describe every entry, sorted by key; stale ones flagged."""
        entries = []
        for key in self.keys():
            entry = self.entry_dir(key)
            size = sum(
                child.stat().st_size
                for child in sorted(entry.iterdir())
                if child.is_file()
            )
            try:
                manifest = json.loads((entry / _MANIFEST).read_text())
            except _LOAD_ERRORS:
                manifest = {}
            entries.append(
                StoreEntry(
                    key=key,
                    format=manifest.get("format"),
                    num_variables=int(manifest.get("num_variables", 0)),
                    num_potentials=int(manifest.get("num_potentials", 0)),
                    num_constraints=int(manifest.get("num_constraints", 0)),
                    num_copies=int(manifest.get("num_copies", 0)),
                    bytes=size,
                )
            )
        return entries

    def gc(self, all_entries: bool = False) -> list[str]:
        """Remove stale temp dirs and dead entries; return what went.

        Without *all_entries* only crashed writers' temp directories and
        entries that fail the quick staleness check (missing/corrupt
        manifest, format-version skew) are reclaimed; with it the whole
        store is cleared.  Safe to run while readers hold attached
        entries: POSIX keeps each deleted file's inode alive until the
        last open mmap drops, so live views stay valid — a deleted entry
        simply cannot be attached *again*.
        """
        removed = []
        if not self.root.is_dir():
            return removed
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            if _TMP_MARKER in child.name:
                shutil.rmtree(child, ignore_errors=True)
                removed.append(child.name)
                continue
            stale = True
            try:
                manifest = json.loads((child / _MANIFEST).read_text())
                stale = manifest.get("format") != STORE_FORMAT
            except _LOAD_ERRORS:
                pass
            if all_entries or stale:
                shutil.rmtree(child, ignore_errors=True)
                removed.append(child.name)
        return removed

    def verify(self, key: str | None = None) -> list[tuple[str, bool, str]]:
        """Audit entries: payload hash, attachability, structure hash.

        The expensive full check ``load`` skips: re-hash every payload
        file in :data:`ARRAY_NAMES` order against the manifest's
        ``payload_sha256``, attach the entry, and recompute the rebuilt
        MRF's structure fingerprint against ``structure_sha256``.
        Returns ``(key, ok, message)`` per audited entry, sorted by key.
        """
        keys = [key] if key is not None else self.keys()
        results = []
        for entry_key in keys:
            results.append((entry_key, *self._verify_one(entry_key)))
        return results

    def _verify_one(self, key: str) -> tuple[bool, str]:
        entry = self.entry_dir(key)
        try:
            manifest = json.loads((entry / _MANIFEST).read_text())
        except _LOAD_ERRORS as exc:
            return False, f"unreadable manifest: {exc}"
        if manifest.get("format") != STORE_FORMAT:
            return False, (
                f"format {manifest.get('format')!r} != {STORE_FORMAT} (stale)"
            )
        digest = hashlib.sha256()
        try:
            for name in ARRAY_NAMES:
                digest.update(name.encode())
                digest.update((entry / f"{name}.npy").read_bytes())
            digest.update(_META.encode())
            digest.update((entry / _META).read_bytes())
        except OSError as exc:
            return False, f"unreadable payload: {exc}"
        if digest.hexdigest() != manifest.get("payload_sha256"):
            return False, "payload hash mismatch (corrupt or torn entry)"
        loaded = self.load(key)
        if loaded is None:
            return False, "payload hashes ok but entry failed to attach"
        rebuilt = hashlib.sha256(structure_fingerprint(loaded.mrf)).hexdigest()
        if rebuilt != manifest.get("structure_sha256"):
            return False, "rebuilt structure fingerprint mismatch"
        return True, "ok"
