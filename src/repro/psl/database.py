"""Observation database for PSL grounding and inference.

Holds soft truth values for observed atoms and registers the random
variables (atoms of open predicates) inference should solve for.  Closed
predicates follow the closed-world assumption: atoms never observed are
false (truth 0).

Every mutation is recorded in a bounded **change journal** of typed
:class:`DeltaEntry` rows, and :meth:`Database.state_token` identifies a
snapshot as a ``(salt, version)`` pair — the salt is unique per database
lineage, so tokens from *different* databases can never alias (two
fresh databases both at version 3 used to compare equal, silently
reusing pool workers holding the wrong snapshot).  :meth:`Database.
delta_since` replays the journal into a net atom-level
:class:`DatabaseDelta`, which is what incremental grounding
(:mod:`repro.psl.delta`) uses to re-ground only the shards an edit
touched.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import GroundingError
from repro.psl.predicate import GroundAtom, Predicate

#: Journal rows kept before the history is truncated from the front.
#: ``delta_since`` with a token older than the retained window returns
#: ``None`` (caller falls back to a full re-ground), so the cap only
#: bounds memory — it never produces a wrong delta.
JOURNAL_LIMIT = 65536

#: Per-process counter feeding database salts.  Combined with the pid so
#: two databases created in different processes differ too; a *pickled
#: copy* keeps its salt (snapshots of one lineage share tokens).
_SALT_COUNTER = itertools.count()


@dataclass(frozen=True)
class DeltaEntry:
    """One typed journal row: the operation, its atom, and prior state.

    ``prior`` is the atom's state immediately before the entry applied:
    ``("obs", value)``, ``("target",)``, or ``None`` (unknown atom).
    ``value`` is the new truth for ``observe`` entries, else ``None``.
    """

    op: str  # "observe" | "retract_observation" | "add_target" | "retract_target"
    atom: GroundAtom
    value: float | None = None
    prior: tuple | None = None


@dataclass(frozen=True)
class DatabaseDelta:
    """The *net* atom-level difference between two database versions.

    Computed by journal replay: an atom observed then retracted back to
    its initial state nets out entirely.  Atoms appear in first-touch
    journal order, so the delta itself is deterministic.
    """

    observed: tuple[tuple[GroundAtom, float], ...]  # new or changed observations
    retracted_observations: tuple[GroundAtom, ...]
    added_targets: tuple[GroundAtom, ...]
    retracted_targets: tuple[GroundAtom, ...]

    @property
    def touched_atoms(self) -> tuple[GroundAtom, ...]:
        """Every atom whose state changed, first-touch order."""
        seen: dict[GroundAtom, None] = {}
        for atom, _ in self.observed:
            seen.setdefault(atom, None)
        for atom in self.retracted_observations:
            seen.setdefault(atom, None)
        for atom in self.added_targets:
            seen.setdefault(atom, None)
        for atom in self.retracted_targets:
            seen.setdefault(atom, None)
        return tuple(seen)

    @property
    def predicates(self) -> frozenset[Predicate]:
        """Predicates with at least one touched atom."""
        return frozenset(a.predicate for a in self.touched_atoms)

    def __bool__(self) -> bool:
        return bool(
            self.observed
            or self.retracted_observations
            or self.added_targets
            or self.retracted_targets
        )


EMPTY_DELTA = DatabaseDelta((), (), (), ())


class Database:
    """Soft observations plus declared random-variable atoms."""

    def __init__(self) -> None:
        self._observations: dict[GroundAtom, float] = {}
        # dict-as-ordered-set: target *insertion order* defines the
        # deterministic variable order of the compiled MRF, which is what
        # lets sharded and serial grounding fingerprint identically.
        self._targets: dict[GroundAtom, None] = {}
        # dict-as-ordered-set buckets so ``__iter__`` yields atoms in
        # insertion order — a set bucket here leaks hash-seed order into
        # anything iterating the database (RPL002-class nondeterminism).
        self._atoms_by_predicate: dict[Predicate, dict[GroundAtom, None]] = {}
        self._version = 0
        self._salt = (os.getpid(), next(_SALT_COUNTER))
        self._journal: list[DeltaEntry] = []
        # Version of the state *before* the oldest retained journal row:
        # row i of ``_journal`` is the (base+i) -> (base+i+1) transition.
        self._journal_base = 0

    # -- journal -----------------------------------------------------------

    def _record(self, entry: DeltaEntry) -> None:
        self._journal.append(entry)
        self._version += 1
        if len(self._journal) > JOURNAL_LIMIT:
            dropped = len(self._journal) - JOURNAL_LIMIT // 2
            del self._journal[:dropped]
            self._journal_base += dropped

    def _state_of(self, atom: GroundAtom) -> tuple | None:
        if atom in self._targets:
            return ("target",)
        value = self._observations.get(atom)
        if value is not None:
            return ("obs", value)
        return None

    def delta_since(self, token: object) -> DatabaseDelta | None:
        """The net atom-level diff between *token*'s snapshot and now.

        Returns ``None`` when the diff cannot be produced — the token
        belongs to a different database lineage, is from the future, or
        predates the retained journal window — in which case callers
        must treat everything as changed (full re-ground).
        """
        if not (isinstance(token, tuple) and len(token) == 2):
            return None
        salt, version = token
        if salt != self._salt or not isinstance(version, int):
            return None
        if version == self._version:
            return EMPTY_DELTA
        if version > self._version or version < self._journal_base:
            return None
        entries = self._journal[version - self._journal_base :]
        # First-touch replay: the first entry for an atom carries its
        # state at *token* time; its current dicts give the final state.
        initial: dict[GroundAtom, tuple | None] = {}
        for entry in entries:
            if entry.atom not in initial:
                initial[entry.atom] = entry.prior
        observed: list[tuple[GroundAtom, float]] = []
        retracted_obs: list[GroundAtom] = []
        added_targets: list[GroundAtom] = []
        retracted_targets: list[GroundAtom] = []
        for atom, before in initial.items():
            after = self._state_of(atom)
            if before == after:
                continue
            if before is not None and before[0] == "obs":
                if after is not None and after[0] == "obs":
                    observed.append((atom, after[1]))
                    continue
                retracted_obs.append(atom)
            elif before is not None and before[0] == "target":
                retracted_targets.append(atom)
            if after is not None and after[0] == "obs":
                observed.append((atom, after[1]))
            elif after is not None and after[0] == "target":
                added_targets.append(atom)
        return DatabaseDelta(
            observed=tuple(observed),
            retracted_observations=tuple(retracted_obs),
            added_targets=tuple(added_targets),
            retracted_targets=tuple(retracted_targets),
        )

    # -- writing -----------------------------------------------------------

    def observe(self, atom: GroundAtom, truth: float = 1.0) -> None:
        """Record an observed soft truth value in [0, 1].

        A value-identical re-observe is a full no-op: the version (and
        therefore :meth:`state_token`) is unchanged, so caches keyed on
        the token stay valid.
        """
        if not 0.0 <= truth <= 1.0:
            raise GroundingError(f"truth value {truth} for {atom} outside [0, 1]")
        if atom in self._targets:
            raise GroundingError(f"{atom} is already a target (random variable)")
        truth = float(truth)
        prior = self._state_of(atom)
        if prior is not None and prior[1] == truth:
            return
        self._observations[atom] = truth
        self._atoms_by_predicate.setdefault(atom.predicate, {})[atom] = None
        self._record(DeltaEntry("observe", atom, value=truth, prior=prior))

    def retract_observation(self, atom: GroundAtom) -> None:
        """Remove a previously observed atom (back to closed-world default)."""
        value = self._observations.get(atom)
        if value is None:
            raise GroundingError(f"{atom} is not observed; cannot retract")
        del self._observations[atom]
        self._drop_atom(atom)
        self._record(DeltaEntry("retract_observation", atom, prior=("obs", value)))

    def add_target(self, atom: GroundAtom) -> None:
        """Register *atom* as a random variable for inference."""
        if atom.predicate.closed:
            raise GroundingError(
                f"cannot make target of closed predicate {atom.predicate.name}"
            )
        if atom in self._observations:
            raise GroundingError(f"{atom} is already observed")
        if atom in self._targets:
            return
        self._targets[atom] = None
        self._atoms_by_predicate.setdefault(atom.predicate, {})[atom] = None
        self._record(DeltaEntry("add_target", atom, prior=None))

    def retract_target(self, atom: GroundAtom) -> None:
        """Remove a target atom (it stops being a random variable)."""
        if atom not in self._targets:
            raise GroundingError(f"{atom} is not a target; cannot retract")
        del self._targets[atom]
        self._drop_atom(atom)
        self._record(DeltaEntry("retract_target", atom, prior=("target",)))

    def _drop_atom(self, atom: GroundAtom) -> None:
        bucket = self._atoms_by_predicate.get(atom.predicate)
        if bucket is not None:
            bucket.pop(atom, None)

    def state_token(self) -> object:
        """A ``(salt, version)`` pair identifying this exact snapshot.

        Every ``observe``/``add_target``/retraction bumps the version, so
        an unchanged token means an unchanged database — the check
        incremental grounding (:mod:`repro.psl.delta`) makes before
        reusing a grounding.  The salt is unique per database lineage
        (pickled snapshots keep it), so tokens of *distinct* databases
        never compare equal; feed the token back to :meth:`delta_since`
        for the atom-level diff.
        """
        return (self._salt, self._version)

    # -- reading -----------------------------------------------------------

    def is_target(self, atom: GroundAtom) -> bool:
        return atom in self._targets

    def truth(self, atom: GroundAtom) -> float | None:
        """Observed truth of *atom*, applying closed-world default 0.

        Returns None for target atoms (their truth is decided by inference).
        """
        if atom in self._targets:
            return None
        value = self._observations.get(atom)
        if value is not None:
            return value
        if atom.predicate.closed:
            return 0.0
        # Open-predicate atom that was never declared: treat as false
        # observation rather than silently inventing a random variable.
        return 0.0

    def atoms_of(self, predicate: Predicate) -> frozenset[GroundAtom]:
        """All known atoms (observed or target) of *predicate*."""
        return frozenset(self._atoms_by_predicate.get(predicate, ()))

    @property
    def targets(self) -> frozenset[GroundAtom]:
        return frozenset(self._targets)

    @property
    def targets_in_order(self) -> tuple[GroundAtom, ...]:
        """Target atoms in insertion order (the MRF's variable order)."""
        return tuple(self._targets)

    @property
    def observations(self) -> dict[GroundAtom, float]:
        return dict(self._observations)

    def observe_all(self, atoms: Iterable[GroundAtom], truth: float = 1.0) -> None:
        for a in atoms:
            self.observe(a, truth)

    def __iter__(self) -> Iterator[GroundAtom]:
        for bucket in self._atoms_by_predicate.values():
            yield from bucket
