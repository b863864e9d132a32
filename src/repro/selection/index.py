"""The integer index behind every fast evaluation of the objective.

The reference objective (:func:`~repro.selection.objective.objective_value`)
walks every J fact per evaluation, hashing ``Fact`` objects and adding
``Fraction``\\ s.  Searches that evaluate many selections (rounding,
greedy), and the exact MILP that :func:`~repro.selection.exact.solve_milp`
builds from its CSR arrays, instead read an :class:`ObjectiveIndex`
that a :class:`~repro.selection.metrics.SelectionProblem` builds once,
on first use (:meth:`~repro.selection.metrics.SelectionProblem.objective_index`):

* J facts become ids ``0 .. |J|-1`` (their position in ``j_facts``);
* every cover degree is rescaled to an integer numerator over one common
  denominator ``L`` — the lcm of all cover-degree denominators;
* per candidate, a CSR row of ``(fact id, numerator)`` pairs and a CSR
  row of error-fact ids, plus its size.

With ``best(t)`` the largest selected numerator of fact t, Eq. (9) reads

    F(M) = w_explains * (|J|*L - sum_t best(t)) / L
         + w_errors * |errors(M)| + w_size * size(M)

Every term is an integer up to the weights, so an evaluation sums in
integers and builds a single ``Fraction`` at the end
(:class:`ScaledWeights`) — the same exact rational the reference
returns, which is what keeps strict-``<`` searches taking the same
steps.  Cover entries for facts outside ``j_facts`` are skipped, as the
reference skips them.

The index is CSR (about 16 KB at p=48) rather than a dense
candidate-by-fact matrix (about 1.1 MB), because grounding-cache
entries keep problems, and so their indexes, alive.  It is derived
state: it is never pickled and never part of a problem fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import SelectionError

if TYPE_CHECKING:
    from repro.datamodel.instance import Fact
    from repro.selection.metrics import SelectionProblem
    from repro.selection.objective import ObjectiveWeights

#: Numerator sums are int64; ``|J| * L`` bounds every one of them.
INT64_LIMIT = 2**63


@dataclass(frozen=True)
class ScaledWeights:
    """Objective weights over one common denominator.

    ``F = (explains * unexplained + errors * n_errors + size * size) /
    denominator`` with *unexplained* in units of ``1/L``, so an
    evaluation is integer arithmetic plus one ``Fraction``.
    """

    explains: int
    errors: int
    size: int
    denominator: int

    @classmethod
    def of(cls, weights: ObjectiveWeights, cover_denominator: int) -> ScaledWeights:
        explains, errors, size = (
            Fraction(w) for w in (weights.explains, weights.errors, weights.size)
        )
        denominator = math.lcm(
            cover_denominator * explains.denominator,
            errors.denominator,
            size.denominator,
        )

        def scale(w: Fraction, unit: int) -> int:
            return w.numerator * (denominator // (unit * w.denominator))

        return cls(
            scale(explains, cover_denominator),
            scale(errors, 1),
            scale(size, 1),
            denominator,
        )

    def value(self, unexplained: int, n_errors: int, size: int) -> Fraction:
        return Fraction(
            self.explains * unexplained + self.errors * n_errors + self.size * size,
            self.denominator,
        )


class ObjectiveIndex:
    """Integer CSR tables of one selection problem (see the module doc).

    Attributes:
        num_candidates: candidate count n.
        num_facts: |J|.
        denominator: L, the common denominator of every cover degree.
        cover_ptr: ``(n + 1,)`` row offsets into ``cover_fact``/``cover_num``.
        cover_fact: J-fact id of each cover entry.
        cover_num: integer numerator (over L) of each cover entry.
        error_ptr: ``(n + 1,)`` row offsets into ``error_fact``.
        error_fact: error-fact id of each error entry; ids are shared by
            candidates producing the same fact.
        num_error_facts: distinct error facts over all candidates.
        distinct_error_facts: the error facts by id, ids in order of first
            appearance over the candidates' error sets.
        sizes: per-candidate size.
        cover_owner, error_owner: the candidate (row) of every entry.
    """

    def __init__(self, problem: SelectionProblem):
        fact_ids = {t: k for k, t in enumerate(problem.j_facts)}
        if len(fact_ids) != len(problem.j_facts):
            raise SelectionError("j_facts holds duplicate facts")
        # Each degree is read as its (numerator, positive denominator).
        find = fact_ids.get
        facts: list[int] = []
        ratios: list[tuple[int, int]] = []
        lengths: list[int] = []
        for table in problem.covers:
            before = len(facts)
            for t, d in table.items():
                k = find(t)
                if k is not None:
                    facts.append(k)
                    ratios.append(d.as_integer_ratio())
            lengths.append(len(facts) - before)
        if any(not 0 <= n <= d for n, d in ratios):
            raise SelectionError("cover degrees must lie in [0, 1]")
        denominator = math.lcm(*dict.fromkeys(d for _, d in ratios))
        if len(fact_ids) * denominator >= INT64_LIMIT:
            raise SelectionError(
                f"|J| * L = {len(fact_ids)} * {denominator} overflows int64"
            )

        self.num_candidates = len(lengths)
        self.num_facts = len(fact_ids)
        self.denominator = denominator
        self.cover_ptr = _offsets(lengths)
        self.cover_fact = np.array(facts, dtype=np.intp)
        # num <= den <= L < 2**63, so every scaled numerator fits int64.
        pairs = np.array(ratios, dtype=np.int64).reshape(-1, 2)
        self.cover_num = pairs[:, 0] * (denominator // pairs[:, 1])
        error_ids: dict = {}
        error_rows = [
            [error_ids.setdefault(f, len(error_ids)) for f in errors]
            for errors in problem.error_facts
        ]
        self.error_ptr = _offsets(len(row) for row in error_rows)
        self.error_fact = np.array(
            [e for row in error_rows for e in row], dtype=np.intp
        )
        self.num_error_facts = len(error_ids)
        self.distinct_error_facts: tuple[Fact, ...] = tuple(error_ids)
        self.sizes = np.array(problem.sizes, dtype=np.int64)
        self.cover_owner = _owners(self.cover_ptr)
        self.error_owner = _owners(self.error_ptr)

    @property
    def full_cover(self) -> int:
        """``|J| * L``: the summed numerators of a fully explained J."""
        return self.num_facts * self.denominator

    def cover_row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate *i*'s ``(fact ids, numerators)``."""
        lo, hi = self.cover_ptr[i], self.cover_ptr[i + 1]
        return self.cover_fact[lo:hi], self.cover_num[lo:hi]

    def error_row(self, i: int) -> np.ndarray:
        """Candidate *i*'s error-fact ids."""
        return self.error_fact[self.error_ptr[i] : self.error_ptr[i + 1]]

    def cover_mass(self) -> np.ndarray:
        """Per candidate, its summed cover numerators (total cover times L)."""
        return row_sums(self.cover_ptr, self.cover_num)

    def components(self, selected: Iterable[int]) -> tuple[int, int, int]:
        """``(unexplained numerator, distinct errors, size)`` of *selected*."""
        mask = np.zeros(self.num_candidates, dtype=bool)
        mask[np.fromiter(selected, dtype=np.intp)] = True
        take = mask[self.cover_owner]
        best = np.zeros(self.num_facts, dtype=np.int64)
        np.maximum.at(best, self.cover_fact[take], self.cover_num[take])
        errors = np.zeros(self.num_error_facts, dtype=bool)
        errors[self.error_fact[mask[self.error_owner]]] = True
        return (
            self.full_cover - int(best.sum()),
            int(np.count_nonzero(errors)),
            int(self.sizes[mask].sum()),
        )


class CoverColumns:
    """Cover entries grouped by fact: which candidates cover each fact.

    The fact-major transpose of the cover rows: fact t's entries are
    ``ptr[t]:ptr[t+1]`` of ``owner`` (their candidates, ascending) and
    ``num`` (their numerators).  Lets a search recompute the best cover
    of a few facts after a candidate leaves the selection, without
    rescanning every row, and gives the collective grounding its
    coverage block.
    """

    def __init__(self, index: ObjectiveIndex):
        # A stable sort keeps each fact's entries in candidate order.
        order = np.argsort(index.cover_fact, kind="stable")
        self.ptr = np.searchsorted(
            index.cover_fact[order], np.arange(index.num_facts + 1)
        )
        self.owner = index.cover_owner[order]
        self.num = index.cover_num[order]

    def best_cover(self, facts: np.ndarray, selected: np.ndarray) -> np.ndarray:
        """Best numerator of each of *facts* over the candidates in *selected*.

        *selected* is a boolean candidate mask; every fact must be covered
        by at least one candidate (selected or not), so no group is empty.
        """
        starts = self.ptr[facts]
        lengths = self.ptr[facts + 1] - starts
        firsts = np.cumsum(lengths) - lengths
        entries = np.repeat(starts - firsts, lengths) + np.arange(firsts[-1] + lengths[-1])
        nums = np.where(selected[self.owner[entries]], self.num[entries], 0)
        return np.maximum.reduceat(nums, firsts)


def row_sums(ptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per CSR row, the sum of its *values* (0 for an empty row).

    Sums run row by row in *values*' dtype, so an int64 row sum is exact
    whenever that row's own total fits in int64.
    """
    sums = np.zeros(len(ptr) - 1, dtype=values.dtype)
    starts = ptr[:-1]
    nonempty = ptr[1:] > starts
    # An empty row adds no entries, so consecutive non-empty starts
    # delimit exactly their rows' entries.
    sums[nonempty] = np.add.reduceat(values, starts[nonempty])
    return sums


def _offsets(lengths: Iterable[int]) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.fromiter(lengths, dtype=np.intp))))


def _owners(ptr: np.ndarray) -> np.ndarray:
    """The row of every CSR entry."""
    return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
