"""The mapping-selection objective — Eq. (4) and Eq. (9) of the paper.

For a selection M of candidates::

    F(M) =  w_explains * sum_{t in J}       (1 - explains(M, t))
          + w_errors   * sum_{t in K_C - J}  error(M, t)
          + w_size     * sum_{theta in M}    size(theta)

With all-full candidates the graded terms collapse to Booleans and this
is exactly Eq. (4); in general it is Eq. (9).  The weighted form is the
appendix's Theorem 1 generalization (NP-hard for any positive weights).
Values are exact :class:`fractions.Fraction`s so the appendix table is
reproduced to the digit.

:func:`objective_value` and :func:`objective_breakdown` are the literal
reference.  Searches evaluate F through the problem's integer index
instead (:func:`objective_evaluator`, :class:`IncrementalObjective`),
which returns the same exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable

import numpy as np

from repro.selection.index import INT64_LIMIT, CoverColumns, ScaledWeights, row_sums
from repro.selection.metrics import SelectionProblem


@dataclass(frozen=True)
class ObjectiveWeights:
    """Non-negative weights for the three objective terms (all 1 in the paper).

    A weight of exactly 0 is accepted and simply switches its term off.
    This is deliberate: ablations and the fact-sampling estimator (which
    rescales ``explains`` by the sampled fraction, reaching 0 for an empty
    sample) both rely on it.  Note, however, that Theorem 1's NP-hardness
    statement assumes *strictly positive* weights — with a zero weight the
    optimization problem changes character (e.g. ``size=0`` makes adding
    error-free candidates free), so complexity guarantees no longer carry
    over.  Negative weights are rejected: they would invert a term's
    meaning and break every solver's pruning arguments.  Weights must be
    exact rationals (``int`` or ``Fraction``): the solvers evaluate F in
    integer arithmetic over a common denominator
    (:mod:`repro.selection.index`), which a float cannot join.
    """

    explains: Fraction = Fraction(1)
    errors: Fraction = Fraction(1)
    size: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for label, w in (
            ("explains", self.explains),
            ("errors", self.errors),
            ("size", self.size),
        ):
            if not isinstance(w, Rational):
                raise TypeError(f"weight {label} must be an int or Fraction, got {w!r}")
            if w < 0:
                raise ValueError(f"weight {label} must be non-negative, got {w}")


DEFAULT_WEIGHTS = ObjectiveWeights()


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """F(M) split into its three terms (all exact fractions)."""

    unexplained: Fraction
    errors: Fraction
    size: Fraction

    @property
    def total(self) -> Fraction:
        return self.unexplained + self.errors + self.size


def objective_breakdown(
    problem: SelectionProblem,
    selected: Iterable[int],
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> ObjectiveBreakdown:
    """Evaluate F on *selected* (candidate indices), term by term."""
    chosen = sorted(set(selected))
    unexplained = sum(
        (Fraction(1) - problem.max_cover(t, chosen) for t in problem.j_facts),
        Fraction(0),
    )
    n_errors = len(problem.union_error_facts(chosen))
    size = sum(problem.sizes[i] for i in chosen)
    return ObjectiveBreakdown(
        weights.explains * unexplained,
        weights.errors * Fraction(n_errors),
        weights.size * Fraction(size),
    )


def objective_value(
    problem: SelectionProblem,
    selected: Iterable[int],
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> Fraction:
    """F(M) as a single exact number."""
    return objective_breakdown(problem, selected, weights).total


def objective_evaluator(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> Callable[[Iterable[int]], Fraction]:
    """``selected -> F(selected)`` on the problem's integer index.

    Returns exactly :func:`objective_value`'s number at a fraction of its
    cost; use it wherever many selections of one problem are evaluated.
    """
    index = problem.objective_index()
    scaled = ScaledWeights.of(weights, index.denominator)

    def evaluate(selected: Iterable[int]) -> Fraction:
        return scaled.value(*index.components(selected))

    return evaluate


class IncrementalObjective:
    """Incrementally maintained objective for search algorithms.

    Runs on the problem's :class:`~repro.selection.index.ObjectiveIndex`
    and keeps integer state: the best cover numerator of every J fact,
    per-error-fact owner counts and the selected size.  ``add`` touches
    only the candidate's own cover and error rows; ``remove`` recomputes
    the best cover of only the removed candidate's facts.
    ``add_deltas`` prices adding every candidate at once, in one numpy
    pass over all the rows.  Every value equals :func:`objective_value`
    exactly.
    """

    def __init__(
        self,
        problem: SelectionProblem,
        weights: ObjectiveWeights = DEFAULT_WEIGHTS,
    ):
        index = problem.objective_index()
        self._index = index
        self._scaled = ScaledWeights.of(weights, index.denominator)
        self._mask = np.zeros(index.num_candidates, dtype=bool)
        self._best = np.zeros(index.num_facts, dtype=np.int64)
        self._explained = 0
        self._owners = np.zeros(index.num_error_facts, dtype=np.int64)
        self._errors = 0
        self._size = 0
        self._columns = CoverColumns(index)
        # A delta is a sum of three weighted counts, each at most the
        # matching term below (a row covers each J fact and owns each
        # error fact at most once).  A count is taken as at least 1,
        # because numpy multiplies the Python-int weight into the int64
        # array even when every count is 0.  Under the bound no product
        # or sum can wrap; past it the deltas are Python ints.
        bound = (
            self._scaled.explains * max(index.full_cover, 1)
            + self._scaled.errors * max(index.num_error_facts, 1)
            + self._scaled.size * max(int(index.sizes.sum()), 1)
        )
        self._delta_dtype = np.int64 if bound < INT64_LIMIT else object

    @property
    def selected(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._mask).tolist())

    @property
    def value(self) -> Fraction:
        return self._scaled.value(
            self._index.full_cover - self._explained, self._errors, self._size
        )

    def add(self, i: int) -> None:
        """Select candidate *i* (no-op if already selected)."""
        if self._mask[i]:
            return
        index = self._index
        facts, nums = index.cover_row(i)
        old = self._best[facts]
        new = np.maximum(old, nums)
        self._explained += int((new - old).sum())
        self._best[facts] = new
        errors = index.error_row(i)
        owners = self._owners[errors]
        self._errors += int(np.count_nonzero(owners == 0))
        self._owners[errors] = owners + 1
        self._size += int(index.sizes[i])
        self._mask[i] = True

    def remove(self, i: int) -> None:
        """Deselect candidate *i* (no-op if not selected)."""
        if not self._mask[i]:
            return
        index = self._index
        self._mask[i] = False
        facts, _ = index.cover_row(i)
        if len(facts):
            new = self._columns.best_cover(facts, self._mask)
            self._explained -= int((self._best[facts] - new).sum())
            self._best[facts] = new
        errors = index.error_row(i)
        owners = self._owners[errors] - 1
        self._owners[errors] = owners
        self._errors -= int(np.count_nonzero(owners == 0))
        self._size -= int(index.sizes[i])

    def add_deltas(self) -> np.ndarray:
        """The change in F of adding each candidate, in scaled units.

        Entry i is ``F(selected + {i}) - F(selected)`` times the
        :class:`~repro.selection.index.ScaledWeights` denominator: an
        exact integer, int64 when the bound set at construction allows
        it and a Python int (object dtype) otherwise.  Selected
        candidates read 0.  All entries share one positive denominator,
        so comparing them compares the exact deltas.
        """
        index = self._index
        gain = row_sums(
            index.cover_ptr,
            np.maximum(index.cover_num - self._best[index.cover_fact], 0),
        )
        new_errors = row_sums(
            index.error_ptr,
            (self._owners[index.error_fact] == 0).astype(np.int64),
        )
        gain, new_errors, sizes = (
            a.astype(self._delta_dtype, copy=False)
            for a in (gain, new_errors, index.sizes)
        )
        scaled = self._scaled
        deltas = (
            scaled.errors * new_errors + scaled.size * sizes - scaled.explains * gain
        )
        deltas[self._mask] = 0
        return deltas
