"""Validation contract of ObjectiveWeights: zeros graded off, negatives and floats rejected."""

from fractions import Fraction

import pytest

from repro.examples_data import paper_example
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights, objective_breakdown


@pytest.fixture(scope="module")
def problem():
    ex = paper_example()
    return build_selection_problem(ex.source, ex.target, ex.candidates)


def test_negative_weight_rejected():
    for kwargs in ({"explains": -1}, {"errors": Fraction(-1, 2)}, {"size": -3}):
        with pytest.raises(ValueError, match="non-negative"):
            ObjectiveWeights(**{k: Fraction(v) for k, v in kwargs.items()})


def test_non_rational_weight_rejected():
    # The indexed objective is exact rational arithmetic; a float weight
    # would make it disagree with the reference in the last digits.
    for kwargs in ({"explains": 1.5}, {"errors": 0.0}, {"size": float("nan")}):
        with pytest.raises(TypeError, match="int or Fraction"):
            ObjectiveWeights(**kwargs)
    assert ObjectiveWeights(explains=2).explains == 2


def test_zero_weight_accepted_and_disables_term(problem):
    no_size = ObjectiveWeights(size=Fraction(0))
    breakdown = objective_breakdown(problem, [0, 1], no_size)
    assert breakdown.size == 0
    reference = objective_breakdown(problem, [0, 1])
    assert breakdown.unexplained == reference.unexplained
    assert breakdown.errors == reference.errors
    assert breakdown.total == reference.total - reference.size


def test_all_zero_weights_make_every_selection_free(problem):
    free = ObjectiveWeights(Fraction(0), Fraction(0), Fraction(0))
    for selected in ([], [0], [0, 1]):
        assert objective_breakdown(problem, selected, free).total == 0


def test_docstring_documents_graded_zero_behavior():
    # The docstring is the decision record for accepting zeros; keep the
    # two load-bearing statements pinned.
    doc = ObjectiveWeights.__doc__
    assert "Non-negative" in doc
    assert "NP-hardness" in doc
