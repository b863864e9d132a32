"""Direct unit tests for the HL-MRF container."""

import pytest

from repro.errors import InferenceError
from repro.psl.hlmrf import HardConstraint, HingeLossMRF, HingePotential
from repro.psl.predicate import Predicate

X = Predicate("x", 1)


def test_variable_interning_is_stable():
    mrf = HingeLossMRF()
    a = mrf.variable_index(X(0))
    b = mrf.variable_index(X(1))
    assert a == 0 and b == 1
    assert mrf.variable_index(X(0)) == 0  # idempotent
    assert mrf.num_variables == 2


def test_index_of_unknown_atom_raises():
    mrf = HingeLossMRF()
    with pytest.raises(InferenceError):
        mrf.index_of(X(9))


def test_potential_value_linear_and_squared():
    linear = HingePotential(((0, 1.0),), -0.25, weight=2.0)
    assert linear.value([0.75]) == pytest.approx(1.0)
    assert linear.value([0.0]) == 0.0
    squared = HingePotential(((0, 1.0),), -0.25, weight=2.0, squared=True)
    assert squared.value([0.75]) == pytest.approx(0.5)


def test_zero_weight_potentials_skipped():
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, 0.0, weight=0.0)
    assert mrf.potentials == []


def test_negative_weight_rejected():
    mrf = HingeLossMRF()
    with pytest.raises(InferenceError):
        mrf.add_potential({X(0): 1.0}, 0.0, weight=-1.0)


def test_zero_coefficients_dropped():
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 0.0, X(1): 1.0}, 0.0, weight=1.0)
    assert len(mrf.potentials[0].coefficients) == 1


def test_constant_constraint_feasibility_check():
    mrf = HingeLossMRF()
    mrf.add_constraint({X(0): 0.0}, -1.0)  # trivially satisfied, dropped
    assert mrf.constraints == []
    with pytest.raises(InferenceError):
        mrf.add_constraint({}, 1.0)  # 1 <= 0: infeasible
    with pytest.raises(InferenceError):
        mrf.add_constraint({}, 1.0, equality=True)


def test_energy_sums_potentials():
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    mrf.add_potential({X(0): -1.0}, 1.0, weight=3.0)
    assert mrf.energy([0.25]) == pytest.approx(0.25 + 3 * 0.75)


def test_constant_potentials_tracked_not_dropped():
    """Regression: constant potentials must contribute to the energy.

    Empty (or all-zero) coefficients with a positive offset used to be
    silently discarded, making reported energies smaller than the true
    objective."""
    mrf = HingeLossMRF()
    mrf.add_potential({}, 0.7, weight=2.0)  # 2 * max(0, 0.7)
    mrf.add_potential({X(0): 0.0}, 0.5, weight=4.0, squared=True)  # 4 * 0.5^2
    mrf.add_potential({}, -1.0, weight=5.0)  # hinge is 0: no energy
    assert mrf.potentials == []
    assert mrf.constant_energy == pytest.approx(2 * 0.7 + 4 * 0.25)
    assert mrf.energy([0.0]) == pytest.approx(2.4)
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    assert mrf.energy([0.25]) == pytest.approx(2.4 + 0.25)


def test_admm_reported_energy_includes_constant_term():
    from repro.psl.admm import AdmmSolver

    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    mrf.add_potential({}, 1.5, weight=2.0)
    result = AdmmSolver(mrf).solve()
    assert result.x[0] == pytest.approx(0.0, abs=1e-4)
    assert result.energy == pytest.approx(mrf.energy(result.x))
    assert result.energy >= 3.0  # the constant floor


def test_program_grounding_keeps_fully_observed_constant_energy():
    """A grounding whose atoms are all observed still costs real energy."""
    from repro.psl.sharding import TermBlockBuilder

    # p(a) -> q(a) at weight 2 with p(a) = 1 and q(a) = 0.25 both observed:
    # no open atom is left, and the distance to satisfaction is 0.75.
    builder = TermBlockBuilder()
    builder.add_potential([], 1.0 - 0.25, 2.0)
    mrf = HingeLossMRF()
    mrf.add_term_block(*builder.finish())
    assert mrf.potentials == []
    assert mrf.constant_energy == pytest.approx(1.5)
    assert mrf.energy([]) == pytest.approx(1.5)


def test_max_violation():
    mrf = HingeLossMRF()
    mrf.add_constraint({X(0): 1.0}, -0.5)  # x <= 0.5
    mrf.add_constraint({X(0): 1.0}, -1.0, equality=True)  # x == 1
    assert mrf.max_violation([1.0]) == pytest.approx(0.5)
    assert mrf.max_violation([0.5]) == pytest.approx(0.5)  # equality violated


def test_constraint_violation_forms():
    leq = HardConstraint(((0, 1.0),), -0.5)
    assert leq.violation([0.4]) == 0.0
    assert leq.violation([0.9]) == pytest.approx(0.4)
    eq = HardConstraint(((0, 1.0),), -0.5, equality=True)
    assert eq.violation([0.4]) == pytest.approx(0.1)
