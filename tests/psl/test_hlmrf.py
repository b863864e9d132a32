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


def test_potential_value_is_the_weighted_linear_hinge():
    # The potential is the unweighted hinge; its weight sits in the
    # MRF's weight vector and scales it in the energy.
    linear = HingePotential(((0, 1.0),), -0.25)
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, -0.25, weight=2.0)
    assert mrf.potentials == [linear]
    assert list(mrf.potential_weights()) == [2.0]
    assert mrf.energy([0.75]) == pytest.approx(1.0)
    assert linear.unit_value([0.75]) == pytest.approx(0.5)
    assert mrf.energy([0.0]) == 0.0


def test_zero_weight_potentials_skipped():
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, 0.0, weight=0.0)
    assert mrf.potentials == []
    assert len(mrf.potential_weights()) == 0


def test_negative_weight_rejected():
    mrf = HingeLossMRF()
    with pytest.raises(InferenceError):
        mrf.add_potential({X(0): 1.0}, 0.0, weight=-1.0)


@pytest.mark.parametrize(
    "add",
    [
        lambda m: m.add_potential({X(0): 1.0}, -0.5, float("nan")),
        lambda m: m.add_potential({X(0): 1.0}, -0.5, float("inf")),
        lambda m: m.add_potential({X(0): float("nan")}, -0.5, 1.0),
        lambda m: m.add_potential({X(0): 1.0}, float("-inf"), 1.0),
        lambda m: m.add_constraint({X(0): float("inf")}, -0.5),
        lambda m: m.add_constraint({X(0): 1.0}, float("nan")),
    ],
)
def test_non_finite_terms_rejected_at_grounding(add):
    # The grounding entry points agree with set_potential_weights: no
    # non-finite weight, coefficient or offset reaches the model (a NaN
    # weight used to solve to converged=True with energy=nan).
    mrf = HingeLossMRF()
    with pytest.raises(InferenceError):
        add(mrf)
    assert len(mrf.potentials) == len(mrf.constraints) == 0
    assert len(mrf.potential_weights()) == 0


def test_zero_coefficients_dropped():
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 0.0, X(1): 1.0}, 0.0, weight=1.0)
    assert len(mrf.potentials[0].coefficients) == 1


def test_constant_constraint_feasibility_check():
    # A constraint with no nonzero coefficient is rejected, feasible or
    # not: the collective model never grounds one.
    mrf = HingeLossMRF()
    with pytest.raises(InferenceError):
        mrf.add_constraint({X(0): 0.0}, -1.0)  # satisfied constant
    with pytest.raises(InferenceError):
        mrf.add_constraint({}, 1.0)  # 1 <= 0: infeasible
    assert mrf.constraints == []


def test_constant_potentials_rejected():
    # Likewise a potential with no nonzero coefficient, unless its zero
    # weight drops it first.
    mrf = HingeLossMRF()
    with pytest.raises(InferenceError):
        mrf.add_potential({}, 0.7, weight=2.0)
    with pytest.raises(InferenceError):
        mrf.add_potential({X(0): 0.0}, 0.5, weight=4.0)
    mrf.add_potential({}, 0.5, weight=0.0)
    assert mrf.potentials == []


def test_energy_sums_potentials():
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    mrf.add_potential({X(0): -1.0}, 1.0, weight=3.0)
    assert mrf.energy([0.25]) == pytest.approx(0.25 + 3 * 0.75)


def test_energy_follows_appended_potentials_and_reweights():
    # energy() compiles the flat arrays once; a later append recompiles,
    # and a reweight is read from the weight vector.
    mrf = HingeLossMRF()
    mrf.add_constraint({X(0): 1.0}, -0.5)
    assert mrf.energy([1.0]) == 0.0  # constraints carry no energy
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    assert mrf.energy([0.25]) == pytest.approx(0.25)
    mrf.add_potential({X(1): -1.0}, 1.0, weight=2.0)
    assert mrf.energy([0.25, 0.5]) == pytest.approx(0.25 + 2 * 0.5)
    mrf.set_potential_weights([4.0, 2.0])
    x = [0.25, 0.5]
    assert mrf.energy(x) == pytest.approx(
        sum(w * p.unit_value(x) for p, w in zip(mrf.potentials, mrf.potential_weights()))
    )
    assert mrf.energy(x) == pytest.approx(4 * 0.25 + 2 * 0.5)


def test_max_violation():
    mrf = HingeLossMRF()
    mrf.add_constraint({X(0): 1.0}, -0.5)  # x <= 0.5
    mrf.add_constraint({X(0): -1.0}, 0.25)  # x >= 0.25
    assert mrf.max_violation([1.0]) == pytest.approx(0.5)
    assert mrf.max_violation([0.0]) == pytest.approx(0.25)
    assert mrf.max_violation([0.4]) == 0.0


def test_constraint_violation_forms():
    leq = HardConstraint(((0, 1.0),), -0.5)
    assert leq.violation([0.4]) == 0.0
    assert leq.violation([0.9]) == pytest.approx(0.4)


def test_appends_leave_earlier_rows_and_weights_unchanged():
    # Appends write into spare capacity past the rows handed out so
    # far; what was handed out keeps its content.
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, -0.5, weight=2.0)
    mrf.add_constraint({X(0): 1.0}, -1.0)
    hinges, caps, weights = mrf.hinges, mrf.caps, mrf.potential_weights()
    for k in range(40):
        mrf.add_potential({X(k): 1.0, X(k + 1): -1.0}, 0.25, weight=1.0 + k)
        mrf.add_constraint({X(k + 1): 2.0}, -1.0)
    assert (hinges.offset.tolist(), hinges.ptr.tolist(), hinges.var.tolist()) == (
        [-0.5], [0, 1], [0]
    )
    assert caps.coeff.tolist() == [1.0] and weights.tolist() == [2.0]
    assert len(mrf.potentials) == len(mrf.constraints) == 41
    assert mrf.hinges.ptr.tolist() == [0, 1, *range(3, 83, 2)]
    assert mrf.potential_weights().tolist() == [2.0, *(1.0 + k for k in range(40))]
    assert mrf.potentials[-1] == HingePotential(((39, 1.0), (40, -1.0)), 0.25)
    assert mrf.constraints[-1] == HardConstraint(((40, 2.0),), -1.0)


def test_appends_after_a_reweight_a_pickle_or_a_block_merge():
    import pickle

    from tests.psl.term_blocks import TermBlockBuilder

    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    mrf.add_potential({X(1): 1.0}, 0.0, weight=1.0)
    mrf.set_potential_weights([3.0, 4.0])
    copy = pickle.loads(pickle.dumps(mrf))
    for m in (mrf, copy):
        m.add_potential({X(2): 1.0}, 0.0, weight=5.0)
        assert m.potential_weights().tolist() == [3.0, 4.0, 5.0]
    builder = TermBlockBuilder()
    builder.add_potential([(X(3), -1.0)], 1.0, 6.0)
    builder.add_constraint([(X(3), 1.0), (X(0), -1.0)], 0.0)
    mrf.add_term_block(*builder.finish())
    mrf.add_potential({X(0): 1.0}, 0.0, weight=7.0)
    mrf.add_constraint({X(1): 1.0}, -1.0)
    assert mrf.potential_weights().tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]
    assert mrf.hinges.var.tolist() == [0, 1, 2, 3, 0]
    assert mrf.caps.ptr.tolist() == [0, 2, 3]
    assert copy.potential_weights().tolist() == [3.0, 4.0, 5.0]
