"""Rule-weight learning for PSL programs (structured perceptron).

Given a program and ground-truth values for its target atoms, learn the
weights of the soft rules so MAP inference reproduces the truth.  The
energy is linear in the weights::

    E_w(y) = sum_r  w_r * Phi_r(y),   Phi_r(y) = total (unweighted)
                                      distance-to-satisfaction of rule
                                      r's groundings at assignment y

so the perceptron update applies directly: whenever the MAP state y^
has lower energy than the truth y*, move the weights to make the truth
comparatively cheaper::

    w_r  <-  max(floor,  w_r + lr * (Phi_r(y^) - Phi_r(y*)))

This mirrors the maximum-likelihood / large-margin learning of the PSL
system, substituting MAP inference for expectation computation (the
standard "MPE approximation" the PSL literature itself uses).

Because the energy is linear in the weights, the ground structure is
*invariant* across weight updates (as long as no weight crosses zero —
the ``floor`` guarantees that).  Learning therefore grounds **once** per
call into a :class:`~repro.psl.program.GroundedProgram` and then only
rewrites weights in place between epochs: the MAP solve reuses one
compiled ADMM solver and Phi comes from the grounded artifact's
recorded origin groups, not a fresh grounding.  The historical
implementation re-ground three times per epoch (once for the solve, once
per ``rule_features`` call); results here are bit-identical to that
path, just without the grounding work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import InferenceError
from repro.psl.admm import AdmmSettings
from repro.psl.predicate import GroundAtom
from repro.psl.program import GroundedProgram, PslProgram
from repro.psl.rule import Rule


def rule_features(
    program: PslProgram,
    assignment: Mapping[GroundAtom, float],
    weight_overrides: Mapping[Rule, float] | None = None,
    grounded: GroundedProgram | None = None,
) -> dict[Rule, float]:
    """Phi_r: per-rule unweighted hinge mass at *assignment*.

    *assignment* must cover every target atom; observed atoms contribute
    through the grounding constants.  Pass *grounded* (a
    :meth:`~repro.psl.program.PslProgram.ground_program` artifact) to
    read the features off an existing grounding; otherwise the program
    is ground once for this call.
    """
    if grounded is None:
        grounded = program.ground_program(weight_overrides)
    return grounded.rule_features(assignment)


@dataclass
class RuleLearningResult:
    """Learned per-rule weights plus the per-epoch energy gaps."""

    weights: dict[Rule, float]
    energy_gaps: list[float]  # E(truth) - E(prediction) per epoch (>0 = mistake)

    @property
    def converged(self) -> bool:
        return bool(self.energy_gaps) and self.energy_gaps[-1] <= 1e-6


def learn_rule_weights(
    program: PslProgram,
    truth: Mapping[GroundAtom, float],
    epochs: int = 20,
    learning_rate: float = 0.5,
    floor: float = 0.01,
    admm: AdmmSettings | None = None,
) -> RuleLearningResult:
    """Perceptron over the program's soft-rule weights.

    *truth* assigns every target atom its desired value.  Hard rules and
    raw potentials are left untouched.  The program is ground exactly
    once (``program.grounding_count`` moves by one); every epoch then
    reweights the grounded artifact in place and re-solves on the same
    compiled solver.
    """
    if floor <= 0:
        raise InferenceError(
            f"floor must be positive (got {floor}): a weight reaching zero "
            "would change the ground structure, which the ground-once "
            "learning loop holds fixed"
        )
    soft_rules = [r for r in program.rules if not r.is_hard]
    weights: dict[Rule, float] = {r: float(r.weight) for r in soft_rules}
    energy_gaps: list[float] = []

    grounded = program.ground_program(weights, settings=admm)
    mrf = grounded.mrf
    for _ in range(epochs):
        grounded.set_rule_weights(weights)
        solved = grounded.solve()
        prediction = {
            atom: float(solved.x[mrf.index_of(atom)])
            for atom in program.database.targets_in_order
        }
        phi_prediction = grounded.rule_features(prediction)
        phi_truth = grounded.rule_features(truth)
        energy_prediction = sum(
            weights[r] * phi_prediction.get(r, 0.0) for r in soft_rules
        )
        energy_truth = sum(weights[r] * phi_truth.get(r, 0.0) for r in soft_rules)
        gap = energy_truth - energy_prediction
        energy_gaps.append(gap)
        if gap <= 1e-6:
            break
        for r in soft_rules:
            delta = phi_prediction.get(r, 0.0) - phi_truth.get(r, 0.0)
            weights[r] = max(floor, weights[r] + learning_rate * delta)

    return RuleLearningResult(weights, energy_gaps)
