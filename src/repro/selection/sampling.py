"""J-sampling: a selection problem over a uniform sample of J.

The coverage term is a sum over J, so a uniform ``rate``-sample of J
estimates it unbiasedly once the explains weight is scaled by the
inverse rate.  The sampled problem is the full problem restricted to the
sampled facts (:func:`~repro.selection.metrics.restrict_problem`): only
the sampled J facts get cover entries, while null corroboration and the
creates/error test stay on the *full* J — testing them against a
thinned J would flag explained facts as errors (a chase fact whose image
was sampled out looks unjustified).  Size is exact by definition.

The result: coverage unbiased in expectation, errors and size exact.
What sampling shrinks is ``j_facts``, and with it the HL-MRF's coverage
block; the build itself is the full build, since errors and
corroboration need every chase fact matched against all of J.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from repro.datamodel.instance import Instance
from repro.errors import SelectionError
from repro.mappings.tgd import StTgd
from repro.selection.metrics import (
    SelectionProblem,
    build_selection_problem,
    restrict_problem,
)
from repro.selection.objective import DEFAULT_WEIGHTS, ObjectiveWeights


@dataclass
class SampledProblem:
    """A selection problem whose covers table is restricted to a sample of J.

    ``weights`` scales the explains term by 1/rate so objective values
    are comparable (in expectation) to the full problem's.
    """

    problem: SelectionProblem
    weights: ObjectiveWeights
    rate: float
    sampled_facts: int
    total_facts: int


def sample_selection_problem(
    source: Instance,
    target: Instance,
    candidates: list[StTgd],
    rate: float,
    seed: int = 0,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SampledProblem:
    """Covers on a uniform ``rate``-sample of *target*; errors on all of it."""
    if not 0.0 < rate <= 1.0:
        raise SelectionError(f"sampling rate must be in (0, 1], got {rate}")
    full = build_selection_problem(source, target, candidates)
    facts = full.j_facts
    count = min(len(facts), max(1, round(len(facts) * rate)))
    sampled = random.Random(seed).sample(facts, count)
    scaled = ObjectiveWeights(
        explains=weights.explains * Fraction(len(facts), max(1, len(sampled))),
        errors=weights.errors,
        size=weights.size,
    )
    return SampledProblem(
        problem=restrict_problem(full, sampled),
        weights=scaled,
        rate=len(sampled) / len(facts) if facts else 1.0,
        sampled_facts=len(sampled),
        total_facts=len(facts),
    )
