"""Scaling to large data examples by sampling J.

On large examples the dominant cost of building a selection problem is
the **covers** table: every candidate chase fact matched into J, with
corroboration subqueries.  The coverage term is a sum
over J, so a uniform sample estimates it unbiasedly: compute covers on a
``rate``-sample of J and scale the explains weight by the inverse rate.

The **creates/error** test stays on the *full* J: it is a cheap per-
chase-fact membership-style check, and running it against a thinned J
would spuriously flag explained facts as errors (a chase fact whose
image was sampled out looks unjustified).  Size is exact by definition.

The result: coverage unbiased in expectation, errors and size exact,
and only the sampled J facts get cover entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from repro.chase.engine import chase_single
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import NullFactory
from repro.errors import SelectionError
from repro.mappings.tgd import StTgd
from repro.selection.metrics import SelectionProblem, candidate_metrics
from repro.selection.objective import DEFAULT_WEIGHTS, ObjectiveWeights


@dataclass
class SampledProblem:
    """A selection problem whose covers table was built on a sampled J.

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
    """Build covers on a uniform ``rate``-sample of *target*; errors on all of it."""
    if not 0.0 < rate <= 1.0:
        raise SelectionError(f"sampling rate must be in (0, 1], got {rate}")
    facts = target.match_index().ordered
    if rate >= 1.0:
        sampled = list(facts)
    else:
        rng = random.Random(seed)
        count = max(1, round(len(facts) * rate))
        sampled = rng.sample(facts, count)
    sampled_target = Instance(sampled)

    factory = NullFactory()
    covers_tables: list[dict[Fact, Fraction]] = []
    error_sets: list[frozenset[Fact]] = []
    chases: list[Instance] = []
    for candidate in candidates:
        k_theta = chase_single(source, candidate, factory)
        chases.append(k_theta)
        # Covers against the sample; corroboration against the full J so a
        # sampled-out witness does not artificially weaken a null.
        table, errors = candidate_metrics(k_theta, target, reported=sampled_target)
        covers_tables.append(table)
        error_sets.append(errors)

    problem = SelectionProblem(
        candidates=list(candidates),
        source=source,
        target=sampled_target,
        j_facts=list(sampled_target.match_index().ordered),
        covers=covers_tables,
        error_facts=error_sets,
        sizes=[c.size for c in candidates],
        chase_by_candidate=chases,
    )
    scaled = ObjectiveWeights(
        explains=weights.explains * Fraction(len(facts), max(1, len(sampled))),
        errors=weights.errors,
        size=weights.size,
    )
    return SampledProblem(
        problem=problem,
        weights=scaled,
        rate=len(sampled) / len(facts) if facts else 1.0,
        sampled_facts=len(sampled),
        total_facts=len(facts),
    )
