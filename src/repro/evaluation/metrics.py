"""Evaluation metrics: data-level and mapping-level quality.

The paper's headline metric is *data-level* quality: exchange the source
instance with the selected mapping and compare the result against the
gold mapping's exchange, counting tuples matched up to homomorphism (a
chase fact with nulls matches a grounded reference fact it maps onto).

Mapping-level precision/recall over the candidate set (selected vs gold
indices) is reported as a secondary diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.chase.engine import exchanged_instance
from repro.datamodel.instance import Instance
from repro.homomorphism.search import image_ranks
from repro.mappings.tgd import StTgd


@dataclass(frozen=True)
class PrecisionRecall:
    """Precision / recall / F1 triple."""

    precision: float
    recall: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)

    def __repr__(self) -> str:
        return f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f1:.3f}"


def instance_precision_recall(result: Instance, reference: Instance) -> PrecisionRecall:
    """Tuple-level P/R of *result* against *reference*, homomorphism-aware.

    Precision: fraction of result facts with a homomorphic image in the
    reference.  Recall: fraction of reference facts some result fact maps
    onto.  An empty result has precision 1 (it asserts nothing wrong).
    One pass over the result answers both through the reference's
    :class:`~repro.datamodel.instance.MatchIndex`: a result fact counts
    for precision if it reaches any reference fact, and recall counts the
    reference facts reached.
    """
    if len(result) == 0:
        return PrecisionRecall(1.0, 0.0 if len(reference) else 1.0)
    matched = 0
    reached: set[int] = set()
    for f in result:
        images = list(image_ranks(f, reference))
        if images:
            matched += 1
            reached.update(images)
    precision = matched / len(result)

    if len(reference) == 0:
        return PrecisionRecall(precision, 1.0)
    recall = len(reached) / len(reference)
    return PrecisionRecall(precision, recall)


def data_quality(
    source: Instance,
    selection: Iterable[StTgd],
    reference_target: Instance,
) -> PrecisionRecall:
    """Exchange *source* under *selection* and score against the reference."""
    return instance_precision_recall(
        exchanged_instance(source, list(selection)), reference_target
    )


def mapping_quality(
    selected: Iterable[int],
    gold: Iterable[int],
) -> PrecisionRecall:
    """Set-level P/R of selected candidate indices against the gold indices."""
    selected_set, gold_set = set(selected), set(gold)
    if not selected_set:
        return PrecisionRecall(1.0, 0.0 if gold_set else 1.0)
    hits = len(selected_set & gold_set)
    precision = hits / len(selected_set)
    recall = hits / len(gold_set) if gold_set else 1.0
    return PrecisionRecall(precision, recall)
