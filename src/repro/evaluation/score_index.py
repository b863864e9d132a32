"""The per-scenario index behind every data-quality score of a selection.

:func:`~repro.evaluation.metrics.data_quality` exchanges the source
under a selection and tests every result fact against the reference
(the gold exchange).  The st-tgd chase is naive, so that exchange is the
union of the selected candidates' own chases: ground facts coincide
across candidates and count once, while facts with labeled nulls never
coincide (every firing draws fresh nulls), even when one candidate is
listed twice.  Whether a single fact has an image in the reference does
not depend on its null labels.  So a :class:`ScoreIndex` keeps one
:class:`ScoreRow` per candidate tgd, and precision and recall of any
selection become integer set unions and sums over its rows:

* result size = ``|U ground| + sum nulls``;
* matched = ``|U ground_hits| + sum null_hits``;
* reached = ``|U ranks|``, the reference facts some result fact maps onto.

The divisions are the ones :func:`~repro.evaluation.metrics.
instance_precision_recall` makes on the same integers, so the floats are
identical.  A row is built from the problem's own chase of the candidate
when the problem's source equals the index's, and from one
:func:`~repro.chase.engine.chase_single` over the index's source
otherwise; either way it is cached by tgd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.chase.engine import chase_single
from repro.datamodel.instance import Fact, Instance, MatchIndex
from repro.evaluation.metrics import PrecisionRecall
from repro.mappings.tgd import StTgd

if TYPE_CHECKING:
    from repro.selection.metrics import SelectionProblem


@dataclass(frozen=True)
class ScoreRow:
    """What one candidate's chase contributes to any exchange it is part of.

    ``ground`` holds the ids of its ground facts (interned across the
    index's rows) and ``ground_hits`` the subset with an image in the
    reference; ``nulls`` counts its facts with labeled nulls and
    ``null_hits`` those with an image; ``ranks`` are the reference facts
    (ranks in the reference's ``match_index().ordered``) its facts reach.
    """

    ground: frozenset[int]
    ground_hits: frozenset[int]
    nulls: int
    null_hits: int
    ranks: frozenset[int]


class ScoreIndex:
    """Per-candidate score rows of one (source, reference) pair.

    Built empty; rows are added on first use and never change, so the
    index assumes both instances stay as they were —
    :meth:`~repro.ibench.scenario.Scenario.score_index` rebuilds it when
    either has been edited since.
    """

    def __init__(self, source: Instance, reference: Instance):
        self.source = source
        self.reference = reference
        self._source_matches: MatchIndex = source.match_index()
        self._reference_matches: MatchIndex = reference.match_index()
        self._fact_ids: dict[Fact, int] = {}
        self._rows: dict[StTgd, ScoreRow] = {}

    def is_current(self, source: Instance, reference: Instance) -> bool:
        """True iff *source* and *reference* hold the facts indexed here.

        An :class:`Instance` keeps its match index until it is edited,
        and copies share it, so identity of the match indexes is a
        constant-time test of unchanged contents.
        """
        return (
            source.match_index() is self._source_matches
            and reference.match_index() is self._reference_matches
        )

    def _build_row(self, chase: Instance) -> ScoreRow:
        ground: list[int] = []
        ground_hits: list[int] = []
        nulls = null_hits = 0
        ranks: set[int] = set()
        probe = self._reference_matches.probe
        for f in chase:
            images, fact_nulls = probe(f)
            ranks.update(images)
            if not fact_nulls:
                fact_id = self._fact_ids.setdefault(f, len(self._fact_ids))
                ground.append(fact_id)
                if images:
                    ground_hits.append(fact_id)
            else:
                nulls += 1
                if images:
                    null_hits += 1
        return ScoreRow(
            frozenset(ground), frozenset(ground_hits), nulls, null_hits, frozenset(ranks)
        )

    def precision_recall(
        self, problem: SelectionProblem, indices: Iterable[int]
    ) -> PrecisionRecall:
        """P/R of exchanging this index's source under the selected candidates.

        Equal, float for float, to ``data_quality(source,
        [problem.candidates[i] for i in indices], reference)``; an index
        listed twice counts its null facts twice, as that chase does.
        A missing row reuses ``problem.chase_by_candidate[i]`` when the
        problem was built over this index's source (the same object or
        equal facts), and chases this index's source otherwise.
        """
        ground: set[int] = set()
        ground_hits: set[int] = set()
        reached: set[int] = set()
        nulls = null_hits = 0
        reuse: bool | None = None
        for i in indices:
            tgd = problem.candidates[i]
            row = self._rows.get(tgd)
            if row is None:
                if reuse is None:
                    reuse = len(problem.chase_by_candidate) == problem.num_candidates and (
                        problem.source is self.source or problem.source == self.source
                    )
                chase = problem.chase_by_candidate[i] if reuse else chase_single(self.source, tgd)
                row = self._rows[tgd] = self._build_row(chase)
            ground |= row.ground
            ground_hits |= row.ground_hits
            reached |= row.ranks
            nulls += row.nulls
            null_hits += row.null_hits
        size = len(ground) + nulls
        reference_size = len(self._reference_matches.ordered)
        if size == 0:
            return PrecisionRecall(1.0, 0.0 if reference_size else 1.0)
        precision = (len(ground_hits) + null_hits) / size
        if reference_size == 0:
            return PrecisionRecall(precision, 1.0)
        return PrecisionRecall(precision, len(reached) / reference_size)
