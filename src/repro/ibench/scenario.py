"""The Scenario container: one generated schema-mapping selection task."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.candidates.correspondence import Correspondence
from repro.datamodel.instance import Instance
from repro.datamodel.schema import Schema
from repro.ibench.config import ScenarioConfig
from repro.ibench.primitives import PrimitiveOutput
from repro.mappings.tgd import StTgd
from repro.selection.metrics import (
    CandidateChase,
    SelectionProblem,
    build_selection_problem,
)

if TYPE_CHECKING:
    from repro.evaluation.score_index import ScoreIndex


@dataclass
class Scenario:
    """A generated scenario: schemas, data example, candidates, gold truth.

    Attributes:
        config: the generation parameters.
        primitives: the primitive invocations the scenario was built from.
        source_schema / target_schema: the generated schemas.
        source: the source instance I.
        target: the target example J *after* noise injection.
        reference_target: the grounded gold exchange (J before noise) —
            the evaluation's ground truth for data-level F1.
        correspondences: gold plus noise correspondences.
        candidates: the Clio-generated candidate set C.
        gold_indices: positions of the gold mapping MG within C.
        deleted_facts / added_facts: the data-noise edits applied to J.
    """

    config: ScenarioConfig
    primitives: list[PrimitiveOutput]
    source_schema: Schema
    target_schema: Schema
    source: Instance
    target: Instance
    reference_target: Instance
    correspondences: list[Correspondence]
    candidates: list[StTgd]
    gold_indices: list[int]
    deleted_facts: list = field(default_factory=list)
    added_facts: list = field(default_factory=list)

    @property
    def gold_mapping(self) -> list[StTgd]:
        """The gold tgds MG, as members of the candidate set."""
        return [self.candidates[i] for i in self.gold_indices]

    def selection_problem(self) -> SelectionProblem:
        """Materialize the covers/creates/size tables for this scenario.

        Candidates whose chase generation already ran at their problem
        labels (see :meth:`keep_chases`) are not chased again; for a
        freshly generated scenario that is every candidate, at every
        noise level.
        """
        kept = getattr(self, "_chases", None)
        chases = {}
        if kept is not None and self.source.match_index() is kept[0]:
            chases = kept[1]
        return build_selection_problem(
            self.source, self.target, self.candidates, chases=chases
        )

    def keep_chases(self, chases: Mapping[int, CandidateChase]) -> None:
        """Keep chases of ``source`` by candidate index for :meth:`selection_problem`.

        Generation keeps every candidate's chase here: it ran them to
        read off the gold exchange and to inject data noise.  The chases
        are derived state: :meth:`__getstate__` leaves them out, and
        they are dropped once ``source`` has been edited (its match index
        changes), as :meth:`score_index` is rebuilt.
        """
        self._chases = (self.source.match_index(), chases)

    def score_index(self) -> ScoreIndex:
        """The score index of ``source`` against ``reference_target``.

        Built on first use and rebuilt if either instance has been edited
        since.  It is derived state: :meth:`__getstate__` leaves it out,
        so pickles and serialized scenarios do not depend on whether a
        selection was ever scored.
        """
        from repro.evaluation.score_index import ScoreIndex

        index = getattr(self, "_score_index", None)
        if index is None or not index.is_current(self.source, self.reference_target):
            index = self._score_index = ScoreIndex(self.source, self.reference_target)
        return index

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_score_index", None)
        state.pop("_chases", None)
        return state

    def summary(self) -> str:
        """One-line description used by the benchmark harness."""
        kinds = ",".join(p.kind for p in self.primitives)
        return (
            f"primitives=[{kinds}] |I|={len(self.source)} |J|={len(self.target)} "
            f"|C|={len(self.candidates)} |MG|={len(self.gold_indices)} "
            f"noise=(corr={self.config.pi_corresp}, err={self.config.pi_errors}, "
            f"unexpl={self.config.pi_unexplained})"
        )
