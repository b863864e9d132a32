"""The hinge-loss MRF machinery behind the collective selector.

The paper casts mapping selection as MAP inference in a probabilistic
soft logic (PSL) model.  The one model this repository infers in is the
collective selector's (:mod:`repro.selection.collective`), which is
compiled straight from the selection problem's tables, so this package
carries only what that solve path needs:

* hinge-loss MRFs (:mod:`repro.psl.hlmrf`) over ground atoms
  (:mod:`repro.psl.predicate`), which store their hinges and caps once,
  as CSR term rows,
* block grounding (:mod:`repro.psl.sharding`),
* consensus-ADMM MAP inference (:mod:`repro.psl.admm`) on flat term
  arrays built from those rows,
* discrete rounding utilities (:mod:`repro.psl.rounding`),
* the incremental splice engine (:mod:`repro.psl.delta`) behind the
  collective's patch tier.
"""

from repro.psl.admm import AdmmResult, AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.hlmrf import HardConstraint, HingeLossMRF, HingePotential
from repro.psl.predicate import GroundAtom, Predicate
from repro.psl.rounding import (
    local_search,
    randomized_rounding,
    round_solution,
    threshold_sweep,
)
from repro.psl.sharding import (
    GroundingShard,
    ShardResult,
    TermBlock,
    ground_shards,
    mrf_fingerprint,
    structure_fingerprint,
)

__all__ = [
    "AdmmResult",
    "AdmmSettings",
    "AdmmSolver",
    "AdmmWarmState",
    "GroundAtom",
    "GroundingShard",
    "HardConstraint",
    "HingeLossMRF",
    "HingePotential",
    "ShardResult",
    "TermBlock",
    "Predicate",
    "ground_shards",
    "local_search",
    "mrf_fingerprint",
    "structure_fingerprint",
    "randomized_rounding",
    "round_solution",
    "threshold_sweep",
]
