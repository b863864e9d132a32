"""A self-contained mini-PSL: hinge-loss MRFs with ADMM MAP inference.

The paper casts mapping selection as inference in a probabilistic soft
logic (PSL) model.  The reference PSL implementation is a Java system;
this package re-implements the needed core in pure Python + numpy:

* first-order rules with Lukasiewicz semantics (:mod:`repro.psl.rule`),
* grounding against an observation database (:mod:`repro.psl.grounding`),
* hinge-loss MRFs (:mod:`repro.psl.hlmrf`),
* sharded grounding (:mod:`repro.psl.sharding`),
* consensus-ADMM MAP inference (:mod:`repro.psl.admm`),
* discrete rounding utilities (:mod:`repro.psl.rounding`).
"""

from repro.psl.admm import AdmmResult, AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.database import Database
from repro.psl.hlmrf import HardConstraint, HingeLossMRF, HingePotential
from repro.psl.learning import RuleLearningResult, learn_rule_weights, rule_features
from repro.psl.predicate import GroundAtom, Predicate
from repro.psl.program import GroundedProgram, InferenceResult, PslProgram
from repro.psl.rounding import (
    local_search,
    randomized_rounding,
    round_solution,
    threshold_sweep,
)
from repro.psl.rule import Literal, Rule, RuleVariable, V, lit, neg
from repro.psl.sharding import (
    GroundingShard,
    GroundingStats,
    ShardResult,
    TermBlock,
    TermBlockBuilder,
    ground_shards,
    mrf_fingerprint,
    structure_fingerprint,
)

__all__ = [
    "AdmmResult",
    "AdmmSettings",
    "AdmmSolver",
    "AdmmWarmState",
    "Database",
    "GroundAtom",
    "GroundingShard",
    "GroundingStats",
    "HardConstraint",
    "GroundedProgram",
    "HingeLossMRF",
    "HingePotential",
    "InferenceResult",
    "ShardResult",
    "TermBlock",
    "TermBlockBuilder",
    "Literal",
    "RuleLearningResult",
    "Predicate",
    "PslProgram",
    "Rule",
    "RuleVariable",
    "V",
    "ground_shards",
    "learn_rule_weights",
    "lit",
    "local_search",
    "mrf_fingerprint",
    "structure_fingerprint",
    "randomized_rounding",
    "neg",
    "round_solution",
    "rule_features",
    "threshold_sweep",
]
