"""The paper-facing public API, re-exported in one namespace.

``repro.core`` is the recommended import surface for downstream users::

    from repro.core import (
        Instance, fact, parse_tgds,
        build_selection_problem, solve_collective,
        ScenarioConfig, generate_scenario, run_methods,
    )
"""

from repro.candidates import Correspondence, generate_candidates, logical_associations
from repro.chase import chase, chase_single, exchanged_instance
from repro.datamodel import (
    Constant,
    Fact,
    ForeignKey,
    Instance,
    LabeledNull,
    NullFactory,
    Relation,
    Schema,
    fact,
    relation,
)
from repro.evaluation import (
    EvaluationEngine,
    GridResult,
    PrecisionRecall,
    ScenarioCache,
    data_quality,
    mapping_quality,
    run_methods,
    run_scenario,
)
from repro.ibench import ScenarioConfig, generate_scenario
from repro.io import load_scenario, save_scenario
from repro.queries import (
    ConjunctiveQuery,
    certain_answers,
    parse_query,
    query_quality,
    workload_for_schema,
)
from repro.mappings import Atom, StTgd, Variable, atom, parse_tgd, parse_tgds, var
from repro.psl import AdmmSettings
from repro.selection.weight_learning import learn_weights, training_pairs_from_scenarios
from repro.selection import (
    CollectiveSettings,
    WarmStartedCollective,
    preprocess,
    problem_fingerprint,
    solve_independent,
    ObjectiveWeights,
    SelectionProblem,
    SelectionResult,
    build_selection_problem,
    objective_breakdown,
    objective_value,
    solve_collective,
    solve_exhaustive,
    solve_greedy,
    solve_milp,
)

__all__ = [
    "AdmmSettings",
    "Atom",
    "CollectiveSettings",
    "Constant",
    "Correspondence",
    "EvaluationEngine",
    "Fact",
    "ForeignKey",
    "GridResult",
    "Instance",
    "LabeledNull",
    "NullFactory",
    "ObjectiveWeights",
    "PrecisionRecall",
    "Relation",
    "ScenarioCache",
    "WarmStartedCollective",
    "ScenarioConfig",
    "Schema",
    "SelectionProblem",
    "SelectionResult",
    "StTgd",
    "Variable",
    "atom",
    "build_selection_problem",
    "chase",
    "chase_single",
    "data_quality",
    "exchanged_instance",
    "fact",
    "generate_candidates",
    "generate_scenario",
    "logical_associations",
    "mapping_quality",
    "objective_breakdown",
    "objective_value",
    "parse_tgd",
    "parse_tgds",
    "relation",
    "run_methods",
    "solve_collective",
    "solve_exhaustive",
    "solve_greedy",
    "solve_milp",
    "var",
    "ConjunctiveQuery",
    "certain_answers",
    "learn_weights",
    "load_scenario",
    "parse_query",
    "preprocess",
    "problem_fingerprint",
    "query_quality",
    "run_scenario",
    "save_scenario",
    "solve_independent",
    "training_pairs_from_scenarios",
    "workload_for_schema",
]
