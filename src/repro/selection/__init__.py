"""Mapping selection: objective, exact/greedy/collective solvers."""

from repro.selection.baselines import (
    select_all,
    solve_independent,
)
from repro.selection.collective import (
    GROUNDING_CACHE,
    CollectiveGroundingCache,
    CollectivePlan,
    GroundedCollective,
    CollectiveResult,
    CollectiveSettings,
    WarmStartedCollective,
    ground_collective,
    plan_collective_grounding,
    solve_collective,
)
from repro.selection.exact import (
    SelectionResult,
    solve_exhaustive,
    solve_milp,
)
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import (
    CandidateTables,
    SelectionProblem,
    build_selection_problem,
    evaluate_candidate,
    merge_candidate_tables,
    problem_fingerprint,
    restrict_problem,
)
from repro.selection.sampling import SampledProblem, sample_selection_problem
from repro.selection.weight_learning import (
    LearningResult,
    feature_vector,
    learn_weights,
    training_pairs_from_scenarios,
)
from repro.selection.preprocess import (
    PreprocessResult,
    drop_certain_unexplained,
    drop_useless_candidates,
    preprocess,
)
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    ObjectiveBreakdown,
    ObjectiveWeights,
    objective_breakdown,
    objective_evaluator,
    objective_value,
)

__all__ = [
    "GROUNDING_CACHE",
    "CollectiveGroundingCache",
    "CollectivePlan",
    "CollectiveResult",
    "CollectiveSettings",
    "GroundedCollective",
    "DEFAULT_WEIGHTS",
    "IncrementalObjective",
    "ObjectiveBreakdown",
    "ObjectiveWeights",
    "LearningResult",
    "CandidateTables",
    "PreprocessResult",
    "SampledProblem",
    "SelectionProblem",
    "SelectionResult",
    "WarmStartedCollective",
    "build_selection_problem",
    "ground_collective",
    "plan_collective_grounding",
    "evaluate_candidate",
    "merge_candidate_tables",
    "problem_fingerprint",
    "restrict_problem",
    "objective_breakdown",
    "objective_evaluator",
    "objective_value",
    "drop_certain_unexplained",
    "drop_useless_candidates",
    "preprocess",
    "feature_vector",
    "learn_weights",
    "sample_selection_problem",
    "training_pairs_from_scenarios",
    "select_all",
    "solve_independent",
    "solve_collective",
    "solve_exhaustive",
    "solve_greedy",
    "solve_milp",
]
