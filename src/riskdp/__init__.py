"""Exact risk measures and risk-sensitive dynamic programming on finite
stochastic models.

The package evaluates classical risk measures (expectation, entropic,
quantile, tail expectation, convex combinations) in closed form on
mixtures of point masses and uniform segments, folds them stagewise over
scenario trees, and solves finite-horizon MDPs whose objective applies
one such measure per stage to cost plus discounted continuation value.
"""
from types import ModuleType as _ModuleType

from .distributions import (
    MixedDistribution,
    PointMass,
    UniformSegment,
    affine_transform,
    essential_inf,
    essential_sup,
    merge_atoms,
)
from .errors import (
    EnumerationLimitError,
    EvaluationOverflowError,
    RiskModelError,
    ValidationError,
)
from .measures import (
    Composite,
    Cte,
    DisutilityFunction,
    Erm,
    Expectation,
    Exponential,
    Linear,
    PiecewiseLinear,
    Power,
    RiskFunctional,
    ValueAtRisk,
    apply_disutility,
    cte,
    deu,
    erm,
    evaluate,
    mean,
    pushforward_mean,
    rf_from_json_dict,
    rf_label,
    rf_to_json_dict,
    value_at_risk,
)
from .tree import (
    Edge,
    IrmResult,
    IrmSpec,
    ScenarioTree,
    TreeNode,
    deterministic_tree,
    discounted_total_distribution,
    eud,
    irm_evaluate,
    irm_root_value,
    rmd,
    tree_from_json_dict,
    tree_to_json_dict,
)
from .properties import (
    CheckReport,
    PreferencePoint,
    check_composite_monotonic,
    check_monotonic,
    check_positive_homogeneity,
    check_translation_invariance,
    preference_over_time,
)
from .mdp import (
    FiniteHorizonMdp,
    Policy,
    SolveResult,
    Transition,
    ValueTable,
    brute_force_optimal,
    evaluate_policy,
    mdp_from_json_dict,
    mdp_to_json_dict,
    solution_to_json_dict,
    solve_dp,
    tail_mdp,
    unroll,
)

# every name imported above, each listed once, in its import
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
