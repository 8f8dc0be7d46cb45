"""Exact risk measures and risk-sensitive dynamic programming on finite
stochastic models.

The package evaluates classical risk measures (expectation, entropic,
quantile, tail expectation, convex combinations) in closed form on
mixtures of point masses and uniform segments, folds them stagewise over
scenario trees, and solves finite-horizon MDPs whose objective applies
one such measure per stage to cost plus discounted continuation value.

`import riskdp` loads no submodule: each exported name, and each
submodule that exports names (``riskdp.mdp``, ``riskdp.tree``, ...), is
imported on first use and then kept in the package namespace.
"""
from importlib import import_module as _import_module

# the exported names of each submodule, in the order of __all__
_EXPORTS = {
    "distributions": (
        "MixedDistribution",
        "PointMass",
        "UniformSegment",
        "affine_transform",
        "essential_inf",
        "essential_sup",
        "merge_atoms",
    ),
    "errors": (
        "EnumerationLimitError",
        "EvaluationOverflowError",
        "RiskModelError",
        "ValidationError",
    ),
    "measures": (
        "Composite",
        "Cte",
        "DisutilityFunction",
        "Erm",
        "Expectation",
        "Exponential",
        "Linear",
        "PiecewiseLinear",
        "Power",
        "RiskFunctional",
        "ValueAtRisk",
        "apply_disutility",
        "cte",
        "deu",
        "erm",
        "evaluate",
        "mean",
        "pushforward_mean",
        "rf_from_json_dict",
        "rf_label",
        "rf_to_json_dict",
        "value_at_risk",
    ),
    "tree": (
        "Edge",
        "IrmResult",
        "IrmSpec",
        "ScenarioTree",
        "TreeNode",
        "deterministic_tree",
        "discounted_total_distribution",
        "eud",
        "irm_evaluate",
        "irm_root_value",
        "rmd",
        "tree_from_json_dict",
        "tree_to_json_dict",
    ),
    "properties": (
        "CheckReport",
        "PreferencePoint",
        "check_composite_monotonic",
        "check_monotonic",
        "check_positive_homogeneity",
        "check_translation_invariance",
        "preference_over_time",
    ),
    "mdp": (
        "FiniteHorizonMdp",
        "Policy",
        "SolveResult",
        "Transition",
        "ValueTable",
        "brute_force_optimal",
        "evaluate_policy",
        "mdp_from_json_dict",
        "mdp_to_json_dict",
        "solution_to_json_dict",
        "solve_dp",
        "tail_mdp",
        "unroll",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
