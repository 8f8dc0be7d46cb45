"""Randomized axiom checkers and the evaluation-time preference scan."""
from __future__ import annotations

import pytest

from riskdp import (
    Composite,
    Cte,
    Erm,
    Expectation,
    MixedDistribution,
    ValidationError,
    ValueAtRisk,
    casebook,
    check_composite_monotonic,
    check_monotonic,
    check_positive_homogeneity,
    check_translation_invariance,
    preference_over_time,
)

from .conftest import assert_close, variance

TRIALS = 2000


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rf",
    [
        Expectation(),
        Erm(0.7),
        Erm(-0.7),
        ValueAtRisk(0.6),
        Cte(0.6),
        Composite(((0.7, Expectation()), (0.3, Cte(0.5)))),
    ],
    ids=lambda rf: type(rf).__name__,
)
def test_monotone_functionals_pass(rf):
    report = check_monotonic(rf, trials=TRIALS, seed=0)
    assert report.passed
    assert report.trials == TRIALS
    assert report.counterexample is None


def test_variance_fails_monotonicity_with_a_counterexample():
    report = check_monotonic(variance, trials=TRIALS, seed=0)
    assert not report.passed
    assert report.measure_label == "variance"
    ce = report.counterexample
    assert set(ce) >= {"probabilities", "dominating", "dominated",
                       "value_dominating", "value_dominated"}
    assert ce["value_dominating"] < ce["value_dominated"]
    # the counterexample replays: pointwise dominance with smaller spread
    hi = MixedDistribution.of_atoms(zip(ce["probabilities"], ce["dominating"]))
    lo = MixedDistribution.of_atoms(zip(ce["probabilities"], ce["dominated"]))
    assert variance(hi) < variance(lo)
    assert all(a >= b for a, b in zip(ce["dominating"], ce["dominated"]))


def test_report_json_shape():
    passed = check_monotonic(Expectation(), trials=50, seed=1).to_json_dict()
    assert passed == {
        "property": "monotonic",
        "measure": "mean",
        "trials": 50,
        "passed": True,
    }
    failed = check_monotonic(variance, trials=500, seed=1).to_json_dict()
    assert failed["passed"] is False
    assert "counterexample" in failed


def test_checker_rejects_non_measures():
    with pytest.raises(ValidationError):
        check_monotonic(42)


@pytest.mark.parametrize(
    "checker",
    [
        check_monotonic,
        check_translation_invariance,
        check_positive_homogeneity,
        lambda rf, trials: check_composite_monotonic([rf], [1.0], trials=trials),
    ],
    ids=["monotonic", "translation", "homogeneity", "composite"],
)
@pytest.mark.parametrize("trials", [0, -5, True, 2.0])
def test_checkers_reject_a_run_without_trials(checker, trials):
    # a check that draws no instance would report a vacuous pass
    with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
        checker(Erm(1.0), trials=trials)


# ---------------------------------------------------------------------------
# translation invariance and positive homogeneity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rf",
    [Expectation(), Erm(0.7), Erm(-0.7), Cte(0.6), ValueAtRisk(0.6),
     Composite(((0.5, Expectation()), (0.5, Cte(0.5))))],
    ids=lambda rf: type(rf).__name__,
)
def test_translation_invariant_functionals_pass(rf):
    assert check_translation_invariance(rf, trials=TRIALS, seed=0).passed


def test_variance_fails_translation_invariance():
    report = check_translation_invariance(variance, trials=TRIALS, seed=0)
    assert not report.passed
    assert {"distribution", "shift"} <= set(report.counterexample)


@pytest.mark.parametrize(
    "rf",
    [Expectation(), ValueAtRisk(0.6), Cte(0.6),
     Composite(((0.5, Expectation()), (0.5, Cte(0.5))))],
    ids=lambda rf: type(rf).__name__,
)
def test_positively_homogeneous_functionals_pass(rf):
    assert check_positive_homogeneity(rf, trials=TRIALS, seed=0).passed


def test_entropic_fails_positive_homogeneity():
    report = check_positive_homogeneity(Erm(1.0), trials=TRIALS, seed=0)
    assert not report.passed
    assert {"distribution", "scale"} <= set(report.counterexample)


# ---------------------------------------------------------------------------
# composite builder
# ---------------------------------------------------------------------------


def test_composite_check_builds_and_passes():
    report = check_composite_monotonic(
        [Expectation(), Cte(0.5)], [0.7, 0.3], trials=TRIALS, seed=0
    )
    assert report.passed
    assert report.property_name == "monotonic"


def test_composite_check_single_component_matches_direct_check():
    combined = check_composite_monotonic([Cte(0.5)], [1.0], trials=500, seed=2)
    direct = check_monotonic(Cte(0.5), trials=500, seed=2)
    assert combined.passed == direct.passed


def test_composite_check_extreme_weight_is_the_pure_part():
    assert check_composite_monotonic(
        [Expectation(), Cte(0.5)], [0.0, 1.0], trials=500, seed=3
    ).passed


def test_composite_check_rejects_bad_coefficients():
    with pytest.raises(ValidationError):
        check_composite_monotonic([Expectation()], [-1.0])
    with pytest.raises(ValidationError):
        check_composite_monotonic([Expectation(), Cte(0.5)], [0.5])
    with pytest.raises(ValidationError):
        # nonnegative but not a convex combination
        check_composite_monotonic([Expectation(), Cte(0.5)], [0.5, 0.9])


# ---------------------------------------------------------------------------
# preference over evaluation time
# ---------------------------------------------------------------------------


def test_deferred_payment_preference_reverses_under_entropic_value():
    points = preference_over_time(
        Erm(0.001),
        0.92,
        [(casebook.one_year_payment(), 1), (casebook.two_year_payment(), 2)],
    )
    assert [p.time for p in points] == [0, 1]
    assert_close(points[0].values[0], 373.48386110867426, rel=1e-12)
    assert_close(points[0].values[1], 367.04831012343254, rel=1e-12)
    assert points[0].chosen == 1
    assert_close(points[1].values[0], 415.73522184362866, rel=1e-12)
    assert_close(points[1].values[1], 425.0414523550279, rel=1e-12)
    assert points[1].chosen == 0


def test_deferred_payment_preference_is_stable_under_expectation():
    points = preference_over_time(
        Expectation(),
        0.92,
        [(casebook.one_year_payment(), 1), (casebook.two_year_payment(), 2)],
    )
    assert_close(points[0].values[0], 276.0, rel=1e-12)
    assert_close(points[0].values[1], 169.28, rel=1e-12)
    assert_close(points[1].values[0], 300.0, rel=1e-12)
    assert_close(points[1].values[1], 184.0, rel=1e-12)
    assert [p.chosen for p in points] == [1, 1]


def test_identical_options_tie_to_the_first_index():
    d = casebook.one_year_payment()
    points = preference_over_time(Cte(0.5), 0.9, [(d, 1), (d, 1)])
    for p in points:
        assert p.values[0] == p.values[1]
        assert p.chosen == 0


def test_preference_scan_input_validation():
    d = casebook.one_year_payment()
    with pytest.raises(ValidationError):
        preference_over_time(Erm(0.001), 0.0, [(d, 1)])
    with pytest.raises(ValidationError):
        preference_over_time(Erm(0.001), 0.9, [])
    with pytest.raises(ValidationError):
        preference_over_time(Erm(0.001), 0.9, [(d, 0)])
    with pytest.raises(ValidationError):
        preference_over_time(Erm(0.001), 0.9, [(d, 1)], times=[2])
    with pytest.raises(ValidationError):
        preference_over_time(Erm(0.001), 0.9, [(d, True)])
    with pytest.raises(ValidationError):
        preference_over_time(Erm(0.001), 0.9, [(d, 1)], times=[True])


def test_preference_scan_rejects_what_is_not_a_functional_or_a_law():
    d = casebook.one_year_payment()
    with pytest.raises(ValidationError, match="^unknown risk functional 'mean'$"):
        preference_over_time("mean", 0.9, [(d, 1)])
    with pytest.raises(ValidationError, match="^each option needs a MixedDistribution cost$"):
        preference_over_time(Erm(0.001), 0.9, [(0.5, 1)])
