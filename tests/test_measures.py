"""Risk functionals: closed forms against independent oracles, algebraic
invariants, disutility curves, and serialization."""
from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp import (
    Composite,
    Cte,
    Erm,
    EvaluationOverflowError,
    Expectation,
    Exponential,
    Linear,
    MixedDistribution,
    PiecewiseLinear,
    PointMass,
    Power,
    UniformSegment,
    ValidationError,
    ValueAtRisk,
    affine_transform,
    apply_disutility,
    casebook,
    cte,
    deterministic_tree,
    deu,
    erm,
    essential_inf,
    essential_sup,
    eud,
    evaluate,
    mean,
    pushforward_mean,
    rf_from_json_dict,
    rmd,
    rf_label,
    rf_to_json_dict,
    value_at_risk,
)
from riskdp.measures import evaluate_atoms
from riskdp.properties import _random_mixed

from .conftest import (
    assert_close,
    discretized_cte,
    mixture,
    quadrature_erm,
    random_increasing_disutility,
    random_tied_law,
    rockafellar_uryasev_cte,
)

GAMMA_GRID = (-2.0, -0.5, -0.01, 0.01, 0.5, 2.0)
ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


# ---------------------------------------------------------------------------
# mean / entropic value
# ---------------------------------------------------------------------------


def test_mean_of_route_mixtures():
    assert_close(mean(casebook.highway_time()), 14.0, rel=1e-12)
    assert_close(mean(casebook.local_roads_time()), 14.0, rel=1e-12)


def test_erm_zero_gamma_is_exactly_the_mean():
    rng = random.Random(11)
    for _ in range(20):
        d = _random_mixed(rng)
        assert erm(0.0, d) == mean(d)


def test_erm_tiny_gamma_stays_near_the_mean():
    rng = random.Random(12)
    for _ in range(20):
        d = _random_mixed(rng)
        for g in (1e-9, -1e-9, 1e-8, -1e-8):
            assert_close(erm(g, d), mean(d), rel=1e-6)


def test_erm_matches_quadrature():
    rng = random.Random(13)
    for _ in range(60):
        d = _random_mixed(rng)
        for g in GAMMA_GRID:
            assert_close(erm(g, d), quadrature_erm(g, d), rel=1e-8)


def test_erm_nondecreasing_in_gamma():
    rng = random.Random(14)
    grid = [-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0]
    for _ in range(50):
        d = _random_mixed(rng)
        vals = [erm(g, d) for g in grid]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9


def test_erm_between_mean_and_sup_for_averse_gamma():
    rng = random.Random(15)
    for _ in range(50):
        d = _random_mixed(rng)
        for g in (0.1, 1.0, 3.0):
            v = erm(g, d)
            assert mean(d) - 1e-9 <= v <= essential_sup(d) + 1e-9


def test_erm_log_domain_branches():
    seg = MixedDistribution.uniform(0.0, 10.0)
    # gamma*width far beyond the overflow threshold of exp
    assert_close(erm(100.0, seg), 10.0 - math.log(1000.0) / 100.0, rel=1e-12)
    assert_close(erm(-100.0, seg), math.log(1000.0) / 100.0, rel=1e-12)
    # atoms whose exponent alone would overflow are handled by the shift
    assert erm(2.0, MixedDistribution.point(400.0)) == 400.0
    d = MixedDistribution.of_atoms([(0.5, 400.0), (0.5, 0.0)])
    assert_close(erm(2.0, d), 400.0 + math.log(0.5) / 2.0, rel=1e-12)


def test_erm_rejects_non_finite_gamma():
    with pytest.raises(ValidationError):
        erm(math.nan, MixedDistribution.point(1.0))


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


def test_value_at_risk_on_atoms():
    d = MixedDistribution.of_atoms([(0.5, 0.0), (0.5, 10.0)])
    assert value_at_risk(0.0, d) == 0.0
    assert value_at_risk(0.5, d) == 0.0
    assert value_at_risk(0.500001, d) == 10.0
    assert value_at_risk(0.99, d) == 10.0


def test_value_at_risk_interpolates_inside_segment():
    d = casebook.local_roads_time()
    assert_close(value_at_risk(0.8, d), 160.0 / 9.0, rel=1e-12)
    seg = MixedDistribution.uniform(0.0, 20.0)
    assert_close(value_at_risk(0.3, seg), 6.0, rel=1e-12)


def test_value_at_risk_nondecreasing_in_alpha():
    rng = random.Random(16)
    for _ in range(50):
        d = _random_mixed(rng)
        vals = [value_at_risk(a, d) for a in ALPHA_GRID]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12


def test_value_at_risk_rejects_bad_alpha():
    d = MixedDistribution.point(0.0)
    for bad in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValidationError):
            value_at_risk(bad, d)


# ---------------------------------------------------------------------------
# tail expectation
# ---------------------------------------------------------------------------


def test_cte_splits_mass_sitting_on_the_quantile():
    d = MixedDistribution.of_atoms([(0.5, 0.0), (0.5, 10.0)])
    assert_close(cte(0.5, d), 10.0, rel=1e-12)
    # quantile atom carries more mass than the tail needs
    assert_close(cte(0.25, d), (5.0 + 0.25 * 0.0) / 0.75, rel=1e-12)


def test_cte_inside_the_top_atom_is_the_supremum():
    d = MixedDistribution.of_atoms([(0.9, 0.0), (0.1, 10.0)])
    assert_close(cte(0.95, d), 10.0, rel=1e-12)


def test_cte_at_zero_is_the_mean():
    rng = random.Random(17)
    for _ in range(50):
        d = _random_mixed(rng)
        assert_close(cte(0.0, d), mean(d))


def test_cte_nondecreasing_and_bounded_by_sup():
    rng = random.Random(18)
    for _ in range(50):
        d = _random_mixed(rng)
        vals = [cte(a, d) for a in ALPHA_GRID]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9
        assert vals[-1] <= essential_sup(d) + 1e-9


def test_cte_matches_discretization_oracle():
    # a lighter version of the acceptance sweep, fast enough to run often
    rng = random.Random(19)
    for _ in range(60):
        d = _random_mixed(rng)
        for a in ALPHA_GRID:
            assert_close(cte(a, d), discretized_cte(a, d, atoms=20000), rel=1e-6)


def _sorted_cumulative_quantile(alpha, dist):
    """Lower alpha-quantile and the CDF levels passed on the way: walk the
    sorted support points, adding the segment mass of each gap, then the
    atom mass at the point, and invert the first sum that reaches alpha."""
    comps = [(w, o) for w, o in dist.components if w > 0.0]
    atoms = [(w, o.value) for w, o in comps if isinstance(o, PointMass)]
    segments = [(w, o.lo, o.hi) for w, o in comps if not isinstance(o, PointMass)]
    points = sorted({v for _, v in atoms} | {x for _, lo, hi in segments for x in (lo, hi)})
    below, levels, found = 0.0, [], None
    for prev, y in zip([None, *points], points):
        if prev is not None:
            gap = math.fsum(w * (y - prev) / (hi - lo) for w, lo, hi in segments if lo <= prev and y <= hi)
            if found is None and gap > 0.0 and below + gap >= alpha:
                found = prev + (alpha - below) / gap * (y - prev)
            below += gap
            levels.append(below)
        below += math.fsum(w for w, v in atoms if v == y)
        levels.append(below)
        if found is None and below >= alpha:
            found = y
    return (points[-1] if found is None else found), levels


def _tied_laws_and_levels(seed, count):
    """Random tied laws, half with exact dyadic CDF levels, each with its
    CDF levels below 1 and two random tail levels."""
    rng = random.Random(seed)
    for i in range(count):
        d = random_tied_law(rng, dyadic=i % 2 == 0)
        _, levels = _sorted_cumulative_quantile(0.0, d)
        levels = sorted({a for a in levels if a < 1.0 - 1e-9})
        yield i % 2 == 0, d, levels, [rng.random(), rng.random()]


def test_value_at_risk_matches_a_sorted_cumulative_quantile_on_tied_laws():
    checked = 0
    for dyadic, d, levels, randoms in _tied_laws_and_levels(31, 600):
        # a float CDF level that was rounded may land on either side of a
        # jump, so only exact levels are checked as levels
        for a in (levels if dyadic else [0.0]) + randoms:
            assert_close(value_at_risk(a, d), _sorted_cumulative_quantile(a, d)[0], rel=1e-12)
            checked += 1
        for w, o in d.components:
            # the CDF's own level at an atom is first reached at that atom
            if w > 0.0 and isinstance(o, PointMass) and d.cdf(o.value) < 1.0:
                assert value_at_risk(d.cdf(o.value), d) == o.value
    assert checked > 3000


def test_cte_matches_the_rockafellar_uryasev_minimum_on_tied_laws():
    checked = 0
    for _, d, levels, randoms in _tied_laws_and_levels(32, 600):
        for a in levels + randoms:
            assert_close(cte(a, d), rockafellar_uryasev_cte(a, d), rel=1e-9)
            checked += 1
    assert checked > 3000


def test_route_tail_values():
    hw, lr = casebook.highway_time(), casebook.local_roads_time()
    assert_close(cte(0.5, hw), 18.0, rel=1e-12)
    assert_close(cte(0.8, hw), 30.0)
    assert_close(cte(0.8, lr), 34.0 + 4.0 / 9.0)


# ---------------------------------------------------------------------------
# functional objects, dispatch, composites
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValidationError):
        Erm(math.inf)
    with pytest.raises(ValidationError):
        ValueAtRisk(1.0)
    with pytest.raises(ValidationError):
        Cte(-0.2)
    with pytest.raises(ValidationError):
        Composite(((0.5, Expectation()), (0.4, Cte(0.5))))
    with pytest.raises(ValidationError):
        Composite(((1.5, Expectation()), (-0.5, Cte(0.5))))
    with pytest.raises(ValidationError):
        Composite(((1.0, "not a functional"),))


_ATOMS = MixedDistribution.of_atoms([(0.5, 1.0), (0.5, 3.0)])


@pytest.mark.parametrize("bad", [True, "1", None])
@pytest.mark.parametrize(
    "make",
    [
        Erm,
        ValueAtRisk,
        Cte,
        Exponential,
        Power,
        lambda x: Composite(((x, Expectation()),)),
        lambda x: PiecewiseLinear(((0.0, 0.0), (x, 2.0))),
        lambda x: PiecewiseLinear(((0.0, 0.0), (1.0, x))),
        lambda x: erm(x, _ATOMS),
    ],
    ids=["Erm", "ValueAtRisk", "Cte", "Exponential", "Power", "coefficient", "knot-cost", "knot-value", "erm-kernel"],
)
def test_functional_parameters_must_be_real_numbers(make, bad):
    with pytest.raises(ValidationError, match="must be a number"):
        make(bad)


def test_integer_parameters_become_floats_and_round_trip():
    for rf in (Erm(2), ValueAtRisk(0), Cte(0), Composite(((1, Erm(-1)),))):
        text = json.dumps(rf_to_json_dict(rf))
        assert rf_from_json_dict(json.loads(text)) == rf
    assert json.dumps(rf_to_json_dict(Erm(2))) == '{"kind": "erm", "gamma": 2.0}'
    assert type(Exponential(1).gamma) is float and type(Power(2).k) is float
    (c, _), = Composite(((1, Expectation()),)).terms
    assert type(c) is float
    knots = PiecewiseLinear(((0, 0), (1, 2))).knots
    assert knots == ((0.0, 0.0), (1.0, 2.0))
    assert all(type(x) is float for knot in knots for x in knot)
    assert erm(1, _ATOMS) == erm(1.0, _ATOMS)


def test_evaluate_dispatch_matches_direct_calls():
    rng = random.Random(20)
    for _ in range(20):
        d = _random_mixed(rng)
        assert evaluate(Expectation(), d) == mean(d)
        assert evaluate(Erm(0.4), d) == erm(0.4, d)
        assert evaluate(ValueAtRisk(0.7), d) == value_at_risk(0.7, d)
        assert evaluate(Cte(0.7), d) == cte(0.7, d)


def test_evaluate_atoms_gives_the_bits_of_evaluate_on_the_same_atoms():
    rng = random.Random(21)
    functionals = (
        Expectation(), Erm(0.5), Erm(-0.5), ValueAtRisk(0.5), ValueAtRisk(0.75),
        Cte(0.0), Cte(0.5), Cte(0.75),
        Composite(((0.5, Expectation()), (0.25, Cte(0.75)), (0.25, Erm(0.5)))),
    )
    for i in range(400):
        n = rng.randint(1, 9)
        if i % 2:
            # eighths, some of them zero: the CDF meets the levels exactly
            cuts = sorted(rng.randint(0, 8) for _ in range(n - 1))
            weights = [(b - a) / 8.0 for a, b in zip([0, *cuts], [*cuts, 8])]
        else:
            raw = [rng.random() for _ in range(n)]
            weights = [r / math.fsum(raw) for r in raw]
        values = [float(rng.randint(-3, 3)) for _ in range(n)]
        law = MixedDistribution.of_atoms(zip(weights, values))
        for rf in functionals:
            assert evaluate_atoms(rf, weights, values).hex() == evaluate(rf, law).hex()
    # a value that is not finite fails as PointMass does, before the
    # functional is looked at
    for values in ([math.inf], [1.0, math.nan]):
        weights = [1.0 / len(values)] * len(values)
        with pytest.raises(ValidationError, match="PointMass value must be finite"):
            MixedDistribution.of_atoms(zip(weights, values))
        for rf in (Cte(0.5), "cte"):
            with pytest.raises(ValidationError, match="PointMass value must be finite"):
                evaluate_atoms(rf, weights, values)
    with pytest.raises(ValidationError, match="unknown risk functional 'cte'"):
        evaluate_atoms("cte", [1.0], [2.0])


def test_evaluate_constant_shortcut_agrees_with_every_functional():
    d = MixedDistribution.point(3.5)
    for rf in (Expectation(), Erm(2.0), ValueAtRisk(0.9), Cte(0.9),
               Composite(((0.5, Expectation()), (0.5, Cte(0.5))))):
        assert evaluate(rf, d) == 3.5


def test_composite_is_the_weighted_sum():
    d = casebook.highway_time()
    combo = Composite(((0.5, Expectation()), (0.5, Cte(0.5))))
    assert_close(evaluate(combo, d), 16.0, rel=1e-12)
    blended = Composite(((0.7, Expectation()), (0.3, Cte(0.5))))
    assert_close(evaluate(blended, d), 0.7 * 14.0 + 0.3 * 18.0, rel=1e-12)


def test_evaluate_rejects_unknown_functional():
    with pytest.raises(ValidationError):
        evaluate("mean", MixedDistribution.point(0.0))
    for describe in (rf_label, rf_to_json_dict):
        with pytest.raises(ValidationError, match="unknown risk functional 'mean'"):
            describe("mean")


def test_functional_json_roundtrip():
    functionals = [
        Expectation(),
        Erm(-0.25),
        ValueAtRisk(0.8),
        Cte(0.95),
        Composite(((0.7, Expectation()), (0.3, Cte(0.5)))),
        Composite(((1.0, Composite(((0.5, Erm(1.0)), (0.5, ValueAtRisk(0.5))))),)),
    ]
    for rf in functionals:
        assert rf_from_json_dict(rf_to_json_dict(rf)) == rf
    assert rf_label(Erm(0.001)) == "erm(0.001)"


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"kind": "unknown"},
        {"kind": "erm"},
        {"kind": "cte", "alpha": 1.0},
        {"kind": "composite", "terms": []},
        {"kind": "composite", "terms": [{"w": 0.5, "rf": {"kind": "mean"}}]},
        {"kind": "composite", "terms": [5]},
    ],
)
def test_functional_json_rejects_malformed(payload):
    with pytest.raises(ValidationError):
        rf_from_json_dict(payload)


# ---------------------------------------------------------------------------
# translation and scaling behavior
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_shift_moves_every_translation_invariant_functional(seed):
    rng = random.Random(seed)
    d = _random_mixed(rng)
    b = rng.uniform(-10.0, 10.0)
    shifted = affine_transform(d, 1.0, b)
    for rf in (Expectation(), Erm(0.5), Erm(-0.5), Cte(0.7),
               Composite(((0.5, Expectation()), (0.5, Cte(0.5))))):
        assert_close(evaluate(rf, shifted), evaluate(rf, d) + b)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_scale_factors_out_of_homogeneous_functionals(seed):
    rng = random.Random(seed)
    d = _random_mixed(rng)
    for a in (0.5, 2.0, 10.0):
        scaled = affine_transform(d, a, 0.0)
        for rf in (Expectation(), ValueAtRisk(0.6), Cte(0.6),
                   Composite(((0.5, Expectation()), (0.5, Cte(0.5))))):
            assert_close(evaluate(rf, scaled), a * evaluate(rf, d))


def test_entropic_value_is_not_positively_homogeneous():
    d = MixedDistribution.of_atoms([(0.5, 0.0), (0.5, 1.0)])
    lhs = erm(1.0, affine_transform(d, 2.0, 0.0))
    rhs = 2.0 * erm(1.0, d)
    assert lhs - rhs > 0.19


# ---------------------------------------------------------------------------
# disutility curves
# ---------------------------------------------------------------------------


def test_disutility_validation():
    with pytest.raises(ValidationError):
        Exponential(0.0)
    with pytest.raises(ValidationError):
        Power(0.5)
    with pytest.raises(ValidationError):
        PiecewiseLinear(((0.0, 0.0),))
    with pytest.raises(ValidationError):
        PiecewiseLinear(((0.0, 0.0), (1.0, -1.0)))
    with pytest.raises(ValidationError):
        # curve through the knots misses (0, 0)
        PiecewiseLinear(((1.0, 5.0), (2.0, 6.0)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Composite(()), "Composite needs at least one term"),
        (lambda: PiecewiseLinear(((0.0, 0.0), (0.0, 1.0))), "PiecewiseLinear knot costs must increase"),
        (lambda: PiecewiseLinear(((0.0, 0.0), (math.inf, 1.0))), "PiecewiseLinear knots must be finite"),
        (
            lambda: pushforward_mean("linear", MixedDistribution.point(1.0)),
            "unknown disutility 'linear'",
        ),
    ],
    ids=["empty-composite", "knot-costs-not-increasing", "infinite-knot", "unknown-disutility"],
)
def test_malformed_functionals_and_curves_keep_their_message(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def test_disutility_pointwise_values():
    assert apply_disutility(Linear(), 3.0) == 3.0
    assert_close(apply_disutility(Exponential(0.01), 100.0), math.expm1(1.0), rel=1e-12)
    assert apply_disutility(Power(2.0), 3.0) == 9.0
    u = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)))
    assert apply_disutility(u, 0.5) == 1.0
    assert apply_disutility(u, 2.0) == 2.5
    # boundary slopes extend past the knots
    assert apply_disutility(u, 4.0) == 3.5
    assert apply_disutility(u, -1.0) == -2.0
    with pytest.raises(ValidationError):
        apply_disutility(Power(2.0), -1.0)


def test_pushforward_mean_closed_forms():
    seg = MixedDistribution.uniform(0.0, 2.0)
    assert_close(pushforward_mean(Linear(), seg), 1.0, rel=1e-12)
    # integral of exp(y)-1 over [0,2] divided by 2
    assert_close(pushforward_mean(Exponential(1.0), seg), (math.e**2 - 1.0) / 2.0 - 1.0, rel=1e-12)
    assert_close(pushforward_mean(Power(2.0), seg), 8.0 / 6.0, rel=1e-12)


def test_pushforward_mean_piecewise_linear_matches_hand_integral():
    u = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)))
    seg = MixedDistribution.uniform(0.0, 3.0)
    # area under the curve: triangle-ish pieces 1.0 on [0,1] and 5.0 on [1,3]
    assert_close(pushforward_mean(u, seg), (1.0 + 5.0) / 3.0, rel=1e-9)
    mixed = mixture([(0.5, 4.0), (0.5, (0.0, 3.0))])
    assert_close(pushforward_mean(u, mixed), 0.5 * 3.5 + 0.5 * 2.0, rel=1e-9)


def test_pushforward_mean_piecewise_linear_is_the_trapezoid_sum():
    # slope 1/2 below 0 (beyond the first knot too), 2/5 on [0, 10], 4/5 above 10
    u = PiecewiseLinear(((-10.0, -5.0), (0.0, 0.0), (10.0, 4.0), (30.0, 20.0)))
    cases = [
        # knots inside: u(-5) = -2.5, u(0) = 0, u(10) = 4, u(15) = 8
        ((-5.0, 15.0), (5 * (-2.5 + 0) / 2 + 10 * (0 + 4) / 2 + 5 * (4 + 8) / 2) / 20),
        # every knot inside, both ends beyond them: u(-20) = -10, u(40) = 28
        ((-20.0, 40.0), (10 * (-10 - 5) / 2 + 10 * (-5 + 0) / 2 + 10 * (0 + 4) / 2
                         + 20 * (4 + 20) / 2 + 10 * (20 + 28) / 2) / 60),
        # starts on a knot: u(20) = 12
        ((0.0, 20.0), (10 * (0 + 4) / 2 + 10 * (4 + 12) / 2) / 20),
        # ends on a knot
        ((-10.0, 10.0), (10 * (-5 + 0) / 2 + 10 * (0 + 4) / 2) / 20),
        # starts and ends on knots, none inside
        ((10.0, 30.0), (4 + 20) / 2),
        # wholly beyond the last knot: u(40) = 28, u(50) = 36
        ((40.0, 50.0), (28 + 36) / 2),
        # wholly before the first knot: u(-30) = -15, u(-20) = -10
        ((-30.0, -20.0), (-15 - 10) / 2),
        # before the first knot, ending on it
        ((-20.0, -10.0), (-10 - 5) / 2),
    ]
    for (lo, hi), want in cases:
        assert_close(pushforward_mean(u, MixedDistribution.uniform(lo, hi)), want, rel=1e-12)


STEEP_PWL = PiecewiseLinear(((-5.0, -5.0), (0.0, 0.0), (3.0, 6.0), (10.0, 30.0)))
DISUTILITY_OVERFLOWS = {
    "exponential atom": (
        lambda: apply_disutility(Exponential(1.0), 1e9),
        "exponential disutility overflowed at cost 1000000000.0",
    ),
    # exp(709.7) is finite, and so is the segment's factor expm1(z) / z,
    # but not their product
    "exponential segment": (
        lambda: pushforward_mean(Exponential(1.0), MixedDistribution.uniform(709.7, 710.2)),
        "exponential disutility overflowed on segment UniformSegment(lo=709.7, hi=710.2)",
    ),
    "power atom": (
        lambda: eud(deterministic_tree([1e308]), Power(2.5), 1.0),
        "power disutility overflowed at cost 1e+308",
    ),
    "power segment": (
        lambda: pushforward_mean(Power(2.0), MixedDistribution.uniform(0.0, 1e200)),
        "power disutility overflowed on segment UniformSegment(lo=0.0, hi=1e+200)",
    ),
    # u(1e308) is about 3.4e308, past the float range; u(-1e308) is
    # finite, so no infinities of both signs reach the sum
    "piecewise-linear atoms": (
        lambda: pushforward_mean(STEEP_PWL, MixedDistribution.of_atoms([(1.0, 1e308), (5e-324, -1e308)])),
        "piecewise-linear disutility overflowed at cost 1e+308",
    ),
    "piecewise-linear segment": (
        lambda: pushforward_mean(STEEP_PWL, MixedDistribution.uniform(-1e308, 1e308)),
        "piecewise-linear disutility overflowed on segment UniformSegment(lo=-1e+308, hi=1e+308)",
    ),
}


@pytest.mark.parametrize("case", list(DISUTILITY_OVERFLOWS))
def test_disutility_overflow_is_reported(case):
    run, message = DISUTILITY_OVERFLOWS[case]
    with pytest.raises(EvaluationOverflowError) as info:
        run()
    assert str(info.value) == message


# atoms at the float limit whose weights sum a little above one, as the
# weight check allows: the exact weighted sum leaves the floating range
LIMIT = 1.7976931348623157e308
LIMIT_WEIGHTS = [0.5, 0.5 + 4e-13]
LIMIT_LAW = MixedDistribution.of_atoms(list(zip(LIMIT_WEIGHTS, [LIMIT] * 2)))
SUM_OVERFLOWS = {
    "mean": (lambda: mean(LIMIT_LAW), "mean overflowed the floating range"),
    "mean on atoms": (
        lambda: evaluate_atoms(Expectation(), LIMIT_WEIGHTS, [LIMIT] * 2),
        "mean overflowed the floating range",
    ),
    "expected disutility": (
        lambda: pushforward_mean(Linear(), LIMIT_LAW),
        "expected disutility overflowed the floating range",
    ),
    # each term is worth the limit; the coefficients sum above one
    "composite": (
        lambda: evaluate_atoms(
            Composite(tuple(zip(LIMIT_WEIGHTS, (Cte(0.1), Cte(0.2))))), [0.5, 0.5], [LIMIT] * 2
        ),
        "composite value overflowed the floating range",
    ),
}


@pytest.mark.parametrize("case", list(SUM_OVERFLOWS))
def test_a_sum_past_the_float_range_is_reported(case):
    run, message = SUM_OVERFLOWS[case]
    with pytest.raises(EvaluationOverflowError) as info:
        run()
    assert str(info.value) == message


@pytest.mark.parametrize("gamma", [1e10, -1e10], ids=["averse", "seeking"])
@pytest.mark.parametrize(
    "law", [MixedDistribution.point(1e300), MixedDistribution.uniform(0.0, 1e300)], ids=["atom", "segment"]
)
def test_the_entropic_value_stays_finite_where_gamma_times_a_value_overflows(gamma, law):
    value = erm(gamma, law)
    assert evaluate(Erm(gamma), law) == value
    if gamma > 0.0:
        assert mean(law) <= value <= essential_sup(law)
    else:
        assert essential_inf(law) <= value <= mean(law)


def test_a_segment_at_the_float_limit_keeps_a_finite_mean_and_tail():
    # lo + hi overflows, so the midpoint is taken as 0.5 * lo + 0.5 * hi
    law = MixedDistribution.uniform(1.7e308, LIMIT)
    mid = 0.5 * 1.7e308 + 0.5 * LIMIT
    assert mean(law) == evaluate(Expectation(), law) == pushforward_mean(Linear(), law) == mid
    assert law.tail_sum(0.0) == mid
    assert_close(value_at_risk(0.5, law), mid, rel=1e-15)
    assert_close(cte(0.5, law), 0.25 * 1.7e308 + 0.75 * LIMIT, rel=1e-15)
    assert_close(evaluate(Composite(((0.5, Expectation()), (0.5, Cte(0.5)))), law), 0.5 * mid + 0.5 * cte(0.5, law))


# a segment across the float range: its width, and so its density, is not
# a float
FULL_RANGE = MixedDistribution.uniform(-LIMIT, LIMIT)
TOO_WIDE = f"segment {FULL_RANGE.components[0][1]!r} is wider than the floating range"


@pytest.mark.parametrize(
    "run",
    [
        lambda: value_at_risk(0.5, FULL_RANGE),
        lambda: cte(0.5, FULL_RANGE),
        lambda: evaluate(ValueAtRisk(0.5), FULL_RANGE),
        lambda: erm(1.0, FULL_RANGE),
        lambda: FULL_RANGE.cdf(0.0),
        lambda: rmd(deterministic_tree([FULL_RANGE]), Cte(0.5), 1.0),
    ],
    ids=["var", "cte", "evaluate", "erm", "cdf", "rmd"],
)
def test_a_segment_wider_than_the_float_range_is_reported(run):
    with pytest.raises(EvaluationOverflowError) as info:
        run()
    assert str(info.value) == TOO_WIDE


def test_a_segment_wider_than_the_float_range_keeps_what_needs_no_density():
    assert mean(FULL_RANGE) == 0.0
    assert FULL_RANGE.cdf(LIMIT) == 1.0 and FULL_RANGE.tail_mass(-LIMIT) == 1.0
    assert value_at_risk(0.0, FULL_RANGE) == -LIMIT


def test_a_quantile_under_a_vanishing_slope_is_interpolated():
    # a subnormal weight over a width of 2 gives a subnormal or zero slope
    def law(w):
        return MixedDistribution(((w, UniformSegment(1.0, 3.0)), (1.0, PointMass(5.0))))

    assert value_at_risk(5e-324, law(5e-324)) == 3.0
    assert value_at_risk(5e-324, law(1e-323)) == 2.0


def test_exponential_segment_mean_takes_its_limit_when_the_exponent_underflows():
    # gamma * (hi - lo) underflows to zero; the mean is expm1 at the midpoint
    law = MixedDistribution.uniform(1.0, 1.0000000000000002)
    assert pushforward_mean(Exponential(1e-310), law) == math.expm1(1e-310 * 1.0000000000000001)
    assert eud(deterministic_tree([law]), Exponential(1e-310), 1.0) == 1e-310
    # a segment whose exponent does not underflow keeps its closed form
    wide = MixedDistribution.uniform(0.0, 1.0)
    assert pushforward_mean(Exponential(1.0), wide) == math.exp(0.0) * math.expm1(1.0) / 1.0 - 1.0


def test_piecewise_linear_far_out_divides_before_it_multiplies():
    # 5 * (-1e308 - (-5)) overflows; the slope 1 times the run does not
    assert apply_disutility(STEEP_PWL, -1e308) == -1e308
    assert apply_disutility(STEEP_PWL, 2.5) == 5.0


def test_deu_discounts_per_period_means():
    marginals = [MixedDistribution.point(10.0), MixedDistribution.point(20.0)]
    assert_close(deu(Linear(), 0.5, marginals), 10.0 + 0.5 * 20.0, rel=1e-12)
    with pytest.raises(ValidationError):
        deu(Linear(), 1.5, marginals)
    with pytest.raises(ValidationError):
        deu(Linear(), 0.5, [])
    with pytest.raises(ValidationError, match="marginal must be a MixedDistribution"):
        deu(Linear(), 0.9, ["x"])


def test_deu_of_payment_plans_with_identity_curve():
    # the per-period marginals alone cannot tell the all-or-nothing plan
    # from independent draws, so its value is the discounted mean stream
    assert_close(deu(Linear(), 1.0, casebook.installment_marginals()), 950.0, rel=1e-12)
    assert_close(deu(Linear(), 1.0, casebook.upfront_marginals()), 1000.0, rel=1e-12)


def test_per_period_view_always_favors_installments():
    # smaller module-scale run; the acceptance suite does 10^3 trials
    rng = random.Random(21)
    for _ in range(100):
        u = random_increasing_disutility(rng)
        lam = rng.random()
        a = deu(u, lam, casebook.upfront_marginals())
        b = deu(u, lam, casebook.installment_marginals())
        assert a > b


# ---------------------------------------------------------------------------
# ordered-pair inequality on the constructed family
# ---------------------------------------------------------------------------


def test_ordered_pair_grid_has_no_entropic_reversal():
    rows = casebook.ordered_pair_gaps(
        [0.25, 0.5, 1.0, 2.0, 3.0, 5.0],
        [0.5, 1.0, 20.0],
        [-10.0, 0.0, 20.0],
        [-2.0, -0.5, -0.01, 0.0, 0.01, 0.5, 2.0],
    )
    assert len(rows) == 378
    for x, a, b, g, gap in rows:
        assert gap >= -1e-9, (x, a, b, g, gap)
        if g == 0.0:
            # both sides carry the same mean, so the gap vanishes
            assert abs(gap) <= 1e-9
        else:
            assert gap > 0.0, (x, a, b, g, gap)


def test_ordered_pair_reproduces_the_route_laws():
    upper, lower = casebook.ordered_pair(3.0)
    for got, want in (
        (affine_transform(upper, 20.0, 20.0), casebook.highway_time()),
        (affine_transform(lower, 20.0, 20.0), casebook.local_roads_time()),
    ):
        assert len(got.components) == len(want.components)
        for (w_got, o_got), (w_want, o_want) in zip(got.components, want.components):
            assert_close(w_got, w_want, rel=1e-15)
            assert o_got == o_want


def test_ordered_pair_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        casebook.ordered_pair(0.0)
    with pytest.raises(ValidationError):
        casebook.ordered_pair_gaps([1.0], [0.0], [0.0], [0.5])
    with pytest.raises(ValidationError, match="scale must be a number, got 'a'"):
        casebook.ordered_pair_gaps([1.0], ["a"], [0.0], [0.5])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: casebook.preference_region(1, 5), "need at least 2 steps per axis"),
        (lambda: casebook.ordered_pair("3"), "x must be a number, got '3'"),
        (lambda: casebook.ordered_pair(True), "x must be a number, got True"),
        (lambda: casebook.preference_region(2.5, 3), "steps per axis must be integers, got 2.5, 3"),
        (lambda: casebook.preference_region("a", 3), "steps per axis must be integers, got 'a', 3"),
    ],
    ids=["region-one-discount-step", "pair-str", "pair-bool", "region-float-steps", "region-str-steps"],
)
def test_casebook_arguments_keep_their_errors(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message
