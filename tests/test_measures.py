"""Risk functionals: closed forms against independent oracles, algebraic
invariants, disutility curves, and serialization."""
from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

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
    discounted_total_distribution,
    erm,
    essential_inf,
    essential_sup,
    eud,
    evaluate,
    mean,
    merge_atoms,
    pushforward_mean,
    rf_from_json_dict,
    rmd,
    rf_label,
    rf_to_json_dict,
    tree_from_json_dict,
    value_at_risk,
)
from riskdp import measures
from riskdp.distributions import column_tail_mass, column_tail_sum
from riskdp.measures import _cte_levels, _kernel, _on_atoms
from riskdp.properties import _random_mixed

from .conftest import (
    assert_close,
    discretized_cte,
    mixture,
    quadrature_erm,
    random_increasing_disutility,
    random_tied_law,
    rockafellar_uryasev_cte,
    run_cli,
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


def _cte_per_level(alphas, weights, values):
    return [_on_atoms(_kernel(Cte(a)), weights, values) for a in alphas]


@st.composite
def _atom_laws_and_levels(draw):
    """An atom law built to tie, with dyadic, sixths or random weights,
    some zero, and values from a small pool reaching the float limit;
    its levels are a 100-level grid, the CDF's own levels and draws up
    to just below one, some out of order."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from((8, 6, None)))
    if kind is None:
        raw = draw(st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=n, max_size=n))
        raw[0] += 0.5
        weights = [r / math.fsum(raw) for r in raw]
    else:
        cuts = sorted(draw(st.lists(st.integers(0, kind), min_size=n - 1, max_size=n - 1)))
        weights = [(b - a) / kind for a, b in zip([0, *cuts], [*cuts, kind])]
    pool = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1.7e308, -1.7e308)
    values = draw(st.lists(st.sampled_from(pool) | st.integers(-3, 3).map(float), min_size=n, max_size=n))
    sums = [math.fsum(weights[:i]) for i in range(1, n)]
    extra = draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True) | st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k),
        max_size=8,
    ))
    return weights, values, [i / 100 for i in range(100)] + [s for s in sums if s < 1.0] + extra


@given(_atom_laws_and_levels())
@settings(max_examples=200, deadline=None)
def test_cte_levels_gives_the_bits_of_the_kernel_at_every_level(case):
    weights, values, alphas = case
    got = [x.hex() for x in _cte_levels(alphas, weights, values)]
    assert got == [x.hex() for x in _cte_per_level(alphas, weights, values)]


def test_cte_levels_follows_the_walk_where_float_dust_ends_it(monkeypatch):
    """Float dust in the weights sends `_value_at_risk` at 2/3 to its
    linear inversion, and near 1 past every break to `column_sup`, which
    keeps the sign of its zero; `_cte_levels` leaves both to `_cte`."""
    linear = ([1 / 6, 1 / 6, 1 / 6, 0.4999999999999999], [0.0, 1.0, 2.0, 0.0], [0.5, 2 / 3, 0.9])
    past = ([0.25, 0.5 - 2.0**-40, 0.25], [-1.0, 0.0, -0.0], [0.5, 1.0 - 2.0**-53])
    wants = [[x.hex() for x in _cte_per_level(alphas, w, v)] for w, v, alphas in (linear, past)]
    # the sort puts -0.0 first among the top values; column_sup keeps 0.0
    assert wants[1] == ["-0x0.0p+0", "0x0.0p+0"]
    handed = []
    kernel = measures._cte
    monkeypatch.setattr(measures, "_cte", lambda alpha, cols: handed.append(alpha) or kernel(alpha, cols))
    for (w, v, alphas), want in zip((linear, past), wants):
        assert [x.hex() for x in _cte_levels(alphas, w, v)] == want
    assert handed == [2 / 3, 1.0 - 2.0**-53]


def test_cte_levels_raises_at_the_first_level_whose_tail_sum_overflows():
    big = 1.7976931348623157e308
    weights, values = [1e-13, 0.5 + 4e-13, 0.5 + 4e-13], [0.0, big, big]
    # only the break at 0.0 has a tail sum past the float range
    assert _cte_levels([0.5], weights, values) == _cte_per_level([0.5], weights, values) == [big]
    with pytest.raises(EvaluationOverflowError) as want:
        _cte_per_level([0.5, 0.0], weights, values)
    with pytest.raises(EvaluationOverflowError) as got:
        _cte_levels([0.5, 0.0], weights, values)
    assert str(got.value) == str(want.value) == "tail expectation overflowed the floating range"


def test_cte_levels_of_one_atom_is_the_constant():
    assert [x.hex() for x in _cte_levels([0.0, 0.5, 0.99], [1.0], [-0.0])] == ["-0x0.0p+0"] * 3
    with pytest.raises(ValidationError, match="PointMass value must be finite"):
        _cte_levels([0.5], [1.0], [math.inf])


def test_the_preference_sweep_takes_one_pass_per_break(monkeypatch):
    """`_cte_levels` reads each break's CDF, atom mass and tail from one
    `_scan`: the 100 x 100 preference sweep makes no `column_cdf` scan,
    and one `_scan` at each of the two breaks of each of its 100 root
    laws."""
    cdfs, scans = [], []
    cdf, scan = measures.column_cdf, measures._scan
    monkeypatch.setattr(measures, "column_cdf", lambda *args: cdfs.append(args) or cdf(*args))
    monkeypatch.setattr(measures, "_scan", lambda *args: scans.append(args) or scan(*args))
    casebook.preference_region(100, 100)
    assert cdfs == []
    assert len(scans) == 200


def _outcome(kernel, *args):
    """A kernel's value by its bits, or its error by type and message."""
    try:
        return kernel(*args).hex()
    except Exception as e:  # the two routes must fail alike, whatever the failure
        return type(e).__name__, str(e)


@st.composite
def _atom_laws_to_the_float_limit(draw):
    """`_atom_laws_and_levels`, whose large values are sometimes moved to
    the float limit and its weights to a sum a little above one, as the
    weight check allows, so that tail sums overflow; with a gamma, and
    with the running sums of the weights as more levels."""
    weights, values, alphas = draw(_atom_laws_and_levels())
    if draw(st.booleans()):
        values = [math.copysign(1.7976931348623157e308, v) if abs(v) > 3.0 else v for v in values]
        weights = [w * (1.0 + 8e-13) for w in weights]
    gamma = draw(st.sampled_from((*GAMMA_GRID, 1e-3, 1e10, -1e10, 1e300)))
    # the CDF's levels as a sum in component order reaches them
    running = [a for a in itertools.accumulate(weights) if a < 1.0]
    return weights, values, alphas + running, gamma


@given(_atom_laws_to_the_float_limit())
@settings(max_examples=200, deadline=None)
def test_the_atoms_route_gives_the_bits_and_errors_of_the_general_route(case):
    """Columns whose lows are their highs take the atoms route of the
    quantile, tail-expectation and entropic kernels; a copy of the values
    as the highs sends the same law down the general route."""
    weights, values, alphas, gamma = case
    atoms, general = (weights, values, values), (weights, values, list(values))
    for alpha in alphas:
        for kernel in (measures._value_at_risk, measures._cte):
            assert _outcome(kernel, alpha, atoms) == _outcome(kernel, alpha, general)
    assert _outcome(measures._erm, gamma, atoms) == _outcome(measures._erm, gamma, general)


@st.composite
def _atom_laws_with_zero_weights_added(draw):
    """A law of `_atom_laws_to_the_float_limit` with its zero weights left
    out, and the same law with zero-weight atoms added at any position,
    of any value, the float limit and its neighbours included."""
    weights, values, _, gamma = draw(_atom_laws_to_the_float_limit())
    positive = [(w, v) for w, v in zip(weights, values) if w > 0.0]
    padded = list(positive)
    big = 1.7976931348623157e308
    pool = st.sampled_from((0.0, -0.0, 1.7e308, -1.7e308, big, -big, math.nextafter(big, 0.0)))
    for v in draw(st.lists(pool | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4)):
        padded.insert(draw(st.integers(0, len(padded))), (0.0, v))
    return [list(c) for c in zip(*positive)], [list(c) for c in zip(*padded)], gamma


@given(_atom_laws_with_zero_weights_added())
@settings(max_examples=300, deadline=None)
def test_zero_weight_atoms_change_no_entropic_bits(case):
    """The entropic kernel gives a law of atoms the same bits, or the
    same error, with zero-weight atoms added as without them."""
    (weights, values), (padded_weights, padded_values), gamma = case
    want = _outcome(measures._erm, gamma, (weights, values, values))
    assert _outcome(measures._erm, gamma, (padded_weights, padded_values, padded_values)) == want


def test_the_atoms_route_leaves_float_dust_to_the_walk(monkeypatch):
    """The dust laws of `test_cte_levels_follows_the_walk_where_float_dust_ends_it`:
    at 2/3 the walk ends in its linear inversion, and near 1 past every
    break.  In a third, the CDF summed in component order reaches the
    level at -1.0, and summed in sorted order only at 2.0.  The atoms
    route declines those levels, and only those, and the walk gives the
    bits of the general route."""
    linear = ([1 / 6, 1 / 6, 1 / 6, 0.4999999999999999], [0.0, 1.0, 2.0, 0.0], [0.5, 2 / 3, 0.9])
    past = ([0.25, 0.5 - 2.0**-40, 0.25], [-1.0, 0.0, -0.0], [0.5, 1.0 - 2.0**-53])
    early = (
        [0.17793427210397902, 0.1344832459520809, 0.0, 0.3710668226529772, 0.10298105178064217, 0.21353460751112083],
        [-3.0, -2.0, -3.0, -1.0, -2.0, 2.0],
        [0.5, 0.7864653924896793],
    )
    walked = []
    walk = measures._quantile_walk
    monkeypatch.setattr(
        measures, "_quantile_walk", lambda alpha, cols: walked.append((alpha, cols[1] is cols[2])) or walk(alpha, cols)
    )
    for weights, values, alphas in (linear, past, early):
        for alpha in alphas:
            for kernel in (measures._value_at_risk, measures._cte):
                assert _outcome(kernel, alpha, (weights, values, values)) == _outcome(
                    kernel, alpha, (weights, values, list(values))
                )
    declined = [2 / 3, 1.0 - 2.0**-53, 0.7864653924896793]
    assert [alpha for alpha, atoms in walked if atoms] == [a for a in declined for _ in range(2)]
    weights, values, (_, level) = early
    assert measures._value_at_risk(level, (weights, values, values)) == -1.0


def _walk_cte(alpha, cols):
    """`_cte` as the walk and the two tail scans take it."""
    v = measures._quantile_walk(alpha, cols)
    tail_p = column_tail_mass(cols, v)
    if tail_p <= 0.0:
        return v
    return (column_tail_sum(cols, v) + (1.0 - tail_p - alpha) * v) / (1.0 - alpha)


@st.composite
def _segment_laws_and_levels(draw):
    """The columns of a `random_tied_law`, so segments start and end on
    atoms and some weights are zero.  Each zero takes a drawn sign; the
    values of size 1 or more are sometimes moved to within 200 ulps of
    the float limit, in order, so that tail sums overflow and a segment
    across zero is wider than the range; and the weights sometimes sum a
    little above one.  The levels are 0, the CDF at every component end
    and its float neighbours, the running sums of the weights and a few
    draws."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights, lows, highs = (list(c) for c in random_tied_law(rng, draw(st.booleans())).columns())
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        lows[i] = math.copysign(lo, -1.0) if lo == 0.0 and draw(st.booleans()) else lo
        highs[i] = lows[i] if lo == hi else math.copysign(hi, -1.0) if hi == 0.0 and draw(st.booleans()) else hi
    if draw(st.booleans()):
        # 2**971 is the spacing of the floats just below the limit
        def far(v):
            return v if abs(v) < 1.0 else math.copysign(1.7976931348623157e308 - (200.0 - abs(v)) * 2.0**971, v)

        lows, highs = [far(v) for v in lows], [far(v) for v in highs]
    if draw(st.booleans()):
        weights = [w * (1.0 + 8e-13) for w in weights]
    cols = (weights, lows, highs)
    levels = [0.0, *itertools.accumulate(weights), *draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))]
    for y in lows + highs:
        try:
            cdf = measures.column_cdf(cols, y)
        except EvaluationOverflowError:  # a segment wider than the range lies across y
            continue
        levels += [math.nextafter(cdf, 0.0), cdf, math.nextafter(cdf, 1.0)]
    return cols, sorted({a for a in levels if 0.0 <= a < 1.0})


@given(_segment_laws_and_levels())
@settings(max_examples=300, deadline=None)
def test_the_quantile_kernels_give_the_bits_and_errors_of_the_walk_and_the_tail_scans(case):
    """On laws with segments, `_value_at_risk` gives the bits, the sign
    of a zero included, or the error of `_quantile_walk`, and `_cte` those
    of the walk followed by the ``column_tail_mass`` and
    ``column_tail_sum`` scans."""
    cols, levels = case
    for alpha in levels:
        assert _outcome(measures._value_at_risk, alpha, cols) == _outcome(measures._quantile_walk, alpha, cols), alpha
        assert _outcome(measures._cte, alpha, cols) == _outcome(_walk_cte, alpha, cols), alpha


def test_a_law_of_atoms_takes_the_atoms_route_however_it_is_built(monkeypatch, tmp_path):
    """Every builder of a law of atoms (the constructor, `of_atoms`, `mix`,
    the JSON reader, `affine_transform`, `merge_atoms` and the flat law of
    a tree) keeps one list as its lows and its highs, so the quantile and
    tail-expectation kernels reach it by the one-sort atoms route, through
    `value_at_risk`, `cte`, `evaluate`, `rmd` and `riskdp eval`: no
    `column_cdf` scan."""
    scans = []
    scan = measures.column_cdf
    monkeypatch.setattr(measures, "column_cdf", lambda *args: scans.append(args) or scan(*args))
    pairs = [(0.25, 3.0), (0.5, -1.0), (0.25, 2.0)]
    law = MixedDistribution.of_atoms(pairs)
    assert value_at_risk(0.9, law) == 3.0
    assert scans == []
    tree = casebook.installment_tree()
    laws = [
        law,
        MixedDistribution([(w, PointMass(v)) for w, v in pairs]),
        MixedDistribution.mix([(0.5, law), (0.5, MixedDistribution.point(1.0))]),
        MixedDistribution.from_json_dict(law.to_json_dict()),
        affine_transform(law, 2.0, 1.0),
        merge_atoms(law),
        discounted_total_distribution(tree, 0.9),
    ]
    for dist in laws:
        _, lows, highs = dist.columns()
        assert lows is highs and len(lows) > 1
        for alpha in (0.3, 0.9):
            value_at_risk(alpha, dist)
            cte(alpha, dist)
            evaluate(ValueAtRisk(alpha), dist)
            evaluate(Composite(((0.5, Cte(alpha)), (0.5, ValueAtRisk(alpha)))), dist)
    rmd(tree, Cte(0.9), 0.9)
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(law.to_json_dict()))
    assert run_cli(["eval", str(path), "--cte", "0.9"]).exit_code == 0
    assert scans == []


def test_flat_laws_with_segments_take_the_one_pass_route(monkeypatch):
    """The flat law of every tree in data/flat_bits.json whose law has a
    segment gives its quantile and tail expectation at 0.6 and 0.9, and
    their composite, by the one sort and one pass of the kernels: no
    `column_cdf` scan."""
    scans = []
    scan = measures.column_cdf
    monkeypatch.setattr(measures, "column_cdf", lambda *args: scans.append(args) or scan(*args))
    cases = json.loads((Path(__file__).parent / "data" / "flat_bits.json").read_text())["cases"]
    laws = [discounted_total_distribution(tree_from_json_dict(case["tree"]), case["lambda"]) for case in cases]
    laws = [law for law in laws if law.columns()[1] != law.columns()[2]]
    assert len(laws) >= 10
    for law in laws:
        for alpha in (0.6, 0.9):
            value_at_risk(alpha, law)
            cte(alpha, law)
            evaluate(Composite(((0.5, Cte(alpha)), (0.5, ValueAtRisk(alpha)))), law)
    assert scans == []

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


def test_the_atoms_door_gives_the_bits_of_evaluate_on_the_same_atoms():
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
            assert _on_atoms(_kernel(rf), weights, values).hex() == evaluate(rf, law).hex()
    # a value that is not finite fails as PointMass does
    for values in ([math.inf], [1.0, math.nan]):
        weights = [1.0 / len(values)] * len(values)
        with pytest.raises(ValidationError, match="PointMass value must be finite"):
            MixedDistribution.of_atoms(zip(weights, values))
        with pytest.raises(ValidationError, match="PointMass value must be finite"):
            _on_atoms(_kernel(Cte(0.5)), weights, values)


@pytest.mark.parametrize(
    "v", [-0.0, 0.0, 0.1, 123.456, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
def test_every_measure_returns_a_one_atom_law_as_its_atom(v):
    """Each one-measure function maps a constant to itself, bit for bit and
    with the sign of a zero, as `evaluate` does, a composite included."""
    d = MixedDistribution.point(v)
    got = [(mean(d), Expectation())]
    got += [(erm(g, d), Erm(g)) for g in (3.0, 0.7, -2.5, 1e-300)]
    for a in (0.0, 0.5, 0.9):
        got += [(value_at_risk(a, d), ValueAtRisk(a)), (cte(a, d), Cte(a))]
    for value, rf in got:
        assert (rf, value.hex()) == (rf, v.hex())
        assert (rf, evaluate(rf, d).hex()) == (rf, v.hex())
    composite = Composite(((0.5, Expectation()), (0.5, Cte(0.5))))
    assert evaluate(composite, d).hex() == v.hex()


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
        (lambda: Composite(None), "Composite terms must be (coefficient, functional) pairs, got None"),
        (lambda: Composite(((1.0,),)), "Composite terms must be (coefficient, functional) pairs, got ((1.0,),)"),
        (lambda: PiecewiseLinear(None), "PiecewiseLinear knots must be (cost, disutility) pairs, got None"),
        (
            lambda: PiecewiseLinear(((0, 0, 1), (1, 1))),
            "PiecewiseLinear knots must be (cost, disutility) pairs, got ((0, 0, 1), (1, 1))",
        ),
    ],
    ids=[
        "empty-composite", "knot-costs-not-increasing", "infinite-knot", "unknown-disutility",
        "composite-none", "composite-short-term", "knots-none", "knot-triple",
    ],
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


STEEP_PWL = PiecewiseLinear(((-5.0, -5.0), (0.0, 0.0), (3.0, 6.0), (10.0, 30.0)))


@pytest.mark.parametrize("u", [Linear(), Exponential(1.0), Power(2.0), STEEP_PWL], ids=["linear", "exponential", "power", "pwl"])
@pytest.mark.parametrize(
    "cost, message",
    [
        ("x", "cost must be a number, got 'x'"),
        (None, "cost must be a number, got None"),
        (True, "cost must be a number, got True"),
        (math.nan, "cost must be finite, got nan"),
        (math.inf, "cost must be finite, got inf"),
        (-math.inf, "cost must be finite, got -inf"),
    ],
    ids=["str", "none", "bool", "nan", "inf", "-inf"],
)
def test_apply_disutility_takes_a_finite_number_as_its_cost(u, cost, message):
    with pytest.raises(ValidationError) as info:
        apply_disutility(u, cost)
    assert str(info.value) == message


def test_pushforward_mean_is_the_fsum_of_the_closed_form_terms():
    """Under every kind, pushforward_mean is the fsum of each component's
    weight times its disutility (an atom) or its mean disutility (a
    segment), bit for bit, with the closed forms taken here."""
    knots = STEEP_PWL.knots

    def pwl(c: float) -> float:
        # the knot interval that holds c, the first and last extended
        k = 1
        while k < len(knots) - 1 and knots[k][0] <= c:
            k += 1
        (x0, y0), (x1, y1) = knots[k - 1], knots[k]
        return y0 + (y1 - y0) * (c - x0) / (x1 - x0)

    def pwl_mean(lo: float, hi: float) -> float:
        xs = [lo, *(c for c, _ in knots if lo < c < hi), hi]
        return math.fsum(0.5 * (x1 - x0) * (pwl(x0) + pwl(x1)) for x0, x1 in zip(xs, xs[1:])) / (hi - lo)

    oracles = {
        "linear": (Linear(), lambda c: c, lambda lo, hi: 0.5 * (lo + hi)),
        "exponential": (
            Exponential(0.25),
            lambda c: math.expm1(0.25 * c),
            lambda lo, hi: math.exp(0.25 * lo) * math.expm1(0.25 * (hi - lo)) / (0.25 * (hi - lo)) - 1.0,
        ),
        "power": (Power(2.5), lambda c: c**2.5, lambda lo, hi: (hi**3.5 - lo**3.5) / (3.5 * (hi - lo))),
        "pwl": (STEEP_PWL, pwl, pwl_mean),
    }
    rng = random.Random(2501)
    for name, (u, value, segment_mean) in oracles.items():
        for _ in range(200):
            parts = []
            for _ in range(rng.randint(1, 8)):
                lo = rng.choice([0.0, 3.0, 10.0, rng.uniform(0.0, 20.0)])
                hi = lo if rng.random() < 0.5 else lo + rng.choice([7.0, rng.uniform(0.01, 15.0)])
                parts.append(lo if lo == hi else (lo, hi))
            law = mixture([(1.0 / len(parts), part) for part in parts])
            want = math.fsum(w * (value(lo) if lo == hi else segment_mean(lo, hi)) for w, lo, hi in zip(*law.columns()))
            assert pushforward_mean(u, law).hex() == want.hex(), (name, parts)


POWER_DOMAIN = "Power disutility is defined on costs >= 0"


@pytest.mark.parametrize(
    "u, parts, error, message",
    [
        (Power(2.0), [(0.5, 1.0), (0.5, -1.0)], ValidationError, POWER_DOMAIN),
        # a negative cost to the power 2.5 is complex, not an exception
        (Power(2.5), [(0.5, 1.0), (0.5, -1.0)], ValidationError, POWER_DOMAIN),
        (Power(2.0), [(0.5, 1.0), (0.5, (-1.0, 1.0))], ValidationError, POWER_DOMAIN),
        # the first faulty component raises, whichever fault comes later
        (Power(2.0), [(0.5, 1e308), (0.5, -1.0)], EvaluationOverflowError, "power disutility overflowed at cost 1e+308"),
        (Power(2.0), [(0.5, -1.0), (0.5, 1e308)], ValidationError, POWER_DOMAIN),
        # a segment mean that overflows with no exception, before an atom
        # whose disutility raises one
        (
            Exponential(1.0),
            [(0.5, (709.7, 710.2)), (0.5, 1e9)],
            EvaluationOverflowError,
            "exponential disutility overflowed on segment UniformSegment(lo=709.7, hi=710.2)",
        ),
    ],
    ids=["negative-atom", "negative-atom-complex", "segment-across-zero", "overflow-first", "domain-first", "silent-overflow-first"],
)
def test_pushforward_mean_raises_at_the_first_faulty_component(u, parts, error, message):
    with pytest.raises(error) as info:
        pushforward_mean(u, mixture(parts))
    assert type(info.value) is error and str(info.value) == message


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


def test_pushforward_mean_piecewise_linear_takes_the_checked_terms():
    """Under a PiecewiseLinear, pushforward_mean takes its terms with no
    check of their own, and the checked ones only where a term is not
    finite.  Its value is still the fsum of the checked terms, bit for
    bit, each segment's by the trapezoid rule over the knots inside it:
    on laws whose segments hold no knot, one or several, or end on one."""
    u = PiecewiseLinear(((-10.0, -5.0), (0.0, 0.0), (10.0, 4.0), (30.0, 20.0)))
    ends = [-25.0, -10.0, -3.5, 0.0, 2.0, 10.0, 17.25, 30.0, 45.0]

    def trapezoid_mean(lo: float, hi: float) -> float:
        xs = [lo, *(c for c, _ in u.knots if lo < c < hi), hi]
        us = [apply_disutility(u, x) for x in xs]
        return math.fsum(0.5 * (x1 - x0) * (u0 + u1) for x0, x1, u0, u1 in zip(xs, xs[1:], us, us[1:])) / (hi - lo)

    rng = random.Random(2403)
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 6)):
            lo = rng.choice(ends + [rng.uniform(-40.0, 50.0)])
            if rng.random() < 0.5:
                parts.append((lo, lo))
            else:
                parts.append((lo, rng.choice([x for x in ends if x > lo] + [lo + rng.uniform(0.1, 30.0)])))
        law = mixture([(1.0 / len(parts), lo if lo == hi else (lo, hi)) for lo, hi in parts])
        want = math.fsum(
            w * (apply_disutility(u, lo) if lo == hi else trapezoid_mean(lo, hi)) for w, lo, hi in zip(*law.columns())
        )
        assert pushforward_mean(u, law).hex() == want.hex(), parts
    # on the piece before it, this curve misses its knot at 0 by an ulp; a
    # segment ending on the knot reads it there as a bisection does, on the
    # piece the knot starts
    u, lo = PiecewiseLinear(((-6.0, -28.433138815774107), (0.0, 0.0), (1.0, 0.5))), -5.999999999999999
    want = (0.5 * (0.0 - lo) * (apply_disutility(u, lo) + apply_disutility(u, 0.0)) + 0.0) / (0.0 - lo)
    assert pushforward_mean(u, MixedDistribution.uniform(lo, 0.0)).hex() == want.hex()
    # a finite term before one that overflows: the checked terms raise
    with pytest.raises(EvaluationOverflowError) as info:
        pushforward_mean(STEEP_PWL, mixture([(0.5, (0.0, 2.0)), (0.5, 1e308)]))
    assert str(info.value) == "piecewise-linear disutility overflowed at cost 1e+308"


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
        lambda: _on_atoms(_kernel(Expectation()), LIMIT_WEIGHTS, [LIMIT] * 2),
        "mean overflowed the floating range",
    ),
    "expected disutility": (
        lambda: pushforward_mean(Linear(), LIMIT_LAW),
        "expected disutility overflowed the floating range",
    ),
    # each term is worth the limit; the coefficients sum above one
    "composite": (
        lambda: _on_atoms(
            _kernel(Composite(tuple(zip(LIMIT_WEIGHTS, (Cte(0.1), Cte(0.2)))))), [0.5, 0.5], [LIMIT] * 2
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
