"""Mixture-distribution construction, statistics, and serialization."""
from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp import (
    MixedDistribution,
    PointMass,
    UniformSegment,
    ValidationError,
    affine_transform,
    essential_inf,
    essential_sup,
    merge_atoms,
)
from riskdp.distributions import (
    MERGE_TOL,
    check_atom,
    check_weights,
    checked_fsum,
    column_cdf,
    column_tail_mass,
    merge_columns,
)
from riskdp.properties import _random_mixed

from .conftest import assert_close


def test_point_mass_rejects_non_finite():
    with pytest.raises(ValidationError):
        PointMass(math.inf)
    with pytest.raises(ValidationError):
        PointMass(math.nan)


@pytest.mark.parametrize("bad", [True, "1"])
@pytest.mark.parametrize(
    "make",
    [
        PointMass,
        lambda x: UniformSegment(x, 2.0),
        lambda x: UniformSegment(-1.0, x),
        lambda x: MixedDistribution(((x, PointMass(0.0)),)),
        lambda x: MixedDistribution.mix([(x, MixedDistribution.point(0.0))]),
        lambda x: affine_transform(MixedDistribution.point(0.0), x, 1.0),
        lambda x: affine_transform(MixedDistribution.point(0.0), 1.0, x),
    ],
    ids=["point", "segment-lo", "segment-hi", "weight", "mix-weight", "affine-scale", "affine-shift"],
)
def test_constructor_numbers_must_be_real_numbers(make, bad):
    with pytest.raises(ValidationError, match="must be a number"):
        make(bad)


def test_integer_constructor_numbers_become_floats():
    seg = UniformSegment(0, 2)
    ((w, point),) = MixedDistribution(((1, PointMass(3)),)).components
    assert [type(x) for x in (seg.lo, seg.hi, w, point.value)] == [float] * 4


def test_segment_requires_strict_order():
    with pytest.raises(ValidationError):
        UniformSegment(1.0, 1.0)
    with pytest.raises(ValidationError):
        UniformSegment(2.0, 1.0)
    seg = UniformSegment(2.0, 5.0)
    assert seg.width == 3.0
    assert seg.midpoint == 3.5


def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        MixedDistribution(((0.5, PointMass(0.0)), (0.4, PointMass(1.0))))
    # within tolerance is accepted
    MixedDistribution(((0.5, PointMass(0.0)), (0.5 + 1e-13, PointMass(1.0))))


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        MixedDistribution(((1.5, PointMass(0.0)), (-0.5, PointMass(1.0))))


def test_empty_distribution_rejected():
    with pytest.raises(ValidationError):
        MixedDistribution(())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MixedDistribution("x"), "MixedDistribution components must be (weight, outcome) pairs, got 'x'"),
        (
            lambda: MixedDistribution([(1.0,)]),
            "MixedDistribution components must be (weight, outcome) pairs, got [(1.0,)]",
        ),
        (lambda: MixedDistribution.of_atoms(None), "of_atoms pairs must be (weight, value) pairs, got None"),
        (lambda: MixedDistribution.mix(None), "mix parts must be (weight, MixedDistribution) pairs, got None"),
    ],
    ids=["components-str", "components-short-pair", "of-atoms-none", "mix-none"],
)
def test_a_law_given_as_anything_but_pairs_is_rejected(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def test_mix_constructor_flattens_and_scales():
    d = MixedDistribution.mix(
        [(0.9, MixedDistribution.point(10.0)), (0.1, MixedDistribution.uniform(20.0, 80.0))]
    )
    assert d.components == (
        (0.9, PointMass(10.0)),
        (0.1, UniformSegment(20.0, 80.0)),
    )
    # zero-weight parts are dropped
    d2 = MixedDistribution.mix([(1.0, MixedDistribution.point(3.0)), (0.0, d)])
    assert d2.components == ((1.0, PointMass(3.0)),)


def test_cdf_steps_at_atoms_and_ramps_on_segments():
    d = MixedDistribution.mix(
        [(0.9, MixedDistribution.point(10.0)), (0.1, MixedDistribution.uniform(20.0, 80.0))]
    )
    assert d.cdf(9.999) == 0.0
    assert d.cdf(10.0) == 0.9
    assert d.cdf(20.0) == 0.9
    assert_close(d.cdf(50.0), 0.95)
    assert d.cdf(80.0) == 1.0
    assert d.atom_mass_at(10.0) == 0.9
    assert d.atom_mass_at(50.0) == 0.0


def test_columns_follow_component_order_and_are_made_once():
    d = MixedDistribution(
        ((0.5, UniformSegment(2.0, 4.0)), (0.25, PointMass(1.0)), (0.25, PointMass(3.0)))
    )
    assert d.columns() == ([0.5, 0.25, 0.25], [2.0, 1.0, 3.0], [4.0, 1.0, 3.0])
    assert d.columns() is d.columns()
    assert d == MixedDistribution(d.components)
    assert "_columns" not in repr(d)


def test_a_law_made_from_columns_keeps_only_its_columns():
    # the moved lows and highs, one float each per component; the weights
    # are the source's
    n = 10**4
    source = MixedDistribution(
        tuple((1.0 / n, PointMass(float(k)) if k % 2 else UniformSegment(float(k), k + 0.5)) for k in range(n))
    )
    source.columns()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        moved = affine_transform(source, 2.0, 1.0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert moved.columns()[0] is source.columns()[0]
    assert kept <= 100 * n


def test_a_law_is_frozen_and_keeps_the_dataclass_forms():
    d = MixedDistribution(((0.75, PointMass(1.0)), (0.25, UniformSegment(0.0, 2.0))))
    with pytest.raises(AttributeError):
        d.components = ()
    assert repr(d) == (
        "MixedDistribution(components=((0.75, PointMass(value=1.0)), "
        "(0.25, UniformSegment(lo=0.0, hi=2.0))))"
    )
    assert hash(d) == hash((d.components,))
    assert d != MixedDistribution(((0.75, PointMass(1.0)), (0.25, UniformSegment(0.0, 3.0))))
    assert d == MixedDistribution.from_json_dict(d.to_json_dict()) == affine_transform(d, 1.0, 0.0)


def test_hashing_a_law_builds_no_outcome(monkeypatch):
    d = MixedDistribution(((0.5, PointMass(-0.0)), (0.25, UniformSegment(0.0, 2.0)), (0.25, PointMass(3.0))))
    want = hash((d.components,))

    def built(self, *args):
        raise AssertionError(f"built {type(self).__name__}{args}")

    monkeypatch.setattr(PointMass, "__init__", built)
    monkeypatch.setattr(UniformSegment, "__init__", built)
    assert hash(d) == want


def test_tail_mass_and_tail_sum_on_clipped_segment():
    d = MixedDistribution.uniform(0.0, 20.0)
    assert_close(d.tail_mass(15.0), 0.25)
    # conditional mean of the clipped piece is its midpoint
    assert_close(d.tail_sum(15.0), 0.25 * 17.5)
    assert d.tail_mass(20.0) == 0.0
    assert d.tail_sum(-1.0) == pytest.approx(10.0)


def test_mix_rejects_a_negative_weight():
    parts = [(-0.5, MixedDistribution.point(0.0)), (1.5, MixedDistribution.point(1.0))]
    with pytest.raises(ValidationError) as info:
        MixedDistribution.mix(parts)
    assert str(info.value) == "mixture weight -0.5 must be finite and >= 0"
    with pytest.raises(ValidationError, match="mixture part 'x' is not a MixedDistribution"):
        MixedDistribution.mix([(1.0, "x")])


def test_essential_bounds_skip_zero_weight():
    d = MixedDistribution(
        ((0.0, PointMass(99.0)), (1.0, UniformSegment(1.0, 2.0)))
    )
    assert essential_sup(d) == 2.0
    assert essential_inf(d) == 1.0


POINT_OVERFLOW = (ValidationError, "PointMass value must be finite")
SEGMENT_OVERFLOW = (ValidationError, "UniformSegment endpoints must be finite")
SEGMENT_COLLAPSED = (
    ValidationError,
    "UniformSegment requires lo < hi; use PointMass for a single value",
)
ATOM_THEN_SEGMENT = MixedDistribution(((0.5, PointMass(1e308)), (0.5, UniformSegment(0.0, 1.0))))
SEGMENT_THEN_ATOM = MixedDistribution(((0.5, UniformSegment(0.0, 1.0)), (0.5, PointMass(1e308))))
# (law, a, b, error), the law's components met in their order
AFFINE_ERRORS = {
    "atom overflow": (MixedDistribution.point(1e308), 1.0, 1e308, POINT_OVERFLOW),
    "scaled atom overflow": (MixedDistribution.point(10.0), 1e308, 0.0, POINT_OVERFLOW),
    "segment overflow": (MixedDistribution.uniform(0.0, 1e308), 1.0, 1e308, SEGMENT_OVERFLOW),
    "collapse under a huge shift": (MixedDistribution.uniform(0.0, 1.0), 1.0, 1e17, SEGMENT_COLLAPSED),
    "atom before a segment": (ATOM_THEN_SEGMENT, 1.0, 1e308, POINT_OVERFLOW),
    "segment before an atom": (SEGMENT_THEN_ATOM, 1.0, 1e308, SEGMENT_COLLAPSED),
    "zero scale": (
        MixedDistribution.point(1.0), 0.0, 1.0,
        (ValidationError, "affine scale must be positive, got 0.0"),
    ),
    "negative scale before a bad law": (
        MixedDistribution.point(1e308), -2.0, 1e308,
        (ValidationError, "affine scale must be positive, got -2.0"),
    ),
    "infinite scale": (
        MixedDistribution.point(1.0), math.inf, 0.0,
        (ValidationError, "affine coefficients must be finite"),
    ),
}


@pytest.mark.parametrize("case", list(AFFINE_ERRORS))
def test_affine_transform_errors_keep_their_type_and_message(case):
    dist, a, b, (kind, message) = AFFINE_ERRORS[case]
    with pytest.raises(kind) as info:
        affine_transform(dist, a, b)
    assert (type(info.value), str(info.value)) == (kind, message)


def test_affine_transform_maps_components():
    d = MixedDistribution.mix(
        [(0.5, MixedDistribution.point(2.0)), (0.5, MixedDistribution.uniform(0.0, 1.0))]
    )
    out = affine_transform(d, 3.0, 1.0)
    assert out.components == (
        (0.5, PointMass(7.0)),
        (0.5, UniformSegment(1.0, 4.0)),
    )


def test_merge_atoms_groups_near_duplicates():
    d = MixedDistribution.of_atoms([(0.25, 1.0), (0.25, 1.0), (0.5, 2.0)])
    merged = merge_atoms(d)
    assert merged.components == ((0.5, PointMass(1.0)), (0.5, PointMass(2.0)))


def test_check_weights_names_the_first_bad_weight():
    """Whatever the sum, a weight that is negative or not finite is named,
    the first one in order, before the sum is checked."""
    cases = [
        ([0.5, -0.5, 1.0], "component weight -0.5 must be finite and >= 0"),
        ([1.5, -0.5], "component weight -0.5 must be finite and >= 0"),
        ([0.5, math.nan, 0.5], "component weight nan must be finite and >= 0"),
        ([math.inf, -1.0], "component weight inf must be finite and >= 0"),
        ([], "distribution needs at least one component"),
        ([0.5, 0.6], "component weights sum to 1.1; must be 1 within 1e-12"),
    ]
    for weights, message in cases:
        with pytest.raises(ValidationError) as info:
            check_weights(weights)
        assert str(info.value) == message
    check_weights([0.25, 0.0, -0.0, 0.75])


def merge_by_groups(atoms: list, segments: list) -> tuple:
    """merge_columns as one loop over groups of atoms and one over
    segments, the form it was first written in."""
    atoms.sort(key=lambda a: a[0])
    groups = []
    for v, w in atoms:
        if groups and v - first <= MERGE_TOL:
            groups[-1].append((v, w))
        else:
            first = v
            groups.append([(v, w)])
    weights, lows = [], []
    for group in groups:
        first, w = group[0]
        if len(group) == 1:
            weight = w + 0.0
            value = (first * w + 0.0) / weight if weight > 0.0 else first
        else:
            weight = math.fsum([w for _, w in group])
            value = checked_fsum([v * w for v, w in group], "merged atom at {!r}", first) / weight if weight > 0.0 else first
        weights.append(weight)
        lows.append(value if math.isfinite(value) else check_atom(first if len(group) == 1 else value))
    highs = lows[:]
    for lo, hi, w in sorted(segments):
        if len(lows) > len(groups) and abs(lo - lows[-1]) <= MERGE_TOL and abs(hi - highs[-1]) <= MERGE_TOL:
            weights[-1] += w
        else:
            weights.append(w)
            lows.append(lo)
            highs.append(hi)
    check_weights(weights)
    return weights, lows, highs


def test_merge_columns_is_the_group_loop():
    """Atoms more than MERGE_TOL apart, and segments whose lows are, are
    merged without the group loops; the columns are still theirs, bit for
    bit, with ties, near ties, signed zeros and zero weights among the
    inputs or not."""
    rng = random.Random(2404)
    for _ in range(400):
        tight = rng.random() < 0.5
        spread = lambda: rng.uniform(-50.0, 50.0) if rng.random() < 0.9 else -0.0  # noqa: E731
        pick = lambda: rng.choice([-0.0, 0.0, 1.0, 1.0 + 5e-13, 2.5]) if tight else spread()  # noqa: E731
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        if n + m == 0:
            continue
        weights = [rng.choice([0.0, 1.0, 2.0, 3.0]) for _ in range(n + m)]
        weights[0] = weights[0] or 1.0
        weights = [w / math.fsum(weights) for w in weights]
        atoms = [(pick(), w) for w in weights[:n]]
        segments = []
        for w in weights[n:]:
            lo = pick()
            segments.append((lo, lo + rng.choice([1.0, 1.0 + 5e-13, rng.uniform(0.5, 5.0)]), w))
        bits = lambda cols: [[x.hex() for x in col] for col in cols]  # noqa: E731
        assert bits(merge_columns(list(atoms), list(segments))) == bits(merge_by_groups(atoms, segments))


def test_merge_atoms_preserves_mean():
    rng = random.Random(7)
    for _ in range(50):
        d = _random_mixed(rng)
        doubled = MixedDistribution.mix([(0.5, d), (0.5, d)])
        merged = merge_atoms(doubled)
        before = math.fsum(
            w * (o.value if isinstance(o, PointMass) else o.midpoint)
            for w, o in doubled.components
        )
        after = math.fsum(
            w * (o.value if isinstance(o, PointMass) else o.midpoint)
            for w, o in merged.components
        )
        assert_close(after, before, rel=1e-12)
        assert len(merged.components) <= len(doubled.components)


def test_json_roundtrip():
    d = MixedDistribution.mix(
        [(0.9, MixedDistribution.point(10.0)), (0.1, MixedDistribution.uniform(20.0, 80.0))]
    )
    assert MixedDistribution.from_json_dict(d.to_json_dict()) == d


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"components": "nope"},
        {"components": [{"w": 1.0}]},
        {"components": [{"point": 1.0}]},
        {"components": [{"w": 1.0, "uniform": [1.0]}]},
        {"components": [{"w": 1.0, "uniform": [2.0, 1.0]}]},
    ],
)
def test_json_rejects_malformed(payload):
    with pytest.raises(ValidationError):
        MixedDistribution.from_json_dict(payload)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_cdf_is_monotone_and_bounded(seed):
    rng = random.Random(seed)
    d = _random_mixed(rng)
    ys = sorted(rng.uniform(-20.0, 20.0) for _ in range(8))
    vals = [d.cdf(y) for y in ys]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # complementary tail
    for y, v in zip(ys, vals):
        assert_close(v + d.tail_mass(y), 1.0, rel=1e-9)



@pytest.mark.parametrize(
    "w, lo, hi",
    [(0.4329501211003163, -5.8847648541059066, 0.8570911353484885), (0.9614779889500835, 0.7844693774162117, 7.5659958451496285)],
    ids=["cdf-below-the-top", "tail-above-the-bottom"],
)
def test_a_segment_share_never_passes_its_weight(w, lo, hi):
    # unclamped, w * (y - lo) / (hi - lo) is an ulp above w just below the
    # top of the first segment, and w * (hi - v) / (hi - lo) just above the
    # bottom of the second
    cols = ([w], [lo], [hi])
    below_top, above_bottom = math.nextafter(hi, -math.inf), math.nextafter(lo, math.inf)
    assert column_cdf(cols, below_top) <= column_cdf(cols, hi) == w
    assert column_tail_mass(cols, above_bottom) <= column_tail_mass(cols, lo) == w
