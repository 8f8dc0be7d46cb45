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
