"""Finite mixtures of point masses and uniform segments.

Every random quantity in this package is a finite mixture of atoms and
bounded uniform segments.  The class is closed under the operations the
evaluators need (affine maps, mixing, tail statistics), and every risk
measure downstream has an exact closed form on it, so nothing is ever
sampled or approximated.

A law is its columns: parallel lists of weights, lows and highs, an atom
having low == high; a law of atoms alone holds one list as both its lows
and its highs.  That is the one form a `MixedDistribution` stores,
and every statistic is implemented once, on columns.  The components,
(weight, `PointMass` or `UniformSegment`) pairs, are a view built when
read, so a law made from columns (`affine_transform`, `merge_atoms`, the
flat law of a tree) builds no object per component.  The constructor,
the JSON reader and the column builders share one set of checks
(`check_atom`, `check_segment`, `check_weights`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, sub
from typing import Any, Iterable, List, Sequence, Tuple, Union

from .errors import EvaluationOverflowError, ValidationError

SUM_TOL = 1e-12
MERGE_TOL = 1e-12


def json_number(value, field: str) -> float:
    """A real number that is not a bool, as a float, so a JSON true is not
    read as 1; anything else raises, naming the field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number, got {value!r}")
    return float(value)


def read_pairs(values: Any, name: str, pair: str) -> List[Tuple[Any, Any]]:
    """values as a list of pairs; anything that is not an iterable of
    pairs raises, naming the argument and the pair it should hold.
    """
    try:
        return [(a, b) for a, b in values]
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be {pair} pairs, got {values!r}") from None


def checked_fsum(terms: Iterable[float], what: str, *args: Any) -> float:
    """math.fsum of terms, each finite unless its exact value left the
    floating range.  A sum that is not finite, exactly or as a term says,
    raises `EvaluationOverflowError` naming it as what.format(*args).
    Taking the terms must raise nothing.
    """
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # ValueError: terms of inf and -inf
        total = math.inf
    if not math.isfinite(total):
        raise EvaluationOverflowError(f"{what.format(*args)} overflowed the floating range")
    return total


def check_sums_to_one(values: Iterable[float], what: str, *args: Any) -> None:
    """Raise unless the values sum to one within SUM_TOL.  The message
    names them as what.format(*args), formatted only on failure.
    """
    total = math.fsum(values)
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(
            f"{what.format(*args)} sum to {total!r}; must be 1 within {SUM_TOL}"
        )


@dataclass(frozen=True)
class PointMass:
    """All probability mass at a single value."""

    value: float

    def __post_init__(self) -> None:
        value = self.value
        if type(value) is not float:
            value = json_number(value, "PointMass value")
            object.__setattr__(self, "value", value)
        check_atom(value)


@dataclass(frozen=True)
class UniformSegment:
    """Uniform density on [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if type(lo) is not float:
            lo = json_number(lo, "UniformSegment lo")
            object.__setattr__(self, "lo", lo)
        if type(hi) is not float:
            hi = json_number(hi, "UniformSegment hi")
            object.__setattr__(self, "hi", hi)
        check_segment(lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return midpoint(self.lo, self.hi)


Outcome = Union[PointMass, UniformSegment]
Component = Tuple[float, Outcome]
# a law as parallel weights, lows and highs; an atom has low == high
Columns = Tuple[Sequence[float], Sequence[float], Sequence[float]]


@dataclass(frozen=True, init=False, repr=False, eq=False)
class MixedDistribution:
    """Finite mixture of PointMass and UniformSegment components.

    Weights are nonnegative and sum to one within 1e-12.  Components keep
    their construction order; nothing is implicitly merged or sorted.

    The law is stored as its columns only, the lists `columns` returns;
    `components` builds the (weight, outcome) pairs from them each time
    it is read.  `==`, `hash` and `repr` read as those of a frozen
    dataclass with the one field `components`.
    """

    _cols: Columns

    def __init__(self, components: Iterable[Component]) -> None:
        pairs = read_pairs(components, "MixedDistribution components", "(weight, outcome)")
        comps = [(w if type(w) is float else json_number(w, "component weight"), o) for w, o in pairs]
        if not comps:
            raise ValidationError("distribution needs at least one component")
        atoms = True
        for w, outcome in comps:
            check_weight(w)
            if not isinstance(outcome, (PointMass, UniformSegment)):
                raise ValidationError(f"unsupported outcome {outcome!r}")
            atoms = atoms and isinstance(outcome, PointMass)
        weights = [w for w, _ in comps]
        check_sums_to_one(weights, "component weights")
        lows = [o.value if isinstance(o, PointMass) else o.lo for _, o in comps]
        highs = lows if atoms else [o.value if isinstance(o, PointMass) else o.hi for _, o in comps]
        object.__setattr__(self, "_cols", (weights, lows, highs))

    # -- constructors --------------------------------------------------

    @classmethod
    def _from_columns(cls, cols: Columns) -> "MixedDistribution":
        """The law of valid columns, three lists that it keeps as its
        `columns()`; nothing is scanned again."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "_cols", cols)
        return dist

    @classmethod
    def point(cls, value: float) -> "MixedDistribution":
        return cls(((1.0, PointMass(value)),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "MixedDistribution":
        return cls(((1.0, UniformSegment(lo, hi)),))

    @classmethod
    def of_atoms(cls, pairs: Iterable[Tuple[float, float]]) -> "MixedDistribution":
        """Build an all-atom distribution from (weight, value) pairs."""
        return cls([(w, PointMass(v)) for w, v in read_pairs(pairs, "of_atoms pairs", "(weight, value)")])

    @classmethod
    def mix(
        cls, parts: Iterable[Tuple[float, "MixedDistribution"]]
    ) -> "MixedDistribution":
        """Mixture of distributions with the given nonnegative weights."""
        weights, lows, highs, atoms = [], [], [], True
        for p, dist in read_pairs(parts, "mix parts", "(weight, MixedDistribution)"):
            if not math.isfinite(json_number(p, "mixture weight")) or p < 0.0:
                raise ValidationError(f"mixture weight {p!r} must be finite and >= 0")
            if not isinstance(dist, MixedDistribution):
                raise ValidationError(f"mixture part {dist!r} is not a MixedDistribution")
            if p == 0.0:
                continue
            part_weights, part_lows, part_highs = dist.columns()
            weights += [p * w for w in part_weights]
            lows += part_lows
            highs += part_highs
            atoms = atoms and part_lows is part_highs
        check_weights(weights)
        return cls._from_columns((weights, lows, lows if atoms else highs))

    # -- the stored form -------------------------------------------------

    def columns(self) -> Columns:
        """The components as parallel (weights, lows, highs) lists, in
        component order; an atom has low == high, a segment low < high,
        and the highs are the lows list itself when every component is an
        atom.  They are the law's one stored form, the same object on
        every call, and may be shared with the law they were made from,
        so callers only read them.
        """
        return self._cols

    @property
    def components(self) -> Tuple[Component, ...]:
        """The (weight, PointMass or UniformSegment) pairs, in order,
        built from the columns on each read."""
        return tuple(
            (w, PointMass(lo) if lo == hi else UniformSegment(lo, hi)) for w, lo, hi in zip(*self._cols)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal columns are equal components: an atom is low == high
        return self._cols == other._cols

    def __hash__(self) -> int:
        # a frozen dataclass hashes the tuple of its fields, so (lo,) and
        # (lo, hi) hash as the PointMass and UniformSegment would
        return hash((tuple((w, (lo,) if lo == hi else (lo, hi)) for w, lo, hi in zip(*self._cols)),))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(components={self.components!r})"

    # -- pointwise statistics ------------------------------------------

    def cdf(self, y: float) -> float:
        """Pr(Y <= y)."""
        return column_cdf(self._cols, y)

    def atom_mass_at(self, y: float) -> float:
        """Probability carried by atoms exactly at y."""
        return column_atom_mass_at(self._cols, y)

    def tail_mass(self, v: float) -> float:
        """Pr(Y > v)."""
        return column_tail_mass(self._cols, v)

    def tail_sum(self, v: float) -> float:
        """E[Y * 1{Y > v}]."""
        return column_tail_sum(self._cols, v)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        comps = [{"w": w, "point": lo} if lo == hi else {"w": w, "uniform": [lo, hi]} for w, lo, hi in zip(*self._cols)]
        return {"components": comps}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MixedDistribution":
        """The law of a {'components': [...]} object.  Each entry is
        checked in order, as `PointMass` or `UniformSegment` would check
        its outcome, and then the weights as the constructor checks them.
        """
        if not isinstance(data, dict) or "components" not in data:
            raise ValidationError("distribution JSON must be {'components': [...]}")
        raw = data["components"]
        if not isinstance(raw, list):
            raise ValidationError("'components' must be a list")
        weights, lows, highs, atoms = [], [], [], True
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "w" not in entry:
                raise ValidationError(f"component {i} must be an object with a 'w' key")
            weights.append(json_number(entry["w"], f"component {i}: 'w'"))
            if "point" in entry:
                lo = hi = check_atom(json_number(entry["point"], f"component {i}: 'point'"))
            elif "uniform" in entry:
                bounds = entry["uniform"]
                if not (isinstance(bounds, list) and len(bounds) == 2):
                    raise ValidationError(
                        f"component {i}: 'uniform' must be a [lo, hi] pair"
                    )
                lo, hi = (json_number(b, f"component {i}: 'uniform'") for b in bounds)
                check_segment(lo, hi)
                atoms = False
            else:
                raise ValidationError(
                    f"component {i} needs either a 'point' or a 'uniform' key"
                )
            lows.append(lo)
            highs.append(hi)
        check_weights(weights)
        return cls._from_columns((weights, lows, lows if atoms else highs))


def essential_sup(dist: MixedDistribution) -> float:
    """Largest value carried with positive probability."""
    return column_sup(dist.columns())


def essential_inf(dist: MixedDistribution) -> float:
    """Smallest value carried with positive probability."""
    return column_inf(dist.columns())


# ---------------------------------------------------------------------------
# statistics on columns
# ---------------------------------------------------------------------------
#
# Each statistic is implemented once, on the (weights, lows, highs) columns
# of a law, an atom having low == high.  A law reaches them through
# MixedDistribution.columns(); a caller that has only atoms passes one
# values list as both lows and highs.  Sums run in component order.


def midpoint(lo: float, hi: float) -> float:
    """0.5 * (lo + hi); where the sum overflows, 0.5 * lo + 0.5 * hi, so
    the midpoint of finite ends is finite."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


def segment_width(lo: float, hi: float) -> float:
    """hi - lo for a segment; one wider than the floating range has no
    density to take, and raises `EvaluationOverflowError` naming it."""
    if hi - lo < math.inf:
        return hi - lo
    raise EvaluationOverflowError(f"segment {UniformSegment(lo, hi)!r} is wider than the floating range")


def column_cdf(cols: Columns, y: float) -> float:
    """Pr(Y <= y).  A segment's share is clamped at its weight, which the
    rounded quotient can pass by an ulp just below its top, so the CDF
    never decreases in y."""
    total = 0.0
    for w, lo, hi in zip(*cols):
        if y >= hi:
            total += w
        elif y > lo:
            total += min(w * (y - lo) / segment_width(lo, hi), w)
    return total


def column_atom_mass_at(cols: Columns, y: float) -> float:
    """Probability carried by atoms exactly at y."""
    return math.fsum(w for w, lo, hi in zip(*cols) if lo == hi == y)


def column_tail_mass(cols: Columns, v: float) -> float:
    """Pr(Y > v), a segment's share clamped at its weight as in
    `column_cdf`, so it never increases in v."""
    total = 0.0
    for w, lo, hi in zip(*cols):
        if lo == hi:
            if lo > v:
                total += w
        elif v <= lo:
            total += w
        elif v < hi:
            total += min(w * (hi - v) / segment_width(lo, hi), w)
    return total


def column_tail_sum(cols: Columns, v: float) -> float:
    """E[Y * 1{Y > v}]."""
    parts = []
    for w, lo, hi in zip(*cols):
        if lo == hi:
            if lo > v:
                parts.append(w * lo)
        elif v <= lo:
            parts.append(w * midpoint(lo, hi))
        elif v < hi:
            # mass above v times the conditional mean of the clipped piece
            parts.append(w * (hi - v) / segment_width(lo, hi) * midpoint(v, hi))
    return checked_fsum(parts, "tail expectation")


def column_sup(cols: Columns) -> float:
    """Largest value carried with positive probability."""
    weights, _, highs = cols
    return max((hi for w, hi in zip(weights, highs) if w > 0.0), default=-math.inf)


def column_inf(cols: Columns) -> float:
    """Smallest value carried with positive probability."""
    weights, lows, _ = cols
    return min((lo for w, lo in zip(weights, lows) if w > 0.0), default=math.inf)


def affine_transform(dist: MixedDistribution, a: float, b: float) -> MixedDistribution:
    """Distribution of a*Y + b for a > 0; weights are unchanged, and the
    law keeps its columns."""
    if not (math.isfinite(json_number(a, "affine scale")) and math.isfinite(json_number(b, "affine shift"))):
        raise ValidationError("affine coefficients must be finite")
    if a <= 0.0:
        raise ValidationError(f"affine scale must be positive, got {a!r}")
    weights, lows, highs = dist.columns()
    moved_lows = [a * lo + b for lo in lows]
    moved_highs = moved_lows if highs is lows else [a * hi + b for hi in highs]
    check_moved(lows, highs, moved_lows, moved_highs)
    return MixedDistribution._from_columns((weights, moved_lows, moved_highs))


def check_atom(value: float) -> float:
    """value, unless it is not finite, which `PointMass` rejects."""
    if not math.isfinite(value):
        raise ValidationError("PointMass value must be finite")
    return value


def check_segment(lo: float, hi: float) -> None:
    """Raise what `UniformSegment` raises unless lo < hi, both finite."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("UniformSegment endpoints must be finite")
    if not lo < hi:
        raise ValidationError(
            "UniformSegment requires lo < hi; use PointMass for a single value"
        )


def check_weight(w: float) -> None:
    """Raise unless a component weight is finite and >= 0."""
    if not math.isfinite(w) or w < 0.0:
        raise ValidationError(f"component weight {w!r} must be finite and >= 0")


def check_weights(weights: List[float]) -> None:
    """Raise what `MixedDistribution` raises on these weights: none at
    all, then the first that `check_weight` rejects, then a sum off one."""
    if not weights:
        raise ValidationError("distribution needs at least one component")
    # a sum is finite only if every term is
    if not (math.isfinite(sum(weights)) and min(weights) >= 0.0):
        for w in weights:
            check_weight(w)
    check_sums_to_one(weights, "component weights")


def check_moved(
    lows: Sequence[float], highs: Sequence[float], moved_lows: List[float], moved_highs: List[float]
) -> None:
    """Raise what `PointMass` or `UniformSegment` would raise on the first
    component, in order, that is no longer valid once moved from (lows,
    highs) to (moved_lows, moved_highs): an atom (low == high) whose value
    left the finite floats, or a segment whose ends did or met.
    """
    for lo, hi, moved_lo, moved_hi in zip(lows, highs, moved_lows, moved_highs):
        if lo != hi:
            check_segment(moved_lo, moved_hi)
        else:
            check_atom(moved_lo)


def merge_atoms(dist: MixedDistribution) -> MixedDistribution:
    """Combine atoms whose values agree within MERGE_TOL (and identical
    segments).

    The merged atom sits at the weight-averaged value of its group, so the
    mean is preserved exactly.  Output order is deterministic: atoms sorted
    by value, then segments sorted by endpoints.  The law keeps its
    columns (see `merge_columns`).
    """
    atoms: List[Tuple[float, float]] = []
    segments: List[Tuple[float, float, float]] = []
    for w, lo, hi in zip(*dist.columns()):
        if lo == hi:
            atoms.append((lo, w))
        else:
            segments.append((lo, hi, w))
    return MixedDistribution._from_columns(merge_columns(atoms, segments))


def merge_columns(
    atoms: List[Tuple[float, float]], segments: List[Tuple[float, float, float]]
) -> Columns:
    """The columns of the merged law of (value, weight) atoms and (lo, hi,
    weight) segments, as `merge_atoms` describes it; sorts both lists in
    place.

    It checks what a law checks: each merged value finite, as `PointMass`
    would, then each weight finite and >= 0, then the weights summing to
    one.  The segments are taken as valid.
    """
    atoms.sort(key=itemgetter(0))
    values = [v for v, _ in atoms]
    if min(map(sub, values[1:], values), default=math.inf) > MERGE_TOL:
        # no two atoms within MERGE_TOL: each is a group of one, taken as
        # the loop below takes it
        weights = [w + 0.0 for _, w in atoms]
        lows = [(v * w + 0.0) / w if w > 0.0 else v for v, w in atoms]
        if not math.isfinite(sum(lows)):  # a sum is finite only if every term is
            lows = [value if math.isfinite(value) else check_atom(v) for v, value in zip(values, lows)]
    else:
        groups: List[List[Tuple[float, float]]] = []
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
                # the fsum of one term is that term, except that -0.0 becomes
                # 0.0, as it does when 0.0 is added
                weight = w + 0.0
                value = (first * w + 0.0) / weight if weight > 0.0 else first
            else:
                weight = math.fsum([w for _, w in group])
                total = checked_fsum([v * w for v, w in group], "merged atom at {!r}", first)
                value = total / weight if weight > 0.0 else first
            if not math.isfinite(value):
                # a lone atom's first * w overflows at the float limit under a
                # weight a little above one, as the weight check allows; the
                # atom is its own mean
                value = check_atom(first if len(group) == 1 else value)
            weights.append(weight)
            lows.append(value)
    count = len(lows)
    # a law of atoms keeps one list as its lows and its highs
    highs = lows[:] if segments else lows
    segments.sort(key=itemgetter(0))
    seg_lows = [lo for lo, _, _ in segments]
    if min(map(sub, seg_lows[1:], seg_lows), default=math.inf) > MERGE_TOL:
        # lows more than MERGE_TOL apart: in order by low is in order, and
        # no segment joins the one before it
        weights += [w for _, _, w in segments]
        lows += seg_lows
        highs += [hi for _, hi, _ in segments]
    else:
        segments.sort()
        for lo, hi, w in segments:
            # a segment joins the run of the last one kept, if there is one
            if (
                len(lows) > count
                and abs(lo - lows[-1]) <= MERGE_TOL
                and abs(hi - highs[-1]) <= MERGE_TOL
            ):
                weights[-1] += w
            else:
                weights.append(w)
                lows.append(lo)
                highs.append(hi)
    check_weights(weights)
    return weights, lows, highs
