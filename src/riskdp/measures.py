"""Risk measures and disutility objectives, evaluated exactly.

The measures are declarative values (small frozen dataclasses) dispatched
by :func:`evaluate`, so stage-indexed recursions and solvers can carry
them around as data.  All evaluation is closed-form on mixed
discrete/uniform distributions, the piecewise-linear disutility
push-forward included: its integrand is linear between knots, so the
trapezoid rule on each knot interval is exact.

Each leaf functional kind is named once, in the :data:`LEAF_KINDS` table
that labels, the JSON form and the CLI flags all read.  Each measure is
implemented once, as a kernel on the columns of a law (weights, lows,
highs; see :data:`distributions.Columns`).  One dispatcher, ``_kernel``,
maps a checked functional to its kernel, a composite to its leaves'
kernels picked once.  A kernel is reached through one of two doors, and
each returns a law of one atom as that atom, since every functional here
maps a constant to itself.  ``_on_law`` is the door for a built law: it
hands any other law's stored columns to the kernel, and :func:`evaluate`,
:func:`mean`, :func:`erm`, :func:`value_at_risk` and :func:`cte` return
through it after their own checks; the flat route of a tree (`tree.rmd`)
is :func:`evaluate` on the law of its discounted total.  ``_on_atoms``
is the door for the atoms of a one-step law that is never built: it
checks that they are finite, as ``PointMass`` does.  The MDP solver and
the tree recursion pick a kernel once per stage functional and hand it
each cell or node law of atoms there.  A law of atoms comes as columns
whose lows are their highs, and on it the entropic kernel takes gamma *
v as each atom's log-moment; it leaves zero weights out only where some
weight is not positive, which in an MDP cell none is.

The lower quantile decides CDF(y) >= alpha exactly, so its value depends
only on the law, never on the order of its components, and every law
takes the same route (Shewchuk's adaptive design: a float filter, and
exact arithmetic only where it cannot decide).  A law of atoms sorts its
atoms once (`_breaks`); their running sum locates the first atom whose
weights reach alpha and decides it where the sum clears alpha by more
than its rounding bound, and otherwise the sign of an fsum does
(`_atom_walk`).  A law with segments sorts its events; a running CDF
from the top locates a candidate break (`_locate`), and one pass takes
the CDF at it and at the break below as fsums of their terms
(`_gaps`), in `Fraction`s where a rounded segment share could flip a
sign (`_exact_gap`).  A crossing inside a segment's rise is inverted
linearly.  A zero quantile is +0.0 where some break at zero is, and
-0.0 where all are.  The tail expectation takes its tail mass and parts
by fsum and keeps a rounded value between the quantile and the top of
the law; one kernel, `_ctes`, reads a law once for any number of
levels, as the fig1 sweep needs at the installment tree's root, and
`_cte` is that kernel at one level.

Each disutility is taken by one route too.  ``_disutility`` picks its
kind once per call: the name its overflow messages use, and its value at
a cost and its mean on a segment, both bound to its parameter and
checking nothing.  :func:`pushforward_mean` takes every term that way
and, only where their sum is not finite or taking them raises, takes
them again through ``_checked_disutility``, so the first faulty
component raises; :func:`apply_disutility` is that checked helper on one
cost.

The kernels stay in the floating range where the true value does: a
midpoint whose sum overflows is taken as half of each end.  A value
whose exact sum or whose disutility leaves the range raises
`EvaluationOverflowError`, and so does a statistic that needs the
density of a segment wider than the range.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, mul, sub
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .distributions import (
    Columns,
    MixedDistribution,
    UniformSegment,
    check_sums_to_one,
    checked_fsum,
    column_inf,
    column_sup,
    json_number,
    midpoint,
    read_pairs,
    segment_width,
)
from .errors import EvaluationOverflowError, ValidationError

EPS = sys.float_info.epsilon


def _check_alpha(alpha: float) -> float:
    alpha = json_number(alpha, "tail level")
    if not math.isfinite(alpha) or not 0.0 <= alpha < 1.0:
        raise ValidationError(f"tail level must lie in [0, 1), got {alpha!r}")
    return alpha


def _check_discount(lam: float, *, positive: bool = False) -> float:
    """A discount factor in [0, 1], or in (0, 1] when positive is set."""
    lam = json_number(lam, "discount factor")
    if not math.isfinite(lam) or not (0.0 < lam if positive else 0.0 <= lam) or lam > 1.0:
        interval = "(0, 1]" if positive else "[0, 1]"
        raise ValidationError(f"discount factor must lie in {interval}, got {lam!r}")
    return lam


def _is_int(x: Any) -> bool:
    """An int that is not a bool, so a JSON true is not read as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_horizon(horizon: Any) -> int:
    if not _is_int(horizon) or horizon < 1:
        raise ValidationError("horizon must be an integer >= 1")
    return horizon


# ---------------------------------------------------------------------------
# risk functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expectation:
    """Plain expectation."""


@dataclass(frozen=True)
class Erm:
    """Entropic risk measure (1/gamma) ln E[exp(gamma Y)].

    gamma may take any sign; gamma = 0 means expectation by continuity.
    """

    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", json_number(self.gamma, "Erm gamma"))
        if not math.isfinite(self.gamma):
            raise ValidationError("Erm gamma must be finite")


@dataclass(frozen=True)
class ValueAtRisk:
    """Lower quantile min{y : Pr(Y <= y) >= alpha}."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))


@dataclass(frozen=True)
class Cte:
    """Conditional tail expectation at level alpha (atom-aware)."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))


@dataclass(frozen=True)
class Composite:
    """Convex combination of risk functionals.

    Coefficients are nonnegative and sum to one, so constants map to
    themselves and monotonicity of the parts is preserved.
    """

    terms: Tuple[Tuple[float, "RiskFunctional"], ...]

    def __post_init__(self) -> None:
        terms = read_pairs(self.terms, "Composite terms", "(coefficient, functional)")
        terms = tuple((json_number(c, "Composite coefficient"), rf) for c, rf in terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValidationError("Composite needs at least one term")
        for c, rf in terms:
            if not math.isfinite(c) or c < 0.0:
                raise ValidationError(f"Composite coefficient {c!r} must be >= 0")
            if not isinstance(rf, RF_CLASSES):
                raise ValidationError(f"Composite term {rf!r} is not a risk functional")
        check_sums_to_one((c for c, _ in terms), "Composite coefficients")


RiskFunctional = Union[Expectation, Erm, ValueAtRisk, Cte, Composite]

# Every leaf functional kind: its JSON kind (also its label and CLI flag)
# maps to its class and the name of that class's one parameter, if any.
LEAF_KINDS: Dict[str, Tuple[type, Optional[str]]] = {
    "mean": (Expectation, None),
    "erm": (Erm, "gamma"),
    "var": (ValueAtRisk, "alpha"),
    "cte": (Cte, "alpha"),
}
RF_CLASSES = (*(cls for cls, _ in LEAF_KINDS.values()), Composite)


def fold_functional(rf: RiskFunctional, visit: Callable[..., Any]) -> Any:
    """visit(f, terms) for rf and every functional nested in it, where terms
    pairs each coefficient of a composite f with visit's result for that
    term (empty for any other f); returns visit's result for rf.  Reversed
    pre-order off an explicit stack visits terms first, left to right, and
    bounds the nesting depth by memory only.
    """
    order, stack = [], [rf]
    while stack:
        f = stack.pop()
        order.append(f)
        if isinstance(f, Composite):
            stack.extend(term for _, term in f.terms)
    results: Dict[int, Any] = {}
    for f in reversed(order):
        terms = f.terms if isinstance(f, Composite) else ()
        results[id(f)] = visit(f, [(c, results[id(term)]) for c, term in terms])
    return results[id(rf)]


def _leaf_kind(f: RiskFunctional) -> Tuple[str, Optional[str]]:
    """The JSON kind and parameter name of a leaf functional."""
    for kind, (cls, param) in LEAF_KINDS.items():
        if isinstance(f, cls):
            return kind, param
    raise ValidationError(f"unknown risk functional {f!r}")


def rf_label(rf: RiskFunctional) -> str:
    """Short human-readable tag, used in reports and CLI output."""

    def label(f: RiskFunctional, terms: List[Tuple[float, str]]) -> str:
        if isinstance(f, Composite):
            inner = " + ".join(f"{c:g}*{t}" for c, t in terms)
            return f"composite({inner})"
        kind, param = _leaf_kind(f)
        return kind if param is None else f"{kind}({getattr(f, param):g})"

    return fold_functional(rf, label)


def rf_to_json_dict(rf: RiskFunctional) -> dict:
    def to_json(f: RiskFunctional, terms: List[Tuple[float, dict]]) -> dict:
        if isinstance(f, Composite):
            return {"kind": "composite", "terms": [{"w": c, "rf": t} for c, t in terms]}
        kind, param = _leaf_kind(f)
        return {"kind": kind} if param is None else {"kind": kind, param: getattr(f, param)}

    return fold_functional(rf, to_json)


def rf_from_json_dict(data: dict) -> RiskFunctional:
    # the JSON objects in pre-order, shapes checked on the way down, then
    # built in reverse, so every composite finds its terms built
    order, stack = [], [data]
    while stack:
        obj = stack.pop()
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("risk functional JSON must be an object with a 'kind'")
        order.append(obj)
        if obj["kind"] != "composite":
            continue
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ValidationError("'composite' needs a nonempty 'terms' list")
        for entry in terms:
            if not isinstance(entry, dict) or "w" not in entry or "rf" not in entry:
                raise ValidationError("composite terms must be {'w':, 'rf':} objects")
            stack.append(entry["rf"])
    built: Dict[int, RiskFunctional] = {}
    for obj in reversed(order):
        kind = obj["kind"]
        if kind == "composite":
            terms = [
                (json_number(e["w"], "composite term 'w'"), built[id(e["rf"])])
                for e in obj["terms"]
            ]
            rf = Composite(tuple(terms))
        elif isinstance(kind, str) and kind in LEAF_KINDS:
            cls, param = LEAF_KINDS[kind]
            if param is None:
                rf = cls()
            elif param not in obj:
                article = "an" if param[0] in "aeiou" else "a"
                raise ValidationError(f"'{kind}' needs {article} '{param}'")
            else:
                rf = cls(json_number(obj[param], f"'{param}'"))
        else:
            raise ValidationError(f"unknown risk functional kind {kind!r}")
        built[id(obj)] = rf
    return built[id(data)]


# ---------------------------------------------------------------------------
# scalar measures
# ---------------------------------------------------------------------------


def mean(dist: MixedDistribution) -> float:
    """Expected value."""
    return _on_law(_mean, dist)


def _mean(cols: Columns) -> float:
    weights, lows, highs = cols
    if lows is highs:  # only atoms: the same products, taken faster
        return checked_fsum(map(mul, weights, lows), "mean")
    return checked_fsum((w * (lo if lo == hi else midpoint(lo, hi)) for w, lo, hi in zip(*cols)), "mean")


def _log_mgf(lo: float, hi: float, gamma: float) -> float:
    """ln E[exp(gamma Y)] for a single mixture component."""
    if lo == hi:
        return gamma * lo
    z = gamma * segment_width(lo, hi)
    # keep everything in the log domain so wide segments cannot overflow
    if z > 700.0:
        return gamma * hi + math.log1p(-math.exp(-z)) - math.log(z)
    if z < -700.0:
        return gamma * lo + math.log1p(-math.exp(z)) - math.log(-z)
    if abs(z) < 1e-12:
        return gamma * midpoint(lo, hi)
    return gamma * lo + math.log(math.expm1(z) / z)


def erm(gamma: float, dist: MixedDistribution) -> float:
    """Entropic risk measure; gamma = 0 returns the mean by continuity.

    The log-sum is max-shifted, so only a result outside the floating
    range raises, never an intermediate exponential.
    """
    gamma = json_number(gamma, "gamma")
    if not math.isfinite(gamma):
        raise ValidationError("gamma must be finite")
    return _on_law(partial(_erm, gamma), dist)


def _erm(gamma: float, cols: Columns) -> float:
    """The entropic value on columns.  Components of weight zero are left
    out, and the filter runs only where some weight is not positive:
    never on an MDP cell, whose outcomes of probability zero the plan
    drops.  The sum is taken relative to the total weight, which a law
    lets lie within 1e-12 of one (`_log_share`)."""
    if gamma == 0.0:
        return _mean(cols)
    weights, lows, highs = cols
    if not min(weights) > 0.0:
        keep = [w > 0.0 for w in weights]
        weights, lows = list(compress(weights, keep)), list(compress(lows, keep))
        highs = lows if cols[1] is cols[2] else list(compress(highs, keep))
    if lows is highs:  # only atoms, where `_log_mgf(v, v, gamma)` is gamma * v
        terms = [gamma * v for v in lows]
    else:
        terms = [_log_mgf(lo, hi, gamma) for lo, hi in zip(lows, highs)]
    shift = max(terms)
    if not math.isfinite(shift):
        return _erm_from_end(gamma, cols)
    total = math.fsum(map(mul, weights, map(math.exp, map(sub, terms, repeat(shift)))))
    value = (shift + _log_share(total, weights)) / gamma
    if not math.isfinite(value):
        return _erm_from_end(gamma, cols)
    return value


def _log_share(total: float, weights: Sequence[float]) -> float:
    """ln(total / the fsum of the weights), as ln total less ln of that
    sum; ln total alone where the sum is exactly one.  Unnormalised, ln of
    a total weight off one by 1e-12, divided by a small gamma, would move
    the entropic value out of the law's range."""
    mass = math.fsum(weights)
    return math.log(total) if mass == 1.0 else math.log(total) - math.log(mass)


def _erm_from_end(gamma: float, cols: Columns) -> float:
    """`_erm` where gamma times a value leaves the floating range.

    The entropic value lies between the mean and the end e of the law
    that gamma weighs most (its sup for gamma > 0, its inf for
    gamma < 0), so it is taken as e + ln E[exp(gamma (Y - e))] / gamma,
    in which no exponent is positive: a term that leaves the range
    contributes exactly 0.  A segment's term is gamma (near end - e)
    + ln(1 - exp(-z)) - ln z with z = |gamma| (hi - lo), and ln z is
    summed from logs so that it stays finite where z does not.  Only a
    value that is itself outside the floating range raises.
    """
    end = column_sup(cols) if gamma > 0.0 else column_inf(cols)
    log_gamma = math.log(abs(gamma))
    terms = []
    weights = []
    for w, lo, hi in zip(*cols):
        if w <= 0.0:
            continue
        t = gamma * ((hi if gamma > 0.0 else lo) - end)
        z = abs(gamma) * (hi - lo)  # the width is finite: _erm took it
        if z > 0.0:
            t += math.log(-math.expm1(-z)) - log_gamma - math.log(hi - lo)
        terms.append(t)
        weights.append(w)
    # the term at the end is finite
    shift = max(terms)
    total = math.fsum(w * math.exp(t - shift) for w, t in zip(weights, terms))
    value = end + (shift + _log_share(total, weights)) / gamma
    if not math.isfinite(value):
        raise EvaluationOverflowError(
            f"entropic evaluation overflowed at gamma={gamma!r}"
        )
    return value


def value_at_risk(alpha: float, dist: MixedDistribution) -> float:
    """Smallest y with CDF(y) >= alpha, decided exactly."""
    return _on_law(partial(_value_at_risk, _check_alpha(alpha)), dist)


def _value_at_risk(alpha: float, cols: Columns) -> float:
    breaks = _breaks(cols, alpha)
    if cols[1] is not cols[2]:
        return _segment_quantile(alpha, cols, breaks, False)[0]
    keys, masses, levels, bound, zero = breaks
    k = bisect_left(levels, alpha, 0, len(keys) - 1)
    if not (levels[k] - alpha > bound and (not k or alpha - levels[k - 1] > bound)):
        k = _atom_walk(alpha, masses, k)
    return keys[k] or zero  # a zero break takes the law's zero


# a law read once for any number of levels: of a law of atoms, its
# positive-weight atoms sorted by value, their weights, the running sum of
# those, a bound on its rounding and the law's zero; of any other law, the
# events (value, atom mass, change of the CDF's slope) of its
# positive-weight components sorted by value
Breaks = Union[Tuple[Sequence[float], Sequence[float], List[float], float, float], List[Tuple[float, float, float]]]
# Pr(Y > v) and E[Y; Y > v] at a quantile v
Tail = Tuple[float, float]


def _breaks(cols: Columns, alpha: float) -> Breaks:
    """The law read for levels up to alpha.  A running sum of n
    nonnegative weights is off their exact sum by at most n - 1 units in
    its last place, within the bound 4 n eps times the sum.  The zero of
    a law of atoms is +0.0 where some atom at zero is, as a sum of signed
    zeros is, and -0.0 where all are.  A positive-weight segment wider
    than the range has no density to take and raises, the least such
    segment whatever the order of the components, unless alpha is 0,
    whose quantile is the least break.
    """
    weights, lows, highs = cols
    if lows is highs:
        if 0.0 in weights:  # a zero weight makes no break
            lows, weights = list(compress(lows, weights)), list(compress(weights, weights))
        order = sorted(range(len(lows)), key=lows.__getitem__)
        # an itemgetter of one index gives the item itself
        get = itemgetter(*order) if len(order) > 1 else lambda column: (column[0],)
        keys, masses = get(lows), get(weights)
        levels = list(accumulate(masses))
        zeros = keys[bisect_left(keys, 0.0):bisect_right(keys, 0.0)] if keys[0] <= 0.0 <= keys[-1] else None
        zero = max(zeros, key=partial(math.copysign, 1.0)) if zeros else 0.0
        return keys, masses, levels, 4.0 * len(keys) * EPS * levels[-1], zero
    events = []
    for w, lo, hi in zip(*cols):
        if w > 0.0 and lo == hi:
            events.append((lo, w, 0.0))
        elif w > 0.0:
            rate = w / (hi - lo)
            if not rate and alpha:  # the least segment wider than the range raises
                wide = ((x, z) for v, x, z in zip(*cols) if v > 0.0 and z - x == math.inf)
                segment_width(*min(wide, default=(lo, hi)))
            events += ((lo, 0.0, rate), (hi, 0.0, -rate))
    events.sort(key=itemgetter(0))
    return events


def _atom_walk(alpha: float, masses: Sequence[float], k: int) -> int:
    """The index of the first atom whose weight, with those before it,
    reaches alpha, or the last, from a candidate k that the running sum
    could not decide: it moves by the sign of the fsum of the weights
    less alpha."""
    while k + 1 < len(masses) and math.fsum(chain(masses[:k + 1], (-alpha,))) < 0.0:
        k += 1
    while k and math.fsum(chain(masses[:k], (-alpha,))) >= 0.0:
        k -= 1
    return k


def _segment_quantile(
    alpha: float, cols: Columns, events: List[Tuple[float, float, float]], tails: bool
) -> Tuple[float, Optional[Tail]]:
    """The lower quantile of a law with segments, with its tail where
    tails is set.  A running CDF locates a candidate break y and the
    break below it, prev (`_locate`); y steps up while CDF(y) falls
    short of alpha and down while CDF(prev) reaches it, each decided
    exactly (`_gaps`).  Where Pr(Y < y) also reaches alpha, the CDF
    rises linearly from prev to y, which only segments bring about, and
    the quantile v is found on that rise by the share of it that alpha
    takes: on halves where the slope is subnormal, so a gap past the
    floating range stays finite.  The tail above v is what the pass
    found above y, the atoms at y where v lies below y, and the share
    above v of each segment open on (prev, y), with its mean.  A zero
    break is +0.0 where some event there is, -0.0 where all are.
    """
    y, prev = _locate(alpha, cols, events) if alpha else (events[0][0], -math.inf)
    low, left, reach, at_y, above = _gaps(alpha, cols, prev, y, tails)
    while reach < 0.0 and y < events[-1][0] or low >= 0.0 and prev > -math.inf:
        if reach < 0.0 and y < events[-1][0]:
            y, prev = min(e[0] for e in events if e[0] > y), y
        else:
            y, prev = prev, max((e[0] for e in events if e[0] < prev), default=-math.inf)
        low, left, reach, at_y, above = _gaps(alpha, cols, prev, y, tails)
    slope = (left - low) / (y - prev)  # 0 where prev is -inf
    if prev == -math.inf or left < 0.0:
        v = y or max((e[0] for e in events if e[0] == 0.0), key=partial(math.copysign, 1.0))
    elif slope >= sys.float_info.min:
        v = prev - low / slope
    else:
        v = 2.0 * (0.5 * prev - low / (left - low) * (0.5 * y - 0.5 * prev))
    if not tails:
        return v, None
    masses, parts, across = above
    for w, lo, hi in across:
        if hi > v:  # a segment's share above v and its mean
            q = w * (hi - v) / (hi - lo)
            masses.append(min(q, w))
            parts.append(q * midpoint(v, hi))
    if v < y:
        masses += at_y
        parts += [w * y for w in at_y]
    return v, (math.fsum(masses), checked_fsum(parts, "tail expectation"))


def _locate(alpha: float, cols: Columns, events: List[Tuple[float, float, float]]) -> Tuple[float, float]:
    """The first break y at which a running CDF over the sorted events
    reaches alpha, the greatest where none does, and the break below it
    (-inf for the least).  The sum runs from the top, as the mass above
    each break, and stops at the crossing, so the levels of the tail
    read few events; it only locates, so its rounding does not matter:
    `_segment_quantile` decides on the CDF itself."""
    above = pending = slope = 0.0  # the mass above b, the atom mass at b
    short = sum(cols[0]) - alpha  # the CDF at y falls short of alpha where above > short
    b = events[-1][0]
    for y, mass, rate in chain(reversed(events), [(-math.inf, 0.0, 0.0)]):
        if y != b:
            above += pending + slope * (b - y)
            if above > short or y == -math.inf:
                return b, y
            pending = 0.0
        b = y
        pending += mass
        slope -= rate
    return b, -math.inf


def _gaps(alpha: float, cols: Columns, prev: float, y: float, tails: bool) -> Tuple[Any, ...]:
    """For adjacent breaks prev < y, in one pass: CDF(prev), Pr(Y < y)
    and CDF(y), each less alpha, with the signs of the exact
    differences; the weights of the atoms at y; and, where tails is set,
    the masses of the components above y with their parts of E[Y; Y > y],
    and the positive-weight segments open on (prev, y).  Each difference
    is the fsum of its terms or, where a segment's rounded share (off by
    4 units in the last place at most, and by 2**-1074 more in the
    subnormal range) could flip a sign, all three taken in `Fraction`s
    in one more pass (`_exact_gap`)."""
    below, at_prev, at, at_y, above, parts, across = [-alpha], [], [], [], [], [], []
    for w, lo, hi in zip(*cols):
        if hi <= prev:
            below.append(w)
        elif lo == hi:
            if lo == y:
                at_y.append(w)
            elif tails:
                above.append(w)
                parts.append(w * lo)
        elif w > 0.0:
            if lo < y:
                at.append(w if hi <= y else w * ((y - lo) / (hi - lo)))
                if lo < prev:
                    at_prev.append(w * ((prev - lo) / (hi - lo)))
                if tails:
                    across.append((w, lo, hi))
            elif tails:
                above.append(w)
                parts.append(w * midpoint(lo, hi))
    low, left = math.fsum(below + at_prev), math.fsum(below + at)
    reach = math.fsum(below + at + at_y) if at_y else left
    bound = 1e-15 * (left + alpha) + 1e-300  # past 4 eps times the shares, and their subnormal dust
    if abs(low) <= bound or abs(left) <= bound or abs(reach) <= bound:
        low, left, reach = _exact_gap(alpha, cols, prev, y)
    return low, left, reach, at_y, (above, parts, across)


def _exact_gap(alpha: float, cols: Columns, prev: float, y: float) -> List[float]:
    """CDF(prev), Pr(Y < y) and CDF(y), each less alpha, for prev < y, in
    `Fraction`s in one pass, each rounded to a float of its sign; a
    segment wider than the range across prev or y raises, as
    `segment_width` does."""
    below, low, left, reach = -Fraction(alpha), Fraction(0), Fraction(0), Fraction(0)
    for w, lo, hi in zip(*cols):
        if hi <= prev:
            below += Fraction(w)
        elif hi <= y:
            weight = Fraction(w)
            reach += weight
            if hi < y or lo < hi:  # all but an atom at y lie below y
                left += weight
            if lo < prev and w > 0.0:
                low += weight * (Fraction(prev) - Fraction(lo)) / Fraction(segment_width(lo, hi))
        elif lo < y and w > 0.0:  # a segment across y
            weight, width = Fraction(w), Fraction(segment_width(lo, hi))
            share = weight * (Fraction(y) - Fraction(lo)) / width
            left, reach = left + share, reach + share
            if lo < prev:
                low += weight * (Fraction(prev) - Fraction(lo)) / width
    exacts = (below + low, below + left, below + reach)
    return [float(exact) or math.copysign(5e-324, exact) if exact else 0.0 for exact in exacts]


def cte(alpha: float, dist: MixedDistribution) -> float:
    """Conditional tail expectation at level alpha.

    Atoms straddling the quantile are split between the tail average and
    the quantile itself; when no mass lies strictly above the quantile the
    value is the essential supremum.
    """
    return _on_law(partial(_cte, _check_alpha(alpha)), dist)


def _cte(alpha: float, cols: Columns) -> float:
    return _ctes((alpha,), cols)[0]


def _ctes(alphas: Sequence[float], cols: Columns) -> List[float]:
    """The tail expectation on columns at each checked level, the law read
    once: (E[Y; Y > v] + (1 - alpha - Pr(Y > v)) v) / (1 - alpha) at the
    lower quantile v, or v where no mass lies above it.  The exact value
    lies between v and the top break, so a rounded one is kept there,
    and a division that overflows gives the top.  On a law of atoms the
    tail is the fsum of the weights and of the parts of the atoms past
    v, summed when a level first ends at v, so a tail sum that overflows
    raises at the first level that reads it; on any other law it comes
    with the quantile (`_segment_quantile`).
    """
    breaks = _breaks(cols, max(alphas))
    atoms = cols[1] is cols[2]
    if atoms:
        keys, masses, levels, bound, zero = breaks
        last = len(keys) - 1
    top = breaks[0][-1] if atoms else breaks[-1][0]
    tails: Dict[int, Tail] = {}
    out = []
    for alpha in alphas:
        if not atoms:
            v, (tail_p, tail_sum) = _segment_quantile(alpha, cols, breaks, True)
        else:
            k = bisect_left(levels, alpha, 0, last)
            if not (levels[k] - alpha > bound and (not k or alpha - levels[k - 1] > bound)):
                k = _atom_walk(alpha, masses, k)
            v = keys[k] or zero
            if k not in tails:
                j = bisect_right(keys, v)
                tails[k] = math.fsum(masses[j:]), checked_fsum(map(mul, masses[j:], keys[j:]), "tail expectation")
            tail_p, tail_sum = tails[k]
        value = (tail_sum + (1.0 - tail_p - alpha) * v) / (1.0 - alpha)
        out.append(v if tail_p <= 0.0 else value if v <= value <= top else v if value < v else top)
    return out


def _cte_levels(alphas: Sequence[float], weights: Sequence[float], values: Sequence[float]) -> List[float]:
    """``[_on_atoms(_kernel(Cte(a)), weights, values) for a in alphas]``:
    `_ctes` on the atoms, checked as `_on_atoms` checks them, one atom
    giving itself at every level; for the fig1 sweep."""
    _check_atoms(values)
    return [values[0]] * len(alphas) if len(values) == 1 else _ctes(alphas, (weights, values, values))


def evaluate(rf: RiskFunctional, dist: MixedDistribution) -> float:
    """Dispatch a risk functional onto a distribution."""
    if not isinstance(rf, RF_CLASSES):
        raise ValidationError(f"unknown risk functional {rf!r}")
    return _on_law(_kernel(rf), dist)


# a checked functional's evaluation on the columns of a law
Kernel = Callable[[Columns], float]


def _on_law(kernel: Kernel, dist: MixedDistribution) -> float:
    """The kernel on a built law: a law of one atom is that atom, as every
    functional here maps a constant to itself, and any other law's stored
    columns go to the kernel."""
    _, lows, highs = cols = dist.columns()
    return lows[0] if len(lows) == 1 and lows[0] == highs[0] else kernel(cols)


def _check_atoms(values: Sequence[float]) -> None:
    # a sum is finite only when every term is
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValidationError("PointMass value must be finite")


def _on_atoms(kernel: Kernel, weights: Sequence[float], values: Sequence[float]) -> float:
    """The kernel on the law with an atom at each value, of the weight in
    the same position, never built: the values are checked as
    ``PointMass`` checks a float, the weights taken as a checked tree or
    MDP gives them, and one atom is that atom."""
    _check_atoms(values)
    return values[0] if len(values) == 1 else kernel((weights, values, values))


def _kernel(rf: RiskFunctional) -> Kernel:
    """The kernel of a checked functional on the columns of a law, each
    leaf's picked once.

    A composite runs its nodes in the order `fold_functional` visits
    them, each term's value just before the next, so its leaves are met
    in the same order and no nesting depth recurses.
    """
    if not isinstance(rf, Composite):
        return _leaf_kernel(rf)
    # each node: a composite's coefficients, or a leaf's (no terms) kernel
    program: List[Any] = []
    fold_functional(rf, lambda f, terms: program.append(tuple(c for c, _ in terms) or _leaf_kernel(f)))
    return partial(_run_composite, program)


def _leaf_kernel(f: RiskFunctional) -> Kernel:
    if isinstance(f, Expectation):
        return _mean
    if isinstance(f, Erm):
        return partial(_erm, f.gamma)
    if isinstance(f, ValueAtRisk):
        return partial(_value_at_risk, f.alpha)
    return partial(_cte, f.alpha)


def _run_composite(program: List[Any], cols: Columns) -> float:
    values: List[float] = []
    for step in program:
        if type(step) is tuple:  # the values of its terms are the last ones
            terms = values[-len(step):]
            del values[-len(step):]
            values.append(checked_fsum(map(mul, step, terms), "composite value"))
        else:
            values.append(step(cols))
    return values[0]


# ---------------------------------------------------------------------------
# disutility functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential disutility exp(gamma*c) - 1 with gamma > 0.

    The constant shift pins the zero cost to zero disutility; it cancels
    in any comparison between cost streams.
    """

    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", json_number(self.gamma, "Exponential gamma"))
        if not math.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ValidationError("Exponential disutility needs gamma > 0")


@dataclass(frozen=True)
class Linear:
    """Identity disutility."""


@dataclass(frozen=True)
class Power:
    """Power disutility c**k for k >= 1, defined on nonnegative costs."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", json_number(self.k, "Power k"))
        if not math.isfinite(self.k) or self.k < 1.0:
            raise ValidationError("Power disutility needs k >= 1")


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear disutility through strictly increasing knots.

    Knots are (cost, disutility) pairs; the curve is extended beyond the
    first and last knots with their boundary slopes, and must pass
    through (0, 0).
    """

    knots: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        knots = tuple(
            (json_number(c, "PiecewiseLinear knot cost"), json_number(u, "PiecewiseLinear knot value"))
            for c, u in read_pairs(self.knots, "PiecewiseLinear knots", "(cost, disutility)")
        )
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValidationError("PiecewiseLinear needs at least two knots")
        for (c0, u0), (c1, u1) in zip(knots, knots[1:]):
            if not c1 > c0:
                raise ValidationError("PiecewiseLinear knot costs must increase")
            if not u1 > u0:
                raise ValidationError("PiecewiseLinear knot values must increase")
        for c, u in knots:
            if not (math.isfinite(c) and math.isfinite(u)):
                raise ValidationError("PiecewiseLinear knots must be finite")
        if abs(_pwl_value(*_pwl_pieces(knots), 0.0)) > 1e-12:
            raise ValidationError("PiecewiseLinear must map cost 0 to disutility 0")


DisutilityFunction = Union[Exponential, Linear, Power, PiecewiseLinear]


def _pwl_pieces(knots: Tuple[Tuple[float, float], ...]) -> Tuple[List[float], List[Tuple[float, ...]]]:
    """A piecewise-linear curve read once: its knot costs, and for each
    count i of knots at or below a cost, the curve's piece there as
    (x0, y0, y1 - y0, x1 - x0): the knot interval that ends at knot i,
    the first and last intervals extended beyond the knots."""
    spans = [(x0, y0, y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(knots, knots[1:])]
    return [c for c, _ in knots], [spans[0], *spans, spans[-1]]


def _pwl_on(piece: Tuple[float, ...], c: float) -> float:
    x0, y0, rise, run = piece
    up = rise * (c - x0)
    # far out on an extended piece the product can overflow where the
    # slope times the run does not
    return y0 + up / run if math.isfinite(up) else y0 + rise / run * (c - x0)


def _pwl_value(costs: List[float], pieces: List[Tuple[float, ...]], c: float) -> float:
    return _pwl_on(pieces[bisect_right(costs, c)], c)


def _pwl_segment_mean(costs: List[float], pieces: List[Tuple[float, ...]], lo: float, hi: float) -> float:
    """E[u(Y)] for Y uniform on [lo, hi] under the curve of `_pwl_pieces`.
    The curve is linear between knots, so the trapezoid rule on each knot
    interval inside the segment is exact.  One bisection finds lo's
    piece; each knot inside is then taken in order on the piece it
    starts, which is the piece a bisection at it finds."""
    i = bisect_right(costs, lo)
    x, u = lo, _pwl_on(pieces[i], lo)
    terms = []
    while i < len(costs) and costs[i] < hi:
        i += 1
        c, u_c = costs[i - 1], _pwl_on(pieces[i], costs[i - 1])
        terms.append(0.5 * (c - x) * (u + u_c))
        x, u = c, u_c
    # a knot at hi starts the piece a bisection at hi finds
    terms.append(0.5 * (hi - x) * (u + _pwl_on(pieces[i + (i < len(costs) and costs[i] == hi)], hi)))
    return math.fsum(terms) / segment_width(lo, hi)


def _exponential_segment_mean(gamma: float, lo: float, hi: float) -> float:
    z = gamma * (hi - lo)
    if z == 0.0:
        # z underflowed; expm1(z) / z tends to one
        return math.expm1(gamma * (0.5 * (lo + hi)))
    return math.exp(gamma * lo) * math.expm1(z) / z - 1.0


# a negative cost to a power may be complex, with no exception, so these
# two refuse it
def _power_value(k: float, c: float) -> float:
    if c < 0.0:
        raise ValidationError("Power disutility is defined on costs >= 0")
    return c**k


def _power_segment_mean(k: float, lo: float, hi: float) -> float:
    if lo < 0.0:
        raise ValidationError("Power disutility is defined on costs >= 0")
    k1 = k + 1.0
    return (hi**k1 - lo**k1) / (k1 * (hi - lo))


# a checked disutility's name in overflow messages, its value at a cost,
# and its mean on a segment [lo, hi]
DisutilityKind = Tuple[str, Callable[[float], float], Callable[[float, float], float]]


def _disutility(u: DisutilityFunction) -> DisutilityKind:
    """The kind of a disutility, picked once, as `_kernel` picks a risk
    functional's: its value and segment mean are bound to its parameter
    and check nothing, except that Power's refuse a negative cost.  An
    unknown disutility raises."""
    if isinstance(u, Exponential):
        gamma = u.gamma
        return "exponential", lambda c: math.expm1(gamma * c), partial(_exponential_segment_mean, gamma)
    if isinstance(u, Power):
        return "power", partial(_power_value, u.k), partial(_power_segment_mean, u.k)
    if isinstance(u, PiecewiseLinear):
        costs, pieces = _pwl_pieces(u.knots)
        return "piecewise-linear", partial(_pwl_value, costs, pieces), partial(_pwl_segment_mean, costs, pieces)
    if isinstance(u, Linear):
        return "linear", lambda c: c, midpoint
    raise ValidationError(f"unknown disutility {u!r}")


def _checked_disutility(kind: DisutilityKind, lo: float, hi: float) -> float:
    """The disutility of the cost lo (lo == hi), or its mean on the
    segment [lo, hi]; a value that leaves the floating range raises
    `EvaluationOverflowError`."""
    name, value, segment_mean = kind
    try:
        result = value(lo) if lo == hi else segment_mean(lo, hi)
    except ValidationError:  # a cost outside the disutility's domain
        raise
    except (OverflowError, ValueError):  # out of range, or fsum's infinities of both signs
        result = math.inf
    if not math.isfinite(result):
        where = f"at cost {lo!r}" if lo == hi else f"on segment {UniformSegment(lo, hi)!r}"
        raise EvaluationOverflowError(f"{name} disutility overflowed {where}")
    return result


def apply_disutility(u: DisutilityFunction, c: float) -> float:
    """Evaluate the disutility at a single finite cost; a value that
    leaves the floating range raises `EvaluationOverflowError`."""
    kind = _disutility(u)
    c = json_number(c, "cost")
    if not math.isfinite(c):
        raise ValidationError(f"cost must be finite, got {c!r}")
    return _checked_disutility(kind, c, c)


def pushforward_mean(u: DisutilityFunction, dist: MixedDistribution) -> float:
    """E[u(Y)] for a mixed distribution, the disutility checked first.
    The terms are taken with no check of their own, and taken again
    checked only where one is not finite or taking them raises, so the
    first fault raises as it would."""
    kind = _disutility(u)
    _, value, segment_mean = kind
    cols = dist.columns()
    try:
        terms = [w * (value(lo) if lo == hi else segment_mean(lo, hi)) for w, lo, hi in zip(*cols)]
    except (OverflowError, ValueError):
        terms = [math.inf]
    if not math.isfinite(sum(terms)):  # a sum is finite only if every term is
        terms = [w * _checked_disutility(kind, lo, hi) for w, lo, hi in zip(*cols)]
    return checked_fsum(terms, "expected disutility")


def deu(
    u: DisutilityFunction,
    lam: float,
    marginals: Sequence[MixedDistribution],
) -> float:
    """Per-period expected disutility, discounted and summed.

    Only the per-period marginals matter here; dependence across periods
    is ignored by construction.
    """
    lam = _check_discount(lam)
    marginals = list(marginals)
    if not marginals:
        raise ValidationError("deu needs at least one per-period marginal")
    if not all(isinstance(dist, MixedDistribution) for dist in marginals):
        raise ValidationError("each per-period marginal must be a MixedDistribution")
    return math.fsum(
        lam**n * pushforward_mean(u, dist) for n, dist in enumerate(marginals)
    )
