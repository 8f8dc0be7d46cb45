"""An exact oracle for the quantile and tail-expectation kernels, for the
tests only; it shares no code with riskdp.

A law is a sequence of (weight, lo, hi) components, an atom where
lo == hi and a uniform segment on [lo, hi] otherwise.  Each float is read
as the rational it is (`fractions.Fraction`), so every comparison of the
CDF with a level is decided exactly and every result is the exact
rational.  Components of weight zero carry no mass and make no break.
The weights are taken as they are, so where they sum a little above or
below one, so does the CDF.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Law = List[Tuple[Fraction, Fraction, Fraction]]


def _exact(comps: Sequence[Tuple[float, float, float]]) -> Law:
    return [(Fraction(w), Fraction(lo), Fraction(hi)) for w, lo, hi in comps if w > 0.0]


def _cdf(law: Law, y: Fraction, strict: bool = False) -> Fraction:
    """Pr(Y <= y), or Pr(Y < y) where strict."""
    total = Fraction(0)
    for w, lo, hi in law:
        if lo == hi:
            if lo < y or (lo == y and not strict):
                total += w
        elif hi <= y:
            total += w
        elif lo < y:
            total += w * (y - lo) / (hi - lo)
    return total


def cdf(t: Fraction, comps: Sequence[Tuple[float, float, float]], strict: bool = False) -> Fraction:
    """Pr(Y <= t), or Pr(Y < t) where strict, at a rational t."""
    return _cdf(_exact(comps), Fraction(t), strict)


def quantile(alpha: float, comps: Sequence[Tuple[float, float, float]]) -> Fraction:
    """The lower quantile min{y : CDF(y) >= alpha}; at alpha = 0 the least
    break, and where alpha passes the total weight the greatest."""
    return _quantile(_exact(comps), Fraction(alpha))


def _quantile(law: Law, a: Fraction) -> Fraction:
    breaks = sorted({lo for _, lo, _ in law} | {hi for _, _, hi in law})
    # the first break whose CDF reaches a, by bisection: the CDF never decreases
    first, last = 0, len(breaks) - 1
    while first < last:
        mid = (first + last) // 2
        if _cdf(law, breaks[mid]) >= a:
            last = mid
        else:
            first = mid + 1
    b = breaks[first]
    left = _cdf(law, b, strict=True)
    if first == 0 or left < a or _cdf(law, b) < a:
        return b
    # the CDF rises linearly from the break below to b
    prev = breaks[first - 1]
    low = _cdf(law, prev)
    return prev + (a - low) * (b - prev) / (left - low)


def tail_expectation(alpha: float, comps: Sequence[Tuple[float, float, float]]) -> Fraction:
    """(E[Y; Y > v] + (1 - alpha - Pr(Y > v)) v) / (1 - alpha) at the lower
    quantile v, v itself where no mass lies above it, and never above the
    greatest break, which weights summing above one would pass."""
    law = _exact(comps)
    v = _quantile(law, Fraction(alpha))
    mass = total = Fraction(0)
    for w, lo, hi in law:
        if lo == hi:
            if lo > v:
                mass += w
                total += w * lo
        elif hi > v:
            start = max(lo, v)
            share = w * (hi - start) / (hi - lo)
            mass += share
            total += share * (start + hi) / 2
    if mass == 0:
        return v
    a = Fraction(alpha)
    return min((total + (1 - a - mass) * v) / (1 - a), max(hi for _, _, hi in law))
