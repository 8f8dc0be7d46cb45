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
each cell or node law of atoms there.  On every law the quantile
and tail-expectation kernels take one sort and one pass
(``_quantile_pass``): a law of atoms sorts its atoms, any other law the
breakpoints of its atoms and segments, and one pass in component order
checks the candidate on the CDF itself.  They leave to the walk
(``_quantile_walk``) only a level of 0, float dust, a subnormal slope
and a zero-weight segment wider than the range, with the bits and errors
of the walk either way.  A law of atoms comes as columns whose lows are
its highs, and on it the entropic kernel takes gamma * v as each atom's
log-moment; it leaves zero weights out only where some weight is not
positive, which in an MDP cell none is.  ``_cte_levels`` reads a law of
atoms at many tail levels: it takes one pass (``_scan``) per break of
the law and gives each level the bits of the tail-expectation kernel,
as the fig1 sweep needs at the installment tree's root.

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
    column_atom_mass_at,
    column_cdf,
    column_inf,
    column_sup,
    json_number,
    midpoint,
    read_pairs,
    segment_width,
)
from .errors import EvaluationOverflowError, ValidationError


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
    drops."""
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
    value = (shift + math.log(total)) / gamma
    if not math.isfinite(value):
        return _erm_from_end(gamma, cols)
    return value


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
    value = end + (shift + math.log(total)) / gamma
    if not math.isfinite(value):
        raise EvaluationOverflowError(
            f"entropic evaluation overflowed at gamma={gamma!r}"
        )
    return value


def value_at_risk(alpha: float, dist: MixedDistribution) -> float:
    """Smallest y with CDF(y) >= alpha, by one sorted sweep of the CDF."""
    return _on_law(partial(_value_at_risk, _check_alpha(alpha)), dist)


def _value_at_risk(alpha: float, cols: Columns) -> float:
    """The lower quantile on columns, by the one sort and one pass of
    `_quantile_pass`, and where that cannot decide by `_quantile_walk`;
    the same bits either way."""
    found = _quantile_pass(alpha, cols)
    return _quantile_walk(alpha, cols) if found is None else found[0]


def _quantile_pass(alpha: float, cols: Columns) -> Optional[Tuple[float, Any]]:
    """The lower quantile v of any law, with its tail as `_scan` takes it
    where v is a break (None where v lies inside a segment, whose tail
    the caller takes); None for a level of 0 and where the walk must
    decide.

    A sort locates a candidate break y, the one the walk ends at, and
    prev, the break below it: a law of atoms by the running mass of its
    atoms sorted by value, any other law by the running CDF of its
    events (`_locate`).  A zero takes the sign the walk keeps, that of
    its least event at zero, the first built of equal ones.  One pass
    in component order (`_scan`) then takes CDF(y) and CDF(prev) as
    ``column_cdf`` sums them, the atom mass at y and the tail at y.
    Those CDFs never decrease in y, the weights of a checked law being
    nonnegative and rounding monotone, so CDF(y) >= alpha > CDF(prev)
    means that y is the break the walk ends at.  There the walk returns
    y, or, where CDF(y) less the atom mass at y still reaches alpha,
    inverts the CDF's linear rise from prev with the same formula, which
    only a segment brings about.  Only a segment needs prev, and a law
    of atoms takes -inf for it, as the first break does.  Left to the
    walk are a level of 0, a subnormal slope, a zero-weight segment
    wider than the range (which can make the walk's scans raise) and
    what only float dust in the weights brings about: a candidate off
    the walk's break, a crossing past every break, and a rise to alpha
    below the first break or between atoms.
    """
    weights, lows, highs = cols
    if not alpha:
        return None
    if lows is highs:
        order = sorted(range(len(lows)), key=lows.__getitem__)
        # an itemgetter of one index gives the item itself; one weight is in order
        k = bisect_left(list(accumulate(itemgetter(*order)(weights) if len(order) > 1 else weights)), alpha)
        if k == len(order):
            return None
        y, prev, events = lows[order[k]], -math.inf, None
    else:
        found = _locate(alpha, cols)
        if found is None:
            return None
        y, prev, events = found
    if y == 0.0:  # a law of atoms has an event at each positive-weight atom
        y = min(e for e in events or ((v, w, 0.0) for w, v in zip(weights, lows) if w > 0.0) if e[0] == 0.0)[0]
    cdf, cdf_prev, at_y, tail = _scan(cols, y, prev)
    if not cdf >= alpha > cdf_prev:
        return None
    cdf_left = cdf - math.fsum(at_y)  # Pr(Y < y)
    if cdf_left < alpha:
        return y, tail
    slope = (cdf_left - cdf_prev) / (y - prev)  # 0 where prev is -inf
    return (prev + (alpha - cdf_prev) / slope, None) if slope >= sys.float_info.min else None


def _scan(cols: Columns, y: float, prev: float) -> Tuple[float, float, List[float], Tuple[float, List[float]]]:
    """CDF(y) and CDF(prev) for prev < y, as ``column_cdf`` sums them, the
    atom weights at y, and Pr(Y > y) with the parts of E[Y; Y > y] as
    ``column_tail_mass`` and ``column_tail_sum`` take them: one pass in
    component order.  A segment wider than the range that lies across y
    raises as ``column_tail_mass`` would.  A segment that ends between
    prev and y is taken as wholly below prev, so one there must weigh
    nothing.
    """
    weights, lows, highs = cols
    cdf = cdf_prev = tail_mass = 0.0
    at_y: List[float] = []
    tail_parts: List[float] = []
    if lows is highs:  # only atoms: the same sums, over two columns
        for w, v in zip(weights, lows):
            if v < y:
                cdf += w
                cdf_prev += w
            elif v > y:
                tail_mass += w
                tail_parts.append(w * v)
            else:
                cdf += w
                at_y.append(w)
        return cdf, cdf_prev, at_y, (tail_mass, tail_parts)
    for w, lo, hi in zip(weights, lows, highs):
        if hi < y:
            cdf += w
            cdf_prev += w
        elif lo == hi:
            if lo == y:
                cdf += w
                at_y.append(w)
            else:
                tail_mass += w
                tail_parts.append(w * lo)
        else:
            if lo < prev:
                cdf_prev += min(w * (prev - lo) / segment_width(lo, hi), w)
            if lo >= y:
                tail_mass += w
                tail_parts.append(w * midpoint(lo, hi))
            elif hi == y:
                cdf += w
            else:
                cdf += min(w * (y - lo) / segment_width(lo, hi), w)
                q = w * (hi - y) / (hi - lo)
                tail_mass += min(q, w)
                tail_parts.append(q * midpoint(y, hi))
    return cdf, cdf_prev, at_y, (tail_mass, tail_parts)


def _events(cols: Columns) -> Tuple[List[Tuple[float, float, float]], bool]:
    """The walk's events (y, atom mass at y, change of the CDF's slope at
    y) of the positive-weight components, in component order, and
    whether a zero-weight segment is wider than the range; a
    positive-weight one raises, as `segment_width` does."""
    events = []
    wide = False
    for w, lo, hi in zip(*cols):
        if w <= 0.0:
            wide = wide or hi - lo == math.inf
        elif lo == hi:
            events.append((lo, w, 0.0))
        else:
            rate = w / (hi - lo if hi - lo < math.inf else segment_width(lo, hi))
            events.append((lo, 0.0, rate))
            events.append((hi, 0.0, -rate))
    return events, wide


def _locate(alpha: float, cols: Columns) -> Optional[Tuple[float, float, List[Tuple[float, float, float]]]]:
    """The first break y at which a running CDF over the events sorted by
    value reaches alpha, the break below it (-inf for the first) and the
    sorted events; None past every break and for a law with a
    zero-weight segment wider than the range.

    The sum runs from the top, as the mass above each break, and stops
    at the crossing, so the levels of the tail read few events.  It only
    locates, so its rounding does not matter: `_quantile_pass` checks y
    on the CDF itself.  Equal values keep their build order, which the
    sign of a zero break needs.
    """
    events, wide = _events(cols)
    if wide:
        return None
    events.sort(key=itemgetter(0))
    above = pending = slope = 0.0  # the mass above b, the atom mass at b
    short = sum(cols[0]) - alpha  # the CDF at b falls short of alpha where above > short
    b, higher = events[-1][0], None
    for y, mass, rate in chain(reversed(events), [(-math.inf, 0.0, 0.0)]):
        if y != b:
            if above > short:
                return None if higher is None else (higher, b, events)
            above += pending + slope * (b - y)
            pending, higher = 0.0, b
        b = y
        pending += mass
        slope -= rate
    return higher, b, events


def _quantile_walk(alpha: float, cols: Columns) -> float:
    """The lower quantile on columns, any law, where `_quantile_pass`
    cannot decide.

    The CDF is piecewise linear with jumps only at atoms.  The
    breakpoints (atom values, segment ends) are sorted once, and a running
    CDF with its slope locates the first breakpoint whose CDF reaches
    alpha.  The decision there is then made on ``column_cdf`` and
    ``column_atom_mass_at`` themselves, walking to a neighbour while they
    disagree with the running sum, and a crossing inside a segment is
    inverted linearly.  The running sum only locates the crossing, so the
    result does not depend on its rounding; the cost is O(n log n) in the
    component count.
    """
    if alpha == 0.0:
        return column_inf(cols)
    events, _ = _events(cols)
    events.sort()
    breaks = [events[0][0]]
    levels: List[float] = []  # running CDF at each breakpoint
    level = slope = 0.0
    active = 0
    for y, mass, rate in events:
        if y != breaks[-1]:
            levels.append(level)
            level += slope * (y - breaks[-1])
            breaks.append(y)
        level += mass
        if rate:
            slope += rate
            active += 1 if rate > 0.0 else -1
            if not active:
                slope = 0.0  # no segment open: drop the rounding residue
    levels.append(level)
    k = min(bisect_left(levels, alpha), len(breaks) - 1)
    cdf_at = column_cdf(cols, breaks[k])
    cdf_prev = None
    while cdf_at < alpha:  # the running sum crossed too early
        k += 1
        if k == len(breaks):
            # alpha exceeded every accumulated mass (only possible through
            # float dust in the weights); the top of the support is the
            # right answer
            return column_sup(cols)
        cdf_prev, cdf_at = cdf_at, column_cdf(cols, breaks[k])
    while cdf_prev is None and k > 0:  # the running sum crossed too late
        below = column_cdf(cols, breaks[k - 1])
        if below < alpha:
            cdf_prev = below
        else:
            k, cdf_at = k - 1, below
    if k == 0:
        return breaks[0]
    y, prev = breaks[k], breaks[k - 1]
    cdf_left = cdf_at - column_atom_mass_at(cols, y)  # Pr(Y < y)
    if cdf_left >= alpha:
        # the CDF is linear on (prev, y); invert it there
        slope = (cdf_left - cdf_prev) / (y - prev)
        if slope >= sys.float_info.min:
            return prev + (alpha - cdf_prev) / slope
        # a subnormal or zero slope: move by the share of the rise, on
        # halves, so a gap past the floating range stays finite
        return 2.0 * (0.5 * prev + (alpha - cdf_prev) / (cdf_left - cdf_prev) * (0.5 * y - 0.5 * prev))
    return y


def cte(alpha: float, dist: MixedDistribution) -> float:
    """Conditional tail expectation at level alpha.

    Atoms straddling the quantile are split between the tail average and
    the quantile itself; when no mass lies strictly above the quantile the
    value is the essential supremum.
    """
    return _on_law(partial(_cte, _check_alpha(alpha)), dist)


def _cte(alpha: float, cols: Columns) -> float:
    v, tail = _quantile_pass(alpha, cols) or (_quantile_walk(alpha, cols), None)
    tail_p, tail_parts = tail or _scan(cols, v, -math.inf)[3]
    if tail_p <= 0.0:
        return v
    return (checked_fsum(tail_parts, "tail expectation") + (1.0 - tail_p - alpha) * v) / (1.0 - alpha)


def _cte_levels(alphas: Sequence[float], weights: Sequence[float], values: Sequence[float]) -> List[float]:
    """``[_on_atoms(_kernel(Cte(a)), weights, values) for a in alphas]``
    for one or more checked levels, with the same bits and the same error
    at the same first level, the law's breakpoint statistics read once.

    `_value_at_risk` ends its walk at the first break whose CDF, as
    ``column_cdf`` takes it in component order, reaches the level.  Those
    CDFs never decrease (the weights are nonnegative and rounding is
    monotone), so a bisection finds that break.  A level whose walk ends
    in the linear inversion or past every break, which only float dust in
    the weights allows on atoms, is handed to `_cte`.  One `_scan` per
    break gives its CDF, its atom mass and its tail; the tail parts are
    summed when a level first ends there, so a tail sum that overflows
    where no level ends raises nothing.  The scans cost O(n²) in the
    atom count: this is for laws of few atoms read at many levels.
    """
    _check_atoms(values)
    if len(values) == 1:
        return [values[0]] * len(alphas)
    cols = (weights, values, values)
    breaks: List[float] = []  # as `_value_at_risk` sorts and keeps them
    for y, _ in sorted((v, w) for w, v in zip(weights, values) if w > 0.0):
        if not breaks or y != breaks[-1]:
            breaks.append(y)
    scans = [_scan(cols, y, -math.inf) for y in breaks]
    cdfs = [cdf for cdf, _, _, _ in scans]
    lefts = [cdf - math.fsum(at_y) for cdf, _, at_y, _ in scans]  # Pr(Y < y)
    tail_sums: Dict[int, float] = {}
    out = []
    for alpha in alphas:
        k = bisect_left(cdfs, alpha)
        if k == len(breaks) or (k and lefts[k] >= alpha):
            out.append(_cte(alpha, cols))
            continue
        tail_p, tail_parts = scans[k][3]
        if k not in tail_sums:
            tail_sums[k] = checked_fsum(tail_parts, "tail expectation")
        tail_sum = tail_sums[k]
        v = column_inf(cols) if alpha == 0.0 else breaks[k]  # the sign of a zero, as `_value_at_risk` gives it
        out.append(v if tail_p <= 0.0 else (tail_sum + (1.0 - tail_p - alpha) * v) / (1.0 - alpha))
    return out


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
