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
kernels picked once.  :func:`evaluate` returns a law of one atom as the
constant it is, read off the law's columns, and hands any other law's
stored columns to the kernel; the flat route of a tree (`tree.rmd`) is
:func:`evaluate` on the law of its discounted total.
:func:`evaluate_atoms` feeds the kernel the atoms of a one-step law that
is never built.  The MDP solver and the tree recursion pick a kernel
once per stage functional and hand each cell or node law to it, a law of
atoms through ``_on_atoms``, which keeps the finiteness check and the
one-atom shortcut of :func:`evaluate_atoms`.

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
from operator import mul
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
    column_tail_mass,
    column_tail_sum,
    json_number,
    midpoint,
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
        terms = tuple((json_number(c, "Composite coefficient"), rf) for c, rf in self.terms)
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
    return _mean(dist.columns())


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
    return _erm(gamma, dist.columns())


def _erm(gamma: float, cols: Columns) -> float:
    if gamma == 0.0:
        return _mean(cols)
    terms = []
    weights = []
    for w, lo, hi in zip(*cols):
        if w <= 0.0:
            continue
        terms.append(_log_mgf(lo, hi, gamma))
        weights.append(w)
    shift = max(terms)
    if not math.isfinite(shift):
        return _erm_from_end(gamma, cols)
    total = math.fsum(w * math.exp(t - shift) for w, t in zip(weights, terms))
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
    return _value_at_risk(_check_alpha(alpha), dist.columns())


def _value_at_risk(alpha: float, cols: Columns) -> float:
    """The lower quantile on columns.

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
    # (y, atom mass at y, change of the CDF's slope at y)
    events = []
    for w, lo, hi in zip(*cols):
        if w <= 0.0:
            continue
        if lo == hi:
            events.append((lo, w, 0.0))
        else:
            rate = w / segment_width(lo, hi)
            events.append((lo, 0.0, rate))
            events.append((hi, 0.0, -rate))
    events.sort()
    breaks: List[float] = []
    levels: List[float] = []  # running CDF at each breakpoint
    level = slope = 0.0
    active = 0
    for y, mass, rate in events:
        if not breaks:
            breaks.append(y)
        elif y != breaks[-1]:
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
    return _cte(_check_alpha(alpha), dist.columns())


def _cte(alpha: float, cols: Columns) -> float:
    v = _value_at_risk(alpha, cols)
    tail_p = column_tail_mass(cols, v)
    if tail_p <= 0.0:
        return v
    beta = 1.0 - tail_p
    return (column_tail_sum(cols, v) + (beta - alpha) * v) / (1.0 - alpha)


def evaluate(rf: RiskFunctional, dist: MixedDistribution) -> float:
    """Dispatch a risk functional onto a distribution."""
    if not isinstance(rf, RF_CLASSES):
        raise ValidationError(f"unknown risk functional {rf!r}")
    _, lows, highs = cols = dist.columns()
    if len(lows) == 1 and lows[0] == highs[0]:
        # every functional here maps a constant to itself
        return lows[0]
    return _kernel(rf)(cols)


def evaluate_atoms(rf: RiskFunctional, weights: Sequence[float], values: Sequence[float]) -> float:
    """``evaluate`` on the law with an atom at each value, of the weight in
    the same position, without building the law.

    It gives the same bits and raises the same errors in the same order:
    a value that is not finite first, as ``PointMass`` would, then an
    unknown functional, and one atom is returned as the constant it is.
    The weights are taken as given, as a checked tree or MDP gives them.
    A walk that evaluates many laws under one functional picks its kernel
    once with ``_kernel`` and calls ``_on_atoms``.
    """
    if not isinstance(rf, RF_CLASSES):
        _check_atoms(values)
        raise ValidationError(f"unknown risk functional {rf!r}")
    return _on_atoms(_kernel(rf), weights, values)


# a checked functional's evaluation on the columns of a law
Kernel = Callable[[Columns], float]


def _check_atoms(values: Sequence[float]) -> None:
    # a sum is finite only when every term is
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValidationError("PointMass value must be finite")


def _on_atoms(kernel: Kernel, weights: Sequence[float], values: Sequence[float]) -> float:
    """``evaluate_atoms`` with the functional's kernel picked."""
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
            for c, u in self.knots
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
        if abs(_pwl_apply(knots, 0.0)) > 1e-12:
            raise ValidationError("PiecewiseLinear must map cost 0 to disutility 0")


DisutilityFunction = Union[Exponential, Linear, Power, PiecewiseLinear]
DISUTILITY_CLASSES = (Exponential, Linear, Power, PiecewiseLinear)


def _pwl_apply(knots: Tuple[Tuple[float, float], ...], c: float) -> float:
    xs = [k[0] for k in knots]
    i = bisect_right(xs, c)
    if i == 0:
        (x0, y0), (x1, y1) = knots[0], knots[1]
    elif i == len(knots):
        (x0, y0), (x1, y1) = knots[-2], knots[-1]
    else:
        (x0, y0), (x1, y1) = knots[i - 1], knots[i]
    rise = (y1 - y0) * (c - x0)
    if not math.isfinite(rise):
        # far out on an extended piece the product can overflow where the
        # slope times the run does not
        return y0 + (y1 - y0) / (x1 - x0) * (c - x0)
    return y0 + rise / (x1 - x0)


# each disutility kind as its overflow messages name it
_OVERFLOW_NAMES = {Exponential: "exponential", Power: "power", PiecewiseLinear: "piecewise-linear"}


def _finite_disutility(u: DisutilityFunction, value: float, lo: float, hi: float) -> float:
    """value, unless it left the floating range as the disutility of the
    cost lo (lo == hi) or of the segment [lo, hi]."""
    if not math.isfinite(value):
        name = next(name for cls, name in _OVERFLOW_NAMES.items() if isinstance(u, cls))
        where = f"at cost {lo!r}" if lo == hi else f"on segment {UniformSegment(lo, hi)!r}"
        raise EvaluationOverflowError(f"{name} disutility overflowed {where}")
    return value


def apply_disutility(u: DisutilityFunction, c: float) -> float:
    """Evaluate the disutility at a single cost; a value that leaves the
    floating range raises `EvaluationOverflowError`."""
    if isinstance(u, Linear):
        return c
    if isinstance(u, Power) and c < 0.0:
        raise ValidationError("Power disutility is defined on costs >= 0")
    try:
        if isinstance(u, Exponential):
            value = math.expm1(u.gamma * c)
        elif isinstance(u, Power):
            value = c**u.k
        elif isinstance(u, PiecewiseLinear):
            value = _pwl_apply(u.knots, c)
        else:
            raise ValidationError(f"unknown disutility {u!r}")
    except OverflowError:  # out of range: raised here, or infinite otherwise
        value = math.inf
    return _finite_disutility(u, value, c, c)


def _segment_disutility_mean(u: DisutilityFunction, lo: float, hi: float) -> float:
    """E[u(Y)] for Y uniform on [lo, hi] and a checked disutility, in
    closed form; a value that leaves the floating range raises
    `EvaluationOverflowError`."""
    if isinstance(u, Linear):
        return midpoint(lo, hi)
    if isinstance(u, Power) and lo < 0.0:
        raise ValidationError("Power disutility is defined on costs >= 0")
    try:
        if isinstance(u, Exponential):
            z = u.gamma * (hi - lo)
            if z == 0.0:
                # z underflowed; expm1(z) / z tends to one
                value = math.expm1(u.gamma * (0.5 * (lo + hi)))
            else:
                value = math.exp(u.gamma * lo) * math.expm1(z) / z - 1.0
        elif isinstance(u, Power):
            k1 = u.k + 1.0
            value = (hi**k1 - lo**k1) / (k1 * (hi - lo))
        else:
            # the curve is linear between knots, so the trapezoid rule on
            # each knot interval inside the segment is exact
            xs = [lo, *(c for c, _ in u.knots if lo < c < hi), hi]
            us = [_pwl_apply(u.knots, x) for x in xs]
            value = math.fsum(
                0.5 * (x1 - x0) * (u0 + u1)
                for x0, x1, u0, u1 in zip(xs, xs[1:], us, us[1:])
            ) / segment_width(lo, hi)
    except (OverflowError, ValueError):
        # fsum raises ValueError on infinite terms of both signs
        value = math.inf
    return _finite_disutility(u, value, lo, hi)


def _check_disutility(u: DisutilityFunction) -> None:
    if not isinstance(u, DISUTILITY_CLASSES):
        raise ValidationError(f"unknown disutility {u!r}")


def pushforward_mean(u: DisutilityFunction, dist: MixedDistribution) -> float:
    """E[u(Y)] for a mixed distribution."""
    _check_disutility(u)
    return _pushforward_mean(u, dist.columns())


def _pushforward_mean(u: DisutilityFunction, cols: Columns) -> float:
    """E[u(Y)] on the columns of a law, for a checked disutility."""
    terms = [
        w * (apply_disutility(u, lo) if lo == hi else _segment_disutility_mean(u, lo, hi))
        for w, lo, hi in zip(*cols)
    ]
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
