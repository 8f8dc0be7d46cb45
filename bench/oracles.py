"""Independent computations that the workloads check riskdp against.

None of this imports riskdp.  Laws are lists of components
``(weight, lo, hi)`` with ``lo == hi`` for a point mass; trees and MDPs
are the plain data made by ``gen``.  Each oracle takes a different road
from the library where one exists: the payment sweep has a closed form,
flat laws come from path enumeration, quantiles from one sorted sweep,
tail expectations from the Rockafellar-Uryasev minimum, the piecewise
disutility from the trapezoid rule per knot interval, and MDP values
from a vectorized backward induction in numpy.  numpy is imported where
it is used, so a set-up process that imports this module does not pay
for it.
"""
from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

REL_TOL = 1e-9

Law = List[Tuple[float, float, float]]

# the payment plans of the source paper
PAY_DAYS = 20
PAY_AMOUNT = 1000.0
PAY_PROB = (1.0 - 0.05) / PAY_DAYS


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(got), abs(want))


# ---------------------------------------------------------------------------
# payment sweep, closed form
# ---------------------------------------------------------------------------


def discounted_days(lam: float) -> float:
    return math.fsum(lam**k for k in range(PAY_DAYS))


def installment_value(alpha: float, lam: float) -> float:
    """Stagewise CTE of the installment plan: p/(1-alpha) of the billed
    total below alpha = 1 - p, the whole billed total above it."""
    total = PAY_AMOUNT * discounted_days(lam)
    if alpha >= 1.0 - PAY_PROB:
        return total
    return PAY_PROB / (1.0 - alpha) * total


def upfront_value(alpha: float, lam: float) -> float:
    return PAY_AMOUNT


def boundary(lam: float) -> float:
    return 1.0 - PAY_PROB * discounted_days(lam)


# ---------------------------------------------------------------------------
# statistics of a mixture
# ---------------------------------------------------------------------------


def mean(law: Law) -> float:
    return math.fsum(w * 0.5 * (lo + hi) for w, lo, hi in law)


def erm(law: Law, gamma: float) -> float:
    """(1/gamma) ln E exp(gamma Y), log-sum-exp with the segment MGF."""
    if gamma == 0.0:
        return mean(law)
    logs, ws = [], []
    for w, lo, hi in law:
        if w <= 0.0:
            continue
        z = gamma * (hi - lo)
        logs.append(gamma * lo + (math.log(math.expm1(z) / z) if z else 0.0))
        ws.append(w)
    top = max(logs)
    return (top + math.log(math.fsum(w * math.exp(t - top) for w, t in zip(ws, logs)))) / gamma


def quantile(law: Law, alpha: float) -> float:
    """Lower alpha-quantile from one sweep over the sorted breakpoints,
    carrying the CDF and its slope."""
    live = [(w, lo, hi) for w, lo, hi in law if w > 0.0]
    if alpha == 0.0:
        return min(lo for _, lo, _ in live)
    jumps: Dict[float, float] = defaultdict(float)
    slopes: Dict[float, float] = defaultdict(float)
    for w, lo, hi in live:
        if lo == hi:
            jumps[lo] += w
        else:
            d = w / (hi - lo)
            slopes[lo] += d
            slopes[hi] -= d
    xs = sorted(set(jumps) | set(slopes))
    cdf, slope, prev = 0.0, 0.0, xs[0]
    for x in xs:
        if slope > 0.0:
            reach = cdf + slope * (x - prev)
            if reach >= alpha:
                return prev + (alpha - cdf) / slope
            cdf = reach
        cdf += jumps.get(x, 0.0)
        if cdf >= alpha:
            return x
        slope += slopes.get(x, 0.0)
        prev = x
    return xs[-1]


def _ru_objective(law: Law, alpha: float, ts):
    """t + E[(Y - t)+] / (1 - alpha) at every t of the array ts."""
    import numpy as np

    arr = np.array(law, dtype=float)
    w, lo, hi = arr[:, 0], arr[:, 1], arr[:, 2]
    width = np.where(hi > lo, hi - lo, 1.0)
    out = np.empty(len(ts))
    for start in range(0, len(ts), 128):
        t = ts[start : start + 128, None]
        atom = np.maximum(lo - t, 0.0)
        inside = np.where(t <= lo, 0.5 * (lo + hi) - t, np.maximum(hi - t, 0.0) ** 2 / (2.0 * width))
        excess = np.where(hi > lo, inside, atom) @ w
        out[start : start + 128] = ts[start : start + 128] + excess / (1.0 - alpha)
    return out


def cte(law: Law, alpha: float) -> float:
    """Rockafellar-Uryasev: CVaR = min_t t + E[(Y-t)+]/(1-alpha), taken
    over every breakpoint and the sorted-sweep quantile."""
    import numpy as np

    ts = sorted({lo for _, lo, _ in law} | {hi for _, _, hi in law} | {quantile(law, alpha)})
    return float(_ru_objective(law, alpha, np.array(ts)).min())


def eud_exponential(law: Law, gamma: float) -> float:
    """E[exp(gamma Y) - 1]; a segment averages (e^{g hi} - e^{g lo}) / (g w)."""
    parts = []
    for w, lo, hi in law:
        if lo == hi:
            parts.append(w * math.expm1(gamma * lo))
        else:
            parts.append(w * ((math.exp(gamma * hi) - math.exp(gamma * lo)) / (gamma * (hi - lo)) - 1.0))
    return math.fsum(parts)


def _pwl(knots: Sequence[Tuple[float, float]], x: float) -> float:
    i = 1
    while i < len(knots) - 1 and x > knots[i][0]:
        i += 1
    (x0, y0), (x1, y1) = knots[i - 1], knots[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def eud_piecewise(law: Law, knots: Sequence[Tuple[float, float]]) -> float:
    """Exact mean of a piecewise-linear curve: on a segment, the trapezoid
    rule on each knot interval, where the integrand is linear."""
    parts = []
    for w, lo, hi in law:
        if lo == hi:
            parts.append(w * _pwl(knots, lo))
            continue
        cuts = [lo] + [c for c, _ in knots if lo < c < hi] + [hi]
        area = math.fsum(
            (b - a) * 0.5 * (_pwl(knots, a) + _pwl(knots, b)) for a, b in zip(cuts, cuts[1:])
        )
        parts.append(w * area / (hi - lo))
    return math.fsum(parts)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def _cost_law(cost, prob: float, shift: float) -> Law:
    if isinstance(cost, float):
        return [(prob, cost + shift, cost + shift)]
    return [(prob * w, lo + shift, hi + shift) for w, lo, hi in cost]


def path_moments(tree, lam: float, gamma: float) -> Tuple[float, float]:
    """Mean and entropic value of the discounted total, by enumerating
    every path: costs along a path are independent given the path, so
    means add and moment generating functions multiply."""
    probs, means, logs = [], [], []

    def walk(edges, stage, prob, mean_sum, log_sum):
        if not edges:
            probs.append(prob)
            means.append(mean_sum)
            logs.append(log_sum)
            return
        scale = lam**stage
        for p, cost, child in edges:
            law = [(w, scale * lo, scale * hi) for w, lo, hi in _cost_law(cost, 1.0, 0.0)]
            walk(child, stage + 1, prob * p, mean_sum + mean(law), log_sum + gamma * erm(law, gamma))

    walk(tree, 0, 1.0, 0.0, 0.0)
    top = max(logs)
    log_mgf = top + math.log(math.fsum(p * math.exp(t - top) for p, t in zip(probs, logs)))
    return math.fsum(p * m for p, m in zip(probs, means)), log_mgf / gamma


def flat_law(tree, lam: float) -> Law:
    """Law of the discounted total by enumerating every path; at most one
    segment-valued cost per path keeps it a point/segment mixture."""
    out: Law = []

    def walk(edges, stage, prob, shift, seg):
        if not edges:
            lo, hi = seg if seg else (0.0, 0.0)
            out.append((prob, shift + lo, shift + hi))
            return
        scale = lam**stage
        for p, cost, child in edges:
            for w, lo, hi in _cost_law(cost, p, 0.0):
                if lo == hi:
                    walk(child, stage + 1, prob * w, shift + scale * lo, seg)
                elif seg is None:
                    walk(child, stage + 1, prob * w, shift, (scale * lo, scale * hi))
                else:
                    raise ValueError("a path carries two segment-valued costs")

    walk(tree, 0, 1.0, 0.0, None)
    return out


def tree_recursion(tree, lam: float, stage_value: Callable[[Law], float]) -> Dict[tuple, float]:
    """Every node value of the stagewise recursion, keyed by child-index
    path from the root."""
    values: Dict[tuple, float] = {}

    def visit(edges, key):
        if not edges:
            values[key] = 0.0
            return 0.0
        law: Law = []
        for i, (p, cost, child) in enumerate(edges):
            law.extend(_cost_law(cost, p, lam * visit(child, key + (i,))))
        values[key] = stage_value(law)
        return values[key]

    visit(tree, ())
    return values


def chain_total(costs: Sequence[float], lam: float) -> float:
    return math.fsum(lam**k * c for k, c in enumerate(costs))


# ---------------------------------------------------------------------------
# MDPs: backward induction in numpy
# ---------------------------------------------------------------------------


def _stage_stat(kind: str, param: float, p, x):
    import numpy as np

    if kind == "mean":
        return (p * x).sum(axis=1)
    if kind == "erm":
        g = param * x
        top = g.max(axis=1, keepdims=True)
        return (top[:, 0] + np.log((p * np.exp(g - top)).sum(axis=1))) / param
    if kind == "cte":
        # Rockafellar-Uryasev, minimized over the atoms of each row
        excess = (np.maximum(x[:, None, :] - x[:, :, None], 0.0) * p[:, None, :]).sum(axis=2)
        return (x + excess / (1.0 - param)).min(axis=1)
    raise ValueError(kind)


def mdp_backward(data: dict, kind: str, param: float = 0.0):
    """Optimal values V[(n, s)] and action values Q[(n, s, a)] for one
    functional repeated at every stage.  Every outcome list of a stage
    must have the same length."""
    import numpy as np

    horizon, lam = data["horizon"], data["lambda"]
    index = [{s: i for i, s in enumerate(row)} for row in data["states"]]
    by_stage: List[list] = [[] for _ in range(horizon)]
    for e in data["transitions"]:
        by_stage[e["n"]].append(e)
    values = {(horizon, s): 0.0 for s in data["states"][horizon]}
    q_values = {}
    v_next = np.zeros(len(data["states"][horizon]))
    for n in range(horizon - 1, -1, -1):
        entries = by_stage[n]
        succ = np.array([[index[n + 1][o["s'"]] for o in e["to"]] for e in entries])
        p = np.array([[o["p"] for o in e["to"]] for e in entries])
        r = np.array([[o["r"] for o in e["to"]] for e in entries])
        q = _stage_stat(kind, param, p, r + lam * v_next[succ])
        v = np.full(len(data["states"][n]), np.inf)
        for e, qv in zip(entries, q):
            q_values[(n, e["s"], e["a"])] = float(qv)
            i = index[n][e["s"]]
            v[i] = min(v[i], qv)
        values.update({(n, s): float(v[i]) for s, i in index[n].items()})
        v_next = v
    return values, q_values
