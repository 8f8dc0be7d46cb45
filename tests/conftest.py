"""Shared fixtures: independent numerical oracles, random generators, and
an in-process runner of the command line.

The oracles here recompute tail expectations and entropic values from
scratch (discretization, the Rockafellar-Uryasev minimum, quadrature) so
the library's closed forms are checked against arithmetic that shares no
code with them.
"""
from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from riskdp import (
    Edge,
    Exponential,
    FiniteHorizonMdp,
    MixedDistribution,
    PiecewiseLinear,
    PointMass,
    Power,
    ScenarioTree,
    Transition,
    TreeNode,
    UniformSegment,
)
from riskdp.cli import main

DISCRETIZATION_ATOMS = 10**5


class CliResult(NamedTuple):
    """What one `riskdp` command line printed and how it exited."""

    exit_code: int
    stdout: str
    stderr: str
    exception: Optional[SystemExit]  # None on exit 0

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(args: Sequence[str]) -> CliResult:
    """Run `riskdp args` in this process: main(args) with stdout and
    stderr captured, to the SystemExit it always ends in.  Any other
    exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(list(args))
    except SystemExit as exc:
        return CliResult(exc.code, out.getvalue(), err.getvalue(), exc if exc.code else None)
    raise AssertionError("riskdp.cli.main returned instead of exiting")


def assert_close(got: float, want: float, rel: float = 1e-9, abs_tol: float = 0.0) -> None:
    tol = max(abs_tol, rel * max(1.0, abs(got), abs(want)))
    assert abs(got - want) <= tol, f"{got!r} != {want!r} (tol {tol:g})"


# ---------------------------------------------------------------------------
# discretization oracle for the tail expectation
# ---------------------------------------------------------------------------


def discretized_cte(alpha: float, dist: MixedDistribution, atoms: int = DISCRETIZATION_ATOMS) -> float:
    """Tail expectation recomputed on an equal-mass atomization.

    Each segment becomes atoms//n_segments midpoint atoms; the tail
    average is then rebuilt from first principles: smallest value whose
    cumulative mass reaches alpha, strictly-above tail sum, and the
    partial credit for mass sitting exactly at that value.
    """
    segs = sum(1 for _, o in dist.components if isinstance(o, UniformSegment))
    k = atoms // max(1, segs)
    vals, wts = [], []
    for w, o in dist.components:
        if w <= 0.0:
            continue
        if isinstance(o, PointMass):
            vals.append(np.array([o.value]))
            wts.append(np.array([w]))
        else:
            # midpoints of k equal-mass slices
            grid = o.lo + (np.arange(k) + 0.5) * (o.hi - o.lo) / k
            vals.append(grid)
            wts.append(np.full(k, w / k))
    v = np.concatenate(vals)
    w = np.concatenate(wts)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w)
    total = cum[-1]
    idx = int(np.searchsorted(cum, alpha * total, side="left"))
    idx = min(idx, len(v) - 1)
    var = v[idx]
    below_or_at = v <= var
    beta = float(w[below_or_at].sum())
    if beta >= 1.0 - 1e-15:
        strictly_above = ~below_or_at
        if not strictly_above.any():
            # alpha falls in the top atom
            return float(var)
    tail = float((w * v)[v > var].sum())
    return (tail + (beta - alpha) * var) / (1.0 - alpha)


# ---------------------------------------------------------------------------
# Rockafellar-Uryasev oracle for the tail expectation
# ---------------------------------------------------------------------------


def _support_points(dist: MixedDistribution) -> list:
    """Sorted atom values and segment ends of the positive-weight components."""
    pts = set()
    for w, o in dist.components:
        if w > 0.0:
            pts.update((o.value,) if isinstance(o, PointMass) else (o.lo, o.hi))
    return sorted(pts)


def _exceedance(t: float, dist: MixedDistribution) -> float:
    """Pr(Y > t)."""
    parts = []
    for w, o in dist.components:
        if isinstance(o, PointMass):
            if o.value > t:
                parts.append(w)
        elif t <= o.lo:
            parts.append(w)
        elif t < o.hi:
            parts.append(w * (o.hi - t) / (o.hi - o.lo))
    return math.fsum(parts)


def _expected_excess(t: float, dist: MixedDistribution) -> float:
    """E[(Y - t)+], per atom and per segment in closed form."""
    parts = []
    for w, o in dist.components:
        if isinstance(o, PointMass):
            if o.value > t:
                parts.append(w * (o.value - t))
        elif t <= o.lo:
            parts.append(w * (0.5 * (o.lo + o.hi) - t))
        elif t < o.hi:
            parts.append(w * (o.hi - t) ** 2 / (2.0 * (o.hi - o.lo)))
    return math.fsum(parts)


def rockafellar_uryasev_cte(alpha: float, dist: MixedDistribution) -> float:
    """Tail expectation as min over t of t + E[(Y - t)+] / (1 - alpha).

    The objective is convex, with slope 1 - Pr(Y > t) / (1 - alpha).  Its
    minimum therefore lies on a support point or, inside a gap between two
    of them where Pr(Y > t) falls linearly, at the t where Pr(Y > t) equals
    1 - alpha: the quantile.  Every such candidate is evaluated exactly.
    """
    pts = _support_points(dist)
    candidates = list(pts)
    target = 1.0 - alpha
    for a, b in zip(pts, pts[1:]):
        above_a = _exceedance(a, dist)
        below_b = _exceedance(b, dist) + math.fsum(
            w for w, o in dist.components if isinstance(o, PointMass) and o.value == b
        )  # Pr(Y >= b), the limit of Pr(Y > t) as t rises to b
        if below_b < target < above_a:
            candidates.append(a + (above_a - target) / (above_a - below_b) * (b - a))
    return min(t + _expected_excess(t, dist) / target for t in candidates)


# ---------------------------------------------------------------------------
# quadrature oracle for the entropic value
# ---------------------------------------------------------------------------


def simpson(f: np.ndarray, a: float, b: float) -> float:
    """Composite Simpson rule for samples f on an odd number of equally
    spaced points from a to b."""
    h = (b - a) / (len(f) - 1)
    return float(h / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1]))


def quadrature_erm(gamma: float, dist: MixedDistribution, points: int = 8193) -> float:
    """Entropic value via Simpson quadrature of exp(gamma * y) per segment;
    points must be odd."""
    if gamma == 0.0:
        total = 0.0
        for w, o in dist.components:
            y = o.value if isinstance(o, PointMass) else 0.5 * (o.lo + o.hi)
            total += w * y
        return total
    acc = 0.0
    for w, o in dist.components:
        if w <= 0.0:
            continue
        if isinstance(o, PointMass):
            acc += w * math.exp(gamma * o.value)
        else:
            x = np.linspace(o.lo, o.hi, points)
            acc += w * simpson(np.exp(gamma * x), o.lo, o.hi) / (o.hi - o.lo)
    return math.log(acc) / gamma


# ---------------------------------------------------------------------------
# closed-form variance, deliberately not monotone
# ---------------------------------------------------------------------------


def variance(dist: MixedDistribution) -> float:
    m = 0.0
    m2 = 0.0
    for w, o in dist.components:
        if isinstance(o, PointMass):
            m += w * o.value
            m2 += w * o.value**2
        else:
            m += w * 0.5 * (o.lo + o.hi)
            m2 += w * (o.lo**2 + o.lo * o.hi + o.hi**2) / 3.0
    return m2 - m * m


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def mixture(parts: Sequence[Tuple[float, object]]) -> MixedDistribution:
    """Build a distribution from (weight, value) and (weight, (lo, hi)) pairs."""
    comps = []
    for w, spec in parts:
        if isinstance(spec, tuple):
            comps.append((w, UniformSegment(*spec)))
        else:
            comps.append((w, PointMass(spec)))
    return MixedDistribution(tuple(comps))


def random_tied_law(rng: random.Random, dyadic: bool) -> MixedDistribution:
    """Random law built to tie: integer atoms and segment ends drawn from a
    small pool, so atoms share values and segments start and end on atoms,
    and zero-weight components, some far outside the support.  With dyadic
    set, weights are multiples of 1/64 and segment widths 1, 2 or 4, so
    every CDF level at an integer is a float computed without rounding.
    """
    n = rng.randint(1, 12)
    if dyadic:
        cuts = sorted(rng.randint(0, 64) for _ in range(n - 1))
        weights = [(b - a) / 64.0 for a, b in zip([0, *cuts], [*cuts, 64])]
    else:
        raw = [0.0 if rng.random() < 0.15 else rng.random() for _ in range(n)]
        raw[rng.randrange(n)] += 0.5
        total = math.fsum(raw)
        weights = [r / total for r in raw]
    comps = []
    for w in weights:
        lo = float(rng.randint(-4, 4))
        if w == 0.0 and rng.random() < 0.5:
            lo = rng.choice((-100.0, 100.0))
        if rng.random() < 0.5:
            comps.append((w, PointMass(lo)))
        else:
            width = float(rng.choice((1, 2, 4) if dyadic else (1, 2, 3, 4)))
            comps.append((w, UniformSegment(lo, lo + width)))
    return MixedDistribution(tuple(comps))


def random_increasing_disutility(rng: random.Random):
    """Random strictly increasing curve through the origin."""
    kind = rng.randrange(3)
    if kind == 0:
        return Exponential(rng.uniform(1e-6, 0.005))
    if kind == 1:
        return Power(rng.uniform(1.0, 3.0))
    knots = [(0.0, 0.0)]
    c = u = 0.0
    for _ in range(rng.randint(1, 4)):
        c += rng.uniform(10.0, 500.0)
        u += rng.uniform(0.1, 5.0)
        knots.append((c, u))
    return PiecewiseLinear(tuple(knots))


def random_tree(
    rng: random.Random,
    max_horizon: int = 3,
    max_children: int = 3,
    segment_stage: Optional[int] = None,
) -> ScenarioTree:
    """Random scenario tree with scalar and mixture edge costs.

    Segment-valued cost components appear only on segment_stage, so no
    root-to-leaf path ever accumulates two segments and the flat law of
    the discounted total stays exact.
    """
    horizon = rng.randint(1, max_horizon)
    if segment_stage is not None and segment_stage >= horizon:
        segment_stage = horizon - 1

    def cost(stage: int):
        u = rng.random()
        if u < 0.5:
            return rng.uniform(-10.0, 10.0)
        if stage == segment_stage and u < 0.8:
            lo = rng.uniform(-10.0, 5.0)
            return mixture(
                [(0.6, rng.uniform(-10.0, 10.0)), (0.4, (lo, lo + rng.uniform(0.5, 5.0)))]
            )
        return mixture(
            [(0.3, rng.uniform(-10.0, 10.0)), (0.7, rng.uniform(-10.0, 10.0))]
        )

    def build(stage: int) -> TreeNode:
        if stage == horizon:
            return TreeNode(stage=stage, edges=())
        n = rng.randint(1, max_children)
        raw = [rng.random() + 1e-3 for _ in range(n)]
        total = math.fsum(raw)
        edges = tuple(
            Edge(probability=r / total, cost=cost(stage), child=build(stage + 1))
            for r in raw
        )
        return TreeNode(stage=stage, edges=edges)

    return ScenarioTree(horizon=horizon, root=build(0))


def random_mdp(
    rng: random.Random,
    discount: float,
    max_horizon: int = 3,
    max_states: int = 3,
    max_actions: int = 3,
    policy_cap: int = 400,
) -> FiniteHorizonMdp:
    """Random small decision process, rejection-sampled so that full
    policy enumeration over reachable states stays below policy_cap."""
    while True:
        horizon = rng.randint(1, max_horizon)
        states = tuple(
            tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
            for _ in range(horizon + 1)
        )
        actions = tuple("uvw"[: rng.randint(1, max_actions)])
        transitions = {}
        for n in range(horizon):
            for s in states[n]:
                avail = [a for a in actions if rng.random() < 0.7]
                if not avail:
                    avail = [rng.choice(actions)]
                for a in avail:
                    targets = [t for t in states[n + 1] if rng.random() < 0.7]
                    if not targets:
                        targets = [rng.choice(states[n + 1])]
                    raw = [rng.random() + 1e-3 for _ in targets]
                    total = math.fsum(raw)
                    transitions[(n, s, a)] = tuple(
                        Transition(t, r / total, rng.uniform(0.0, 10.0))
                        for t, r in zip(targets, raw)
                    )
        mdp = FiniteHorizonMdp(
            horizon=horizon,
            states=states,
            actions=actions,
            initial=states[0][0],
            discount=discount,
            transitions=transitions,
        )
        product = 1
        for n, s in mdp.reachable():
            if n < horizon:
                product *= len(mdp.actions_at(n, s))
            if product > policy_cap:
                break
        if product <= policy_cap:
            return mdp


def one_step_values(
    mdp: FiniteHorizonMdp, n: int, s: str, values
) -> dict:
    """Action value of each available action against a fixed tail table."""
    out = {}
    for a in mdp.actions_at(n, s):
        atoms = [
            (t.probability, t.cost + mdp.discount * values[(n + 1, t.state)])
            for t in mdp.transitions[(n, s, a)]
            if t.probability > 0.0
        ]
        out[a] = MixedDistribution.of_atoms(atoms)
    return out
