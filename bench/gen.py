"""Seeded inputs for every workload, as plain Python data.

Nothing here imports riskdp: the generators only draw numbers and lay
them out as nested tuples and JSON-ready dicts.  The workloads turn this
data into library objects, and the oracles read the same data directly.

Tree data is a nested tuple ``(edges)`` where each edge is
``(probability, cost, child_edges)``.  A cost is a float or a tuple of
components ``(weight, lo, hi)``; ``lo == hi`` marks a point mass.
"""
from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

# recursion_sweep
SWEEP_STEPS = 100
PAYMENT_POINTS = 8
BUSHY_DEPTH = 6
BUSHY_BRANCHING = 3
CHAIN_STAGES = 1000
CHAIN_ALPHA = 0.9
CHAIN_LAMBDA = 0.99

# flat_law
FLAT_TREES = 2
FLAT_BRANCHING = 3
# components per edge cost at stages 0..3; stage 1 carries the segment
FLAT_STAGE_SIZES = (1, 2, 3, 2)
FLAT_SEGMENT_STAGE = 1

# dp_solve
MDP_HORIZON = 12
MDP_STATES = 60
MDP_ACTIONS = 4
MDP_SUCCESSORS = 25
MDP_DROP = 0.2  # chance that an action is unavailable at a state

# cli_cold
CLI_MDP = (4, 5, 2, 3)  # horizon, states, actions, successors
CLI_DIST_COMPONENTS = 8


def weights(rng: random.Random, n: int) -> List[float]:
    raw = [rng.random() + 0.05 for _ in range(n)]
    total = math.fsum(raw)
    out = [r / total for r in raw]
    out[-1] = 1.0 - math.fsum(out[:-1])
    return out


def even(n: int) -> List[float]:
    return [1.0 / n] * n


def mixture(rng: random.Random, ws: Sequence[float], segment: bool) -> Tuple[Tuple[float, float, float], ...]:
    """Components with weights ws on [0, 10]; the first is a segment when
    asked."""
    comps = []
    for i, w in enumerate(ws):
        lo = rng.uniform(0.0, 10.0)
        hi = lo + rng.uniform(0.5, 5.0) if (segment and i == 0) else lo
        comps.append((w, lo, hi))
    return tuple(comps)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def bushy_tree(rng: random.Random, depth: int, branching: int):
    """Random tree of the given depth: scalar costs, two-atom costs, and
    point-plus-segment costs, in roughly equal shares."""

    def node(stage: int):
        if stage == depth:
            return ()
        edges = []
        for p in weights(rng, branching):
            kind = rng.randrange(3)
            if kind == 0:
                cost = rng.uniform(0.0, 10.0)
            else:
                cost = mixture(rng, weights(rng, 2), segment=kind == 2)
            edges.append((p, cost, node(stage + 1)))
        return tuple(edges)

    return node(0)


def flat_tree(rng: random.Random):
    """Depth-4 tree whose flat law has 3**4 * 2 * 3 * 2 = 972 components,
    one segment per path, from stage FLAT_SEGMENT_STAGE.

    Branch probabilities and component weights are even, so the law's
    mass spreads evenly over its breakpoints and the quantile scan, which
    stops at the level, does the same work on every seed (within 1%,
    against 10% with random weights)."""

    def node(stage: int):
        if stage == len(FLAT_STAGE_SIZES):
            return ()
        edges = []
        for p in even(FLAT_BRANCHING):
            size = FLAT_STAGE_SIZES[stage]
            if size == 1:
                cost = rng.uniform(0.0, 10.0)
            else:
                cost = mixture(rng, even(size), segment=stage == FLAT_SEGMENT_STAGE)
            edges.append((p, cost, node(stage + 1)))
        return tuple(edges)

    return node(0)


def chain_costs() -> Tuple[float, ...]:
    """Deep deterministic chain; fixed, so its failures do not depend on
    the seed."""
    return tuple(0.5 + (k % 7) for k in range(CHAIN_STAGES))


# ---------------------------------------------------------------------------
# MDPs and files
# ---------------------------------------------------------------------------


def layered_mdp(
    rng: random.Random, horizon: int, n_states: int, n_actions: int, n_succ: int
) -> dict:
    """MDP in the library's JSON layout: every stage has n_states states,
    each available action reaches n_succ distinct next-stage states."""
    names = [f"s{i}" for i in range(n_states)]
    actions = [f"a{j}" for j in range(n_actions)]
    entries = []
    for n in range(horizon):
        for s in names:
            offered = [a for a in actions if rng.random() >= MDP_DROP]
            if not offered:
                offered = [rng.choice(actions)]
            for a in offered:
                targets = rng.sample(names, n_succ)
                entries.append(
                    {
                        "n": n,
                        "s": s,
                        "a": a,
                        "to": [
                            {"s'": t, "p": p, "r": rng.uniform(0.0, 10.0)}
                            for t, p in zip(targets, weights(rng, n_succ))
                        ],
                    }
                )
    return {
        "horizon": horizon,
        "states": [list(names) for _ in range(horizon + 1)],
        "actions": actions,
        "initial": names[0],
        "lambda": rng.uniform(0.85, 0.99),
        "transitions": entries,
    }


def dist_json(comps: Sequence[Tuple[float, float, float]]) -> dict:
    return {
        "components": [
            {"w": w, "point": lo} if lo == hi else {"w": w, "uniform": [lo, hi]}
            for w, lo, hi in comps
        ]
    }


def sweep_points(rng: random.Random, n: int) -> List[Tuple[float, float]]:
    """(alpha, lambda) points on the preference grid, off the grid lines."""
    return [(rng.uniform(0.0, 0.99), rng.uniform(0.0, 1.0)) for _ in range(n)]
