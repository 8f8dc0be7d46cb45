"""Extreme-float fuzz: every error the library raises is a RiskModelError.

A seeded loop builds laws through every constructor (the class itself,
JSON, `mix`, `affine_transform`, `merge_atoms`), evaluates them under
every functional and disutility, scores two-stage trees through the
recursion and the flat law, and runs `riskdp eval` and `riskdp solve` on
the JSON of laws and MDPs.  The numbers come from a pool of extremes:
the float limit, 1e300, subnormals, signed zeros, infinities and NaN,
with weights that sum to one only within 4e-13.  Whatever a case
returns is not checked; the one assertion is that nothing but a
`RiskModelError` escapes (and, for the CLI, that it exits 0 or 2).
"""
from __future__ import annotations

import json
import math
import random
import time
from functools import partial

from riskdp import (
    Composite,
    Cte,
    Edge,
    Erm,
    Expectation,
    Exponential,
    IrmSpec,
    Linear,
    MixedDistribution,
    PiecewiseLinear,
    PointMass,
    Power,
    RiskModelError,
    ScenarioTree,
    TreeNode,
    UniformSegment,
    ValueAtRisk,
    affine_transform,
    cte,
    discounted_total_distribution,
    erm,
    eud,
    evaluate,
    irm_evaluate,
    irm_root_value,
    mean,
    merge_atoms,
    pushforward_mean,
    rmd,
    value_at_risk,
)

from .conftest import run_cli

LIMIT = 1.7976931348623157e308
TINY = 5e-324
EXTREMES = (
    LIMIT, -LIMIT, 1.7e308, -1.7e308, 1e308, -1e308, 1e300, -1e300, 1e17,
    TINY, -TINY, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, 1.0, -1.0, 2.5, 10.0,
)
NOT_FINITE = (math.inf, -math.inf, math.nan)
LEVELS = (0.0, TINY, 1e-300, 0.5, 0.9, 1.0 - 2**-53)
DISCOUNTS = (0.0, TINY, 0.5, 1.0 - 2**-53, 1.0)
LIBRARY_CASES = 20_000
CLI_CASES = 150


def number(rng: random.Random) -> float:
    return rng.choice(NOT_FINITE) if rng.random() < 0.02 else rng.choice(EXTREMES)


def weights(rng: random.Random, n: int) -> list:
    """n weights summing to one, or off it by 4e-13, with subnormal and
    zero weights among them at times."""
    ws = [1.0 / n] * n
    pick = rng.random()
    if pick < 0.3:
        ws[-1] += rng.choice((4e-13, -4e-13))
    elif pick < 0.5 and n > 1:
        ws[0] = rng.choice((TINY, 0.0, 1e-310))
        ws[-1] += 1.0 / n - ws[0]
    return ws


def outcome_ends(rng: random.Random) -> tuple:
    """(lo, hi): an atom's value twice, or a segment's ends."""
    a = number(rng)
    if rng.random() < 0.5:
        return a, a
    b = number(rng)
    if rng.random() < 0.5:  # a narrow segment, at times of one ulp
        b = a + rng.choice((1.0, abs(a) * 1e-15, TINY))
    return min(a, b), max(a, b)


def constructed_law(rng: random.Random) -> MixedDistribution:
    n = rng.randint(1, 4)
    comps = []
    for w in weights(rng, n):
        lo, hi = outcome_ends(rng)
        comps.append((w, PointMass(lo) if lo == hi else UniformSegment(lo, hi)))
    return MixedDistribution(tuple(comps))


def json_law_text(rng: random.Random) -> str:
    entries = []
    for w in weights(rng, rng.randint(1, 4)):
        lo, hi = outcome_ends(rng)
        entries.append({"w": w, "point": lo} if lo == hi else {"w": w, "uniform": [lo, hi]})
    return json.dumps({"components": entries})


def law(rng: random.Random) -> MixedDistribution:
    """A law built through one of the constructors, picked at random."""
    how = rng.randrange(5)
    if how == 0:
        return constructed_law(rng)
    if how == 1:
        return MixedDistribution.from_json_dict(json.loads(json_law_text(rng)))
    if how == 2:
        p = rng.choice((0.5, TINY, 1.0, 0.5 + 4e-13))
        return MixedDistribution.mix([(p, constructed_law(rng)), (1.0 - p, constructed_law(rng))])
    if how == 3:
        a = rng.choice((TINY, 0.5, 1.0, 2.0, 1e300, LIMIT))
        return affine_transform(constructed_law(rng), a, number(rng))
    return merge_atoms(constructed_law(rng))


def functional(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return Expectation()
    if kind == 1:
        return Erm(rng.choice((1e-310, -1e-310, 1e-300, 0.5, -2.0, 1e300, -1e300, 0.0)))
    if kind == 2:
        return ValueAtRisk(rng.choice(LEVELS))
    if kind == 3:
        return Cte(rng.choice(LEVELS))
    c = rng.choice((0.5, 0.5 + 4e-13))
    return Composite(((c, functional(rng)), (1.0 - c + rng.choice((0.0, 4e-13)), functional(rng))))


def disutility(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return Exponential(rng.choice((1e-310, 1e-300, 0.01, 1.0, 1e300)))
    if kind == 1:
        return Linear()
    if kind == 2:
        return Power(rng.choice((1.0, 2.5, 1e300)))
    slope = rng.choice((1e-300, 1.0, 1e300))
    return PiecewiseLinear(((-1.0, -slope), (0.0, 0.0), (1e300, 1e300 * slope if slope < 1e10 else LIMIT)))


def edge_cost(rng: random.Random, segment_ok: bool):
    if rng.random() < 0.6:
        return number(rng)
    cost = law(rng)
    if not segment_ok and any(lo != hi for lo, hi in zip(*cost.columns()[1:])):
        return number(rng)
    return cost


def two_stage_tree(rng: random.Random) -> ScenarioTree:
    """A horizon-2 tree with one or two edges per node; segments only on
    the root's edges, so no path sums two of them."""
    edges = []
    for p in weights(rng, rng.randint(1, 2)):
        below = [Edge(q, edge_cost(rng, False), TreeNode(2, ())) for q in weights(rng, rng.randint(1, 2))]
        edges.append(Edge(p, edge_cost(rng, True), TreeNode(1, tuple(below))))
    return ScenarioTree(2, TreeNode(0, tuple(edges)))


def evaluate_case(rng: random.Random) -> None:
    evaluate(functional(rng), law(rng))


def kernel_case(rng: random.Random) -> None:
    """A functional called by its own name, which has no one-atom shortcut."""
    d, level = law(rng), rng.choice(LEVELS)
    rng.choice((mean, partial(erm, rng.choice((1e-310, 0.5, -1e300))), partial(value_at_risk, level), partial(cte, level)))(d)


def disutility_case(rng: random.Random) -> None:
    pushforward_mean(disutility(rng), law(rng))


def statistic_case(rng: random.Random) -> None:
    d, y = law(rng), number(rng)
    rng.choice((d.cdf, d.tail_mass, d.tail_sum, d.atom_mass_at))(y)


def recursion_case(rng: random.Random) -> None:
    tree = two_stage_tree(rng)
    run = irm_root_value if rng.random() < 0.5 else irm_evaluate
    run(tree, IrmSpec((functional(rng), functional(rng))), rng.choice(DISCOUNTS))


def flat_case(rng: random.Random) -> None:
    tree, lam = two_stage_tree(rng), rng.choice(DISCOUNTS)
    pick = rng.randrange(3)
    if pick == 0:
        rmd(tree, functional(rng), lam)
    elif pick == 1:
        eud(tree, disutility(rng), lam)
    else:
        discounted_total_distribution(tree, lam)


CASES = (evaluate_case, kernel_case, disutility_case, statistic_case, recursion_case, flat_case)


def mdp_text(rng: random.Random) -> str:
    """A one- or two-stage MDP with extreme costs and a drifting
    probability at times."""
    horizon = rng.randint(1, 2)
    states = [["s0"]] + [[f"s{i}" for i in range(rng.randint(1, 2))] for _ in range(horizon)]
    transitions = []
    for n in range(horizon):
        for s in states[n]:
            for a in ("a", "b")[: rng.randint(1, 2)]:
                targets = states[n + 1]
                to = [{"s'": t, "p": p, "r": number(rng)} for t, p in zip(targets, weights(rng, len(targets)))]
                transitions.append({"n": n, "s": s, "a": a, "to": to})
    return json.dumps({
        "horizon": horizon, "states": states, "actions": ["a", "b"], "initial": "s0",
        "lambda": rng.choice(DISCOUNTS), "transitions": transitions,
    })


def cli_flags(rng: random.Random) -> list:
    flag = rng.choice(("--mean", "--erm", "--var", "--cte"))
    if flag == "--mean":
        return [flag]
    return [flag, repr(rng.choice((0.5, 1e-300) if flag == "--erm" else LEVELS))]


def test_extreme_floats_raise_only_typed_errors():
    rng = random.Random(20121)
    escaped = []
    start = time.perf_counter()
    for k in range(LIBRARY_CASES):
        case = rng.choice(CASES)
        try:
            case(rng)
        except RiskModelError:
            pass
        except Exception as exc:  # anything else escaped the library
            escaped.append((k, case.__name__, repr(exc)))
    elapsed = time.perf_counter() - start
    assert not escaped, f"{len(escaped)} untyped errors, the first: {escaped[:3]}"
    assert elapsed < 5.0, f"{LIBRARY_CASES} cases took {elapsed:.1f} s"


def test_extreme_floats_through_the_cli_exit_0_or_2(tmp_path):
    rng = random.Random(20122)
    path = tmp_path / "input.json"
    for k in range(CLI_CASES):
        command = rng.choice(("eval", "solve"))
        path.write_text(json_law_text(rng) if command == "eval" else mdp_text(rng), encoding="utf-8")
        args = [command, str(path), *cli_flags(rng)]
        result = run_cli(args)
        # a usage error is a SystemExit, which is not an Exception
        assert result.exit_code in (0, 2) and not isinstance(result.exception, Exception), (
            k, args, path.read_text(), repr(result.exception)
        )
