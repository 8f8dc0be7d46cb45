"""Write flat_bits.json: seeded, tie-heavy scenario trees with the exact
flat laws of their discounted totals, the values rmd and eud give them,
and the node values of the stagewise recursion.

    PYTHONPATH=src python3 tests/data/make_flat_bits.py > tests/data/flat_bits.json

Costs are small integers, or thirds of them, and probabilities multiples
of 1/8, so path totals tie exactly or within MERGE_TOL and the levels 0.5
and 0.75 land on atoms.  Some edges and cost components carry the tiny
weight 1e-170; a path that takes two of them has probability zero, so
the laws hold zero-weight components.  Every path carries at most one
segment-valued cost, and two trees have a single path.  Values are
recorded with float.hex.  The committed file was written before the
flat law was built as columns, and its recursion values before each
node's one-step law was compiled into the tree's plan; test_tree checks
that the library still reproduces it bit for bit.
"""
import json
import random
import sys

from riskdp import (
    Composite,
    Cte,
    Erm,
    Expectation,
    Exponential,
    IrmSpec,
    Linear,
    MixedDistribution,
    PiecewiseLinear,
    PointMass,
    Power,
    ValueAtRisk,
    deterministic_tree,
    discounted_total_distribution,
    eud,
    irm_evaluate,
    rf_to_json_dict,
    rmd,
    tree_from_json_dict,
    tree_to_json_dict,
)

SEEDS = range(1, 13)
TINY = 1e-170
FUNCTIONALS = {
    "mean": Expectation(),
    "erm(0.5)": Erm(0.5),
    "erm(-0.5)": Erm(-0.5),
    "var(0.5)": ValueAtRisk(0.5),
    "var(0.75)": ValueAtRisk(0.75),
    "cte(0.5)": Cte(0.5),
    "cte(0.75)": Cte(0.75),
    "cte(0)": Cte(0.0),
    "composite": Composite(
        (
            (0.5, Expectation()),
            (0.25, Composite(((0.5, Cte(0.5)), (0.5, ValueAtRisk(0.75))))),
            (0.25, Erm(0.5)),
        )
    ),
}
# keyed by repr in the fixture
DISUTILITIES = (
    Exponential(0.5),
    Linear(),
    Power(2.0),
    PiecewiseLinear(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0), (5.0, 8.0))),
)
# discounts of the stagewise recursion, on every tree
IRM_LAMBDAS = (0.0, 0.5, 1.0)


def eighths(rng: random.Random, n: int) -> list:
    """n probabilities in multiples of 1/8, each positive, summing to one."""
    cuts = sorted(rng.sample(range(1, 8), n - 1))
    return [(b - c) / 8.0 for c, b in zip([0, *cuts], [*cuts, 8])]


def tied_cost(rng: random.Random, unit: float, segment: bool):
    """A scalar, or the JSON of a small law, with a segment when asked."""
    if not segment and rng.random() < 0.4:
        return rng.randint(0, 4) / unit
    n = rng.randint(2, 3)
    comps = []
    for i, w in enumerate(eighths(rng, n)):
        lo = rng.randint(0, 4) / unit
        if segment and i == 0:
            comps.append({"w": w, "uniform": [lo, lo + rng.randint(1, 2) / unit]})
        else:
            comps.append({"w": w, "point": lo})
    if rng.random() < 0.3:
        comps.append({"w": TINY, "point": 7.0 + rng.randint(0, 4) / unit})
    return {"components": comps}


def tied_tree(rng: random.Random) -> dict:
    horizon = rng.randint(2, 4)
    unit = rng.choice((1.0, 3.0))
    segment_stage = rng.randrange(horizon)

    def node(stage: int) -> dict:
        if stage == horizon:
            return {"children": []}
        probs = eighths(rng, rng.randint(1, 3))
        if rng.random() < 0.3:
            probs.append(TINY)
        return {
            "children": [
                {
                    "p": p,
                    "cost": tied_cost(rng, unit, stage == segment_stage and rng.random() < 0.7),
                    "node": node(stage + 1),
                }
                for p in probs
            ]
        }

    return {"horizon": horizon, "root": node(0)}


def one_path_trees() -> list:
    thirds = deterministic_tree([1.0, 2.0 / 3.0, 1.0 / 3.0])
    segment = deterministic_tree([1.0 / 3.0, MixedDistribution.uniform(0.0, 2.0 / 3.0), 1.0])
    return [tree_to_json_dict(thirds), tree_to_json_dict(segment)]


def law_bits(law: MixedDistribution) -> list:
    out = []
    for w, o in law.components:
        if isinstance(o, PointMass):
            out.append([w.hex(), o.value.hex()])
        else:
            out.append([w.hex(), o.lo.hex(), o.hi.hex()])
    return out


def irm_bits(tree) -> dict:
    """The recursion's node keys, in irm_evaluate's order, and its node
    values in that order under each functional at each of IRM_LAMBDAS."""
    keys, runs = None, []
    for lam in IRM_LAMBDAS:
        values = {}
        for label, rf in FUNCTIONALS.items():
            table = irm_evaluate(tree, IrmSpec.repeat(rf, tree.horizon), lam).node_values
            keys = [list(key) for key in table]
            values[label] = [v.hex() for v in table.values()]
        runs.append({"lambda": lam, "values": values})
    return {"keys": keys, "runs": runs}


def main() -> None:
    trees = [(f"seed {seed}", tied_tree(random.Random(seed))) for seed in SEEDS]
    trees += [(f"one path {k}", data) for k, data in enumerate(one_path_trees())]
    cases = []
    for k, (name, data) in enumerate(trees):
        tree = tree_from_json_dict(data)
        lam = (1.0, 0.9, 0.75, 0.5)[k % 4]
        cases.append(
            {
                "name": name,
                "tree": data,
                "lambda": lam,
                "law": law_bits(discounted_total_distribution(tree, lam)),
                "rmd": {label: rmd(tree, rf, lam).hex() for label, rf in FUNCTIONALS.items()},
                "eud": {repr(u): eud(tree, u, lam).hex() for u in DISUTILITIES},
                "irm": irm_bits(tree),
            }
        )
    functionals = {label: rf_to_json_dict(rf) for label, rf in FUNCTIONALS.items()}
    json.dump({"functionals": functionals, "cases": cases}, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
