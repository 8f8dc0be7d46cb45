"""The four workloads: their inputs, operations and output checks.

A workload draws its plain-data inputs from the seed in ``__init__``,
turns them into library objects in ``build`` (the timed set-up), and
lists its operations in ``ops``.  Every round runs the same operations
in the same order.  ``expected`` computes the oracle values from the
plain data alone, and each operation's ``check`` compares one output
with them, returning a message when they disagree.

An operation whose ``fault`` is set hits a known defect of the library
today; it is counted as failed when it raises, and checked like any
other operation once it stops raising.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

import gen
import oracles as orc
import proc

DEEP_CHAIN = "deep chain raises RecursionError (ROADMAP item 4)"
BAD_INPUT = "malformed input exits 1 with a traceback, not 2 (ROADMAP item 5)"


@dataclass
class Op:
    name: str
    phase: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], Optional[str]]
    fault: str = ""


class OpFailed(Exception):
    """The program did not produce an output for this operation."""


def _differs(what: str, got: float, want: float) -> Optional[str]:
    if orc.close(got, want):
        return None
    return f"{what}: got {got!r}, oracle {want!r}"


def _first(messages) -> Optional[str]:
    return next((m for m in messages if m), None)


def _riskdp() -> SimpleNamespace:
    import riskdp.casebook
    import riskdp.distributions
    import riskdp.mdp
    import riskdp.measures
    import riskdp.tree

    if not Path(riskdp.__file__).resolve().is_relative_to(proc.SRC):
        raise ImportError(f"riskdp was imported from {riskdp.__file__}, not {proc.SRC}")
    return SimpleNamespace(
        casebook=riskdp.casebook,
        dist=riskdp.distributions,
        mdp=riskdp.mdp,
        measures=riskdp.measures,
        tree=riskdp.tree,
    )


def _cost(m, cost):
    if isinstance(cost, float):
        return cost
    D = m.dist
    return D.MixedDistribution(
        tuple((w, D.PointMass(lo) if lo == hi else D.UniformSegment(lo, hi)) for w, lo, hi in cost)
    )


def _tree(m, data, horizon: int):
    T = m.tree

    def node(edges, stage):
        return T.TreeNode(
            stage=stage,
            edges=tuple(T.Edge(p, _cost(m, c), node(child, stage + 1)) for p, c, child in edges),
        )

    return T.ScenarioTree(horizon=horizon, root=node(data, 0))


def _chain(m, costs):
    T = m.tree
    node = T.TreeNode(stage=len(costs), edges=())
    for n in range(len(costs) - 1, -1, -1):
        node = T.TreeNode(stage=n, edges=(T.Edge(1.0, costs[n], node),))
    return T.ScenarioTree(horizon=len(costs), root=node)


def _payment_trees():
    """The two payment plans of the source paper as tree data."""
    days, amount, p = orc.PAY_DAYS, orc.PAY_AMOUNT, orc.PAY_PROB

    def chain(cost, stages):
        edges = ()
        for _ in range(stages):
            edges = ((1.0, cost, edges),)
        return edges

    upfront = ((1.0, amount, chain(0.0, days - 1)),)
    installment = ((p, amount, chain(amount, days - 1)), (1.0 - p, 0.0, chain(0.0, days - 1)))
    return upfront, installment


def _node_values(got: Dict[tuple, float], want: Dict[tuple, float], what: str) -> Optional[str]:
    if set(got) != set(want):
        return f"{what}: node keys differ"
    return _first(_differs(f"{what} node {k}", got[k], v) for k, v in want.items())


def _composite(alpha: float):
    return lambda law: 0.5 * orc.mean(law) + 0.5 * orc.cte(law, alpha)


# ---------------------------------------------------------------------------
# recursion_sweep
# ---------------------------------------------------------------------------


class RecursionSweep:
    name = "recursion_sweep"
    why = "tree recursion and per-edge law building dominate; measures only see laws of a few atoms"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        steps = gen.SWEEP_STEPS
        self.data = {
            "alpha_axis": [i / steps for i in range(steps)],
            "lambda_axis": [j / (steps - 1) for j in range(steps)],
            "points": gen.sweep_points(rng, gen.PAYMENT_POINTS),
            "tree": gen.bushy_tree(rng, gen.BUSHY_DEPTH, gen.BUSHY_BRANCHING),
            "alpha": rng.uniform(0.5, 0.95),
            "gamma": rng.uniform(0.05, 0.3),
            "lam": rng.uniform(0.8, 0.99),
            "chain": gen.chain_costs(),
        }

    def build(self) -> None:
        m = self.m = _riskdp()
        d, M, H = self.data, m.measures, gen.BUSHY_DEPTH
        up, inst = _payment_trees()
        self.upfront = _tree(m, up, orc.PAY_DAYS)
        self.installment = _tree(m, inst, orc.PAY_DAYS)
        self.point_specs = [m.tree.IrmSpec.repeat(M.Cte(a), orc.PAY_DAYS) for a, _ in d["points"]]
        self.bushy = _tree(m, d["tree"], H)
        self.spec = {
            "cte": m.tree.IrmSpec.repeat(M.Cte(d["alpha"]), H),
            "erm": m.tree.IrmSpec.repeat(M.Erm(d["gamma"]), H),
            "composite": m.tree.IrmSpec.repeat(
                M.Composite(((0.5, M.Expectation()), (0.5, M.Cte(d["alpha"])))), H
            ),
            "mean": m.tree.IrmSpec.repeat(M.Expectation(), H),
            "chain": m.tree.IrmSpec.repeat(M.Cte(gen.CHAIN_ALPHA), len(d["chain"])),
        }
        self.chain = _chain(m, d["chain"])

    @staticmethod
    def expected(d: dict) -> dict:
        tree, alpha, lam = d["tree"], d["alpha"], d["lam"]
        inst = [[orc.installment_value(a, l) for l in d["lambda_axis"]] for a in d["alpha_axis"]]
        return {
            "alpha_axis": d["alpha_axis"],
            "lambda_axis": d["lambda_axis"],
            "installment": inst,
            "boundary": [orc.boundary(l) for l in d["lambda_axis"]],
            "points": [(orc.upfront_value(a, l), orc.installment_value(a, l)) for a, l in d["points"]],
            "cte_nodes": orc.tree_recursion(tree, lam, lambda law: orc.cte(law, alpha)),
            "erm_nodes": orc.tree_recursion(tree, 1.0, lambda law: orc.erm(law, d["gamma"])),
            "erm_flat": orc.path_moments(tree, 1.0, d["gamma"])[1],
            "composite_nodes": orc.tree_recursion(tree, lam, _composite(alpha)),
            "flat_mean": orc.path_moments(tree, lam, d["gamma"])[0],
            "chain_total": orc.chain_total(d["chain"], gen.CHAIN_LAMBDA),
            "chain": d["chain"],
        }

    def ops(self) -> List[Op]:
        m, d = self.m, self.data
        steps = gen.SWEEP_STEPS
        ops = [Op("sweep", "sweep", lambda: m.casebook.preference_region(steps, steps), _check_sweep)]
        for k, ((_, lam), spec) in enumerate(zip(d["points"], self.point_specs)):
            ops.append(
                Op(
                    f"payment_{k}",
                    "payment",
                    lambda spec=spec, lam=lam: (
                        m.tree.irm_root_value(self.upfront, spec, lam),
                        m.tree.irm_root_value(self.installment, spec, lam),
                    ),
                    lambda got, exp, k=k: _first(
                        _differs(f"payment point {k} {plan}", g, w)
                        for plan, g, w in zip(("upfront", "installment"), got, exp["points"][k])
                    ),
                )
            )
        lam = d["lam"]
        ops += [
            Op(
                "irm_cte",
                "bushy",
                lambda: m.tree.irm_evaluate(self.bushy, self.spec["cte"], lam),
                lambda got, exp: _node_values(got.node_values, exp["cte_nodes"], "cte"),
            ),
            Op(
                "irm_erm",
                "bushy",
                lambda: m.tree.irm_evaluate(self.bushy, self.spec["erm"], 1.0),
                lambda got, exp: _differs("erm root vs erm of the total", got.root_value, exp["erm_flat"])
                or _node_values(got.node_values, exp["erm_nodes"], "erm"),
            ),
            Op(
                "irm_composite",
                "bushy",
                lambda: m.tree.irm_evaluate(self.bushy, self.spec["composite"], lam),
                lambda got, exp: _node_values(got.node_values, exp["composite_nodes"], "composite"),
            ),
            Op(
                "irm_mean",
                "bushy",
                lambda: m.tree.irm_root_value(self.bushy, self.spec["mean"], lam),
                lambda got, exp: _differs("mean recursion vs flat mean", got, exp["flat_mean"]),
            ),
        ]
        clam = gen.CHAIN_LAMBDA
        ops += [
            Op(
                "chain_irm_evaluate",
                "chain",
                lambda: m.tree.irm_evaluate(self.chain, self.spec["chain"], clam),
                lambda got, exp: _differs("chain root", got.root_value, exp["chain_total"])
                or (None if len(got.node_values) == len(exp["chain"]) + 1 else "chain node count"),
                DEEP_CHAIN,
            ),
            Op(
                "chain_irm_root_value",
                "chain",
                lambda: m.tree.irm_root_value(self.chain, self.spec["chain"], clam),
                lambda got, exp: _differs("chain root", got, exp["chain_total"]),
                DEEP_CHAIN,
            ),
            Op(
                "chain_flat_law",
                "chain",
                lambda: m.tree.discounted_total_distribution(self.chain, clam),
                _check_chain_law,
                DEEP_CHAIN,
            ),
            Op(
                "chain_path_count",
                "chain",
                lambda: self.chain.path_count(),
                lambda got, exp: None if got == 1 else f"chain path count {got}",
                DEEP_CHAIN,
            ),
            Op(
                "chain_json_round_trip",
                "chain",
                lambda: m.tree.tree_from_json_dict(m.tree.tree_to_json_dict(self.chain)),
                _check_chain_round_trip,
                DEEP_CHAIN,
            ),
        ]
        return ops

    def perturbations(self):
        """(label, mutate) pairs for the self-test, one per oracle."""

        def axis(d):
            d["lambda_axis"][37] *= 1.0 + 1e-6

        def point(d):
            a, l = d["points"][0]
            d["points"][0] = (a, l * (1.0 + 1e-6) + 1e-6)

        def edge(d):
            p, cost, child = d["tree"][0]
            d["tree"] = ((p, _bump(cost), child),) + d["tree"][1:]

        return [("sweep closed form", axis), ("payment closed form", point), ("tree oracles", edge)]


def _bump(cost):
    if isinstance(cost, float):
        return cost + 1e-5
    (w, lo, hi), *rest = cost
    return ((w, lo + 1e-5, hi + 1e-5), *rest)


def _check_sweep(grid, exp) -> Optional[str]:
    if list(grid.alpha_axis) != exp["alpha_axis"] or len(grid.lambda_axis) != len(exp["lambda_axis"]):
        return "sweep axes differ"
    for j, ((lam, cut), want_lam, want_cut) in enumerate(
        zip(grid.boundary, exp["lambda_axis"], exp["boundary"])
    ):
        msg = _differs(f"sweep lambda {j}", lam, want_lam) or _differs(f"boundary {j}", cut, want_cut)
        if msg:
            return msg
    for i, row in enumerate(exp["installment"]):
        for j, inst in enumerate(row):
            up = orc.PAY_AMOUNT
            # a tie within tolerance may fall either way
            if not orc.close(up, inst) and grid.cells[i][j] != (up <= inst):
                return f"sweep cell ({i}, {j}): got {grid.cells[i][j]}, oracle {up} vs {inst}"
    return None


def _check_chain_law(got, exp) -> Optional[str]:
    comps = got.components
    if len(comps) != 1:
        return f"chain flat law has {len(comps)} components"
    return _differs("chain flat law", comps[0][1].value, exp["chain_total"])


def _check_chain_round_trip(got, exp) -> Optional[str]:
    node, costs = got.root, []
    while node.edges:
        costs.append(node.edges[0].cost)
        node = node.edges[0].child
    return None if tuple(costs) == tuple(exp["chain"]) else "chain JSON round trip changed the costs"


# ---------------------------------------------------------------------------
# flat_law
# ---------------------------------------------------------------------------


# fixed, because the quantile scan stops at the level and its cost with it
FLAT_ALPHAS = (0.6, 0.9)


class FlatLaw:
    name = "flat_law"
    why = "measures kernels on flat laws of about 10^3 components dominate, the quadratic quantile scan most"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        trees = []
        for _ in range(gen.FLAT_TREES):
            s1 = rng.uniform(0.5, 1.0)
            s2 = s1 + rng.uniform(0.2, 1.0)
            s3 = s2 + rng.uniform(0.2, 1.0)
            k1, k2, k3 = rng.uniform(8.0, 14.0), rng.uniform(16.0, 22.0), rng.uniform(24.0, 30.0)
            u1 = s1 * k1
            u2 = u1 + s2 * (k2 - k1)
            trees.append(
                {
                    "tree": gen.flat_tree(rng),
                    "lam": rng.uniform(0.8, 1.0),
                    "alphas": list(FLAT_ALPHAS),
                    "gamma": rng.uniform(0.05, 0.2),
                    "exp_gamma": rng.uniform(0.02, 0.08),
                    "knots": [(0.0, 0.0), (k1, u1), (k2, u2), (k3, u2 + s3 * (k3 - k2))],
                }
            )
        self.data = {"trees": trees}

    def build(self) -> None:
        m = self.m = _riskdp()
        M = m.measures
        self.trees = []
        for t in self.data["trees"]:
            self.trees.append(
                {
                    "tree": _tree(m, t["tree"], len(gen.FLAT_STAGE_SIZES)),
                    "mean": M.Expectation(),
                    "erm": M.Erm(t["gamma"]),
                    "var": [M.ValueAtRisk(a) for a in t["alphas"]],
                    "cte": [M.Cte(a) for a in t["alphas"]],
                    "exp": M.Exponential(t["exp_gamma"]),
                    "pwl": M.PiecewiseLinear(tuple(t["knots"])),
                }
            )

    @staticmethod
    def expected(d: dict) -> dict:
        out = {}
        for i, t in enumerate(d["trees"]):
            law = orc.flat_law(t["tree"], t["lam"])
            out[f"t{i}_mean"] = orc.mean(law)
            out[f"t{i}_erm"] = orc.erm(law, t["gamma"])
            for k, a in enumerate(t["alphas"]):
                out[f"t{i}_var{k}"] = orc.quantile(law, a)
                out[f"t{i}_cte{k}"] = orc.cte(law, a)
            out[f"t{i}_eud_exp"] = orc.eud_exponential(law, t["exp_gamma"])
            out[f"t{i}_eud_pwl"] = orc.eud_piecewise(law, t["knots"])
        return out

    def ops(self) -> List[Op]:
        T = self.m.tree
        ops = []

        def op(name, phase, call):
            ops.append(Op(name, phase, call, lambda got, exp: _differs(name, got, exp[name])))

        for i, (t, data) in enumerate(zip(self.trees, self.data["trees"])):
            tree, lam = t["tree"], data["lam"]
            op(f"t{i}_mean", "rmd_linear", lambda tree=tree, lam=lam, rf=t["mean"]: T.rmd(tree, rf, lam))
            op(f"t{i}_erm", "rmd_linear", lambda tree=tree, lam=lam, rf=t["erm"]: T.rmd(tree, rf, lam))
            for k in range(len(data["alphas"])):
                op(f"t{i}_var{k}", "rmd_tail", lambda tree=tree, lam=lam, rf=t["var"][k]: T.rmd(tree, rf, lam))
                op(f"t{i}_cte{k}", "rmd_tail", lambda tree=tree, lam=lam, rf=t["cte"][k]: T.rmd(tree, rf, lam))
            op(f"t{i}_eud_exp", "rmd_linear", lambda tree=tree, lam=lam, u=t["exp"]: T.eud(tree, u, lam))
            op(f"t{i}_eud_pwl", "rmd_linear", lambda tree=tree, lam=lam, u=t["pwl"]: T.eud(tree, u, lam))
        return ops

    def perturbations(self):
        def edge(d):
            p, cost, child = d["trees"][0]["tree"][0]
            d["trees"][0]["tree"] = ((p, _bump(cost), child),) + d["trees"][0]["tree"][1:]

        def level(d):
            d["trees"][1]["alphas"][1] += 1e-6

        def knot(d):
            c, u = d["trees"][0]["knots"][2]
            d["trees"][0]["knots"][2] = (c + 1e-4, u)

        return [("path enumeration", edge), ("quantile and RU minimum", level), ("trapezoid per knot", knot)]


# ---------------------------------------------------------------------------
# dp_solve
# ---------------------------------------------------------------------------


CTE_ALPHA = 0.9


class DpSolve:
    name = "dp_solve"
    why = "MDP validation and backward induction on one-step laws of tens of atoms dominate"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        mdp = gen.layered_mdp(rng, gen.MDP_HORIZON, gen.MDP_STATES, gen.MDP_ACTIONS, gen.MDP_SUCCESSORS)
        self.data = {
            "mdp": mdp,
            "gamma": rng.uniform(0.05, 0.2),
            "tail_stage": gen.MDP_HORIZON // 2,
            "tail_state": rng.choice(mdp["states"][gen.MDP_HORIZON // 2]),
        }

    def build(self) -> None:
        m = self.m = _riskdp()
        M, H, d = m.measures, gen.MDP_HORIZON, self.data
        self.rfs = {"mean": M.Expectation(), "erm": M.Erm(d["gamma"]), "cte": M.Cte(CTE_ALPHA)}
        self.specs = {k: m.tree.IrmSpec.repeat(rf, H) for k, rf in self.rfs.items()}
        self.tail_spec = m.tree.IrmSpec.repeat(self.rfs["cte"], H - d["tail_stage"])
        self.state: Dict[str, Any] = {}

    @staticmethod
    def expected(d: dict) -> dict:
        params = {"mean": 0.0, "erm": d["gamma"], "cte": CTE_ALPHA}
        out = {"mdp": d["mdp"], "tail": (d["tail_stage"], d["tail_state"])}
        for kind, param in params.items():
            out[kind] = orc.mdp_backward(d["mdp"], kind, param)
        return out

    def ops(self) -> List[Op]:
        D, st = self.m.mdp, self.state
        ops = [Op("build", "mdp_build", self._build, _check_build)]
        for kind in ("mean", "erm", "cte"):
            ops.append(Op(f"solve_{kind}", f"solve_{kind}", self._solve(kind), _check_solve(kind)))
        for kind in ("mean", "erm", "cte"):
            ops.append(
                Op(
                    f"policy_{kind}",
                    "policy",
                    lambda kind=kind: D.evaluate_policy(st["mdp"], st[kind].policy, self.specs[kind]),
                    lambda got, exp, kind=kind: _check_policy_values(got, st[kind].values, exp[kind][0]),
                )
            )
        n, s = self.data["tail_stage"], self.data["tail_state"]
        ops.append(
            Op(
                "tail",
                "tail",
                lambda: D.solve_dp(D.tail_mdp(st["mdp"], n, s), self.tail_spec).values[(0, s)],
                lambda got, exp: _differs("tail root vs full solve", got, st["cte"].values[(n, s)])
                or _differs("tail root", got, exp["cte"][0][(n, s)]),
            )
        )
        return ops

    def _build(self):
        self.state.clear()
        self.state["mdp"] = self.m.mdp.mdp_from_json_dict(self.data["mdp"])
        return self.state["mdp"]

    def _solve(self, kind: str):
        def call():
            self.state[kind] = self.m.mdp.solve_dp(self.state["mdp"], self.specs[kind])
            return self.state[kind]

        return call

    def perturbations(self):
        def discount(d):
            d["mdp"] = dict(d["mdp"], **{"lambda": d["mdp"]["lambda"] * (1.0 + 1e-6)})

        return [("numpy backward induction", discount)]


def _check_build(got, exp) -> Optional[str]:
    data = exp["mdp"]
    if got.horizon != data["horizon"] or len(got.transitions) != len(data["transitions"]):
        return "built MDP differs from its JSON"
    return None


def _check_solve(kind: str):
    def check(got, exp) -> Optional[str]:
        values, q_values = exp[kind]
        msg = _check_policy_values(got.values, got.values, values)
        if msg:
            return f"{kind}: {msg}"
        for (n, s), a in got.policy.items():
            if not orc.close(q_values[(n, s, a)], values[(n, s)]):
                return f"{kind}: action {a!r} at ({n}, {s!r}) misses the oracle minimum"
        return None

    return check


def _check_policy_values(got, solved, oracle) -> Optional[str]:
    if set(got) != set(oracle):
        return "value table covers other states than the oracle"
    return _first(
        _differs(f"value at {key}", got[key], solved[key]) or _differs(f"value at {key}", got[key], want)
        for key, want in oracle.items()
    )


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


HIGHWAY = [(0.9, 10.0, 10.0), (0.1, 20.0, 80.0)]
LOCAL_ROADS = [(0.9, 0.0, 20.0), (0.1, 50.0, 50.0)]
PRINTED = {("highway", "mean"): 14, ("highway", "cte"): 18, ("highway", "icte"): 21, ("local_roads", "icte"): 22}
BAD_POINT = {"components": [{"w": 1, "point": "x"}]}
FIXED_DIST = {"components": [{"w": 0.5, "point": 1.0}, {"w": 0.5, "uniform": [0.0, 4.0]}]}


def _route_tree(law):
    """Traffic resolves first, then the conditional travel time."""
    return tuple((w, 0.0, ((1.0, lo if lo == hi else ((1.0, lo, hi),), ()),)) for w, lo, hi in law)


class CliCold:
    name = "cli_cold"
    why = "fresh processes: import riskdp (scipy) and click dominate; the only view of the cli layer"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        comps = []
        for w in gen.weights(rng, gen.CLI_DIST_COMPONENTS):
            lo = rng.uniform(0.0, 10.0)
            comps.append((w, lo, lo + rng.uniform(0.5, 5.0) if rng.random() < 0.5 else lo))
        self.data = {
            "seed": seed,
            "routes": {"highway": HIGHWAY, "local_roads": LOCAL_ROADS},
            "payments": (rng.uniform(0.5, 1.0), rng.uniform(0.1, 0.95)),
            "xy": (rng.uniform(0.0005, 0.002), rng.uniform(0.85, 0.99)),
            "dist": comps,
            "eval_alpha": rng.uniform(0.5, 0.95),
            "mdp": gen.layered_mdp(rng, *gen.CLI_MDP),
        }
        self.work: Optional[Path] = None
        self.peak_child_mb = 0.0

    def build(self) -> None:
        """Import the library, as a user's shell would not, and write the
        input files of the commands."""
        _riskdp()
        files = {
            "dist.json": gen.dist_json(self.data["dist"]),
            "mdp.json": self.data["mdp"],
            "bad_point.json": BAD_POINT,
            "fixed.json": FIXED_DIST,
        }
        for name, content in files.items():
            (self.work / name).write_text(json.dumps(content), encoding="utf-8")

    @staticmethod
    def expected(d: dict) -> dict:
        routes = {}
        for route, law in d["routes"].items():
            tree = _route_tree(law)
            routes[route] = {
                alpha: {
                    "mean": orc.mean(law),
                    "cte": orc.cte(law, alpha),
                    "icte": orc.tree_recursion(tree, 1.0, lambda l, a=alpha: orc.cte(l, a))[()],
                }
                for alpha in (0.5, 0.8)
            }
        lam, alpha = d["payments"]
        gamma, xlam = d["xy"]
        options = {"one_year": ([(0.3, 1000.0, 1000.0), (0.7, 0.0, 0.0)], 1),
                   "two_year": ([(0.1, 2000.0, 2000.0), (0.9, 0.0, 0.0)], 2)}
        xy = {}
        for label, stat in (("erm", lambda law: orc.erm(law, gamma)), ("mean", orc.mean)):
            for t in (0, 1):
                for name, (law, delay) in options.items():
                    scale = xlam ** (delay - t)
                    xy[(label, t, name)] = stat([(w, scale * lo, scale * hi) for w, lo, hi in law])
        return {
            "routes": routes,
            "laws": d["routes"],
            "payments": (orc.upfront_value(alpha, lam), orc.installment_value(alpha, lam), orc.boundary(lam)),
            "xy": xy,
            "eval": orc.cte(d["dist"], d["eval_alpha"]),
            "solve": orc.mdp_backward(d["mdp"], "cte", CTE_ALPHA),
        }

    def _cli(self, *args: str, expect: int = 0):
        child = proc.run(["-m", "riskdp.cli", *args], self.work)
        self.peak_child_mb = max(self.peak_child_mb, child.maxrss_mb)
        if child.rc != expect or "Traceback" in child.err:
            last = child.err.strip().splitlines()[-1:] or [""]
            raise OpFailed(f"exit {child.rc}, expected {expect}: {last[0][:160]}")
        return json.loads(child.out) if expect == 0 else child.rc

    def ops(self) -> List[Op]:
        d, cli = self.data, self._cli
        lam, alpha = d["payments"]
        gamma, xlam = d["xy"]
        return [
            Op("paths", "cli", lambda: cli("paths"), _check_paths),
            Op("payments", "cli", lambda: cli("payments", "--lambda", repr(lam), "--alpha", repr(alpha)), _check_payments),
            Op("xy", "cli", lambda: cli("xy", "--gamma", repr(gamma), "--lambda", repr(xlam)), _check_xy),
            Op("eval", "cli", lambda: cli("eval", "dist.json", "--cte", repr(d["eval_alpha"])),
               lambda got, exp: _differs("eval cte", got["value"], exp["eval"])),
            Op("solve", "cli", lambda: cli("solve", "mdp.json", "--cte", repr(CTE_ALPHA)), _check_cli_solve),
            Op("check", "cli", lambda: cli("check", "--trials", "20", "--seed", str(d["seed"])),
               lambda got, exp: None if got["all_passed"] else "property suite reported a failure"),
            Op("bad_point", "bad_input", lambda: cli("eval", "bad_point.json", "--mean", expect=2), _no_check, BAD_INPUT),
            Op("bad_alpha", "bad_input",
               lambda: cli("eval", "fixed.json", "--rf-json", '{"kind":"cte","alpha":"abc"}', expect=2),
               _no_check, BAD_INPUT),
            Op("bad_flags", "bad_input", lambda: cli("eval", "fixed.json", "--mean", "--cte", "0.5", expect=2), _no_check),
        ]

    def perturbations(self):
        def route(d):
            d["routes"] = {"highway": [(0.9, 10.0 + 1e-6, 10.0 + 1e-6), (0.1, 20.0, 80.0)], "local_roads": LOCAL_ROADS}

        def payments(d):
            lam, alpha = d["payments"]
            d["payments"] = (lam * (1.0 - 1e-6), alpha)

        def xy(d):
            gamma, lam = d["xy"]
            d["xy"] = (gamma * (1.0 + 1e-5), lam)

        def dist(d):
            d["dist"] = [(w, lo + 1e-6, hi + 1e-6) for w, lo, hi in d["dist"]]

        def mdp(d):
            d["mdp"] = dict(d["mdp"], **{"lambda": d["mdp"]["lambda"] * (1.0 + 1e-6)})

        return [("route laws", route), ("payment closed form", payments), ("xy closed form", xy),
                ("eval RU minimum", dist), ("cli backward induction", mdp)]


def _no_check(got, exp) -> Optional[str]:
    return None


def _check_paths(got, exp) -> Optional[str]:
    for row in got["tail_levels"]:
        for route in ("highway", "local_roads"):
            want = exp["routes"][route][row["alpha"]]
            for stat in ("mean", "cte", "icte"):
                value = row[route][stat]
                msg = _differs(f"paths {route} {stat} at {row['alpha']}", value, want[stat])
                printed = PRINTED.get((route, stat)) if row["alpha"] == 0.5 else None
                if msg or (printed is not None and abs(value - printed) > 0.5):
                    return msg or f"paths {route} {stat} {value} is not the printed {printed}"
    for point in got["erm_curve"]:
        for route in ("highway", "local_roads"):
            msg = _differs(f"erm {route} at {point['gamma']}", point[route], orc.erm(exp["laws"][route], point["gamma"]))
            if msg:
                return msg
    return None


def _check_payments(got, exp) -> Optional[str]:
    up, inst, cut = exp["payments"]
    return (
        _differs("upfront", got["upfront_value"], up)
        or _differs("installment", got["installment_value"], inst)
        or _differs("boundary", got["boundary_twenty_day"], cut)
    )


def _check_xy(got, exp) -> Optional[str]:
    for block in got["measures"]:
        label = "mean" if block["measure"] == "mean" else "erm"
        for p in block["points"]:
            for name in ("one_year", "two_year"):
                msg = _differs(f"xy {label} t={p['t']} {name}", p[name], exp["xy"][(label, p["t"], name)])
                if msg:
                    return msg
    return None


def _check_cli_solve(got, exp) -> Optional[str]:
    values, q_values = exp["solve"]
    for row in got["value_table"]:
        msg = _differs(f"solve value at ({row['n']}, {row['s']})", row["v"], values[(row["n"], row["s"])])
        if msg:
            return msg
    for row in got["policy"]:
        n, s = row["n"], row["s"]
        if not orc.close(q_values[(n, s, row["a"])], values[(n, s)]):
            return f"solve action {row['a']!r} at ({n}, {s!r}) misses the oracle minimum"
    return None


WORKLOADS = {w.name: w for w in (RecursionSweep, FlatLaw, DpSolve, CliCold)}
