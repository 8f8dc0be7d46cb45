"""Run one seeded corpus through riskdp at a base revision and in the
working tree, each package in its own process, and compare every outcome.

    python3 scripts/differential.py --base REV [--cases N]

`git archive REV` is unpacked into a temporary directory outside the
repository.  The corpus is made once, from the suite's generators
(`random_tied_law`, `random_tree` and `random_mdp` in tests/conftest.py,
and `riskdp.properties._random_mixed`) plus laws of one atom, signed
zeros, values within ulps of the float limit, weights 1 +- 8e-13,
outcomes of probability zero and faulty policies.  Each case is a law, a
scenario tree or an MDP, held as plain data, so each package builds it
with its own constructors.

Every numeric entry both packages have is called on each case of its
kind: `evaluate` and `mean`, `erm`, `value_at_risk`, `cte`,
`pushforward_mean` per disutility and `_cte_levels` on laws; `irm_evaluate`,
`rmd` and `eud` on trees, each on a tree of its own, and, as the
`[kept]` entries, `discounted_total_distribution`, `rmd` and `eud` all
on one tree at the case's discount, a second one and the first again,
so that a tree's kept flat law is read and rebuilt; `solve_dp`,
`evaluate_policy` and `tail_mdp` on MDPs.  An outcome is each value's
bits (`float.hex`, which keeps the sign of a zero), or the error's type
and message.  Per entry it prints
the outcome count, one SHA-256 digest of the outcome stream per side,
and, where they differ, the number of differing outcomes and the first
one with both sides' outcomes; a differing `value_at_risk`, `cte` or
`_cte_levels` law also shows the exact value at each level from the
tests' oracle, tests/exact.py.  The exit status
is 1 when any entry differs, and 2 when a side fails or runs past
SIDE_TIMEOUT_S.  Standard library only, besides what the suite's generators
import.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import pickle
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 0  # the corpus seed
SIDE_TIMEOUT_S = 600  # 100,000 cases take about a minute a side
LIMIT = sys.float_info.max
# values where rounding and the sign of zero show
EDGE_VALUES = (
    -0.0, 0.0, 0.1, 123.456, 5e-324, -5e-324, LIMIT, -LIMIT,
    math.nextafter(LIMIT, 0.0), -math.nextafter(LIMIT, 0.0), 1.7e308, -1.7e308, 1.0, -1.0,
)
LEVELS = (0.0, 0.5, 0.9)
GAMMAS = (3.0, 0.7, -2.5, 1e-300)

# ---------------------------------------------------------------------------
# the corpus: plain data made once with the working tree's generators
# ---------------------------------------------------------------------------


def _law_data(dist: Any) -> List[Tuple[float, float, float]]:
    return list(zip(*dist.columns()))


def _edge_law(rng: random.Random) -> List[Tuple[float, float, float]]:
    """A law of atoms that rounding, signed zeros and the float limit
    reach: one atom, or a few with dyadic, decimal or random weights, some
    zero, some times 1 +- 8e-13."""
    n = 1 if rng.random() < 0.3 else rng.randint(2, 6)
    kind = rng.randrange(3)
    if kind == 0:
        cuts = sorted(rng.randint(0, 8) for _ in range(n - 1))
        weights = [(b - a) / 8.0 for a, b in zip([0, *cuts], [*cuts, 8])]
    elif kind == 1:
        weights = [0.1] * (n - 1) + [1.0 - 0.1 * (n - 1)]
    else:
        raw = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(n)]
        raw[rng.randrange(n)] += 0.5
        weights = [r / math.fsum(raw) for r in raw]
    if rng.random() < 0.2:
        scale = rng.choice((1.0 + 8e-13, 1.0 - 8e-13))
        weights = [w * scale for w in weights]
    values = [rng.choice(EDGE_VALUES) if rng.random() < 0.7 else rng.uniform(-10.0, 10.0) for _ in range(n)]
    if rng.random() < 0.05:
        values[rng.randrange(n)] = rng.choice((math.inf, -math.inf, math.nan))
    return [(w, v, v) for w, v in zip(weights, values)]


def _tree_data(tree_json: dict, rng: random.Random) -> dict:
    """A tree's JSON form, some scalar costs moved to a signed zero or near
    the float limit, or made a law of one atom."""
    stack = [tree_json["root"]]
    while stack:
        node = stack.pop()
        for edge in node["children"]:
            stack.append(edge["node"])
            if isinstance(edge["cost"], float) and rng.random() < 0.15:
                v = rng.choice(EDGE_VALUES)
                edge["cost"] = {"components": [{"w": 1.0, "point": v}]} if rng.random() < 0.5 else v
    return tree_json


def _mdp_data(mdp: Any, rng: random.Random) -> dict:
    """An MDP as plain data: its outcomes sometimes gain outcomes of
    probability zero at any position, and its costs are sometimes scaled
    by 1e307 so that atoms overflow."""
    scale = 1e307 if rng.random() < 0.25 else 1.0
    table = {}
    for key, outs in mdp.transitions.items():
        rows = [(t.state, t.probability, t.cost * scale) for t in outs]
        n = key[0]
        if rng.random() < 0.15:
            rows.insert(rng.randint(0, len(rows)), (rng.choice(mdp.states[n + 1]), 0.0, rng.uniform(0.0, 10.0)))
        table[key] = rows
    return {
        "horizon": mdp.horizon, "states": mdp.states, "actions": mdp.actions,
        "initial": mdp.initial, "discount": mdp.discount, "transitions": table,
    }


def _policies(data: dict, rng: random.Random) -> List[Dict[Tuple[int, str], Any]]:
    """Three policies that cover 100%, 90% or 60% of the states; 3% of the
    covered ones play an action from the action set, "zz" or ["x"]."""
    offered: Dict[Tuple[int, str], List[str]] = {}
    for n, s, a in data["transitions"]:
        offered.setdefault((n, s), []).append(a)
    out = []
    for share in (1.0, 0.9, 0.6):
        policy = {}
        for key, actions in offered.items():
            if rng.random() >= share:
                continue
            if rng.random() < 0.03:
                policy[key] = rng.choice([*data["actions"], "zz", ["x"]])
            else:
                policy[key] = rng.choice(actions)
        out.append(policy)
    return out


def _functional(rng: random.Random, depth: int = 0) -> dict:
    kind = rng.randrange(5 if depth < 2 else 4)
    if kind == 0:
        return {"kind": "mean"}
    if kind == 1:
        return {"kind": "erm", "gamma": rng.choice((0.5, -0.5, 2.0, 1e-300))}
    if kind == 2:
        return {"kind": "var", "alpha": rng.choice((0.0, 0.3, 0.5, 0.9))}
    if kind == 3:
        return {"kind": "cte", "alpha": rng.choice((0.0, 0.3, 0.5, 0.9))}
    return {"kind": "composite", "terms": [{"w": 0.5, "rf": _functional(rng, depth + 1)}, {"w": 0.5, "rf": _functional(rng, depth + 1)}]}


def make_corpus(cases: int) -> List[Tuple[str, Any]]:
    """cases cases: about 5% trees, 2% MDPs and the rest laws."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from riskdp import tree_to_json_dict
    from riskdp.properties import _random_mixed
    from tests.conftest import random_mdp, random_tied_law, random_tree

    rng = random.Random(SEED)
    corpus: List[Tuple[str, Any]] = []
    for _ in range(cases):
        u = rng.random()
        if u < 0.02:
            mdp = random_mdp(rng, rng.choice((0.5, 0.9, 1.0)), max_horizon=4, max_states=4, max_actions=3)
            data = _mdp_data(mdp, rng)
            spec = [_functional(rng) for _ in range(data["horizon"])]
            n = rng.randrange(data["horizon"])
            corpus.append(("mdp", (data, spec, _policies(data, rng), (n, rng.choice(data["states"][n])))))
        elif u < 0.07:
            tree = random_tree(rng, max_horizon=3, max_children=3, segment_stage=rng.choice((None, 0, 1, 2)))
            data = _tree_data(tree_to_json_dict(tree), rng)
            spec = [_functional(rng) for _ in range(data["horizon"])]
            corpus.append(("tree", (data, spec, rng.choice((0.0, 0.5, 0.9, 1.0)), _functional(rng))))
        elif u < 0.3:
            corpus.append(("law", _edge_law(rng)))
        elif u < 0.65:
            corpus.append(("law", _law_data(random_tied_law(rng, dyadic=rng.random() < 0.5))))
        else:
            corpus.append(("law", _law_data(_random_mixed(rng))))
    return corpus


# ---------------------------------------------------------------------------
# the runner: one package, every entry on every case
# ---------------------------------------------------------------------------


def show(x: Any) -> str:
    """An outcome as text: floats by their bits, containers in order."""
    if isinstance(x, float):
        return x.hex()
    if hasattr(x, "items"):  # a dict or a read-only mapping
        return "{" + ", ".join(f"{show(k)}: {show(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(show, x)) + "]"
    return repr(x)


def outcome(call: Callable[[], Any]) -> str:
    try:
        return show(call())
    except Exception as exc:  # every error is an outcome, by type and message
        return f"!{type(exc).__name__}: {exc}"


Calls = Iterator[Tuple[str, str, Callable[[], Any]]]


def _levels(comps: List[Tuple[float, float, float]]) -> List[float]:
    """The tail levels a law is read at: LEVELS and one equal to a running
    weight, as a decimal would be typed."""
    levels = list(LEVELS)
    running = 0.0
    for w, _, _ in comps[:-1]:
        running += w
        if 0.0 < running < 1.0:
            levels.append(running)
            break
    return levels


def _law_calls(rd: Any, comps: List[Tuple[float, float, float]]) -> Calls:
    """(entry, label, call) for every entry on one law."""
    built = {}

    def law():
        if "law" not in built:
            built["law"] = rd.MixedDistribution(
                [(w, rd.PointMass(lo) if lo == hi else rd.UniformSegment(lo, hi)) for w, lo, hi in comps]
            )
        return built["law"]

    levels = _levels(comps)
    functionals = [rd.Expectation(), *map(rd.Erm, GAMMAS)]
    functionals += [cls(a) for a in levels for cls in (rd.ValueAtRisk, rd.Cte)]
    functionals.append(rd.Composite(((0.5, rd.Expectation()), (0.25, rd.Cte(0.5)), (0.25, rd.Erm(0.5)))))
    for rf in functionals:
        yield "evaluate", repr(rf), lambda rf=rf: rd.evaluate(rf, law())
    yield "mean", "", lambda: rd.mean(law())
    for g in GAMMAS:
        yield "erm", repr(g), lambda g=g: rd.erm(g, law())
    for a in levels:
        yield "value_at_risk", repr(a), lambda a=a: rd.value_at_risk(a, law())
        yield "cte", repr(a), lambda a=a: rd.cte(a, law())
    for name, u in _disutilities(rd):
        yield f"pushforward_mean[{name}]", "", lambda u=u: rd.pushforward_mean(u, law())
    if all(lo == hi for _, lo, hi in comps):
        weights, values = [w for w, _, _ in comps], [v for _, v, _ in comps]
        if all(map(math.isfinite, values)):
            yield "_cte_levels", repr(levels), lambda: rd._cte_levels(sorted(levels), weights, values)


def _disutilities(rd: Any) -> List[Tuple[str, Any]]:
    return [
        ("exponential", rd.Exponential(0.5)),
        ("linear", rd.Linear()),
        ("power", rd.Power(2.0)),
        ("piecewise-linear", rd.PiecewiseLinear(((-10.0, -5.0), (0.0, 0.0), (2.0, 1.0), (10.0, 20.0)))),
    ]


def _tree_calls(rd: Any, case: Tuple[dict, list, float, dict]) -> Calls:
    data, stages, lam, flat = case
    built = {}

    def tree(name: str = "tree"):
        if name not in built:
            built[name] = rd.tree_from_json_dict(data)
        return built[name]

    def spec():
        return rd.IrmSpec(tuple(map(rd.rf_from_json_dict, stages)))

    def irm():
        result = rd.irm_evaluate(tree(), spec(), lam)
        return [result.root_value, result.node_values]

    yield "irm_evaluate", "", irm
    yield "rmd", repr(flat), lambda: rd.rmd(tree(), rd.rf_from_json_dict(flat), lam)
    for name, u in _disutilities(rd):
        yield f"eud[{name}]", "", lambda u=u: rd.eud(tree(), u, lam)
    # one more tree for every [kept] call
    for d in (lam, 0.5 if lam != 0.5 else 0.9, lam):
        yield "discounted_total_distribution[kept]", repr(d), lambda d=d: rd.discounted_total_distribution(tree("kept"), d).columns()
        yield "rmd[kept]", f"{flat!r} at {d!r}", lambda d=d: rd.rmd(tree("kept"), rd.rf_from_json_dict(flat), d)
        for name, u in _disutilities(rd):
            yield "eud[kept]", f"{name} at {d!r}", lambda u=u, d=d: rd.eud(tree("kept"), u, d)


def _mdp_calls(rd: Any, case: Tuple[dict, list, list, tuple]) -> Calls:
    data, stages, policies, (n, s) = case
    built = {}

    def mdp():
        if "mdp" not in built:
            built["mdp"] = rd.FiniteHorizonMdp(
                horizon=data["horizon"], states=data["states"], actions=data["actions"],
                initial=data["initial"], discount=data["discount"],
                transitions={key: tuple(rd.Transition(*row) for row in rows) for key, rows in data["transitions"].items()},
            )
        return built["mdp"]

    def spec():
        return rd.IrmSpec(tuple(map(rd.rf_from_json_dict, stages)))

    yield "solve_dp", "", lambda: rd.solve_dp(mdp(), spec())
    for k, policy in enumerate(policies):
        yield "evaluate_policy", f"policy {k}", lambda p=policy: rd.evaluate_policy(mdp(), p, spec())
    yield "tail_mdp", f"stage {n} state {s!r}", lambda: rd.solve_dp(
        rd.tail_mdp(mdp(), n, s), rd.IrmSpec(tuple(map(rd.rf_from_json_dict, stages[n:])))
    )


def _package() -> Any:
    """The riskdp on PYTHONPATH, with its private entries bound too."""
    import riskdp as rd
    from riskdp import measures

    if hasattr(measures, "_cte_levels"):
        rd._cte_levels = measures._cte_levels
    return rd


ENTRIES = (
    "evaluate", "mean", "erm", "value_at_risk", "cte",
    *(f"pushforward_mean[{u}]" for u in ("exponential", "linear", "power", "piecewise-linear")),
    "_cte_levels", "irm_evaluate", "rmd", *(f"eud[{u}]" for u in ("exponential", "linear", "power", "piecewise-linear")),
    "discounted_total_distribution[kept]", "rmd[kept]", "eud[kept]",
    "solve_dp", "evaluate_policy", "tail_mdp",
)
KINDS = {"law": _law_calls, "tree": _tree_calls, "mdp": _mdp_calls}


def run(corpus_path: str, out_path: str) -> None:
    """Every entry on every case; writes, per entry, the outcome stream's
    digest, and the case index and an 8-byte digest of each outcome."""
    rd = _package()
    with open(corpus_path, "rb") as f:
        corpus = pickle.load(f)
    have = {e for e in ENTRIES if hasattr(rd, e.split("[")[0])}
    streams = {e: hashlib.sha256() for e in have}
    cases = {e: array("I") for e in have}
    digests = {e: bytearray() for e in have}
    for i, (kind, case) in enumerate(corpus):
        for entry, label, call in KINDS[kind](rd, case):
            if entry not in have:
                continue
            text = f"{label}\t{outcome(call)}\n".encode()
            streams[entry].update(text)
            cases[entry].append(i)
            digests[entry] += hashlib.blake2b(text, digest_size=8).digest()
    result = {e: (streams[e].hexdigest(), cases[e], bytes(digests[e])) for e in have}
    with open(out_path, "wb") as f:
        pickle.dump({"origin": rd.__file__, "entries": result}, f)


def show_case(corpus_path: str, entry: str, index: int) -> None:
    """Print each outcome of one entry on one case."""
    rd = _package()
    with open(corpus_path, "rb") as f:
        kind, case = pickle.load(f)[index]
    print(f"case {index} ({kind}): {repr(case)[:2000]}")
    for name, label, call in KINDS[kind](rd, case):
        if name == entry:
            print(f"  {label or '-'}: {outcome(call)}")


def show_exact(corpus_path: str, entry: str, index: int) -> None:
    """Print the exact value (tests/exact.py) of each quantile or tail
    expectation of one entry on one law, rounded to the nearest float."""
    sys.path.insert(0, str(ROOT))
    from tests import exact

    with open(corpus_path, "rb") as f:
        kind, comps = pickle.load(f)[index]
    oracle = {"value_at_risk": exact.quantile, "cte": exact.tail_expectation, "_cte_levels": exact.tail_expectation}
    if kind != "law" or entry not in oracle:
        return
    levels = _levels(comps)
    print(" exact:")
    for a in sorted(levels) if entry == "_cte_levels" else levels:
        print(f"  {a!r}: {outcome(lambda a=a: float(oracle[entry](a, comps)))}")


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _side(src: Path, *args: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, __file__, *args], env=env)


def _finished(procs: List[subprocess.Popen]) -> bool:
    """Whether every side exits 0 within SIDE_TIMEOUT_S; past it, the
    sides still running are killed."""
    deadline = time.monotonic() + SIDE_TIMEOUT_S
    try:
        return not any([proc.wait(timeout=max(0.0, deadline - time.monotonic())) for proc in procs])
    except subprocess.TimeoutExpired:
        for proc in procs:
            proc.kill()
            proc.wait()
        print(f"a side ran past {SIDE_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return False


def _differences(a: Tuple[str, array, bytes], b: Tuple[str, array, bytes]) -> Tuple[int, int]:
    """The number of outcomes that differ and the case of the first.  The
    corpus alone decides which outcomes a case has, so both sides list the
    same cases."""
    _, cases, dig_a = a
    dig_b = b[2]
    differ = [j for j in range(len(cases)) if dig_a[8 * j:8 * j + 8] != dig_b[8 * j:8 * j + 8]]
    return len(differ), cases[differ[0]]


def main(argv: List[str]) -> int:
    if argv[:1] == ["--run"]:
        run(*argv[1:])
        return 0
    if argv[:1] == ["--show"]:
        show_case(argv[1], argv[2], int(argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare the working tree with")
    parser.add_argument("--cases", type=int, default=100_000, help="corpus size (default 100000)")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # the sides print between these lines
    start = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix="riskdp-differential-"))
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            members = [m for m in tar.getmembers() if m.name.startswith("src/")]
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tmp / "base", members=members, **safe)
        corpus = tmp / "corpus.pickle"
        with open(corpus, "wb") as f:
            pickle.dump(make_corpus(args.cases), f)
        sides = {"base": tmp / "base" / "src", "work": ROOT / "src"}
        procs = {name: _side(src, "--run", str(corpus), str(tmp / f"{name}.pickle")) for name, src in sides.items()}
        if not _finished(list(procs.values())):
            print("a side failed to run", file=sys.stderr)
            return 2
        results = {}
        for name in sides:
            with open(tmp / f"{name}.pickle", "rb") as f:
                results[name] = pickle.load(f)
        print(f"base {args.base} ({results['base']['origin']}) against the working tree ({results['work']['origin']})")
        print(f"{args.cases} cases, seed {SEED}")
        base, work = results["base"]["entries"], results["work"]["entries"]
        differs = False
        for entry in ENTRIES:
            if entry not in base or entry not in work:
                missing = "base" if entry not in base else "working tree"
                print(f"{entry}: not in the {missing}; skipped")
                continue
            count = len(work[entry][1])
            line = f"{entry}: {count} outcomes, base {base[entry][0][:16]}, work {work[entry][0][:16]}"
            if base[entry][0] == work[entry][0]:
                print(line + ", same")
                continue
            differs = True
            n, case = _differences(base[entry], work[entry])
            print(line + f", {n} differ; first in case {case}:")
            for name, src in sides.items():
                print(f" {name}:")
                if not _finished([_side(src, "--show", str(corpus), entry, str(case))]):
                    return 2
            show_exact(str(corpus), entry, case)
        print(f"{time.perf_counter() - start:.1f} s")
        return 1 if differs else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
