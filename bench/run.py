"""riskdp benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload recursion_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --steady 5 --seconds 20        # every workload, seeds 1..5
    python3 bench/run.py --write-manifest               # regenerate BENCHMARK.json

A run measures set-up in fresh processes, builds the seeded inputs in
this process, then repeats whole rounds of the workload's operations for
about ``--seconds`` seconds.  Load is a closed loop with one client: each
operation starts when the previous one has returned, and at most one
child process runs at a time.  Every output is checked against the
oracles in ``oracles.py``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it report the same run for people.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import proc  # noqa: E402

sys.path.insert(0, str(proc.SRC))

RUN_SECONDS = 20
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3

# name, unit, bound: every workload reports these with --trace 0
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("run_s", "s", 0.25),
    ("run_cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)
# per-workload phase times: printed on the report lines, not in the result
PHASES = {
    "recursion_sweep": {"sweep_s": "sweep"},
    "flat_law": {"rmd_tail_s": "rmd_tail", "rmd_linear_s": "rmd_linear"},
    "dp_solve": {
        "mdp_build_s": "mdp_build",
        "solve_mean_s": "solve_mean",
        "solve_erm_s": "solve_erm",
        "solve_cte_s": "solve_cte",
    },
    "cli_cold": {"cli_p50_s": "cli"},
}
CLI_COMMANDS = ("paths", "payments", "xy", "eval", "solve", "check")
# every workload reports these with --trace 1, per round
PER_LAYER = (
    ("measures.value_at_risk.calls", "count"),
    ("measures.value_at_risk.s", "s"),
    ("measures.cte.calls", "count"),
    ("measures.cte.s", "s"),
    ("measures.support_p50", "count"),
    ("measures.support_max", "count"),
    ("measures.pushforward_mean.calls", "count"),
    ("measures.pushforward_mean.s", "s"),
    ("measures.mean.s", "s"),
    ("measures.erm.s", "s"),
    ("measures.evaluate.calls", "count"),
    ("measures.evaluate.s", "s"),
    ("measures.self_s", "s"),
    ("distributions.point.calls", "count"),
    ("distributions.point.s", "s"),
    ("distributions.affine_transform.calls", "count"),
    ("distributions.affine_transform.s", "s"),
    ("distributions.merge_atoms.s", "s"),
    ("distributions.self_s", "s"),
    ("tree.discounted_total_distribution.calls", "count"),
    ("tree.discounted_total_distribution.s", "s"),
    ("tree.flat_law_components", "count"),
    ("tree.irm_root_value.calls", "count"),
    ("tree.irm_root_value.s", "s"),
    ("tree.irm_evaluate.s", "s"),
    ("tree.nodes_visited", "count"),
    ("tree.self_s", "s"),
    ("casebook.preference_region.s", "s"),
    ("casebook.self_s", "s"),
    ("mdp.mdp_from_json_dict.s", "s"),
    ("mdp.solve_dp.calls", "count"),
    ("mdp.solve_dp.s", "s"),
    ("mdp.evaluate_policy.s", "s"),
    ("mdp.tail_mdp.s", "s"),
    ("mdp.cells", "count"),
    ("mdp.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    *((f"cli.{c}.s", "s") for c in CLI_COMMANDS),
    ("trace.overhead_s", "s"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END} | dict(PER_LAYER)


def manifest() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Round:
    """Outcome of one pass over the workload's operations."""

    def __init__(self) -> None:
        self.op_wall: dict = {}
        self.op_cpu: dict = {}
        self.outputs: dict = {}
        self.failures: list = []
        self.wrong: list = []


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_round(w, ops, exp, tracer=None) -> Round:
    r = Round()
    for op in ops:
        c0, t0 = _cpu(), time.perf_counter()
        try:
            r.outputs[op.name] = op.call()
        except Exception as exc:  # any raise, OpFailed included, is a failed operation
            r.failures.append((op, f"{type(exc).__name__}: {str(exc)[:160]}"))
            if tracer is not None:
                tracer.reset_stack()
        r.op_wall[op.name] = time.perf_counter() - t0
        r.op_cpu[op.name] = _cpu() - c0
    for op in ops:
        if op.name in r.outputs:
            msg = op.check(r.outputs[op.name], exp)
            if msg:
                r.wrong.append((op, msg))
    return r


def import_times(work: Path) -> tuple:
    """Median cumulative import time of riskdp.cli and of scipy within it,
    from ``python -X importtime``."""
    totals, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        child = proc.run(["-X", "importtime", "-c", "import riskdp.cli"], work)
        rows = []  # (depth, name, cumulative seconds) in completion order
        for line in child.err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
            if m:
                rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e6))
        totals.append(sum(c for d, n, c in rows if d == 0 and n.startswith("riskdp")))
        # a scipy module counts when no enclosing import is scipy's
        parents: dict = {}
        top_scipy = 0.0
        for i in range(len(rows) - 1, -1, -1):
            depth, name, cum = rows[i]
            outer = parents.get(depth - 1, "")
            parents[depth] = name
            if name.split(".")[0] == "scipy" and outer.split(".")[0] != "scipy":
                top_scipy += cum
        scipy.append(top_scipy)
    return statistics.median(totals), statistics.median(scipy)


def measure(args) -> int:
    from workloads import WORKLOADS

    if not (proc.SRC / "riskdp" / "__init__.py").is_file():
        print(f"error: no riskdp sources under {proc.SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    with proc.work_dir(f"{args.workload}-") as work:
        setups = []
        for _ in range(SETUP_SAMPLES):
            child = proc.run(
                [str(BENCH / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)],
                work,
            )
            if child.rc != 0:
                print(f"error: set-up failed:\n{child.err}", file=sys.stderr)
                return 1
            setups.append(child.wall)
        w = cls(args.seed)
        w.work = work
        w.build()
        exp = cls.expected(w.data)
        ops = w.ops()
        tracer = None
        layer = {}
        if args.trace:
            layer["cli.import_s"], layer["cli.import_scipy_s"] = import_times(work)
        rounds, traced = [], []
        start = time.perf_counter()
        while True:
            if args.trace and tracer is None and rounds and time.perf_counter() - start >= args.seconds / 3:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            r = run_round(w, ops, exp, tracer)
            r.outputs.clear()  # keeping every round's outputs would grow the heap
            (traced if tracer else rounds).append(r)
            spent = time.perf_counter() - start
            # stop at the round boundary nearest to the deadline
            if spent * (1 + 0.5 / (len(rounds) + len(traced))) >= args.seconds and (traced or not args.trace):
                break
        if tracer is not None:
            tracer.uninstall()
        measured = traced if args.trace else rounds
        return report(args, w, ops, rounds, measured, setups, tracer, layer)


def per_round(rounds, ops, field: str = "op_wall", phase: str = "") -> float:
    """Time of the chosen operations per round, averaged over the rounds.

    Slow spells on a shared host last seconds, so a mean over every round
    of a run is steadier than the median of a few long rounds.
    """
    return statistics.fmean(
        sum(getattr(r, field)[op.name] for op in ops if not phase or op.phase == phase) for r in rounds
    )


def report(args, w, ops, untraced, measured, setups, tracer, layer) -> int:
    med = statistics.median
    attempted = len(ops) * len(measured)
    failures = [f for r in measured for f in r.failures]
    wrong = [x for r in measured for x in r.wrong]
    unexpected = [(op, why) for op, why in failures if not op.fault]
    correct = not wrong and not unexpected
    if args.workload == "cli_cold":
        peak = w.peak_child_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": med(setups),
        "run_s": per_round(untraced, ops),
        "run_cpu_s": per_round(untraced, ops, "op_cpu"),
        "peak_rss_mb": peak,
    }
    phases = {}
    for name, phase in PHASES[args.workload].items():
        if phase == "cli":
            ok = [r.op_wall[c] for r in untraced for c in CLI_COMMANDS if not any(
                f[0].name == c for f in r.failures)]
            phases[name] = med(ok) if ok else float("nan")
        else:
            phases[name] = per_round(untraced, ops, phase=phase)
    print(f"workload {args.workload}  seed {args.seed}  python {sys.version.split()[0]}  cpus {os.cpu_count()}")
    print(f"rounds {len(measured)} ({len(untraced)} untraced)  attempted {attempted}  failed {len(failures)}")
    for name, value in {**e2e, **phases}.items():
        print(f"  {name:14s} {value:12.6f} {UNITS.get(name, 's')}")
    for op, why in sorted({(op.name, why) for op, why in failures}):
        print(f"  failed {op}: {why}")
    for op, msg in wrong[:10]:
        print(f"  WRONG {op.name}: {msg}", file=sys.stderr)
    for op, why in unexpected[:10]:
        print(f"  UNEXPECTED FAILURE {op.name}: {why}", file=sys.stderr)
    print("detail " + json.dumps({
        "phases": phases,
        "round_walls": [round(sum(r.op_wall.values()), 4) for r in untraced],
        "fault_ops": sorted({op.name for op, _ in failures}),
    }))
    if args.trace:
        n = len(measured)
        values = dict(tracer.metrics(n)) if tracer else {}
        values.update(layer)
        for c in CLI_COMMANDS:
            values[f"cli.{c}.s"] = med(r.op_wall[c] for r in measured) if args.workload == "cli_cold" else 0.0
        values["trace.overhead_s"] = per_round(measured, ops) - e2e["run_s"]
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# set-up child and steadiness mode
# ---------------------------------------------------------------------------


def setup_only(args) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    with proc.work_dir("setup-") as w.work:
        w.build()
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args) -> int:
    """Run each workload ``--steady`` times on seeds 1..k and print the
    median, quartiles and spread (IQR over median) of every metric."""
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    bounds = {n: b for n, _, b in END_TO_END}
    with proc.work_dir("steady-") as work:
        return _steady(args, names, bounds, work)


def _steady(args, names, bounds, work: Path) -> int:
    worst = 0
    for name in names:
        samples: dict = {}
        shares = set()
        for seed in range(args.seed, args.seed + args.steady):
            child = proc.run(
                [str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                work,
                cwd=proc.ROOT,
            )
            lines = child.out.strip().splitlines()
            if child.rc != 0 or not lines:
                print(f"{name} seed {seed}: exit {child.rc}\n{child.err}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for k, v in result["metrics"].items():
                samples.setdefault(k, []).append(v["value"])
            for k, v in detail["phases"].items():
                samples.setdefault(k, []).append(v)
            print(f"{name} seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"== {name}: {args.steady} runs, failed share / correct {sorted(shares)}")
        for k, vs in samples.items():
            q1, q2, q3 = quartiles(vs)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = ""
            if k in bounds and k != "setup_s" and spread > bounds[k] / 3:
                flag = f"  > bound/3 ({bounds[k] / 3:.3f})"
                worst = 1
            print(f"  {k:40s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}{flag}")
    return worst


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K", help="run each workload K times on successive seeds")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json at the repository root")
    args = p.parse_args(argv)
    if args.write_manifest:
        (proc.ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.steady:
        return steady(args)
    if not args.workload:
        p.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
