"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py [--seed N] [--workload NAME]

For each workload: run one round and require every check to pass, then,
for each oracle, perturb one value of the plain-data input it reads by
more than the check's tolerance and require the same outputs to fail a
check.  The library's objects are built from the unperturbed data, so
only the oracle sees the change.  Also checks that BENCHMARK.json matches
what ``run.py --write-manifest`` would write.
"""
from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import proc  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_workload(name: str, seed: int, work: Path) -> list:
    problems = []
    cls = WORKLOADS[name]
    w = cls(seed)
    w.work = work
    w.build()
    ops = w.ops()
    r = run.run_round(w, ops, cls.expected(w.data))
    problems += [f"{name}: {op.name} failed unexpectedly: {why}" for op, why in r.failures if not op.fault]
    problems += [f"{name}: {op.name} fails its check unperturbed: {msg}" for op, msg in r.wrong]
    for label, mutate in w.perturbations():
        data = copy.deepcopy(w.data)
        mutate(data)
        exp = cls.expected(data)
        caught = [op.name for op in ops if op.name in r.outputs and op.check(r.outputs[op.name], exp)]
        verdict = "caught by " + ", ".join(caught[:4]) if caught else "NOT CAUGHT"
        print(f"{name}: perturbed {label}: {verdict}")
        if not caught:
            problems.append(f"{name}: perturbing the {label} input went unnoticed")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    args = p.parse_args()
    problems = []
    committed = json.loads((proc.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if committed != run.manifest():
        problems.append("BENCHMARK.json differs from run.py --write-manifest")
    with proc.work_dir("selftest-") as work:
        for name in [args.workload] if args.workload else WORKLOADS:
            problems += check_workload(name, args.seed, work)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
