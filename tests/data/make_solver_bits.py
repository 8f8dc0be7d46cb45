"""Write solver_bits.json: seeded, tie-heavy small MDPs with the exact
value tables and policies that solve_dp and evaluate_policy give them.

    PYTHONPATH=src python3 tests/data/make_solver_bits.py > tests/data/solver_bits.json

Costs are small integers, or thirds of them, and probabilities
multiples of 1/8, some of them zero, so one-step laws share atom values
and hit the tail level 0.75 exactly; the thirds, the level 0.9 and the
discounts 0.9 and 0.75 make the last bits depend on the order of the
arithmetic.  Values are recorded
with float.hex.  The committed file was
written before the solver read a compiled plan, and test_mdp checks that
the solver still reproduces it bit for bit.
"""
import json
import random
import sys

from riskdp import (
    Composite,
    Cte,
    Erm,
    Expectation,
    IrmSpec,
    ValueAtRisk,
    evaluate_policy,
    mdp_from_json_dict,
    rf_to_json_dict,
    solve_dp,
)

SEEDS = range(1, 13)
FUNCTIONALS = {
    "mean": Expectation(),
    "erm(0.5)": Erm(0.5),
    "erm(-0.5)": Erm(-0.5),
    "var(0.75)": ValueAtRisk(0.75),
    "var(0.9)": ValueAtRisk(0.9),
    "cte(0.75)": Cte(0.75),
    "cte(0.9)": Cte(0.9),
    "cte(0)": Cte(0.0),
    "composite": Composite(
        (
            (0.5, Expectation()),
            (0.25, Composite(((0.5, Cte(0.5)), (0.5, ValueAtRisk(0.5))))),
            (0.25, Erm(0.5)),
        )
    ),
}


def tied_mdp(rng: random.Random) -> dict:
    horizon = rng.randint(2, 4)
    named = rng.random() < 0.5
    unit = rng.choice((1.0, 3.0))
    states = [
        [f"s{i}" if named else i for i in range(rng.randint(2, 5))] for _ in range(horizon + 1)
    ]
    actions = ["a", "b", "c"][: rng.randint(1, 3)]
    entries = []
    for n in range(horizon):
        for s in states[n]:
            offered = [a for a in actions if rng.random() < 0.8] or [rng.choice(actions)]
            for a in offered:
                targets = [t for t in states[n + 1] if rng.random() < 0.7] or [states[n + 1][0]]
                cuts = sorted(rng.randint(0, 8) for _ in range(len(targets) - 1))
                probs = [(b - c) / 8.0 for c, b in zip([0, *cuts], [*cuts, 8])]
                entries.append(
                    {
                        "n": n,
                        "s": s,
                        "a": a,
                        "to": [
                            {"s'": t, "p": p, "r": rng.randint(0, 4) / unit}
                            for t, p in zip(targets, probs)
                        ],
                    }
                )
    return {
        "horizon": horizon,
        "states": states,
        "actions": actions,
        "initial": states[0][0],
        "lambda": rng.choice((1.0, 0.9, 0.75)),
        "transitions": entries,
    }


def last_action_policy(mdp) -> dict:
    """The last available action at every nonterminal state."""
    return {
        (n, s): mdp.actions_at(n, s)[-1] for n in range(mdp.horizon) for s in mdp.states[n]
    }


def specs(horizon: int) -> dict:
    """Each functional at every stage, then all of them in turn by stage."""
    out = {label: (rf,) * horizon for label, rf in FUNCTIONALS.items()}
    cycle = list(FUNCTIONALS.values())
    out["by stage"] = tuple(cycle[n % len(cycle)] for n in range(horizon))
    return out


def table(values: dict) -> list:
    return [[n, s, v.hex()] for (n, s), v in values.items()]


def main() -> None:
    cases = []
    for seed in SEEDS:
        data = tied_mdp(random.Random(seed))
        mdp = mdp_from_json_dict(data)
        results = {}
        for label, stages in specs(mdp.horizon).items():
            spec = IrmSpec(stages)
            values, policy = solve_dp(mdp, spec)
            results[label] = {
                "values": table(values),
                "policy": [[n, s, a] for (n, s), a in policy.items()],
                "last_action_values": table(evaluate_policy(mdp, last_action_policy(mdp), spec)),
            }
        cases.append({"seed": seed, "mdp": data, "results": results})
    functionals = {label: rf_to_json_dict(rf) for label, rf in FUNCTIONALS.items()}
    json.dump({"functionals": functionals, "cases": cases}, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
