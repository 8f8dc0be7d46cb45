"""Write tree_bits.json: the shape of every tree the package builds, as
its repr, its JSON form, its node and path counts and the order in which
its node value table lists its keys.

    PYTHONPATH=src python3 tests/data/make_tree_bits.py > tests/data/tree_bits.json

The trees are the six casebook trees, a `deterministic_tree` whose costs
mix ints, floats and laws, the payment-plan and deferred-choice MDPs
unrolled under each policy that plays one action everywhere, and the
scenario trees of flat_bits.json read with `tree_from_json_dict`.  The
keys are those of `irm_evaluate` under the mean at discount 1.  The
committed file was written while every tree was still built as a
`TreeNode`/`Edge` graph; test_tree checks that the library still writes
these bytes.
"""
import json
import sys
from pathlib import Path

from riskdp import (
    Expectation,
    IrmSpec,
    MixedDistribution,
    casebook,
    deterministic_tree,
    irm_evaluate,
    tree_from_json_dict,
    tree_to_json_dict,
    unroll,
)

DATA = Path(__file__).resolve().parent


def trees() -> list:
    """(name, tree) for every recorded tree, in the file's order."""
    named = [
        (name, getattr(casebook, f"{name}_tree")())
        for name in ("upfront", "installment", "one_year", "two_year", "highway", "local_roads")
    ]
    law = MixedDistribution.mix([(0.5, MixedDistribution.point(4.0)), (0.5, MixedDistribution.uniform(1.0, 3.0))])
    named.append(("deterministic", deterministic_tree([1, 2.5, law, -0.0, 0])))
    for label, mdp in (("payments", casebook.payments_mdp(0.9)), ("deferred", casebook.deferred_choice_mdp(0.9))):
        slots = [(n, s) for n, s in mdp.reachable() if n < mdp.horizon]
        for a in mdp.actions:
            named.append((f"{label} {a}", unroll(mdp, {slot: a for slot in slots})))
    flat = json.loads((DATA / "flat_bits.json").read_text())
    named += [(f"flat {case['name']}", tree_from_json_dict(case["tree"])) for case in flat["cases"]]
    return named


def record(tree) -> dict:
    keys = irm_evaluate(tree, IrmSpec.repeat(Expectation(), tree.horizon), 1.0).node_values
    return {
        "repr": repr(tree),
        "json": tree_to_json_dict(tree),
        "node_count": tree.node_count(),
        "path_count": tree.path_count(),
        "keys": [list(key) for key in keys],
    }


def main() -> None:
    cases = [{"name": name, **record(tree)} for name, tree in trees()]
    json.dump({"cases": cases}, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
