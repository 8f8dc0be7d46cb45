"""Write sweep_bits.json: the payment-plan preference region that
`riskdp fig1` draws, with the recursion values behind every cell.

    PYTHONPATH=src python3 tests/data/make_sweep_bits.py > tests/data/sweep_bits.json

On the default 100 x 100 grid of (tail level, discount) it records the
cells of `casebook.preference_region` as one string of 0s and 1s per
tail level, the stagewise tail-expectation value of the upfront tree at
each discount (a deterministic tree, so the tail level cannot move it),
and that of the installment tree at every (tail level, discount) point.
Values are recorded with float.hex.  The committed file predates the
tree plan's current step format, and test_tree checks that the library
still reproduces it bit for bit.
The cells come from the sweep, which runs the recursion once per
discount under the expectation (no tail level moves a node below the
installment root) and takes each tail level's value at the root from
the root law's breakpoint statistics; the values here come from a
whole recursion per point, so the file pins each cell against them.
"""
import json
import sys

from riskdp import Cte, IrmSpec, casebook, irm_root_value

STEPS = 100


def main() -> None:
    grid = casebook.preference_region(STEPS, STEPS)
    upfront, installment = casebook.upfront_tree(), casebook.installment_tree()
    days = casebook.PAYMENT_DAYS
    first = IrmSpec.repeat(Cte(grid.alpha_axis[0]), days)
    rows = []
    for alpha in grid.alpha_axis:
        spec = IrmSpec.repeat(Cte(alpha), days)
        rows.append([irm_root_value(installment, spec, lam).hex() for lam in grid.lambda_axis])
    data = {
        "steps": STEPS,
        "cells": ["".join("01"[c] for c in row) for row in grid.cells],
        "upfront": [irm_root_value(upfront, first, lam).hex() for lam in grid.lambda_axis],
        "installment": rows,
    }
    json.dump(data, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
