"""Command-line harness over the library.

Every command is deterministic given its flags (plus --seed where
randomness is involved) and returns one output record.  `main` is the
one boundary of every command: it parses the command line with argparse
from one option table per command, renders the record as JSON (the
default) or CSV, writes it to stdout or --out, and owns the exit codes:
0 on success, 1 when a checked property or assertion fails, 2 on bad
input.

Only what the option tables and the boundary need is imported here; each
command imports the layers it calls (`casebook`, `tree`, `mdp`,
`properties`) in its own body, so a process loads only what its command
runs.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

from .distributions import MixedDistribution
from .errors import RiskModelError, ValidationError
from .measures import (
    LEAF_KINDS,
    Composite,
    Cte,
    Erm,
    Expectation,
    Exponential,
    RiskFunctional,
    ValueAtRisk,
    deu,
    erm,
    evaluate,
    fold_functional,
    mean,
    cte,
    rf_from_json_dict,
    rf_label,
)

DEU_GAMMAS = (0.0001, 0.001, 0.01)
DEFAULT_PATH_ALPHAS = (0.5, 0.8)
DEFAULT_PATH_GAMMAS = (-0.2, -0.1, -0.05, -0.01, 0.0, 0.01, 0.05, 0.1, 0.2)
ORDERING_TOL = 1e-9
PAYMENTS_CSV_QUANTITIES = (
    "lambda", "alpha", "upfront_value", "installment_value", "installment_closed_form",
    "preferred", "boundary_twenty_day", "boundary_nineteen_day", "alpha_above_boundary",
)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def cell(v: object) -> str:
        if isinstance(v, bool):
            return "1" if v else "0"
        return str(v)  # a float's str is its repr

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class _Output(NamedTuple):
    """What a command returns: its JSON data, its CSV header and rows,
    and the message of a checked failure (exit 1 after the output)."""

    data: object
    header: Sequence[str]
    rows: Sequence[Sequence[object]]
    failure: Optional[str] = None


# each command by name: its function, which takes the parsed options as
# keywords, and its option table
_COMMANDS: Dict[str, Tuple[Callable[..., _Output], tuple]] = {}


def _command(*options: Tuple[str, dict], name: Optional[str] = None) -> Callable:
    """Register a command under name (by default its function's) with its
    option table: (flag or positional name, keyword arguments of
    argparse's add_argument) rows, in the order --help lists them."""
    return lambda fn: _COMMANDS.setdefault(name or fn.__name__, (fn, options))[0]


_RF_KEYS = (*LEAF_KINDS, "rf_json")
# one flag per leaf functional kind, named as its JSON kind, then --rf-json
RF_OPTIONS = (
    ("--mean", dict(action="store_true", help="Plain expectation.")),
    ("--erm", dict(type=float, help="Entropic measure with this risk parameter.")),
    ("--var", dict(type=float, help="Quantile at this level.")),
    ("--cte", dict(type=float, help="Tail expectation at this level.")),
    ("--rf-json", dict(help="Risk functional as JSON (an object, or a list with one object per stage).")),
)
SHARED_OPTIONS = (
    ("--format", dict(dest="fmt", choices=("json", "csv"), default="json", help="Output format (default: %(default)s).")),
    ("--out", dict(help="Write output to this file instead of stdout.")),
    ("--help", dict(action="help", help="Show this message and exit.")),
)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _rf_flags_given(rf_flags: dict) -> List[str]:
    """The objective flags set on the command line, by option name; an
    unset --mean is False, and a zero level still counts as set."""
    return [key for key in _RF_KEYS if rf_flags[key] is not None and rf_flags[key] is not False]


def _parse_rf(**rf_flags) -> object:
    """One of the rf flags, exactly; --rf-json may carry a per-stage list."""
    given = _rf_flags_given(rf_flags)
    if len(given) != 1:
        raise ValidationError(
            f"pick exactly one of {'/'.join(map(_flag, _RF_KEYS))}"
            + (f" (got {', '.join(map(_flag, given))})" if given else "")
        )
    (key,) = given
    if key in LEAF_KINDS:
        cls, param = LEAF_KINDS[key]
        return cls() if param is None else cls(rf_flags[key])
    try:
        data = json.loads(rf_flags["rf_json"])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--rf-json is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("--rf-json is nested too deeply") from exc
    if isinstance(data, list):
        return [rf_from_json_dict(d) for d in data]
    return rf_from_json_dict(data)


def _load_json_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ValidationError(f"JSON in {path} is nested too deeply") from exc


def _contains_erm(rf: RiskFunctional) -> bool:
    return fold_functional(rf, lambda f, terms: isinstance(f, Erm) or any(v for _, v in terms))


class _Parser(argparse.ArgumentParser):
    """argparse without -h or abbreviated options, whose usage errors are
    `ValidationError`s, so they meet every other bad input at `main`."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        # a value such as -1e-3 follows its option, as -0.5 does
        self._negative_number_matcher = re.compile(r"-\.?\d.*")

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


def main(argv: Optional[Sequence[str]] = None) -> NoReturn:
    """Run one command line (by default sys.argv[1:]) and exit with its code.

    Parses it with each command's option table followed by --format,
    --out and --help, renders the _Output the command returns as JSON or
    CSV to stdout or the --out file, and only then exits 1 on its
    failure, if any.  Any `RiskModelError`, bad flags included, exits 2
    with its message instead of a traceback.
    """
    parser = _Parser(prog="riskdp", description="Exact risk evaluation on finite stochastic models.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__.split("\n", 1)[0], description=fn.__doc__)
        for flag, kwargs in (*options, *SHARED_OPTIONS):
            sub.add_argument(flag, **kwargs)
    try:
        args = vars(parser.parse_args(argv))
        command, fmt, out = args.pop("command"), args.pop("fmt"), args.pop("out")
        result = _COMMANDS[command][0](**args)
        if fmt == "json":
            text = json.dumps(result.data, indent=2) + "\n"
        else:
            text = _csv_text(result.header, result.rows)
        if out:
            try:
                Path(out).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ValidationError(f"cannot write {out}: {exc}") from exc
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except BrokenPipeError:  # the reader left: exit quietly, sending it nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    except RiskModelError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if result.failure:
        print(f"Error: {result.failure}", file=sys.stderr)
        raise SystemExit(1)
    raise SystemExit(0)


# ---------------------------------------------------------------------------
# payments
# ---------------------------------------------------------------------------


@_command(
    ("--lambda", dict(dest="lam", type=float, default=0.95, help="Discount factor per day (default: %(default)s).")),
    ("--alpha", dict(type=float, default=0.9, help="Tail level of the stagewise tail expectation (default: %(default)s).")),
)
def payments(lam: float, alpha: float) -> _Output:
    """Compare paying upfront against the installment plan.

    Prints the stagewise recursive value of both plans, which plan wins,
    the closed-form boundary (in both published day counts), and the
    per-period expected-disutility values that always favor the
    installment plan regardless of risk.
    """
    from . import casebook
    from .tree import IrmSpec, irm_root_value

    spec = IrmSpec.repeat(Cte(alpha), casebook.PAYMENT_DAYS)
    a_val = irm_root_value(casebook.upfront_tree(), spec, lam)
    b_val = irm_root_value(casebook.installment_tree(), spec, lam)
    closed = casebook.installment_recursive_value(alpha, lam)
    cut20 = casebook.preference_boundary(lam)
    cut19 = casebook.preference_boundary_alternate(lam)
    deu_rows = []
    for g in DEU_GAMMAS:
        u = Exponential(g)
        a_deu = deu(u, lam, casebook.upfront_marginals())
        b_deu = deu(u, lam, casebook.installment_marginals())
        deu_rows.append(
            {
                "gamma": g,
                "upfront": a_deu,
                "installments": b_deu,
                "preferred": "upfront" if a_deu < b_deu else "installments",
            }
        )
    data = {
        "lambda": lam,
        "alpha": alpha,
        "upfront_value": a_val,
        "installment_value": b_val,
        "installment_closed_form": closed,
        "preferred": "upfront" if a_val < b_val else "installments",
        "boundary_twenty_day": cut20,
        "boundary_nineteen_day": cut19,
        "boundary_note": (
            "the two closed forms differ by one in the day count for "
            "lambda < 1 and agree at lambda = 1; the cell sweep follows "
            "the twenty-day form"
        ),
        "alpha_above_boundary": alpha > cut20,
        "deu_exponential": deu_rows,
    }
    rows = [(k, data[k]) for k in PAYMENTS_CSV_QUANTITIES]
    rows.extend(
        (f"deu_gamma_{r['gamma']:g}_{k}", r[k])
        for r in deu_rows
        for k in ("upfront", "installments")
    )
    return _Output(data, ("quantity", "value"), rows)


# ---------------------------------------------------------------------------
# fig1
# ---------------------------------------------------------------------------


@_command(
    ("--lambda-steps", dict(type=int, default=100, help="Grid points on the discount axis (default: %(default)s).")),
    ("--alpha-steps", dict(type=int, default=100, help="Grid points on the tail-level axis (default: %(default)s).")),
)
def fig1(lambda_steps: int, alpha_steps: int) -> _Output:
    """Sweep the payment-plan preference region over (discount, tail level).

    Every cell is decided by the stagewise recursion on the two trees,
    never by the closed form; the closed-form boundary is attached per
    column and the sweep fails if any column's flip strays more than one
    cell from it.
    """
    from . import casebook

    grid = casebook.preference_region(lambda_steps, alpha_steps)
    worst = grid.boundary_discrepancy_cells()
    data = {
        "lambda_axis": list(grid.lambda_axis),
        "alpha_axis": list(grid.alpha_axis),
        "cells": [list(row) for row in grid.cells],
        "boundary": [list(b) for b in grid.boundary],
        "max_boundary_discrepancy_cells": worst,
    }
    rows = [
        (lam, alpha, grid.cells[i][j], grid.boundary[j][1])
        for i, alpha in enumerate(grid.alpha_axis)
        for j, lam in enumerate(grid.lambda_axis)
    ]
    failure = f"recursion and closed-form boundary disagree by {worst} cells" if worst > 1 else None
    return _Output(data, ("lambda", "alpha", "upfront_preferred", "boundary_alpha"), rows, failure)


# ---------------------------------------------------------------------------
# xy
# ---------------------------------------------------------------------------


@_command(
    ("--gamma", dict(type=float, default=0.001, help="Risk parameter of the entropic measure (default: %(default)s).")),
    ("--lambda", dict(dest="lam", type=float, default=0.92, help="Yearly discount factor (default: %(default)s).")),
)
def xy(gamma: float, lam: float) -> _Output:
    """Evaluate the two deferred payment options from successive years.

    Scores both options (1000 due in one year w.p. 0.3; 2000 due in two
    years w.p. 0.1) with the entropic measure and with the expectation,
    at evaluation times 0 and 1, and flags any preference flip.
    """
    from . import casebook
    from .properties import preference_over_time

    options = [(casebook.one_year_payment(), 1), (casebook.two_year_payment(), 2)]
    names = ("one_year", "two_year")
    measures = [Erm(gamma), Expectation()]
    blocks = []
    for rf in measures:
        points = preference_over_time(rf, lam, options)
        blocks.append(
            {
                "measure": rf_label(rf),
                "points": [
                    {
                        "t": p.time,
                        "one_year": p.values[0],
                        "two_year": p.values[1],
                        "chosen": names[p.chosen],
                    }
                    for p in points
                ],
                "flip": len({p.chosen for p in points}) > 1,
            }
        )
    rows = [
        (b["measure"], p["t"], p["one_year"], p["two_year"], p["chosen"])
        for b in blocks
        for p in b["points"]
    ]
    data = {"lambda": lam, "gamma": gamma, "measures": blocks}
    return _Output(data, ("measure", "t", "one_year", "two_year", "chosen"), rows)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


@_command(
    ("--alpha", dict(dest="alphas", type=float, action="append", help="Tail levels to report (repeatable).")),
    ("--gamma", dict(dest="gammas", type=float, action="append", help="Risk parameters for the entropic curve (repeatable).")),
    ("--lambda", dict(dest="lam", type=float, default=1.0, help="Discount factor across the two stages (default: %(default)s).")),
)
def paths(alphas: Optional[List[float]], gammas: Optional[List[float]], lam: float) -> _Output:
    """Report risk statistics for the two commute routes.

    For each tail level: the plain mean, the one-shot tail expectation of
    the travel time, and the stagewise recursive value on the two-stage
    tree where traffic resolves first.  Also sweeps the entropic measure
    over the risk-parameter grid and verifies the highway curve stays
    above the local-roads curve.
    """
    from . import casebook
    from .tree import IrmSpec, irm_root_value

    alphas = alphas or DEFAULT_PATH_ALPHAS
    gammas = gammas or DEFAULT_PATH_GAMMAS
    routes = {
        "highway": (casebook.highway_time(), casebook.highway_tree()),
        "local_roads": (casebook.local_roads_time(), casebook.local_roads_tree()),
    }
    stats = []
    for alpha in alphas:
        spec = IrmSpec.repeat(Cte(alpha), 2)
        stats.append({"alpha": alpha})
        for name, (law, tree) in routes.items():
            stats[-1][name] = {
                "mean": mean(law),
                "cte": cte(alpha, law),
                "icte": irm_root_value(tree, spec, lam),
            }
    hw, lr = (law for law, _ in routes.values())
    curve = [(g, erm(g, hw), erm(g, lr)) for g in gammas]
    violations = [g for g, p, q in curve if p < q - ORDERING_TOL]
    data = {
        "lambda": lam,
        "tail_levels": stats,
        "erm_curve": [{"gamma": g, "highway": p, "local_roads": q} for g, p, q in curve],
        "ordering_violations": len(violations),
    }
    failure = f"entropic ordering violated at gamma in {violations}" if violations else None
    return _Output(data, ("gamma", "highway", "local_roads"), curve, failure)


# ---------------------------------------------------------------------------
# lemma1
# ---------------------------------------------------------------------------


@_command(
    ("--x", dict(dest="x_grid", type=float, action="append", help="Shape parameters (repeatable).")),
    ("--scale", dict(dest="scale_grid", type=float, action="append", help="Positive scales (repeatable).")),
    ("--shift", dict(dest="shift_grid", type=float, action="append", help="Shifts (repeatable).")),
    ("--gamma", dict(dest="gamma_grid", type=float, action="append", help="Risk parameters (repeatable).")),
)
def lemma1(**grids: Optional[List[float]]) -> _Output:
    """Sweep the ordered-pair inequality grid and report violations.

    For each shape parameter the pair of mixtures is built, rescaled and
    shifted, and the entropic values are compared at every risk
    parameter; the upper member must never score below the lower one.
    """
    from . import casebook

    # a grid not given keeps ordered_pair_gaps' default
    rows = casebook.ordered_pair_gaps(**{k: v for k, v in grids.items() if v is not None})
    worst = min(gap for _, _, _, _, gap in rows)
    violations = sum(1 for _, _, _, _, gap in rows if gap < -ORDERING_TOL)
    data = {
        "points": len(rows),
        "violations": violations,
        "max_violation": max(0.0, -worst),
        "gaps": [
            {"x": x, "scale": a, "shift": b, "gamma": g, "gap": gap}
            for x, a, b, g, gap in rows
        ],
    }
    failure = f"{violations} grid points violate the ordered-pair inequality" if violations else None
    return _Output(data, ("x", "scale", "shift", "gamma", "gap"), rows, failure)


# ---------------------------------------------------------------------------
# solve / eval
# ---------------------------------------------------------------------------


@_command(
    ("mdp_file", dict(metavar="MDP_FILE")),
    *RF_OPTIONS,
    ("--lambda", dict(dest="lam", type=float, help="Override the discount factor from the file.")),
)
def solve(mdp_file: str, lam: Optional[float], **rf_flags) -> _Output:
    """Solve an MDP file under a stagewise risk objective.

    The objective flags give either one functional repeated every stage
    or, with --rf-json and a list, one per stage.  Output carries the
    value table, the policy, and a most-likely trajectory.
    """
    from .mdp import _with_discount, mdp_from_json_dict, solution_to_json_dict, solve_dp
    from .tree import IrmSpec

    raw = _load_json_file(mdp_file)
    parsed = _parse_rf(**rf_flags)
    mdp = mdp_from_json_dict(raw)
    if lam is not None:
        mdp = _with_discount(mdp, lam)
    spec = IrmSpec(tuple(parsed)) if isinstance(parsed, list) else IrmSpec.repeat(parsed, mdp.horizon)
    if mdp.discount < 1.0 and any(_contains_erm(rf) for rf in spec.stages):
        print(
            "note: entropic stages with discounting optimize the stagewise "
            "recursion, which differs from the entropic value of the "
            "discounted total",
            file=sys.stderr,
        )
    values, policy = solve_dp(mdp, spec)
    data = {
        "root_value": values[(0, mdp.initial)],
        "lambda": mdp.discount,
        "spec": [rf_label(rf) for rf in spec.stages],
    }
    data.update(solution_to_json_dict(mdp, values, policy))
    return _Output(data, ("n", "s", "a"), [(r["n"], r["s"], r["a"]) for r in data["policy"]])


@_command(("dist_file", dict(metavar="DIST_FILE")), *RF_OPTIONS, name="eval")
def eval_cmd(dist_file: str, **rf_flags) -> _Output:
    """Apply one risk functional to a distribution file."""
    raw = _load_json_file(dist_file)
    parsed = _parse_rf(**rf_flags)
    if isinstance(parsed, list):
        raise ValidationError("eval takes a single risk functional, not a per-stage list")
    dist = MixedDistribution.from_json_dict(raw)
    label = rf_label(parsed)
    value = evaluate(parsed, dist)
    return _Output({"measure": label, "value": value}, ("measure", "value"), [(label, value)])


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


# checkers in riskdp.properties: all three run on a user functional, and
# the standard suite is (checker, functional) rows, the last a convex
# combination
PROPERTY_CHECKERS = ("check_monotonic", "check_translation_invariance", "check_positive_homogeneity")
STANDARD_CHECKS = (
    ("check_monotonic", Expectation()),
    ("check_monotonic", Erm(1.0)),
    ("check_monotonic", Cte(0.5)),
    ("check_translation_invariance", Expectation()),
    ("check_translation_invariance", Erm(1.0)),
    ("check_translation_invariance", Cte(0.5)),
    ("check_positive_homogeneity", Expectation()),
    ("check_positive_homogeneity", ValueAtRisk(0.5)),
    ("check_positive_homogeneity", Cte(0.5)),
    ("check_monotonic", Composite(((0.5, Expectation()), (0.5, Cte(0.5))))),
)


@_command(
    *RF_OPTIONS,
    ("--trials", dict(type=int, default=200, help="Random trials per property (default: %(default)s).")),
    ("--seed", dict(type=int, default=0, help="Seed for the random instances (default: %(default)s).")),
)
def check(trials: int, seed: int, **rf_flags) -> _Output:
    """Run randomized property checks.

    Without an objective flag, runs the standard suite (monotonicity,
    translation invariance, positive homogeneity on the measures that
    carry them, plus a convex combination); every check is expected to
    pass.  With an objective flag, runs all three properties on that
    functional and reports what holds.
    """
    from . import properties

    checks = STANDARD_CHECKS
    if _rf_flags_given(rf_flags):
        rf = _parse_rf(**rf_flags)
        if isinstance(rf, list):
            raise ValidationError("check takes a single risk functional")
        checks = [(name, rf) for name in PROPERTY_CHECKERS]
    reports = [getattr(properties, name)(rf, trials=trials, seed=seed) for name, rf in checks]
    failed = [r for r in reports if not r.passed]
    data = {"reports": [r.to_json_dict() for r in reports], "all_passed": not failed}
    rows = [(r.property_name, r.measure_label, r.trials, r.passed) for r in reports]
    failure = f"{len(failed)} of {len(reports)} property checks failed" if failed else None
    return _Output(data, ("property", "measure", "trials", "passed"), rows, failure)


if __name__ == "__main__":
    main()
