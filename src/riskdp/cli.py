"""Command-line harness over the library.

Every command is deterministic given its flags (plus --seed where
randomness is involved) and returns one output record; the command
boundary (`_Command`) renders it as JSON (the default) or CSV, writes
it to stdout or --out, and owns the exit codes: 0 on success, 1 when a
checked property or assertion fails, 2 on bad input.

Only what the option decorators and the shared boundary need is imported
here; each command imports the layers it calls (`casebook`, `tree`,
`mdp`, `properties`) in its own body, so a process loads only what its
command runs.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import click

from .distributions import MixedDistribution
from .errors import RiskModelError
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
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


_RF_HELP = {
    "mean": "Plain expectation.",
    "erm": "Entropic measure with this risk parameter.",
    "var": "Quantile at this level.",
    "cte": "Tail expectation at this level.",
}
_RF_KEYS = (*LEAF_KINDS, "rf_json")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _rf_options(fn):
    """One flag per leaf functional kind, named as its JSON kind, then --rf-json."""
    for kind, (_, param) in LEAF_KINDS.items():
        kwargs = {"is_flag": True} if param is None else {"type": float, "default": None}
        fn = click.option(_flag(kind), help=_RF_HELP.get(kind), **kwargs)(fn)
    fn = click.option(_flag("rf_json"), type=str, default=None, help="Risk functional as JSON (an object, or a list with one object per stage).")(fn)
    return fn


def _rf_flags_given(rf_flags: dict) -> List[str]:
    """The objective flags set on the command line, by option name; an
    unset --mean is False, and a zero level still counts as set."""
    return [key for key in _RF_KEYS if rf_flags[key] is not None and rf_flags[key] is not False]


def _parse_rf(**rf_flags) -> object:
    """One of the rf flags, exactly; --rf-json may carry a per-stage list."""
    given = _rf_flags_given(rf_flags)
    if len(given) != 1:
        raise click.UsageError(
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
        raise click.UsageError(f"--rf-json is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise click.UsageError("--rf-json is nested too deeply") from exc
    if isinstance(data, list):
        return [rf_from_json_dict(d) for d in data]
    return rf_from_json_dict(data)


def _load_json_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(
            f"invalid JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise click.UsageError(f"JSON in {path} is nested too deeply") from exc


def _contains_erm(rf: RiskFunctional) -> bool:
    return fold_functional(rf, lambda f, terms: isinstance(f, Erm) or any(v for _, v in terms))


class _Output(NamedTuple):
    """What a command returns: its JSON data, its CSV header and rows,
    and the message of a checked failure (exit 1 after the output)."""

    data: object
    header: Sequence[str]
    rows: Sequence[Sequence[object]]
    failure: Optional[str] = None


class _Command(click.Command):
    """The one output and error boundary of every command.

    Adds --format and --out after the command's own options, renders the
    _Output the command returns as JSON or CSV to stdout or the file, and
    then raises its failure, if any, so a failed check exits 1 after
    printing.  A library error becomes a usage error, so bad input exits
    2 with a message instead of a traceback.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.params = [
            *self.params,
            click.Option(["--format", "fmt"], type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Output format."),
            click.Option(["--out"], type=click.Path(dir_okay=False, writable=True), default=None, help="Write output to this file instead of stdout."),
        ]

    def invoke(self, ctx: click.Context) -> None:
        fmt, out = ctx.params.pop("fmt"), ctx.params.pop("out")
        try:
            result = super().invoke(ctx)
        except RiskModelError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        if fmt == "json":
            text = json.dumps(result.data, indent=2) + "\n"
        else:
            text = _csv_text(result.header, result.rows)
        if out:
            try:
                Path(out).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise click.UsageError(f"cannot write {out}: {exc}", ctx) from exc
        else:
            click.echo(text, nl=False)
        if result.failure:
            raise click.ClickException(result.failure)


@click.group()
def main() -> None:
    """Exact risk evaluation on finite stochastic models."""


main.command_class = _Command


# ---------------------------------------------------------------------------
# payments
# ---------------------------------------------------------------------------


@main.command()
@click.option("--lambda", "lam", type=float, default=0.95, show_default=True, help="Discount factor per day.")
@click.option("--alpha", type=float, default=0.9, show_default=True, help="Tail level of the stagewise tail expectation.")
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


@main.command()
@click.option("--lambda-steps", type=int, default=100, show_default=True, help="Grid points on the discount axis.")
@click.option("--alpha-steps", type=int, default=100, show_default=True, help="Grid points on the tail-level axis.")
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


@main.command()
@click.option("--gamma", type=float, default=0.001, show_default=True, help="Risk parameter of the entropic measure.")
@click.option("--lambda", "lam", type=float, default=0.92, show_default=True, help="Yearly discount factor.")
def xy(gamma: float, lam: float) -> _Output:
    """Evaluate the two deferred payment options from successive years.

    Scores both options (1000 due in one year w.p. 0.3; 2000 due in two
    years w.p. 0.1) with the entropic measure and with the expectation,
    at evaluation times 0 and 1, and flags any preference flip.
    """
    from . import casebook
    from .properties import preference_over_time

    options = [
        (casebook.one_year_payment(), 1),
        (casebook.two_year_payment(), 2),
    ]
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


@main.command()
@click.option("--alpha", "alphas", type=float, multiple=True, help="Tail levels to report (repeatable).")
@click.option("--gamma", "gammas", type=float, multiple=True, help="Risk parameters for the entropic curve (repeatable).")
@click.option("--lambda", "lam", type=float, default=1.0, show_default=True, help="Discount factor across the two stages.")
def paths(alphas: Tuple[float, ...], gammas: Tuple[float, ...], lam: float) -> _Output:
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
        "erm_curve": [
            {"gamma": g, "highway": p, "local_roads": q} for g, p, q in curve
        ],
        "ordering_violations": len(violations),
    }
    failure = f"entropic ordering violated at gamma in {violations}" if violations else None
    return _Output(data, ("gamma", "highway", "local_roads"), curve, failure)


# ---------------------------------------------------------------------------
# lemma1
# ---------------------------------------------------------------------------


@main.command()
@click.option("--x", "xs", type=float, multiple=True, help="Shape parameters (repeatable).")
@click.option("--scale", "scales", type=float, multiple=True, help="Positive scales (repeatable).")
@click.option("--shift", "shifts", type=float, multiple=True, help="Shifts (repeatable).")
@click.option("--gamma", "gammas", type=float, multiple=True, help="Risk parameters (repeatable).")
def lemma1(
    xs: Tuple[float, ...],
    scales: Tuple[float, ...],
    shifts: Tuple[float, ...],
    gammas: Tuple[float, ...],
) -> _Output:
    """Sweep the ordered-pair inequality grid and report violations.

    For each shape parameter the pair of mixtures is built, rescaled and
    shifted, and the entropic values are compared at every risk
    parameter; the upper member must never score below the lower one.
    """
    from . import casebook

    xs = xs or casebook.DEFAULT_X_GRID
    scales = scales or casebook.DEFAULT_SCALE_GRID
    shifts = shifts or casebook.DEFAULT_SHIFT_GRID
    gammas = gammas or casebook.DEFAULT_GAMMA_GRID
    rows = casebook.ordered_pair_gaps(xs, scales, shifts, gammas)
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


@main.command()
@click.argument("mdp_file", type=click.Path(exists=True, dir_okay=False))
@_rf_options
@click.option("--lambda", "lam", type=float, default=None, help="Override the discount factor from the file.")
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
    if isinstance(parsed, list):
        spec = IrmSpec(tuple(parsed))
    else:
        spec = IrmSpec.repeat(parsed, mdp.horizon)
    if mdp.discount < 1.0 and any(_contains_erm(rf) for rf in spec.stages):
        click.echo(
            "note: entropic stages with discounting optimize the stagewise "
            "recursion, which differs from the entropic value of the "
            "discounted total",
            err=True,
        )
    values, policy = solve_dp(mdp, spec)
    data = {
        "root_value": values[(0, mdp.initial)],
        "lambda": mdp.discount,
        "spec": [rf_label(rf) for rf in spec.stages],
    }
    data.update(solution_to_json_dict(mdp, values, policy))
    return _Output(data, ("n", "s", "a"), [(r["n"], r["s"], r["a"]) for r in data["policy"]])


@main.command(name="eval")
@click.argument("dist_file", type=click.Path(exists=True, dir_okay=False))
@_rf_options
def eval_cmd(dist_file: str, **rf_flags) -> _Output:
    """Apply one risk functional to a distribution file."""
    raw = _load_json_file(dist_file)
    parsed = _parse_rf(**rf_flags)
    if isinstance(parsed, list):
        raise click.UsageError("eval takes a single risk functional, not a per-stage list")
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


@main.command()
@_rf_options
@click.option("--trials", type=int, default=200, show_default=True, help="Random trials per property.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the random instances.")
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
            raise click.UsageError("check takes a single risk functional")
        checks = [(name, rf) for name in PROPERTY_CHECKERS]
    reports = [getattr(properties, name)(rf, trials=trials, seed=seed) for name, rf in checks]
    failed = [r for r in reports if not r.passed]
    data = {
        "reports": [r.to_json_dict() for r in reports],
        "all_passed": not failed,
    }
    rows = [(r.property_name, r.measure_label, r.trials, r.passed) for r in reports]
    failure = f"{len(failed)} of {len(reports)} property checks failed" if failed else None
    return _Output(data, ("property", "measure", "trials", "passed"), rows, failure)


if __name__ == "__main__":
    main()
