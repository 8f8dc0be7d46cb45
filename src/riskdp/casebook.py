"""Worked models used by the CLI and the regression tests.

Three families live here: a pair of payment plans (pay everything today,
or a plan that with small probability bills the full amount every day
for twenty days), a deferred payment choice between one due next year
and a larger one due the year after, and a pair of commute routes whose
travel-time laws mix a point with a uniform stretch.  Each family comes
with distributions, scenario trees, an MDP where a choice exists, and
the closed forms the recursive values must reproduce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .distributions import MixedDistribution, affine_transform, json_number
from .errors import ValidationError
from .measures import Expectation, _check_alpha, _check_discount, _cte_levels, _is_int, erm
from .tree import IrmSpec, ScenarioTree, _tree, deterministic_tree, irm_evaluate, irm_root_value

if TYPE_CHECKING:
    # imported where an MDP is built, so the other models load no solver
    from .mdp import FiniteHorizonMdp

PAYMENT_DAYS = 20
PAYMENT_AMOUNT = 1000.0
UPFRONT_SAVING = 0.05
# expected totals tie: probability * amount * days = (1 - saving) * amount
PAYMENT_PROBABILITY = (1.0 - UPFRONT_SAVING) / PAYMENT_DAYS


def geometric_sum(lam: float, n: int) -> float:
    """1 + lam + ... + lam**(n-1), stable at lam = 1."""
    if lam == 1.0:
        return float(n)
    return (1.0 - lam**n) / (1.0 - lam)


# ---------------------------------------------------------------------------
# payment plans
# ---------------------------------------------------------------------------


def upfront_marginals() -> Tuple[MixedDistribution, ...]:
    """Per-day payments when everything is paid on day 0."""
    first = MixedDistribution.point(PAYMENT_AMOUNT)
    rest = MixedDistribution.point(0.0)
    return (first,) + (rest,) * (PAYMENT_DAYS - 1)


def installment_marginals() -> Tuple[MixedDistribution, ...]:
    """Per-day payments under the billed-every-day-or-never plan.

    Each day's marginal is the same two-point law; the actual plan is all
    or nothing across days, which per-day marginals cannot see.
    """
    day = MixedDistribution.of_atoms(
        [(PAYMENT_PROBABILITY, PAYMENT_AMOUNT), (1.0 - PAYMENT_PROBABILITY, 0.0)]
    )
    return (day,) * PAYMENT_DAYS


def upfront_tree() -> ScenarioTree:
    return deterministic_tree([PAYMENT_AMOUNT] + [0.0] * (PAYMENT_DAYS - 1))


def installment_tree() -> ScenarioTree:
    """Whether any payment is due resolves once, before the day-0 bill;
    then each branch pays its amount daily for stages 1 .. PAYMENT_DAYS-1."""
    nodes = [(0, [(PAYMENT_PROBABILITY, PAYMENT_AMOUNT), (1.0 - PAYMENT_PROBABILITY, 0.0)])]
    for amount in (PAYMENT_AMOUNT, 0.0):
        nodes += [(n, [(1.0, amount)]) for n in range(1, PAYMENT_DAYS)] + [(PAYMENT_DAYS, [])]
    return _tree(PAYMENT_DAYS, nodes)


def installment_recursive_value(alpha: float, lam: float) -> float:
    """Closed form for the stagewise tail-expectation value of the
    installment tree: the discounted total on the billed branch, scaled
    by probability/(1-alpha) until alpha reaches the no-bill mass.
    """
    _check_alpha(alpha)
    _check_discount(lam)
    total = PAYMENT_AMOUNT * geometric_sum(lam, PAYMENT_DAYS)
    if alpha >= 1.0 - PAYMENT_PROBABILITY:
        return total
    return PAYMENT_PROBABILITY / (1.0 - alpha) * total


def preference_boundary(lam: float) -> float:
    """Tail level above which the upfront plan wins: the installment
    value crosses the upfront price at 1 - probability * discounted-days.
    """
    _check_discount(lam)
    return 1.0 - PAYMENT_PROBABILITY * geometric_sum(lam, PAYMENT_DAYS)


def preference_boundary_alternate(lam: float) -> float:
    """Variant closed form that averages over one fewer day.

    Published statements of this boundary disagree by one in the day
    count; this is the nineteen-day version, shown alongside the
    twenty-day one so the discrepancy stays visible.  They coincide at
    lam = 1.
    """
    _check_discount(lam)
    days = PAYMENT_DAYS - 1
    return 1.0 - (1.0 - UPFRONT_SAVING) * geometric_sum(lam, days) / days


def payments_mdp(lam: float) -> FiniteHorizonMdp:
    """Day-0 choice between paying upfront and entering the installment
    plan; afterwards the day-by-day dynamics are forced.
    """
    from .mdp import FiniteHorizonMdp, Transition

    states: List[Tuple[str, ...]] = [("start",)]
    states += [("settled", "owing")] * PAYMENT_DAYS
    actions = ("upfront", "installments")
    transitions: Dict[Tuple[int, str, str], Tuple[Transition, ...]] = {
        (0, "start", "upfront"): (Transition("settled", 1.0, PAYMENT_AMOUNT),),
        (0, "start", "installments"): (
            Transition("owing", PAYMENT_PROBABILITY, PAYMENT_AMOUNT),
            Transition("settled", 1.0 - PAYMENT_PROBABILITY, 0.0),
        ),
    }
    for n in range(1, PAYMENT_DAYS):
        for a in actions:
            transitions[(n, "settled", a)] = (Transition("settled", 1.0, 0.0),)
            transitions[(n, "owing", a)] = (Transition("owing", 1.0, PAYMENT_AMOUNT),)
    return FiniteHorizonMdp(
        horizon=PAYMENT_DAYS,
        states=tuple(states),
        actions=actions,
        initial="start",
        discount=lam,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# deferred payment choice
# ---------------------------------------------------------------------------


def one_year_payment() -> MixedDistribution:
    """1000 due in one year with probability 0.3."""
    return MixedDistribution.of_atoms([(0.3, 1000.0), (0.7, 0.0)])


def two_year_payment() -> MixedDistribution:
    """2000 due in two years with probability 0.1."""
    return MixedDistribution.of_atoms([(0.1, 2000.0), (0.9, 0.0)])


def one_year_tree() -> ScenarioTree:
    """Nothing happens in year 0; the year-1 bill lands or not."""
    nodes = [(0, [(1.0, 0.0)]), (1, [(0.3, 1000.0), (0.7, 0.0)]), (2, []), (2, [])]
    return _tree(2, nodes)


def two_year_tree() -> ScenarioTree:
    """Two quiet years, then the larger bill lands or not."""
    nodes = [(0, [(1.0, 0.0)]), (1, [(1.0, 0.0)]), (2, [(0.1, 2000.0), (0.9, 0.0)]), (3, []), (3, [])]
    return _tree(3, nodes)


def deferred_choice_mdp(lam: float) -> FiniteHorizonMdp:
    """Choose at time 0 which deferred bill to face; the rest is forced."""
    from .mdp import FiniteHorizonMdp, Transition

    states = (
        ("start",),
        ("wait_one", "wait_two"),
        ("charged", "waived", "waiting"),
        ("charged_end", "waived_end"),
    )
    actions = ("one_year", "two_year")
    transitions: Dict[Tuple[int, str, str], Tuple[Transition, ...]] = {
        (0, "start", "one_year"): (Transition("wait_one", 1.0, 0.0),),
        (0, "start", "two_year"): (Transition("wait_two", 1.0, 0.0),),
    }
    for a in actions:
        transitions[(1, "wait_one", a)] = (
            Transition("charged", 0.3, 1000.0),
            Transition("waived", 0.7, 0.0),
        )
        transitions[(1, "wait_two", a)] = (Transition("waiting", 1.0, 0.0),)
        transitions[(2, "charged", a)] = (Transition("charged_end", 1.0, 0.0),)
        transitions[(2, "waived", a)] = (Transition("waived_end", 1.0, 0.0),)
        transitions[(2, "waiting", a)] = (
            Transition("charged_end", 0.1, 2000.0),
            Transition("waived_end", 0.9, 0.0),
        )
    return FiniteHorizonMdp(
        horizon=3,
        states=states,
        actions=actions,
        initial="start",
        discount=lam,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# commute routes
# ---------------------------------------------------------------------------


def highway_time() -> MixedDistribution:
    """Ten minutes unless busy; busy traffic spreads the time over 20-80."""
    return MixedDistribution.mix(
        [
            (0.9, MixedDistribution.point(10.0)),
            (0.1, MixedDistribution.uniform(20.0, 80.0)),
        ]
    )


def local_roads_time() -> MixedDistribution:
    """Up to twenty minutes normally; a jam pins the time at fifty."""
    return MixedDistribution.mix(
        [
            (0.9, MixedDistribution.uniform(0.0, 20.0)),
            (0.1, MixedDistribution.point(50.0)),
        ]
    )


def _route_tree(branches: Sequence[Tuple[float, object]]) -> ScenarioTree:
    """Traffic state (probability p) first, then its travel time as cost."""
    nodes = [(0, [(p, 0.0) for p, _ in branches])]
    for _, cost in branches:
        nodes += [(1, [(1.0, cost)]), (2, [])]
    return _tree(2, nodes)


def highway_tree() -> ScenarioTree:
    """Traffic state resolves first, then the conditional travel time."""
    return _route_tree([(0.9, 10.0), (0.1, MixedDistribution.uniform(20.0, 80.0))])


def local_roads_tree() -> ScenarioTree:
    return _route_tree([(0.9, MixedDistribution.uniform(0.0, 20.0)), (0.1, 50.0)])


# ---------------------------------------------------------------------------
# ordered pair behind the route example
# ---------------------------------------------------------------------------


def ordered_pair(x: float) -> Tuple[MixedDistribution, MixedDistribution]:
    """Two-component mixtures (upper, lower) whose entropic values stay
    ordered under every positive affine rescaling and every risk
    parameter.  At x = 3, scaling by 20 and shifting by 20 yields exactly
    the two commute-time laws.
    """
    x = json_number(x, "x")
    if not math.isfinite(x) or x <= 0.0:
        raise ValidationError(f"need x > 0, got {x!r}")
    p = x * x / (1.0 + x * x)
    upper = MixedDistribution.mix(
        [(p, MixedDistribution.point(-0.5)), (1.0 - p, MixedDistribution.uniform(0.0, x))]
    )
    lower = MixedDistribution.mix(
        [(p, MixedDistribution.uniform(-1.0, 0.0)), (1.0 - p, MixedDistribution.point(x / 2.0))]
    )
    return upper, lower


DEFAULT_X_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0)
DEFAULT_SCALE_GRID = (0.5, 1.0, 5.0, 20.0)
DEFAULT_SHIFT_GRID = (-10.0, 0.0, 20.0)
DEFAULT_GAMMA_GRID = (-2.0, -1.0, -0.5, -0.1, -0.01, 0.0, 0.01, 0.1, 0.5, 1.0, 2.0)


def ordered_pair_gaps(
    x_grid: Sequence[float] = DEFAULT_X_GRID,
    scale_grid: Sequence[float] = DEFAULT_SCALE_GRID,
    shift_grid: Sequence[float] = DEFAULT_SHIFT_GRID,
    gamma_grid: Sequence[float] = DEFAULT_GAMMA_GRID,
) -> List[Tuple[float, float, float, float, float]]:
    """erm(upper) - erm(lower) over the whole grid, as rows
    (x, scale, shift, gamma, gap).  Every gap should be >= 0 up to float
    noise; a negative entry is a counterexample.
    """
    rows = []
    for x in x_grid:
        upper, lower = ordered_pair(x)
        for a in scale_grid:
            if json_number(a, "scale") <= 0.0:
                raise ValidationError(f"scales must be positive, got {a!r}")
            for b in shift_grid:
                up = affine_transform(upper, a, b)
                lo = affine_transform(lower, a, b)
                for g in gamma_grid:
                    rows.append((x, a, b, g, erm(g, up) - erm(g, lo)))
    return rows


# ---------------------------------------------------------------------------
# preference region of the payment plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionGrid:
    """Grid of (discount, tail level) cells; a true cell means the
    upfront plan is at least as good as the installment plan there,
    judged by the stagewise recursion on the two trees.  Ties count as
    upfront because the closed-form boundary is the indifference locus
    (at zero discount the plans tie exactly on the whole upper band).
    The boundary column carries the crossing level per discount.
    """

    lambda_axis: Tuple[float, ...]
    alpha_axis: Tuple[float, ...]
    cells: Tuple[Tuple[bool, ...], ...]
    boundary: Tuple[Tuple[float, float], ...]

    def boundary_discrepancy_cells(self) -> int:
        """Worst disagreement, in grid cells, between the recursion's
        preference flip and the closed-form boundary.
        """
        worst = 0
        alphas = self.alpha_axis
        for j, (lam, cut) in enumerate(self.boundary):
            column = [self.cells[i][j] for i in range(len(alphas))]
            rec = next((i for i, c in enumerate(column) if c), len(alphas))
            closed = next((i for i, a in enumerate(alphas) if a > cut), len(alphas))
            worst = max(worst, abs(rec - closed))
        return worst


def preference_region(lambda_steps: int = 100, alpha_steps: int = 100) -> RegionGrid:
    """Sweep the recursion over the grid; no closed form inside the cells.

    Every cell is still the stagewise recursion's value, but it runs
    once per discount, not once per cell.  Below its root the installment
    tree has one scalar-cost edge per node, and every functional maps a
    constant to itself, so no tail level moves those nodes' values: the
    recursion runs under the expectation, which reaches no tail kernel.
    Each tail level's functional is applied only at the root, to the
    root's one-step law at each discount, built with the recursion's
    operations.
    That law's breakpoint statistics are read once for all tail levels
    (`measures._cte_levels`), and each level's value keeps the bits of
    the tail-expectation kernel on that law.
    """
    if not (_is_int(lambda_steps) and _is_int(alpha_steps)):
        raise ValidationError(f"steps per axis must be integers, got {lambda_steps!r}, {alpha_steps!r}")
    if lambda_steps < 2 or alpha_steps < 2:
        raise ValidationError("need at least 2 steps per axis")
    lambda_axis = tuple(j / (lambda_steps - 1) for j in range(lambda_steps))
    alpha_axis = tuple(i / alpha_steps for i in range(alpha_steps))
    a_tree = upfront_tree()
    b_tree = installment_tree()
    # no tail level moves the values of the upfront tree, which is
    # deterministic, nor of the installment nodes below the root
    spec = IrmSpec.repeat(Expectation(), PAYMENT_DAYS)
    a_row = [irm_root_value(a_tree, spec, lam) for lam in lambda_axis]
    edges = b_tree.root.edges
    probs = [e.probability for e in edges]
    columns = []
    for lam, a_val in zip(lambda_axis, a_row):
        below = irm_evaluate(b_tree, spec, lam).node_values
        atoms = [e.cost + lam * below[(k,)] for k, e in enumerate(edges)]
        columns.append([a_val <= v for v in _cte_levels(alpha_axis, probs, atoms)])
    boundary = tuple((lam, preference_boundary(lam)) for lam in lambda_axis)
    return RegionGrid(
        lambda_axis=lambda_axis,
        alpha_axis=alpha_axis,
        cells=tuple(zip(*columns)),
        boundary=boundary,
    )
