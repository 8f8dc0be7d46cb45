"""Randomized property checks for risk functionals.

Each checker draws seeded random instances, tests one algebraic property
up to a relative tolerance, and reports the first counterexample found.
A functional under test may be a declarative RiskFunctional or any
callable mapping a MixedDistribution to a float, so user-supplied
statistics can be screened the same way.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .distributions import MixedDistribution, PointMass, UniformSegment, affine_transform
from .errors import ValidationError
from .measures import (
    Composite,
    RF_CLASSES,
    RiskFunctional,
    _check_discount,
    _is_int,
    evaluate,
    rf_label,
)

REL_TOL = 1e-9

Measure = Union[RiskFunctional, Callable[[MixedDistribution], float]]


def _check_trials(trials: int) -> None:
    """A check that runs no trial would pass vacuously."""
    if not _is_int(trials) or trials < 1:
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")


def _as_callable(measure: Measure) -> Tuple[Callable[[MixedDistribution], float], str]:
    if isinstance(measure, RF_CLASSES):
        return (lambda d: evaluate(measure, d)), rf_label(measure)
    if callable(measure):
        return measure, getattr(measure, "__name__", "callable")
    raise ValidationError(f"{measure!r} is neither a risk functional nor callable")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one property check."""

    property_name: str
    measure_label: str
    trials: int
    passed: bool
    counterexample: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "property": self.property_name,
            "measure": self.measure_label,
            "trials": self.trials,
            "passed": self.passed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _random_atoms(rng: random.Random) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    n = rng.randint(1, 6)
    raw = [rng.random() + 1e-3 for _ in range(n)]
    total = math.fsum(raw)
    probs = tuple(r / total for r in raw)
    values = tuple(rng.uniform(-10.0, 10.0) for _ in range(n))
    return probs, values


def _random_mixed(rng: random.Random) -> MixedDistribution:
    probs, values = _random_atoms(rng)
    # per value, the segment draw and then its width
    outcomes = [UniformSegment(v, v + rng.uniform(0.1, 5.0)) if rng.random() < 0.4 else PointMass(v) for v in values]
    return MixedDistribution(tuple(zip(probs, outcomes)))


def _run_trials(
    property_name: str,
    measure: Measure,
    trials: int,
    seed: int,
    trial: Callable[[Callable[[MixedDistribution], float], random.Random], Optional[dict]],
) -> CheckReport:
    """Run trial(fn, rng) up to trials times off one seeded rng.  A trial
    returns None when the property held, else the counterexample, which
    fails the check."""
    _check_trials(trials)
    fn, label = _as_callable(measure)
    rng = random.Random(seed)
    for k in range(trials):
        counterexample = trial(fn, rng)
        if counterexample is not None:
            return CheckReport(property_name, label, k + 1, False, counterexample)
    return CheckReport(property_name, label, trials, True)


def check_monotonic(measure: Measure, trials: int = 200, seed: int = 0) -> CheckReport:
    """Coupled dominance check: X >= Y pointwise forces rho(X) >= rho(Y).

    Atom pairs share the same probabilities, with the dominating value
    drawn above the dominated one on every atom.
    """

    def trial(fn, rng):
        probs, lower = _random_atoms(rng)
        upper = tuple(v + rng.uniform(0.0, 5.0) for v in lower)
        d_hi = MixedDistribution.of_atoms(zip(probs, upper))
        d_lo = MixedDistribution.of_atoms(zip(probs, lower))
        hi, lo = fn(d_hi), fn(d_lo)
        if hi < lo and not _close(hi, lo):
            return {
                "probabilities": list(probs),
                "dominating": list(upper),
                "dominated": list(lower),
                "value_dominating": hi,
                "value_dominated": lo,
            }

    return _run_trials("monotonic", measure, trials, seed, trial)


def check_translation_invariance(
    measure: Measure, trials: int = 200, seed: int = 0
) -> CheckReport:
    """rho(Y + b) == rho(Y) + b for deterministic shifts b."""

    def trial(fn, rng):
        dist = _random_mixed(rng)
        b = rng.uniform(-10.0, 10.0)
        base = fn(dist)
        shifted = fn(affine_transform(dist, 1.0, b))
        if not _close(shifted, base + b):
            return {
                "distribution": dist.to_json_dict(),
                "shift": b,
                "value_shifted": shifted,
                "value_base_plus_shift": base + b,
            }

    return _run_trials("translation_invariance", measure, trials, seed, trial)


def check_positive_homogeneity(
    measure: Measure, trials: int = 200, seed: int = 0
) -> CheckReport:
    """rho(a*Y) == a*rho(Y) for positive scales a."""

    def trial(fn, rng):
        dist = _random_mixed(rng)
        a = rng.uniform(1e-3, 10.0)
        base = fn(dist)
        scaled = fn(affine_transform(dist, a, 0.0))
        if not _close(scaled, a * base):
            return {
                "distribution": dist.to_json_dict(),
                "scale": a,
                "value_scaled": scaled,
                "value_base_times_scale": a * base,
            }

    return _run_trials("positive_homogeneity", measure, trials, seed, trial)


def check_composite_monotonic(
    components: Sequence[RiskFunctional],
    coefficients: Sequence[float],
    trials: int = 200,
    seed: int = 0,
) -> CheckReport:
    """Monotonicity of a convex combination, checked directly.

    Nonnegative coefficients over monotone parts keep the combination
    monotone; this check builds the combined functional and exercises it
    rather than trusting the parts.
    """
    components = list(components)
    coefficients = list(coefficients)
    if len(components) != len(coefficients):
        raise ValidationError(
            f"{len(components)} components but {len(coefficients)} coefficients"
        )
    composite = Composite(tuple(zip(coefficients, components)))
    return check_monotonic(composite, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# preference over evaluation time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreferencePoint:
    """Discounted static values of every option at one evaluation time."""

    time: int
    values: Tuple[float, ...]
    chosen: int


def preference_over_time(
    rf: RiskFunctional,
    lam: float,
    options: Sequence[Tuple[MixedDistribution, int]],
    *,
    times: Optional[Sequence[int]] = None,
) -> List[PreferencePoint]:
    """Evaluate delayed one-shot costs from successive vantage points.

    Each option is a cost distribution due after a fixed delay; seen from
    time t the cost discounts by lam**(delay - t).  The value records the
    static evaluation at each time and which option wins (ties go to the
    earlier index).  Only times up to the nearest due date make sense, so
    the default runs t = 0 .. min(delay).
    """
    if not isinstance(rf, RF_CLASSES):
        raise ValidationError(f"unknown risk functional {rf!r}")
    lam = _check_discount(lam, positive=True)
    options = list(options)
    if not options:
        raise ValidationError("preference_over_time needs at least one option")
    for dist, delay in options:
        if not isinstance(dist, MixedDistribution):
            raise ValidationError("each option needs a MixedDistribution cost")
        if not _is_int(delay) or delay < 1:
            raise ValidationError(f"delay must be an integer >= 1, got {delay!r}")
    if times is None:
        times = range(0, min(delay for _, delay in options) + 1)
    points = []
    for t in times:
        if not _is_int(t) or t < 0:
            raise ValidationError(f"evaluation time must be an integer >= 0, got {t!r}")
        values = []
        for dist, delay in options:
            if t > delay:
                raise ValidationError(
                    f"evaluation time {t} is past the option due at {delay}"
                )
            scale = lam ** (delay - t)
            values.append(
                evaluate(rf, affine_transform(dist, scale, 0.0))
                if scale != 1.0
                else evaluate(rf, dist)
            )
        chosen = min(range(len(values)), key=lambda i: (values[i], i))
        points.append(PreferencePoint(time=t, values=tuple(values), chosen=chosen))
    return points
