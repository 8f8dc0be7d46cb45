"""Decision processes: validation, backward induction against forward
policy enumeration, tail problems, and serialization."""
from __future__ import annotations

import json
from collections.abc import Mapping
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp import (
    Composite,
    Cte,
    EnumerationLimitError,
    Erm,
    Expectation,
    FiniteHorizonMdp,
    IrmSpec,
    MixedDistribution,
    ScenarioTree,
    Transition,
    ValidationError,
    ValueAtRisk,
    brute_force_optimal,
    casebook,
    deterministic_tree,
    discounted_total_distribution,
    evaluate,
    evaluate_policy,
    irm_root_value,
    mdp_from_json_dict,
    mdp_to_json_dict,
    rf_from_json_dict,
    solution_to_json_dict,
    solve_dp,
    tail_mdp,
    unroll,
)

from riskdp import measures

from .conftest import assert_close, random_mdp

DATA = Path(__file__).parent / "data"


def chain_mdp(costs_by_action, discount: float = 1.0) -> FiniteHorizonMdp:
    """One-stage process with a single terminal state; each action pays
    its deterministic cost."""
    return FiniteHorizonMdp(
        horizon=1,
        states=(("s",), ("t",)),
        actions=tuple(costs_by_action),
        initial="s",
        discount=discount,
        transitions={
            (0, "s", a): (Transition("t", 1.0, c),)
            for a, c in costs_by_action.items()
        },
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_duplicate_target_in_one_action_is_rejected():
    with pytest.raises(ValidationError, match="function of"):
        FiniteHorizonMdp(
            horizon=1,
            states=(("s",), ("t",)),
            actions=("a",),
            initial="s",
            discount=1.0,
            transitions={
                (0, "s", "a"): (Transition("t", 0.5, 1.0), Transition("t", 0.5, 2.0))
            },
        )


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValidationError, match="sum to"):
        FiniteHorizonMdp(
            horizon=1,
            states=(("s",), ("t", "u")),
            actions=("a",),
            initial="s",
            discount=1.0,
            transitions={
                (0, "s", "a"): (Transition("t", 0.5, 1.0), Transition("u", 0.4, 2.0))
            },
        )


def test_structural_validation():
    good = dict(
        horizon=1,
        states=(("s",), ("t",)),
        actions=("a",),
        initial="s",
        discount=1.0,
        transitions={(0, "s", "a"): (Transition("t", 1.0, 1.0),)},
    )
    for corrupt in (
        dict(good, initial="zz"),
        dict(good, states=(("s", "s"), ("t",))),
        dict(good, states=((), ("t",))),
        dict(good, actions=()),
        dict(good, actions=("a", "a")),
        dict(good, discount=0.0),
        dict(good, discount=1.2),
        dict(good, horizon=0),
        dict(good, horizon=True),
        dict(good, transitions={(1, "s", "a"): (Transition("t", 1.0, 1.0),)}),
        dict(good, transitions={(0, "zz", "a"): (Transition("t", 1.0, 1.0),)}),
        dict(good, transitions={(0, "s", "zz"): (Transition("t", 1.0, 1.0),)}),
        dict(good, transitions={(0, "s", "a"): ()}),
        dict(good, transitions={}),
    ):
        with pytest.raises(ValidationError):
            FiniteHorizonMdp(**corrupt)


def test_a_boolean_transition_stage_is_rejected():
    good = dict(
        horizon=2,
        states=(("s",), ("t",), ("u",)),
        actions=("a",),
        initial="s",
        discount=1.0,
        transitions={
            (0, "s", "a"): (Transition("t", 1.0, 1.0),),
            (1, "t", "a"): (Transition("u", 1.0, 1.0),),
        },
    )
    FiniteHorizonMdp(**good)
    bad = dict(good, transitions={
        (0, "s", "a"): (Transition("t", 1.0, 1.0),),
        (True, "t", "a"): (Transition("u", 1.0, 1.0),),
    })
    with pytest.raises(ValidationError, match="transition stage True out of range"):
        FiniteHorizonMdp(**bad)


def test_transition_field_validation():
    with pytest.raises(ValidationError):
        Transition("t", -0.1, 1.0)
    with pytest.raises(ValidationError):
        Transition("t", 0.5, float("inf"))
    for bad in (True, "1"):
        with pytest.raises(ValidationError, match="transition probability must be a number"):
            Transition("t", bad, 1.0)
        with pytest.raises(ValidationError, match="transition cost must be a number"):
            Transition("t", 1.0, bad)
    with pytest.raises(ValidationError, match="must be >= 0"):
        Transition("t", 1.0, 2.0)._replace(probability=-1.0)
    t = Transition("t", 1, 2)
    assert (type(t.probability), type(t.cost)) == (float, float)


def two_fault_cases():
    """Inputs with two faults each, by name: a builder and the error that
    must win, as (type, message).  The JSON reader parses every entry and
    outcome before it checks the header and the structure, and the
    constructor checks the header, then each key in key order and each
    outcome in outcome order, then that every state offers an action."""

    def entry(s, a, *outs):
        return {"n": 0, "s": s, "a": a, "to": [{"s'": t, "p": p, "r": r} for t, p, r in outs]}

    good_json = {
        "horizon": 1,
        "states": [["s", "r"], ["t", "u"]],
        "actions": ["a", "b"],
        "initial": "s",
        "lambda": 0.9,
        "transitions": [entry("s", "a", ("t", 0.5, 1.0), ("u", 0.5, 2.0)), entry("r", "b", ("t", 1.0, 3.0))],
    }

    def from_json(**changes):
        return lambda: mdp_from_json_dict(dict(good_json, **changes))

    def in_order(*entries):
        return from_json(transitions=list(entries))

    def with_entries(first, **changes):
        return from_json(transitions=[first, *good_json["transitions"][1:]], **changes)

    good = dict(
        horizon=1,
        states=(("s", "r"), ("t", "u")),
        actions=("a", "b"),
        initial="s",
        discount=0.9,
        transitions={
            (0, "s", "a"): (Transition("t", 0.5, 1.0), Transition("u", 0.5, 2.0)),
            (0, "r", "b"): (Transition("t", 1.0, 3.0),),
        },
    )

    def build(**changes):
        return lambda: FiniteHorizonMdp(**dict(good, **changes))

    def with_outcomes(key, *outs, **changes):
        return build(transitions={key: outs, (0, "r", "b"): good["transitions"][(0, "r", "b")]}, **changes)

    half = Transition("t", 0.5, 1.0)
    TWICE = (
        ValidationError,
        "(0, 's', 'a') lists target 't' twice; the cost must be a function of (source, action, target)",
    )
    return {
        "json: bad outcome 'p' and bad horizon": (
            with_entries(entry("s", "a", ("t", "x", 1.0), ("u", 0.5, 2.0)), horizon=0),
            (ValidationError, "outcome 'p' must be a number, got 'x'"),
        ),
        "json: bad outcome 'r' and a missing state row": (
            with_entries(entry("s", "a", ("t", 0.5, None), ("u", 0.5, 2.0)), states=[["s", "r"]]),
            (ValidationError, "outcome 'r' must be a number, got None"),
        ),
        "json: negative 'p' and an unknown initial state": (
            with_entries(entry("s", "a", ("t", -0.5, 1.0), ("u", 1.5, 2.0)), initial="zz"),
            (ValidationError, "transition probability -0.5 must be >= 0"),
        ),
        "json: infinite 'r' and a bad lambda": (
            with_entries(entry("s", "a", ("t", 0.5, math.inf), ("u", 0.5, 2.0)), **{"lambda": "x"}),
            (ValidationError, "transition cost inf must be finite"),
        ),
        "json: unhashable target and an empty action set": (
            with_entries(entry("s", "a", (["t"], 0.5, 1.0), ("u", 0.5, 2.0)), actions=[]),
            (ValidationError, "transition target ['t'] is not hashable"),
        ),
        "json: bad outcome shape and a duplicate state": (
            with_entries(
                {"n": 0, "s": "s", "a": "a", "to": [{"s'": "t", "p": 1.0}]}, states=[["s", "s"], ["t", "u"]]
            ),
            (ValidationError, "each outcome must be {\"s'\":, 'p':, 'r':}"),
        ),
        "json: a later bad outcome and an earlier unknown target": (
            in_order(entry("s", "a", ("zz", 0.5, 1.0), ("u", 0.5, 2.0)), entry("r", "b", ("t", 1.0, "x"))),
            (ValidationError, "outcome 'r' must be a number, got 'x'"),
        ),
        "json: a later duplicate entry and an earlier sum off one": (
            in_order(entry("s", "a", ("t", 0.5, 1.0)), *[entry("r", "b", ("t", 1.0, 3.0))] * 2),
            (ValidationError, "transition entry (0, 'r', 'b') appears twice"),
        ),
        "json: bad lambda and bad horizon": (
            from_json(horizon=0, **{"lambda": "x"}),
            (ValidationError, "'lambda' must be a number, got 'x'"),
        ),
        "json: lambda out of range and bad horizon": (
            from_json(horizon=0, **{"lambda": 1.5}),
            (ValidationError, "horizon must be an integer >= 1"),
        ),
        "json: duplicate target and an unknown action": (
            with_entries(entry("s", "zz", ("t", 0.5, 1.0), ("t", 0.5, 2.0))),
            (ValidationError, "action 'zz' is not in the action set"),
        ),
        "json: duplicate target before a later unknown action": (
            in_order(entry("s", "a", ("t", 0.5, 1.0), ("t", 0.5, 2.0)), entry("r", "zz", ("t", 1.0, 3.0))),
            TWICE,
        ),
        "json: sum off one and an extra state row": (
            with_entries(
                entry("s", "a", ("t", 0.5, 1.0), ("u", 0.4, 2.0)), states=[["s", "r"], ["t", "u"], ["v"]]
            ),
            (ValidationError, "need 2 state rows for horizon 1, got 3"),
        ),
        "json: sum off one before a later unknown target": (
            in_order(entry("s", "a", ("t", 0.5, 1.0), ("u", 0.4, 2.0)), entry("r", "b", ("zz", 1.0, 3.0))),
            (ValidationError, "probabilities of (0, 's', 'a') sum to 0.9; must be 1 within 1e-12"),
        ),
        "json: unknown target after a zero-probability outcome, and a state offering nothing": (
            in_order(entry("s", "a", ("t", 0.0, 1.0), ("zz", 1.0, 2.0))),
            (ValidationError, "target 'zz' of (0, 's', 'a') is not in stage 1"),
        ),
        "json: only zero probabilities and a state offering nothing": (
            in_order(entry("s", "a", ("t", 0.0, 1.0), ("u", 0.0, 2.0))),
            (ValidationError, "probabilities of (0, 's', 'a') sum to 0.0; must be 1 within 1e-12"),
        ),
        "json: no outcomes and a stage out of range": (
            in_order({"n": 0, "s": "s", "a": "a", "to": []}, {"n": 1, "s": "r", "a": "b", "to": []}),
            (ValidationError, "(0, 's', 'a') has no outcomes"),
        ),
        "json: a boolean stage and an unknown state": (
            in_order({**entry("s", "a", ("t", 1.0, 1.0)), "n": True}, entry("zz", "b", ("t", 1.0, 3.0))),
            (ValidationError, "transition stage True out of range"),
        ),
        "mdp: not a Transition after an unknown target": (
            with_outcomes((0, "s", "a"), Transition("zz", 0.5, 1.0), ("u", 0.5, 2.0)),
            (ValidationError, "target 'zz' of (0, 's', 'a') is not in stage 1"),
        ),
        "mdp: unknown target after not a Transition": (
            with_outcomes((0, "s", "a"), ("t", 0.5, 1.0), Transition("zz", 0.5, 2.0)),
            (ValidationError, "('t', 0.5, 1.0) is not a Transition"),
        ),
        "mdp: not a Transition after a duplicate target": (
            with_outcomes((0, "s", "a"), half, half, "junk"),
            TWICE,
        ),
        "mdp: duplicate target and an unknown action": (
            with_outcomes((0, "s", "zz"), half, half),
            (ValidationError, "action 'zz' is not in the action set"),
        ),
        "mdp: sum off one and an extra state row": (
            with_outcomes((0, "s", "a"), half, states=(("s", "r"), ("t", "u"), ("v",))),
            (ValidationError, "need 2 state rows for horizon 1, got 3"),
        ),
        "mdp: sum off one and a bad discount": (
            with_outcomes((0, "s", "a"), half, discount=0.0),
            (ValidationError, "discount factor must lie in (0, 1], got 0.0"),
        ),
        "mdp: a bad key and a state offering nothing": (
            build(transitions={(0, "s"): (half,)}),
            (ValidationError, "transition key (0, 's') must be (stage, state, action)"),
        ),
        "mdp: a state offering nothing and a later duplicate target": (
            build(transitions={(0, "s", "a"): (Transition("t", 1.0, 1.0),)}),
            (ValidationError, "state 'r' at stage 0 offers no action"),
        ),
    }


@pytest.mark.parametrize("case", list(two_fault_cases()))
def test_the_first_of_two_faults_wins(case):
    run, (kind, message) = two_fault_cases()[case]
    with pytest.raises(kind) as info:
        run()
    assert (type(info.value), str(info.value)) == (kind, message)


# ---------------------------------------------------------------------------
# backward induction on hand-checkable processes
# ---------------------------------------------------------------------------


def test_solver_reproduces_the_pinned_bits():
    """Tie-heavy models (costs in integers or thirds, probabilities in
    eighths, some of them zero) under ten specs: every value by float.hex,
    every policy entry and the key order of both tables, as recorded in
    data/solver_bits.json (see data/make_solver_bits.py)."""
    fixture = json.loads((DATA / "solver_bits.json").read_text())
    assert len(fixture["cases"]) == 12
    for case in fixture["cases"]:
        mdp = mdp_from_json_dict(case["mdp"])
        last_actions = {
            (n, s): mdp.actions_at(n, s)[-1] for n in range(mdp.horizon) for s in mdp.states[n]
        }
        assert len(case["results"]) == len(fixture["functionals"]) + 1
        for label, want in case["results"].items():
            if label in fixture["functionals"]:
                spec = IrmSpec.repeat(rf_from_json_dict(fixture["functionals"][label]), mdp.horizon)
            else:
                cycle = [rf_from_json_dict(f) for f in fixture["functionals"].values()]
                spec = IrmSpec(tuple(cycle[n % len(cycle)] for n in range(mdp.horizon)))
            values, policy = solve_dp(mdp, spec)
            assert [[n, s, v.hex()] for (n, s), v in values.items()] == want["values"], label
            assert [[n, s, a] for (n, s), a in policy.items()] == want["policy"], label
            pinned = evaluate_policy(mdp, last_actions, spec)
            assert [[n, s, v.hex()] for (n, s), v in pinned.items()] == want["last_action_values"], label


def test_tail_solves_of_a_tie_free_model_take_no_exact_walk(monkeypatch):
    """Every cell law is a law of atoms, and without ties or float dust
    each is decided on the running sum of its sorted weights: no exact
    walk (`_atom_walk`).  A level past every break of a law of atoms whose
    weights sum a little below one, which the running sum cannot decide,
    does walk, which shows the count is taken."""
    walks = []
    walk = measures._atom_walk
    monkeypatch.setattr(measures, "_atom_walk", lambda *args: walks.append(args) or walk(*args))
    mdp = random_mdp(random.Random(3), 0.9, max_horizon=4, max_states=4)
    assert any(len(mdp.transitions[key]) > 1 for key in mdp.transitions)
    for rf in (Cte(0.9), ValueAtRisk(0.9)):
        solve_dp(mdp, IrmSpec.repeat(rf, mdp.horizon))
        assert walks == [], rf
    law = measures.MixedDistribution.from_json_dict(
        {"components": [{"w": 0.5, "point": 1.0}, {"w": 0.4999999999995, "point": 2.0}]}
    )
    assert measures.value_at_risk(0.9999999999999, law) == 2.0
    assert walks


def _reference_induction(mdp, spec, policy=None):
    """Backward induction read off the transition table, cell by cell:
    each positive-probability outcome's atom is cost + lam * (successor
    value), in outcome order, and the stage functional is taken by
    `evaluate` on the law of those atoms.  Ties go to the earliest
    action; with a policy, a state it leaves out gets no value."""
    values = {(mdp.horizon, s): 0.0 for s in mdp.states[mdp.horizon]}
    chosen = {}
    for n in range(mdp.horizon - 1, -1, -1):
        for s in mdp.states[n]:
            actions = mdp.actions_at(n, s)
            if policy is not None:
                if (n, s) not in policy:
                    continue
                a = policy[(n, s)]
                if a not in actions:
                    raise ValidationError(f"policy plays unavailable action {a!r} at stage {n}, state {s!r}")
                actions = (a,)
            best = None
            for a in actions:
                probs, atoms = [], []
                for t in mdp.transitions[(n, s, a)]:
                    if t.probability == 0.0:
                        continue
                    if (n + 1, t.state) not in values:
                        raise ValidationError(
                            f"policy covers stage {n}, state {s!r} but not its successor {t.state!r}"
                        )
                    atom = t.cost + mdp.discount * values[(n + 1, t.state)]
                    if not math.isfinite(atom):
                        raise ValidationError("PointMass value must be finite")
                    probs.append(t.probability)
                    atoms.append(atom)
                v = evaluate(spec.stages[n], MixedDistribution.of_atoms(zip(probs, atoms)))
                if best is None or v < best[0]:
                    best = (v, a)
            values[(n, s)], chosen[(n, s)] = best
    return values, chosen


def _reference_policy_values(mdp, policy, spec):
    values = _reference_induction(mdp, spec, policy)[0]
    if (0, mdp.initial) not in values:
        raise ValidationError("policy does not cover the initial state")
    return values


def _solved(call, *args):
    """A solve's values by their bits and its policy in key order, or its
    error by type and message."""
    try:
        got = call(*args)
    except Exception as e:  # both sides must fail alike, whatever the failure
        return type(e).__name__, str(e)
    values, policy = got if isinstance(got, tuple) else (got, {})
    return [(key, v.hex()) for key, v in values.items()], list(policy.items())


_LEAVES = st.one_of(
    st.just(Expectation()),
    st.sampled_from((-0.5, 0.5, 2.0)).map(Erm),
    st.sampled_from((0.0, 0.25, 0.5, 0.9)).map(ValueAtRisk),
    st.sampled_from((0.0, 0.25, 0.5, 0.9)).map(Cte),
)
_FUNCTIONALS = _LEAVES | st.tuples(_LEAVES, _LEAVES).map(lambda p: Composite(((0.25, p[0]), (0.75, p[1]))))


@st.composite
def _models_specs_and_policies(draw):
    """A `random_mdp` whose cells sometimes keep one outcome and gain
    outcomes of probability zero at any position, with costs sometimes
    scaled so that atoms and tail sums overflow; a functional per stage;
    and a policy that covers part of the states, some of them with a
    missing, unavailable or unhashable action."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mdp = random_mdp(rng, draw(st.sampled_from((0.5, 0.9, 1.0))), max_horizon=4, max_states=4)
    scale = draw(st.sampled_from((1.0, 1.0, 1e307)))
    transitions = {}
    for (n, s, a), outs in mdp.transitions.items():
        outs = [t._replace(cost=t.cost * scale) for t in outs]
        if rng.random() < 0.2:
            outs = [outs[0]._replace(probability=1.0)]
        listed = {t.state for t in outs}
        for t in mdp.states[n + 1]:
            if t not in listed and rng.random() < 0.5:
                outs.insert(rng.randint(0, len(outs)), Transition(t, 0.0, rng.uniform(0.0, 10.0) * scale))
        transitions[(n, s, a)] = tuple(outs)
    mdp = FiniteHorizonMdp(
        horizon=mdp.horizon,
        states=mdp.states,
        actions=mdp.actions,
        initial=mdp.initial,
        discount=mdp.discount,
        transitions=transitions,
    )
    spec = IrmSpec(tuple(draw(st.lists(_FUNCTIONALS, min_size=mdp.horizon, max_size=mdp.horizon))))
    cover = draw(st.sampled_from((1.0, 0.9, 0.6)))
    policy = {}
    for n in range(mdp.horizon):
        for s in mdp.states[n]:
            if rng.random() < cover:
                policy[(n, s)] = rng.choice(mdp.actions_at(n, s))
                if rng.random() < 0.03:
                    policy[(n, s)] = rng.choice([*mdp.actions, "zz", ["x"]])
    return mdp, spec, policy


@given(_models_specs_and_policies())
@settings(max_examples=150, deadline=None)
def test_the_solver_gives_the_bits_and_errors_of_a_reference_induction(case):
    """`solve_dp` and `evaluate_policy` give the value bits, the policy
    and its key order, or the error message, of a backward induction
    written out from the transition table."""
    mdp, spec, policy = case
    assert _solved(solve_dp, mdp, spec) == _solved(_reference_induction, mdp, spec)
    assert _solved(evaluate_policy, mdp, policy, spec) == _solved(_reference_policy_values, mdp, policy, spec)


def test_dominated_action_is_never_chosen():
    mdp = chain_mdp({"a": 1.0, "b": 2.0})
    values, policy = solve_dp(mdp, IrmSpec((Expectation(),)))
    assert values[(0, "s")] == 1.0
    assert policy[(0, "s")] == "a"


def test_value_ties_break_to_the_first_action():
    mdp = chain_mdp({"a": 1.0, "b": 1.0})
    _, policy = solve_dp(mdp, IrmSpec((Cte(0.5),)))
    assert policy[(0, "s")] == "a"


def test_payment_mdp_prefers_upfront_when_tail_level_is_high():
    mdp = casebook.payments_mdp(0.95)
    spec = IrmSpec.repeat(Cte(0.9), casebook.PAYMENT_DAYS)
    values, policy = solve_dp(mdp, spec)
    assert values[(0, "start")] == 1000.0
    assert policy[(0, "start")] == "upfront"


def test_payment_mdp_prefers_installments_when_tail_level_is_low():
    mdp = casebook.payments_mdp(1.0)
    spec = IrmSpec.repeat(Cte(0.04), casebook.PAYMENT_DAYS)
    values, policy = solve_dp(mdp, spec)
    assert policy[(0, "start")] == "installments"
    assert_close(values[(0, "start")], 989.5833333333334, rel=1e-12)
    assert_close(
        values[(0, "start")],
        casebook.installment_recursive_value(0.04, 1.0),
        rel=1e-12,
    )


def test_deferred_choice_mdp_commits_to_the_earlier_payment():
    mdp = casebook.deferred_choice_mdp(0.92)
    spec = IrmSpec.repeat(Erm(0.001), 3)
    values, policy = solve_dp(mdp, spec)
    assert_close(values[(0, "start")], 382.47640409613837, rel=1e-12)
    assert policy[(0, "start")] == "one_year"
    brute_value, brute_policy = brute_force_optimal(mdp, spec)
    assert_close(brute_value, values[(0, "start")], rel=1e-12)
    assert brute_policy[(0, "start")] == "one_year"


def test_pinning_the_later_payment_gives_its_tree_value():
    mdp = casebook.deferred_choice_mdp(0.92)
    spec = IrmSpec.repeat(Erm(0.001), 3)
    policy = {(n, s): "two_year" for n in range(3) for s in mdp.states[n]}
    values = evaluate_policy(mdp, policy, spec)
    assert_close(values[(0, "start")], 418.14589848859316, rel=1e-12)


def test_policy_evaluation_agrees_with_the_solver_choice():
    rng = random.Random(41)
    for _ in range(20):
        mdp = random_mdp(rng, rng.choice([0.5, 1.0]))
        spec = IrmSpec.repeat(Cte(0.5), mdp.horizon)
        values, policy = solve_dp(mdp, spec)
        replayed = evaluate_policy(mdp, policy, spec)
        for key, v in replayed.items():
            assert_close(v, values[key])


# ---------------------------------------------------------------------------
# forward enumeration as an independent oracle
# ---------------------------------------------------------------------------


def test_solver_matches_forward_enumeration():
    # module-scale run; the acceptance suite sweeps 200 processes
    rng = random.Random(42)
    for i in range(30):
        lam = (0.5, 0.9, 1.0)[i % 3]
        mdp = random_mdp(rng, lam)
        for rf in (Expectation(), Cte(0.5),
                   Composite(((0.7, Expectation()), (0.3, Cte(0.5))))):
            spec = IrmSpec.repeat(rf, mdp.horizon)
            values, _ = solve_dp(mdp, spec)
            brute_value, _ = brute_force_optimal(mdp, spec)
            assert_close(values[(0, mdp.initial)], brute_value)


def test_solver_matches_enumeration_for_entropic_objective_undiscounted():
    rng = random.Random(43)
    for _ in range(10):
        mdp = random_mdp(rng, 1.0)
        spec = IrmSpec.repeat(Erm(0.5), mdp.horizon)
        values, _ = solve_dp(mdp, spec)
        brute_value, _ = brute_force_optimal(mdp, spec)
        assert_close(values[(0, mdp.initial)], brute_value)


def test_tail_problems_reproduce_the_value_table():
    rng = random.Random(44)
    for _ in range(15):
        mdp = random_mdp(rng, rng.choice([0.5, 1.0]))
        spec = IrmSpec.repeat(Cte(0.6), mdp.horizon)
        values, policy = solve_dp(mdp, spec)
        for n, s in mdp.reachable():
            if n == mdp.horizon:
                continue
            sub = tail_mdp(mdp, n, s)
            sub_values, sub_policy = solve_dp(sub, IrmSpec(spec.stages[n:]))
            assert_close(sub_values[(0, s)], values[(n, s)])
            assert sub_policy[(0, s)] == policy[(n, s)]


def test_tail_problems_share_the_plan_a_fresh_build_compiles():
    """A tail problem takes its plan cells from its parent's; they equal
    what the constructor compiles from the tail's own tables, on the pinned
    tie-heavy models, whose zero-probability outcomes prune some rows."""
    fixture = json.loads((DATA / "solver_bits.json").read_text())
    pruned = whole = 0
    for case in fixture["cases"]:
        mdp = mdp_from_json_dict(case["mdp"])
        for n in range(mdp.horizon):
            for s in mdp.states[n]:
                tail = tail_mdp(mdp, n, s)
                fresh = FiniteHorizonMdp(
                    tail.horizon, tail.states, tail.actions, tail.initial,
                    tail.discount, tail.transitions,
                )
                assert tail == fresh
                assert tail._plan == fresh._plan
                assert list(tail.transitions) == list(fresh.transitions)
                assert all(t.probability > 0.0 for outs in tail.transitions.values() for t in outs)
                for k, row in enumerate(tail.states[1:], start=1):
                    if len(row) < len(mdp.states[n + k]):
                        pruned += 1
                    else:
                        whole += 1
    assert pruned and whole


def test_stage_zero_shift_moves_the_value_without_moving_the_policy():
    rng = random.Random(45)
    for _ in range(15):
        mdp = random_mdp(rng, rng.choice([0.5, 1.0]))
        shift = 7.25
        shifted = FiniteHorizonMdp(
            horizon=mdp.horizon,
            states=mdp.states,
            actions=mdp.actions,
            initial=mdp.initial,
            discount=mdp.discount,
            transitions={
                key: tuple(
                    Transition(t.state, t.probability,
                               t.cost + (shift if key[0] == 0 else 0.0))
                    for t in outs
                )
                for key, outs in mdp.transitions.items()
            },
        )
        spec = IrmSpec.repeat(Cte(0.5), mdp.horizon)
        base_values, base_policy = solve_dp(mdp, spec)
        new_values, new_policy = solve_dp(shifted, spec)
        assert new_policy == base_policy
        for s in mdp.states[0]:
            assert_close(new_values[(0, s)], base_values[(0, s)] + shift)


# ---------------------------------------------------------------------------
# unrolling
# ---------------------------------------------------------------------------


def test_unrolled_installment_policy_is_the_installment_tree():
    mdp = casebook.payments_mdp(0.95)
    policy = {
        (n, s): "installments" for n in range(mdp.horizon) for s in mdp.states[n]
    }
    assert unroll(mdp, policy) == casebook.installment_tree()


def test_unroll_value_matches_policy_evaluation():
    rng = random.Random(46)
    for _ in range(20):
        mdp = random_mdp(rng, rng.choice([0.5, 1.0]))
        spec = IrmSpec.repeat(Cte(0.5), mdp.horizon)
        _, policy = solve_dp(mdp, spec)
        tree_value = irm_root_value(unroll(mdp, policy), spec, mdp.discount)
        table = evaluate_policy(mdp, policy, spec)
        assert_close(tree_value, table[(0, mdp.initial)])


def test_unrolled_trees_pass_the_tree_checks():
    rng = random.Random(47)
    for _ in range(20):
        mdp = random_mdp(rng, 1.0)
        _, policy = solve_dp(mdp, IrmSpec.repeat(Expectation(), mdp.horizon))
        tree = unroll(mdp, policy)
        assert ScenarioTree(horizon=tree.horizon, root=tree.root) == tree
    # a zero-probability outcome is dropped, not kept as an edge
    mdp = FiniteHorizonMdp(
        horizon=1,
        states=(("s",), ("t", "u")),
        actions=("a",),
        initial="s",
        discount=1.0,
        transitions={(0, "s", "a"): (Transition("t", 1.0, 2.0), Transition("u", 0.0, 5.0))},
    )
    assert unroll(mdp, {(0, "s"): "a"}).path_count() == 1


def test_unroll_rejects_incomplete_policies():
    mdp = casebook.payments_mdp(0.95)
    with pytest.raises(ValidationError):
        unroll(mdp, {(0, "start"): "installments"})
    with pytest.raises(ValidationError):
        unroll(mdp, {})


def test_unroll_node_budget():
    mdp = casebook.payments_mdp(0.95)
    policy = {(n, s): "upfront" for n in range(mdp.horizon) for s in mdp.states[n]}
    with pytest.raises(EnumerationLimitError):
        unroll(mdp, policy, node_limit=3)


def test_deep_chain_mdp_walks_need_no_recursion():
    stages = 10**4
    # "z" is never reached from the initial state "a"
    transitions = {}
    for n in range(stages):
        transitions[(n, "a", "go")] = (Transition("a", 1.0, 1.0),)
        transitions[(n, "z", "go")] = (Transition("z", 1.0, 0.0),)
    mdp = FiniteHorizonMdp(
        horizon=stages,
        states=(("a", "z"),) * (stages + 1),
        actions=("go",),
        initial="a",
        discount=1.0,
        transitions=transitions,
    )
    assert mdp.reachable() == [(n, "a") for n in range(stages + 1)]
    tail = tail_mdp(mdp, stages // 2, "a")
    assert tail.horizon == stages - stages // 2
    assert set(tail.states) == {("a",)}
    spec = IrmSpec.repeat(Cte(0.5), stages)
    values, policy = solve_dp(mdp, spec)
    tree = unroll(mdp, policy)
    assert tree.node_count() == stages + 1
    assert irm_root_value(tree, spec, 1.0) == values[(0, "a")] == float(stages)


def test_enumeration_budget():
    mdp = casebook.deferred_choice_mdp(0.92)
    with pytest.raises(EnumerationLimitError):
        brute_force_optimal(mdp, IrmSpec.repeat(Expectation(), 3), policy_limit=1)


@pytest.mark.parametrize("bad", ["x", None, 2.0, True])
def test_enumeration_limits_are_data_arguments(bad):
    """A limit that is not an int (a bool is not one) raises
    `ValidationError` naming it, before any enumeration."""
    mdp = casebook.deferred_choice_mdp(0.92)
    policy = {(n, s): mdp.actions_at(n, s)[0] for n, s in mdp.reachable() if n < mdp.horizon}
    calls = [
        ("path_limit", lambda: discounted_total_distribution(deterministic_tree([1.0, 2.0]), 0.5, path_limit=bad)),
        ("node_limit", lambda: unroll(mdp, policy, node_limit=bad)),
        ("policy_limit", lambda: brute_force_optimal(mdp, IrmSpec.repeat(Expectation(), 3), policy_limit=bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call()


def test_tail_problem_validation():
    mdp = casebook.payments_mdp(0.95)
    with pytest.raises(ValidationError):
        tail_mdp(mdp, 20, "settled")
    with pytest.raises(ValidationError):
        tail_mdp(mdp, 1, "start")
    with pytest.raises(ValidationError):
        tail_mdp(mdp, True, mdp.states[1][0])


def test_policy_evaluation_validation():
    mdp = chain_mdp({"a": 1.0})
    spec = IrmSpec((Expectation(),))
    with pytest.raises(ValidationError):
        evaluate_policy(mdp, {}, spec)
    with pytest.raises(ValidationError):
        evaluate_policy(mdp, {(0, "s"): "zz"}, spec)


def test_policy_evaluation_names_an_uncovered_successor():
    mdp = casebook.payments_mdp(1.0)
    spec = IrmSpec.repeat(Expectation(), casebook.PAYMENT_DAYS)
    with pytest.raises(
        ValidationError,
        match="policy covers stage 0, state 'start' but not its successor 'owing'",
    ):
        evaluate_policy(mdp, {(0, "start"): "installments"}, spec)


def test_policy_evaluation_reports_the_first_bad_successor_in_outcome_order():
    # from (0, "s") the successor "big" overflows (1.7e308 + 1.7e308) and
    # the policy leaves "small" uncovered: the first listed one is reported
    def process(order):
        outs = [Transition("big", 0.5, 1.7e308), Transition("small", 0.5, 1.0)]
        return FiniteHorizonMdp(
            horizon=2,
            states=(("s",), ("big", "small"), ("e",)),
            actions=("a",),
            initial="s",
            discount=1.0,
            transitions={
                (0, "s", "a"): tuple(outs[::order]),
                (1, "big", "a"): (Transition("e", 1.0, 1.7e308),),
                (1, "small", "a"): (Transition("e", 1.0, 0.0),),
            },
        )

    policy = {(0, "s"): "a", (1, "big"): "a"}
    spec = IrmSpec.repeat(Cte(0.5), 2)
    with pytest.raises(ValidationError, match="PointMass value must be finite"):
        evaluate_policy(process(1), policy, spec)
    with pytest.raises(ValidationError, match="not its successor 'small'"):
        evaluate_policy(process(-1), policy, spec)
    with pytest.raises(ValidationError, match="PointMass value must be finite"):
        solve_dp(process(-1), spec)


def test_spec_horizon_mismatch_is_rejected():
    mdp = chain_mdp({"a": 1.0})
    with pytest.raises(ValidationError):
        solve_dp(mdp, IrmSpec.repeat(Expectation(), 2))
    with pytest.raises(ValidationError):
        brute_force_optimal(mdp, IrmSpec.repeat(Expectation(), 2))
    for run in (solve_dp, brute_force_optimal):
        with pytest.raises(ValidationError, match="spec must be an IrmSpec"):
            run(mdp, [Expectation()])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_mdp_json_roundtrip():
    for mdp in (casebook.payments_mdp(0.95), casebook.deferred_choice_mdp(0.92)):
        again = mdp_from_json_dict(mdp_to_json_dict(mdp))
        assert again == mdp


def test_mdp_json_roundtrip_keeps_an_unavailable_action_out():
    mdp = FiniteHorizonMdp(
        horizon=1,
        states=(("s", "r"), ("t",)),
        actions=("a", "b"),
        initial="s",
        discount=1.0,
        transitions={
            (0, "s", "a"): (Transition("t", 1.0, 1.0),),
            (0, "s", "b"): (Transition("t", 1.0, 3.0),),
            (0, "r", "b"): (Transition("t", 1.0, 2.0),),
        },
    )
    data = mdp_to_json_dict(mdp)
    assert [(e["s"], e["a"]) for e in data["transitions"]] == [("s", "a"), ("s", "b"), ("r", "b")]
    assert mdp_from_json_dict(data) == mdp


def transitions_of(data: dict) -> dict:
    """The transition table of an MDP's JSON form, as `Transition`s."""
    return {
        (e["n"], e["s"], e["a"]): tuple(Transition(o["s'"], o["p"], o["r"]) for o in e["to"])
        for e in data["transitions"]
    }


def mdp_of_transitions(data: dict) -> FiniteHorizonMdp:
    """The MDP of a JSON form, built by the constructor from `Transition`s."""
    return FiniteHorizonMdp(
        horizon=data["horizon"],
        states=data["states"],
        actions=data["actions"],
        initial=data["initial"],
        discount=data["lambda"],
        transitions=transitions_of(data),
    )


def test_the_transition_table_reads_as_the_dict_it_was_built_from():
    """Zero-probability outcomes included, and in the order given, which
    here is not the order of the plan."""
    def entry(n, s, a, *outs):
        return {"n": n, "s": s, "a": a, "to": [{"s'": t, "p": p, "r": r} for t, p, r in outs]}

    data = {
        "horizon": 2,
        "states": [["s"], ["t", "u"], ["v"]],
        "actions": ["a", "b"],
        "initial": "s",
        "lambda": 0.9,
        "transitions": [
            entry(1, "u", "b", ("v", 1.0, 2.0)),
            entry(1, "t", "a", ("v", 1.0, 0.0)),
            entry(0, "s", "b", ("u", 0.0, 5.0), ("t", 1.0, 1.0)),
            entry(0, "s", "a", ("t", 0.25, 3.0), ("u", 0.75, 1.0)),
        ],
    }
    table = transitions_of(data)
    assert any(t.probability == 0.0 for outs in table.values() for t in outs)
    for mdp in (mdp_from_json_dict(data), mdp_of_transitions(data)):
        got = mdp.transitions
        assert got == table and table == got
        assert repr(got) == repr(table)
        assert list(got) == list(table) and list(got.items()) == list(table.items())
        assert len(got) == len(table)
        for key in [*table, (0, "start", "nope"), (99, "x", "y")]:
            assert (key in got) == (key in table)
            assert got.get(key) == table.get(key)
        assert all(type(t) is Transition for outs in got.values() for t in outs)
        with pytest.raises(TypeError):
            got[next(iter(table))] = ()
    built, parsed = mdp_of_transitions(data), mdp_from_json_dict(data)
    assert built == parsed and parsed == built
    assert repr(built) == repr(parsed)
    assert mdp_to_json_dict(parsed) == mdp_to_json_dict(built)
    assert mdp_from_json_dict(mdp_to_json_dict(parsed)).transitions == table


def test_the_json_reader_and_the_constructor_build_the_same_models():
    """Every pinned tie-heavy model, some with zero probabilities: equal,
    with equal plans, and solved to the same bits."""
    fixture = json.loads((DATA / "solver_bits.json").read_text())
    functionals = [rf_from_json_dict(f) for f in fixture["functionals"].values()]
    for case in fixture["cases"]:
        parsed, built = mdp_from_json_dict(case["mdp"]), mdp_of_transitions(case["mdp"])
        assert parsed == built and built == parsed
        assert repr(parsed) == repr(built)
        assert parsed._plan == built._plan
        for rf in functionals:
            spec = IrmSpec.repeat(rf, parsed.horizon)
            (pv, pp), (bv, bp) = solve_dp(parsed, spec), solve_dp(built, spec)
            assert [(k, v.hex()) for k, v in pv.items()] == [(k, v.hex()) for k, v in bv.items()]
            assert list(pp.items()) == list(bp.items())


def single_changes(data: dict):
    """Copies of an MDP's JSON form that each differ from it in one
    outcome: its cost, its probability (by less than the sum tolerance)
    or its target (to a state of the next stage the entry does not list)."""
    for k, entry in enumerate(data["transitions"]):
        outs = entry["to"]
        j = k % len(outs)
        free = [t for t in data["states"][entry["n"] + 1] if t not in {o["s'"] for o in outs}]
        changes = [("r", outs[j]["r"] + 1.0), ("p", outs[j]["p"] + 2.0**-44)]
        changes += [("s'", free[0])] if free else []
        for field, value in changes:
            changed = json.loads(json.dumps(data))
            changed["transitions"][k]["to"][j][field] = value
            yield f"entry {k} outcome {j} {field}", changed


def test_transition_tables_compare_their_columns_as_their_transitions():
    """On the pinned models, pairwise, and on copies that differ in one
    outcome, comparing two tables' kept columns gives the answer that
    comparing their `Transition`s gives."""
    fixture = json.loads((DATA / "solver_bits.json").read_text())
    models = [mdp_from_json_dict(case["mdp"]) for case in fixture["cases"]]
    assert len(models) == 12
    again = [mdp_of_transitions(case["mdp"]) for case in fixture["cases"]]
    for a in models:
        for b in models + again:
            want = Mapping.__eq__(a.transitions, b.transitions)
            assert (a.transitions == b.transitions) is want
            assert (b.transitions == a.transitions) is want
            assert (a == b) is (want and (a.states, a.actions, a.discount) == (b.states, b.actions, b.discount))
    changed = 0
    for case, mdp in zip(fixture["cases"], models):
        for name, data in single_changes(case["mdp"]):
            other = mdp_from_json_dict(data)
            assert Mapping.__eq__(mdp.transitions, other.transitions) is False, name
            assert (mdp.transitions == other.transitions, other.transitions == mdp.transitions) == (False, False)
            assert mdp != other and other != mdp, name
            changed += 1
    assert changed > 100
    # a table still equals a dict of the same Transitions, both ways
    table = transitions_of(fixture["cases"][0]["mdp"])
    assert models[0].transitions == table and table == models[0].transitions


def test_mdp_json_rejects_duplicates_and_bad_shapes():
    data = mdp_to_json_dict(casebook.payments_mdp(0.95))
    doubled = dict(data, transitions=data["transitions"] + data["transitions"][:1])
    with pytest.raises(ValidationError):
        mdp_from_json_dict(doubled)
    with pytest.raises(ValidationError):
        mdp_from_json_dict({"horizon": 1})


def test_an_unhashable_policy_action_is_unavailable():
    mdp = casebook.payments_mdp(1.0)
    spec = IrmSpec.repeat(Cte(0.9), casebook.PAYMENT_DAYS)
    values, policy = solve_dp(mdp, spec)
    policy[(0, "start")] = ["x"]
    message = "policy plays unavailable action ['x'] at stage 0, state 'start'"
    for call in (
        lambda: evaluate_policy(mdp, policy, spec),
        lambda: unroll(mdp, policy),
        lambda: solution_to_json_dict(mdp, values, policy),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


def test_mdp_json_must_be_an_object():
    with pytest.raises(ValidationError) as info:
        mdp_from_json_dict([])
    assert str(info.value) == "MDP JSON must be an object"


def test_solution_report_shape_and_trace():
    mdp = casebook.payments_mdp(0.95)
    spec = IrmSpec.repeat(Cte(0.9), casebook.PAYMENT_DAYS)
    values, policy = solve_dp(mdp, spec)
    report = solution_to_json_dict(mdp, values, policy)
    assert set(report) == {"value_table", "policy", "trace"}
    assert {"n", "s", "v"} == set(report["value_table"][0])
    assert {"n", "s", "a"} == set(report["policy"][0])
    trace = report["trace"]
    assert trace[0] == {"n": 0, "s": "start", "a": "upfront"}
    assert [step["n"] for step in trace] == list(range(casebook.PAYMENT_DAYS))
    assert all(step["s"] == "settled" for step in trace[1:])


def test_solution_trace_stops_at_the_first_uncovered_state():
    mdp = casebook.payments_mdp(0.95)
    values, policy = solve_dp(mdp, IrmSpec.repeat(Cte(0.9), casebook.PAYMENT_DAYS))
    partial = {(n, s): a for (n, s), a in policy.items() if n < 3}
    trace = solution_to_json_dict(mdp, values, partial)["trace"]
    assert [step["n"] for step in trace] == [0, 1, 2]


def test_solution_trace_rejects_an_unavailable_action():
    mdp = casebook.payments_mdp(0.95)
    values, policy = solve_dp(mdp, IrmSpec.repeat(Cte(0.9), casebook.PAYMENT_DAYS))
    policy[(0, "start")] = "nope"
    with pytest.raises(
        ValidationError, match="policy plays unavailable action 'nope' at stage 0, state 'start'"
    ):
        solution_to_json_dict(mdp, values, policy)
