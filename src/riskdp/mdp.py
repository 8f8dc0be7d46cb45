"""Finite-horizon MDPs with stagewise risk objectives.

The solver runs one backward induction per instance: the terminal row is
zero, and each earlier cell applies that stage's risk functional to the
one-step distribution of cost plus discounted continuation value,
minimizing over actions.  A brute-force policy enumeration built on the
scenario-tree evaluator serves as an independent oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .distributions import MixedDistribution, PointMass, check_sums_to_one, json_number
from .errors import EnumerationLimitError, ValidationError
from .measures import _check_discount, _check_horizon, _is_int, evaluate
from .tree import IrmSpec, ScenarioTree, _check_spec, _tree_from_preorder, irm_root_value

DEFAULT_NODE_LIMIT = 10**6
DEFAULT_POLICY_LIMIT = 10**6

State = Any
Action = Any
ValueTable = Dict[Tuple[int, State], float]
Policy = Dict[Tuple[int, State], Action]


def _hashable(x: Any, what: str) -> Any:
    """x itself; states and actions are set members and dict keys."""
    try:
        hash(x)
    except TypeError:
        raise ValidationError(f"{what} {x!r} is not hashable") from None
    return x


@dataclass(frozen=True)
class Transition:
    """One outcome of playing an action: target state, probability, and
    the cost incurred on the way (a function of source, action, target).
    """

    state: State
    probability: float
    cost: float

    def __post_init__(self) -> None:
        _hashable(self.state, "transition target")
        object.__setattr__(self, "probability", float(self.probability))
        object.__setattr__(self, "cost", float(self.cost))
        if not math.isfinite(self.probability) or self.probability < 0.0:
            raise ValidationError(
                f"transition probability {self.probability!r} must be >= 0"
            )
        if not math.isfinite(self.cost):
            raise ValidationError(f"transition cost {self.cost!r} must be finite")


@dataclass(frozen=True)
class FiniteHorizonMdp:
    """Stage-indexed states, shared action set, sparse transition tables.

    transitions maps (stage, state, action) to the outcomes of that
    action; an absent key means the action is unavailable there.  Every
    nonterminal state must offer at least one action.
    """

    horizon: int
    states: Tuple[Tuple[State, ...], ...]
    actions: Tuple[Action, ...]
    initial: State
    discount: float
    transitions: Mapping[Tuple[int, State, Action], Tuple[Transition, ...]]

    def __post_init__(self) -> None:
        _check_horizon(self.horizon)
        states = tuple(tuple(row) for row in self.states)
        object.__setattr__(self, "states", states)
        if len(states) != self.horizon + 1:
            raise ValidationError(
                f"need {self.horizon + 1} state rows for horizon {self.horizon}, "
                f"got {len(states)}"
            )
        stage_sets = [set(_hashable(row, f"stage {n} row")) for n, row in enumerate(states)]
        for n, row in enumerate(states):
            if not row:
                raise ValidationError(f"stage {n} has no states")
            if len(stage_sets[n]) != len(row):
                raise ValidationError(f"stage {n} lists a state twice")
        actions = tuple(self.actions)
        object.__setattr__(self, "actions", actions)
        if not actions:
            raise ValidationError("action set is empty")
        action_set = set(_hashable(actions, "action set"))
        if len(action_set) != len(actions):
            raise ValidationError("action set lists an action twice")
        if _hashable(self.initial, "initial state") not in stage_sets[0]:
            raise ValidationError(f"initial state {self.initial!r} is not in stage 0")
        object.__setattr__(self, "discount", _check_discount(self.discount, positive=True))
        table = {}
        for key, outs in dict(self.transitions).items():
            try:
                n, s, a = key
            except (TypeError, ValueError):
                raise ValidationError(
                    f"transition key {key!r} must be (stage, state, action)"
                ) from None
            if not _is_int(n) or not 0 <= n < self.horizon:
                raise ValidationError(f"transition stage {n!r} out of range")
            if s not in stage_sets[n]:
                raise ValidationError(f"state {s!r} is not in stage {n}")
            if a not in action_set:
                raise ValidationError(f"action {a!r} is not in the action set")
            outs = tuple(outs)
            if not outs:
                raise ValidationError(f"({n}, {s!r}, {a!r}) has no outcomes")
            targets = set()
            for t in outs:
                if not isinstance(t, Transition):
                    raise ValidationError(f"{t!r} is not a Transition")
                if t.state not in stage_sets[n + 1]:
                    raise ValidationError(
                        f"target {t.state!r} of ({n}, {s!r}, {a!r}) is not in stage {n + 1}"
                    )
                if t.state in targets:
                    raise ValidationError(
                        f"({n}, {s!r}, {a!r}) lists target {t.state!r} twice; "
                        "the cost must be a function of (source, action, target)"
                    )
                targets.add(t.state)
            check_sums_to_one(
                (t.probability for t in outs), "probabilities of ({}, {!r}, {!r})", n, s, a
            )
            table[(n, s, a)] = outs
        object.__setattr__(self, "transitions", table)
        for n in range(self.horizon):
            for s in states[n]:
                if not any((n, s, a) in table for a in actions):
                    raise ValidationError(
                        f"state {s!r} at stage {n} offers no action"
                    )

    def actions_at(self, n: int, s: State) -> Tuple[Action, ...]:
        """Available actions at (n, s), in action-set order."""
        return tuple(a for a in self.actions if (n, s, a) in self.transitions)

    def reachable(self) -> List[Tuple[int, State]]:
        """(stage, state) pairs reachable from the initial state under
        any action sequence, in backward-induction-friendly order.
        """
        rows = self._reachable_rows(0, self.initial)
        return [(n, s) for n, row in enumerate(rows) for s in row]

    def _reachable_rows(self, n: int, s: State) -> List[Tuple[State, ...]]:
        """Per stage from n to the horizon, the states reachable from
        (n, s) along positive-probability transitions, in stage-row order.
        """
        rows: List[Tuple[State, ...]] = []
        frontier = {s}
        for k in range(n, self.horizon + 1):
            rows.append(tuple(x for x in self.states[k] if x in frontier))
            frontier = {
                t.state
                for x in rows[-1]
                for a in self.actions_at(k, x)
                for t in self.transitions[(k, x, a)]
                if t.probability > 0.0
            }
        return rows


class SolveResult(NamedTuple):
    values: ValueTable
    policy: Policy


def _backward_induction(
    mdp: FiniteHorizonMdp,
    spec: IrmSpec,
    choices: Callable[[int, State], Iterable[Action]],
) -> SolveResult:
    """Backward induction minimizing over the available actions among
    choices(n, s) at each (n, s), ties to the earliest; a state with none
    gets no value.
    """
    _check_spec(spec, mdp.horizon)
    lam = mdp.discount
    values: ValueTable = {(mdp.horizon, s): 0.0 for s in mdp.states[mdp.horizon]}
    policy: Policy = {}
    for n in range(mdp.horizon - 1, -1, -1):
        rf = spec.stages[n]
        for s in mdp.states[n]:
            best = None
            for a in choices(n, s):
                outs = mdp.transitions.get((n, s, a))
                if outs is None:
                    continue
                try:
                    parts = tuple(
                        (t.probability, PointMass(t.cost + lam * values[(n + 1, t.state)]))
                        for t in outs
                        if t.probability > 0.0
                    )
                except KeyError as exc:
                    # only a policy can leave a successor without a value
                    raise ValidationError(
                        f"policy covers stage {n}, state {s!r} but not its successor {exc.args[0][1]!r}"
                    ) from None
                v = evaluate(rf, MixedDistribution._trusted(parts))
                if best is None or v < best[0]:
                    best = (v, a)
            if best is not None:
                values[(n, s)], policy[(n, s)] = best
    return SolveResult(values=values, policy=policy)


def solve_dp(mdp: FiniteHorizonMdp, spec: IrmSpec) -> SolveResult:
    """Backward induction over all states; ties go to the lowest action
    index.  Values at states unreachable from the initial state are still
    the optimal tail values from there.
    """
    return _backward_induction(mdp, spec, lambda n, s: mdp.actions)


def _policy_action(mdp: FiniteHorizonMdp, policy: Policy, n: int, s: State) -> Action:
    if (n, s) not in policy:
        raise ValidationError(f"policy has no action at stage {n}, state {s!r}")
    a = policy[(n, s)]
    if (n, s, a) not in mdp.transitions:
        raise ValidationError(
            f"policy plays unavailable action {a!r} at stage {n}, state {s!r}"
        )
    return a


def evaluate_policy(mdp: FiniteHorizonMdp, policy: Policy, spec: IrmSpec) -> ValueTable:
    """The solve_dp recursion with the action pinned by the policy.

    Covers exactly the states the policy covers; a covered state whose
    successors are uncovered is an error, so the policy must be closed
    under its own transitions.
    """
    values = _backward_induction(
        mdp,
        spec,
        lambda n, s: (_policy_action(mdp, policy, n, s),) if (n, s) in policy else (),
    ).values
    if (0, mdp.initial) not in values:
        raise ValidationError("policy does not cover the initial state")
    return values


def unroll(
    mdp: FiniteHorizonMdp,
    policy: Policy,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ScenarioTree:
    """Scenario tree of the chain induced by a policy from the initial
    state.  Zero-probability branches are dropped.
    """
    nodes = []
    stack = [(0, mdp.initial)]
    while stack:
        n, s = stack.pop()
        if len(nodes) >= node_limit:
            raise EnumerationLimitError(f"unrolled tree exceeds {node_limit} nodes")
        outs = []
        if n < mdp.horizon:
            a = _policy_action(mdp, policy, n, s)
            outs = [t for t in mdp.transitions[(n, s, a)] if t.probability > 0.0]
        nodes.append((n, [(t.probability, t.cost) for t in outs]))
        stack.extend((n + 1, t.state) for t in reversed(outs))
    return ScenarioTree(horizon=mdp.horizon, root=_tree_from_preorder(nodes))


def brute_force_optimal(
    mdp: FiniteHorizonMdp,
    spec: IrmSpec,
    *,
    policy_limit: int = DEFAULT_POLICY_LIMIT,
) -> Tuple[float, Policy]:
    """Score every deterministic stagewise policy through the tree
    evaluator and keep the best; ties go to the policy assigning the
    lowest action indexes (in reachable-state order).

    Independent of solve_dp by construction: the tree route enumerates
    scenarios forward, the solver folds values backward.
    """
    _check_spec(spec, mdp.horizon)
    slots = [(n, s) for n, s in mdp.reachable() if n < mdp.horizon]
    choices = [mdp.actions_at(n, s) for n, s in slots]
    total = 1
    for c in choices:
        total *= len(c)
        if total > policy_limit:
            raise EnumerationLimitError(
                f"more than {policy_limit} deterministic policies to enumerate"
            )
    best_value: Optional[float] = None
    best_policy: Optional[Policy] = None
    for assignment in itertools.product(*choices):
        policy = dict(zip(slots, assignment))
        value = irm_root_value(unroll(mdp, policy), spec, mdp.discount)
        if best_value is None or value < best_value:
            best_value, best_policy = value, policy
    return best_value, best_policy


def tail_mdp(mdp: FiniteHorizonMdp, n: int, s: State) -> FiniteHorizonMdp:
    """Sub-problem rooted at (n, s), with stages shifted down by n and
    states pruned to those reachable from s.
    """
    if not _is_int(n) or not 0 <= n < mdp.horizon:
        raise ValidationError(f"stage {n!r} out of range for the tail problem")
    if s not in mdp.states[n]:
        raise ValidationError(f"state {s!r} is not in stage {n}")
    keep = mdp._reachable_rows(n, s)
    transitions = {}
    for k, row in enumerate(keep[:-1]):
        for x in row:
            for a in mdp.actions_at(n + k, x):
                outs = mdp.transitions[(n + k, x, a)]
                transitions[(k, x, a)] = tuple(
                    t for t in outs if t.probability > 0.0
                )
    return FiniteHorizonMdp(
        horizon=mdp.horizon - n,
        states=tuple(keep),
        actions=mdp.actions,
        initial=s,
        discount=mdp.discount,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mdp_to_json_dict(mdp: FiniteHorizonMdp) -> dict:
    entries = []
    for n in range(mdp.horizon):
        for s in mdp.states[n]:
            for a in mdp.actions:
                outs = mdp.transitions.get((n, s, a))
                if outs is None:
                    continue
                entries.append(
                    {
                        "n": n,
                        "s": s,
                        "a": a,
                        "to": [
                            {"s'": t.state, "p": t.probability, "r": t.cost}
                            for t in outs
                        ],
                    }
                )
    return {
        "horizon": mdp.horizon,
        "states": [list(row) for row in mdp.states],
        "actions": list(mdp.actions),
        "initial": mdp.initial,
        "lambda": mdp.discount,
        "transitions": entries,
    }


def mdp_from_json_dict(data: dict) -> FiniteHorizonMdp:
    if not isinstance(data, dict):
        raise ValidationError("MDP JSON must be an object")
    required = {"horizon", "states", "actions", "initial", "lambda", "transitions"}
    missing = required - set(data)
    if missing:
        raise ValidationError(f"MDP JSON is missing {sorted(missing)}")
    states = data["states"]
    if not isinstance(states, list) or not all(isinstance(r, list) for r in states):
        raise ValidationError("'states' must be a list of per-stage lists")
    if not isinstance(data["actions"], list):
        raise ValidationError("'actions' must be a list")
    entries = data["transitions"]
    if not isinstance(entries, list):
        raise ValidationError("'transitions' must be a list")
    transitions: Dict[Tuple[int, State, Action], Tuple[Transition, ...]] = {}
    for entry in entries:
        if not isinstance(entry, dict) or not {"n", "s", "a", "to"} <= set(entry):
            raise ValidationError(
                "each transition entry must be {'n':, 's':, 'a':, 'to':}"
            )
        key = _hashable((entry["n"], entry["s"], entry["a"]), "transition entry")
        if key in transitions:
            raise ValidationError(f"transition entry {key!r} appears twice")
        outs = entry["to"]
        if not isinstance(outs, list):
            raise ValidationError("'to' must be a list")
        parsed = []
        for o in outs:
            if not isinstance(o, dict) or not {"s'", "p", "r"} <= set(o):
                raise ValidationError("each outcome must be {\"s'\":, 'p':, 'r':}")
            p, r = json_number(o["p"], "outcome 'p'"), json_number(o["r"], "outcome 'r'")
            parsed.append(Transition(state=o["s'"], probability=p, cost=r))
        transitions[key] = tuple(parsed)
    return FiniteHorizonMdp(
        horizon=data["horizon"],
        states=tuple(tuple(r) for r in states),
        actions=tuple(data["actions"]),
        initial=data["initial"],
        discount=json_number(data["lambda"], "'lambda'"),
        transitions=transitions,
    )


def solution_to_json_dict(
    mdp: FiniteHorizonMdp, values: ValueTable, policy: Policy
) -> dict:
    """Wire format for solver output: the full value table, the policy,
    and one representative trajectory (always stepping to the most
    probable successor, earliest listed on ties).
    """
    value_rows = []
    for n in range(mdp.horizon + 1):
        for s in mdp.states[n]:
            if (n, s) in values:
                value_rows.append({"n": n, "s": s, "v": values[(n, s)]})
    policy_rows = []
    for n in range(mdp.horizon):
        for s in mdp.states[n]:
            if (n, s) in policy:
                policy_rows.append({"n": n, "s": s, "a": policy[(n, s)]})
    trace = []
    s = mdp.initial
    for n in range(mdp.horizon):
        if (n, s) not in policy:
            break
        a = policy[(n, s)]
        trace.append({"n": n, "s": s, "a": a})
        outs = mdp.transitions[(n, s, a)]
        s = max(outs, key=lambda t: t.probability).state
    return {"value_table": value_rows, "policy": policy_rows, "trace": trace}
