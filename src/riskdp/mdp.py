"""Finite-horizon MDPs with stagewise risk objectives.

The solver runs one backward induction per instance: the terminal row is
zero, and each earlier cell applies that stage's risk functional to the
one-step distribution of cost plus discounted continuation value,
minimizing over actions.  A brute-force policy enumeration built on the
scenario-tree evaluator serves as an independent oracle.

Like a scenario tree, a `FiniteHorizonMdp` checks its tables and compiles
them into a plan in one pass, at construction.  In the plan the states
of a stage are positions, and each state lists one cell per available
action: probabilities, outcomes and successor positions, with outcomes
of probability zero left out.  The outcomes are the `Transition`s
themselves, so a cell copies no cost.  The backward induction, policy evaluation,
reachability, tail problems and unrolling read the plan; each cell
reaches the measures as columns of weights and atom values
(`evaluate_atoms`), never as a built distribution.  The plan is not a
dataclass field, so `==` and `repr` do not see it.  A tail problem is
not compiled again: it takes its cells from its parent's plan.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .distributions import check_sums_to_one, json_number
from .errors import EnumerationLimitError, ValidationError
from .measures import _check_discount, _check_horizon, _is_int, evaluate_atoms
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


# a NamedTuple class may not define __new__, so Transition checks its
# fields in a subclass of this one
class _TransitionFields(NamedTuple):
    state: State
    probability: float
    cost: float


class Transition(_TransitionFields):
    """One outcome of playing an action: target state, probability, and
    the cost incurred on the way (a function of source, action, target).

    A named tuple that checks its fields when built, ``_replace`` included:
    the target is hashable, the probability a real number >= 0 and the
    cost a finite real number, both kept as floats.
    """

    __slots__ = ()

    def __new__(cls, state: State, probability: float, cost: float) -> "Transition":
        _hashable(state, "transition target")
        p, c = probability, cost
        p = p if type(p) is float else json_number(p, "transition probability")
        c = c if type(c) is float else json_number(c, "transition cost")
        if not math.isfinite(p) or p < 0.0:
            raise ValidationError(f"transition probability {p!r} must be >= 0")
        if not math.isfinite(c):
            raise ValidationError(f"transition cost {c!r} must be finite")
        return tuple.__new__(cls, (state, p, c))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Transition":
        return cls(*iterable)


# one way to play an action: (probabilities, outcomes, successor positions),
# outcomes of probability zero left out
Cell = Tuple[Tuple[float, ...], Tuple["Transition", ...], Tuple[int, ...]]


class _Plan(NamedTuple):
    """An MDP compiled for the walks over it, built when it is constructed
    (a tail problem takes its cells from its parent's plan).

    States are numbered by their position in their stage's row: `index[n]`
    maps each stage-n state to its position, and `cells[n][i]` maps each
    action available at the state in position i, in action-set order, to
    its cell.  A cell's outcomes are the transition table's own tuple
    when none of them has probability zero.
    """

    index: Tuple[Dict[State, int], ...]
    cells: Tuple[Tuple[Dict[Action, Cell], ...], ...]


@dataclass(frozen=True)
class FiniteHorizonMdp:
    """Stage-indexed states, shared action set, sparse transition tables.

    transitions maps (stage, state, action) to the outcomes of that
    action; an absent key means the action is unavailable there.  Every
    nonterminal state must offer at least one action.  Construction
    checks the tables and compiles them into the MDP's plan, held as
    `_plan`.
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
        index = tuple(
            {s: i for i, s in enumerate(_hashable(row, f"stage {n} row"))}
            for n, row in enumerate(states)
        )
        for n, row in enumerate(states):
            if not row:
                raise ValidationError(f"stage {n} has no states")
            if len(index[n]) != len(row):
                raise ValidationError(f"stage {n} lists a state twice")
        actions = tuple(self.actions)
        object.__setattr__(self, "actions", actions)
        if not actions:
            raise ValidationError("action set is empty")
        action_set = set(_hashable(actions, "action set"))
        if len(action_set) != len(actions):
            raise ValidationError("action set lists an action twice")
        if _hashable(self.initial, "initial state") not in index[0]:
            raise ValidationError(f"initial state {self.initial!r} is not in stage 0")
        object.__setattr__(self, "discount", _check_discount(self.discount, positive=True))
        table = {}
        # the cells of each nonterminal state by position, in key order
        found: List[List[Dict[Action, Cell]]] = [[{} for _ in row] for row in states[:-1]]
        for key, outs in dict(self.transitions).items():
            try:
                n, s, a = key
            except (TypeError, ValueError):
                raise ValidationError(
                    f"transition key {key!r} must be (stage, state, action)"
                ) from None
            if not _is_int(n) or not 0 <= n < self.horizon:
                raise ValidationError(f"transition stage {n!r} out of range")
            if s not in index[n]:
                raise ValidationError(f"state {s!r} is not in stage {n}")
            if a not in action_set:
                raise ValidationError(f"action {a!r} is not in the action set")
            outs = tuple(outs)
            if not outs:
                raise ValidationError(f"({n}, {s!r}, {a!r}) has no outcomes")
            targets = index[n + 1]
            seen = set()
            probs, positive, succ = [], [], []
            for t in outs:
                if not isinstance(t, Transition):
                    raise ValidationError(f"{t!r} is not a Transition")
                j = targets.get(t.state)
                if j is None:
                    raise ValidationError(
                        f"target {t.state!r} of ({n}, {s!r}, {a!r}) is not in stage {n + 1}"
                    )
                if j in seen:
                    raise ValidationError(
                        f"({n}, {s!r}, {a!r}) lists target {t.state!r} twice; "
                        "the cost must be a function of (source, action, target)"
                    )
                seen.add(j)
                if t.probability > 0.0:
                    probs.append(t.probability)
                    positive.append(t)
                    succ.append(j)
            check_sums_to_one(probs, "probabilities of ({}, {!r}, {!r})", n, s, a)
            table[(n, s, a)] = outs
            if len(positive) < len(outs):
                outs = tuple(positive)
            found[n][index[n][s]][a] = (tuple(probs), outs, tuple(succ))
        object.__setattr__(self, "transitions", table)
        for n, row in enumerate(found):
            for i, offered in enumerate(row):
                if not offered:
                    raise ValidationError(
                        f"state {states[n][i]!r} at stage {n} offers no action"
                    )
                row[i] = {a: offered[a] for a in actions if a in offered}
        object.__setattr__(self, "_plan", _Plan(index, tuple(map(tuple, found))))

    def actions_at(self, n: int, s: State) -> Tuple[Action, ...]:
        """Available actions at (n, s), in action-set order."""
        return tuple(a for a in self.actions if (n, s, a) in self.transitions)

    def reachable(self) -> List[Tuple[int, State]]:
        """(stage, state) pairs reachable from the initial state under
        any action sequence, in backward-induction-friendly order.
        """
        rows = self._reachable_rows(0, self._plan.index[0][self.initial])
        return [(n, self.states[n][i]) for n, row in enumerate(rows) for i in row]

    def _reachable_rows(self, n: int, i: int) -> List[List[int]]:
        """Per stage from n to the horizon, the positions of the states
        reachable from the stage-n state in position i along
        positive-probability transitions, in stage-row order.
        """
        cells = self._plan.cells
        rows: List[List[int]] = []
        frontier = {i}
        for k in range(n, self.horizon + 1):
            row = sorted(frontier)
            rows.append(row)
            if k < self.horizon:
                frontier = {j for i in row for _, _, succ in cells[k][i].values() for j in succ}
        return rows


class SolveResult(NamedTuple):
    values: ValueTable
    policy: Policy


def _backward_induction(
    mdp: FiniteHorizonMdp, spec: IrmSpec, policy: Optional[Policy] = None
) -> SolveResult:
    """Backward induction over the MDP's plan, minimizing at each (n, s)
    over the available actions, ties to the earliest, or playing the
    policy's action where one is given; a state the policy leaves out gets
    no value.
    """
    _check_spec(spec, mdp.horizon)
    lam = mdp.discount
    plan, states, horizon = mdp._plan, mdp.states, mdp.horizon
    values: ValueTable = {(horizon, s): 0.0 for s in states[horizon]}
    policy_out: Policy = {}
    # the next stage's values by position, None where there is none
    later: List[Optional[float]] = [0.0] * len(states[horizon])
    for n in range(horizon - 1, -1, -1):
        rf = spec.stages[n]
        row: List[Optional[float]] = [None] * len(states[n])
        for i, (s, offered) in enumerate(zip(states[n], plan.cells[n])):
            if policy is not None:
                if (n, s) not in policy:
                    continue
                a = _policy_action(mdp, policy, n, s)
                offered = {a: offered[a]}
            best = None
            for a, cell in offered.items():
                probs, outs, succ = cell
                try:
                    atoms = [c + lam * later[j] for (_, _, c), j in zip(outs, succ)]
                except TypeError:  # a successor the policy leaves out
                    _raise_first_bad_successor(mdp, n, s, cell, later)
                v = evaluate_atoms(rf, probs, atoms)
                if best is None or v < best[0]:
                    best = (v, a)
            if best is not None:
                row[i] = best[0]
                values[(n, s)], policy_out[(n, s)] = best
        later = row
    return SolveResult(values=values, policy=policy_out)


def _raise_first_bad_successor(
    mdp: FiniteHorizonMdp, n: int, s: State, cell: Cell, later: List[Optional[float]]
) -> None:
    """Raise for the first successor of the cell, in outcome order, that
    has no value or whose atom is not finite."""
    _, outs, succ = cell
    for (_, _, c), j in zip(outs, succ):
        if later[j] is None:
            # only a policy can leave a successor without a value
            t = mdp.states[n + 1][j]
            raise ValidationError(
                f"policy covers stage {n}, state {s!r} but not its successor {t!r}"
            )
        if not math.isfinite(c + mdp.discount * later[j]):
            raise ValidationError("PointMass value must be finite")


def solve_dp(mdp: FiniteHorizonMdp, spec: IrmSpec) -> SolveResult:
    """Backward induction over all states; ties go to the lowest action
    index.  Values at states unreachable from the initial state are still
    the optimal tail values from there.
    """
    return _backward_induction(mdp, spec)


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
    values = _backward_induction(mdp, spec, policy).values
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
    plan, states = mdp._plan, mdp.states
    nodes = []
    stack = [(0, mdp.initial)]
    while stack:
        n, s = stack.pop()
        if len(nodes) >= node_limit:
            raise EnumerationLimitError(f"unrolled tree exceeds {node_limit} nodes")
        if n == mdp.horizon:
            nodes.append((n, []))
            continue
        a = _policy_action(mdp, policy, n, s)
        probs, outs, succ = plan.cells[n][plan.index[n][s]][a]
        nodes.append((n, [(p, c) for _, p, c in outs]))
        stack.extend((n + 1, states[n + 1][j]) for j in reversed(succ))
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

    It is not checked or compiled again: its transitions and plan cells
    are the parent's (outcomes of probability zero left out), with
    successor positions renumbered only where a row was pruned.
    """
    if not _is_int(n) or not 0 <= n < mdp.horizon:
        raise ValidationError(f"stage {n!r} out of range for the tail problem")
    if s not in mdp.states[n]:
        raise ValidationError(f"state {s!r} is not in stage {n}")
    plan = mdp._plan
    keep = mdp._reachable_rows(n, plan.index[n][s])
    states = tuple(
        tuple(mdp.states[n + k][i] for i in row) for k, row in enumerate(keep)
    )
    transitions = {}
    cells = []
    for k, row in enumerate(keep[:-1]):
        if len(keep[k + 1]) == len(mdp.states[n + k + 1]):
            move = None  # the next row is whole: successor positions stand
        else:
            move = {j: new for new, j in enumerate(keep[k + 1])}
        stage_cells = []
        for x, i in zip(states[k], row):
            offered = plan.cells[n + k][i]
            for a, (_, outs, _) in offered.items():
                transitions[(k, x, a)] = outs
            if move is not None:
                offered = {
                    a: (probs, outs, tuple(move[j] for j in succ))
                    for a, (probs, outs, succ) in offered.items()
                }
            stage_cells.append(offered)
        cells.append(tuple(stage_cells))
    index = tuple({x: i for i, x in enumerate(row)} for row in states)
    tail = object.__new__(FiniteHorizonMdp)
    for name, value in (
        ("horizon", mdp.horizon - n),
        ("states", states),
        ("actions", mdp.actions),
        ("initial", s),
        ("discount", mdp.discount),
        ("transitions", transitions),
        ("_plan", _Plan(index, tuple(cells))),
    ):
        object.__setattr__(tail, name, value)
    return tail


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


_OUTCOME_KEYS = {"s'", "p", "r"}


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
            if not isinstance(o, dict) or not o.keys() >= _OUTCOME_KEYS:
                raise ValidationError("each outcome must be {\"s'\":, 'p':, 'r':}")
            p, r = o["p"], o["r"]
            p = p if type(p) is float else json_number(p, "outcome 'p'")
            r = r if type(r) is float else json_number(r, "outcome 'r'")
            parsed.append(Transition(o["s'"], p, r))
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
        a = _policy_action(mdp, policy, n, s)
        trace.append({"n": n, "s": s, "a": a})
        outs = mdp.transitions[(n, s, a)]
        s = max(outs, key=lambda t: t.probability).state
    return {"value_table": value_rows, "policy": policy_rows, "trace": trace}
