"""Finite-horizon MDPs with stagewise risk objectives.

The solver runs one backward induction per instance: the terminal row is
zero, and each earlier cell applies that stage's risk functional to the
one-step distribution of cost plus discounted continuation value,
minimizing over actions.  A brute-force policy enumeration built on the
scenario-tree evaluator serves as an independent oracle.

Like a scenario tree, a `FiniteHorizonMdp` checks its tables and compiles
them into a plan in one pass, at construction.  In the plan the states
of a stage are positions, and each state lists one cell per available
action: probabilities, costs and successor positions, with outcomes of
probability zero left out.  The constructor and `mdp_from_json_dict`
are two front ends to one compiler, which takes each key's outcomes as
columns (targets, probabilities, costs); the JSON reader makes no
`Transition`.  `transitions` is a read-only mapping over the kept
columns that builds a key's `Transition`s, zero probabilities included,
only when they are read.  The backward induction, policy evaluation,
reachability, tail problems and unrolling read the plan; each cell
reaches the measures as columns of weights and atom values, through the
kernel its `IrmSpec` picked for the stage, never as a built
distribution.  The backward induction discounts each successor value
once per stage, as a row by position, and gathers a cell's atoms (its
costs plus that row at its successor positions) in one call.  The plan
is not a dataclass field, so `==` and `repr` do not see it.  A tail
problem is not compiled again: it takes its cells from its parent's
plan.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .distributions import check_atom, check_sums_to_one, json_number
from .errors import EnumerationLimitError, ValidationError
from .measures import _check_discount, _check_horizon, _is_int, _on_atoms
from .tree import IrmSpec, ScenarioTree, _check_spec, _tree, irm_root_value

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


def _check_outcome(p: float, c: float) -> None:
    """Raise unless the float probability p is >= 0 and the float cost c
    is finite."""
    if not math.isfinite(p) or p < 0.0:
        raise ValidationError(f"transition probability {p!r} must be >= 0")
    if not math.isfinite(c):
        raise ValidationError(f"transition cost {c!r} must be finite")


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
        _check_outcome(p, c)
        return tuple.__new__(cls, (state, p, c))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Transition":
        return cls(*iterable)


# one way to play an action: (probabilities, costs, successor positions),
# outcomes of probability zero left out
Cell = Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[int, ...]]
# the outcomes of one (stage, state, action) as given, zero probabilities
# included: (targets, probabilities, costs)
Outcomes = Tuple[Tuple[State, ...], Tuple[float, ...], Tuple[float, ...]]
Key = Tuple[int, State, Action]


class _Plan(NamedTuple):
    """An MDP compiled for the walks over it, built when it is constructed
    (a tail problem takes its cells from its parent's plan).

    States are numbered by their position in their stage's row: `index[n]`
    maps each stage-n state to its position, and `cells[n][i]` maps each
    action available at the state in position i, in action-set order, to
    its cell.  A cell shares its probabilities and costs with the kept
    outcomes when none of them has probability zero.
    """

    index: Tuple[Dict[State, int], ...]
    cells: Tuple[Tuple[Dict[Action, Cell], ...], ...]


class _TransitionTable(Mapping):
    """The transition table of a compiled MDP, read-only: each key, in the
    order given, maps to its outcomes as `Transition`s, built from the
    kept columns when read.  `==` and `repr` read as a dict's."""

    def __init__(self, outcomes: Dict[Key, Outcomes]) -> None:
        self._outcomes = outcomes

    def __getitem__(self, key: Key) -> Tuple[Transition, ...]:
        return tuple(tuple.__new__(Transition, t) for t in zip(*self._outcomes[key]))

    def __contains__(self, key: object) -> bool:
        return key in self._outcomes

    def __iter__(self):
        return iter(self._outcomes)

    def __len__(self) -> int:
        return len(self._outcomes)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _transition_columns(outs: Iterable[Any], key: Key, targets: Dict[State, int]) -> Outcomes:
    """The constructor's front end: a key's `Transition`s as columns.  An
    outcome that is not a `Transition` is reported after any fault of an
    earlier one."""
    outs = tuple(outs)
    for k, t in enumerate(outs):
        if not isinstance(t, Transition):
            _successors([u.state for u in outs[:k]], key, targets)
            raise ValidationError(f"{t!r} is not a Transition")
    return tuple(zip(*outs)) or ((), (), ())


def _successors(found: Sequence[State], key: Key, targets: Dict[State, int]) -> Tuple[int, ...]:
    """The positions of a key's targets in the next stage's row; the first
    target that is not there or is listed twice raises."""
    succ = tuple(map(targets.get, found))
    if None in succ or len(set(succ)) < len(succ):
        n, s, a = key
        for k, (t, j) in enumerate(zip(found, succ)):
            if j is None:
                raise ValidationError(f"target {t!r} of ({n}, {s!r}, {a!r}) is not in stage {n + 1}")
            if j in succ[:k]:
                raise ValidationError(
                    f"({n}, {s!r}, {a!r}) lists target {t!r} twice; "
                    "the cost must be a function of (source, action, target)"
                )
    return succ


def _drop_zero(columns: Tuple[tuple, ...], at: int) -> Tuple[tuple, ...]:
    """The columns without the entries whose probability, in column at,
    is zero."""
    return tuple(zip(*(o for o in zip(*columns) if o[at] > 0.0))) or ((), (), ())


def _bare_mdp(**fields: Any) -> "FiniteHorizonMdp":
    """A FiniteHorizonMdp with these fields set, neither checked nor compiled."""
    mdp = object.__new__(FiniteHorizonMdp)
    for name, value in fields.items():
        object.__setattr__(mdp, name, value)
    return mdp


@dataclass(frozen=True)
class FiniteHorizonMdp:
    """Stage-indexed states, shared action set, sparse transition tables.

    transitions maps (stage, state, action) to the outcomes of that
    action; an absent key means the action is unavailable there.  Every
    nonterminal state must offer at least one action.  Construction
    checks the tables and compiles them into the MDP's plan, held as
    `_plan`; transitions then reads from the plan's kept columns.
    """

    horizon: int
    states: Tuple[Tuple[State, ...], ...]
    actions: Tuple[Action, ...]
    initial: State
    discount: float
    transitions: Mapping[Key, Tuple[Transition, ...]]

    def __post_init__(self) -> None:
        self._compile(dict(self.transitions).items(), _transition_columns)

    def _compile(self, entries: Iterable[Tuple[Any, Any]], columns: Optional[Callable]) -> None:
        """Check the header and the tables and build the plan.  entries
        pairs each key with its outcomes, which columns turns into
        `Outcomes` after the key is checked (None: they are columns).
        """
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
        table: Dict[Key, Outcomes] = {}
        # the cells of each nonterminal state by position, in key order
        found: List[List[Dict[Action, Cell]]] = [[{} for _ in row] for row in states[:-1]]
        for key, outs in entries:
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
            key = (n, s, a)
            if columns is not None:
                outs = columns(outs, key, index[n + 1])
            targets, probs, costs = outs
            if not targets:
                raise ValidationError(f"({n}, {s!r}, {a!r}) has no outcomes")
            cell = (probs, costs, _successors(targets, key, index[n + 1]))
            if 0.0 in probs:
                cell = _drop_zero(cell, 0)
            check_sums_to_one(cell[0], "probabilities of ({}, {!r}, {!r})", n, s, a)
            table[key] = outs
            found[n][index[n][s]][a] = cell
        object.__setattr__(self, "transitions", _TransitionTable(table))
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
    no value.  Each stage's kernel is the one the spec picked for it.

    A policy's action is read once and its cell taken from the state's
    cells; only an action with no cell there goes to `_policy_action`,
    which raises its message.
    """
    _check_spec(spec, mdp.horizon)
    lam = mdp.discount
    plan, states, horizon = mdp._plan, mdp.states, mdp.horizon
    values: ValueTable = {(horizon, s): 0.0 for s in states[horizon]}
    policy_out: Policy = {}
    # the next stage's values by position, None where there is none
    later: List[Optional[float]] = [0.0] * len(states[horizon])
    for n in range(horizon - 1, -1, -1):
        kernel = spec._kernels[n]
        # lam * (successor value) by position, once per stage; an outcome's
        # atom is its cost plus its successor's entry
        moved = [v if v is None else lam * v for v in later]
        row: List[Optional[float]] = [None] * len(states[n])
        for i, (s, offered) in enumerate(zip(states[n], plan.cells[n])):
            if policy is not None:
                if (n, s) not in policy:
                    continue
                a = policy[(n, s)]
                try:
                    offered = {a: offered[a]}
                except (KeyError, TypeError):  # unavailable, or unhashable
                    _policy_action(mdp, policy, n, s)
            best = None
            for a, cell in offered.items():
                probs, costs, succ = cell
                try:
                    if len(succ) > 1:
                        atoms = list(map(add, costs, itemgetter(*succ)(moved)))
                    else:  # an itemgetter of one index gives the item itself
                        atoms = [costs[0] + moved[succ[0]]]
                except TypeError:  # a successor the policy leaves out
                    _raise_first_bad_successor(mdp, n, s, cell, moved)
                v = _on_atoms(kernel, probs, atoms)
                if best is None or v < best[0]:
                    best = (v, a)
            if best is not None:
                row[i] = best[0]
                values[(n, s)], policy_out[(n, s)] = best
        later = row
    return SolveResult(values=values, policy=policy_out)


def _raise_first_bad_successor(
    mdp: FiniteHorizonMdp, n: int, s: State, cell: Cell, moved: List[Optional[float]]
) -> None:
    """Raise for the first successor of a cell, in outcome order, that
    has no value or whose atom is not finite; moved holds lam * (value)
    by successor position."""
    for c, j in zip(cell[1], cell[2]):
        if moved[j] is None:
            # only a policy can leave a successor without a value
            t = mdp.states[n + 1][j]
            raise ValidationError(
                f"policy covers stage {n}, state {s!r} but not its successor {t!r}"
            )
        check_atom(c + moved[j])


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
    try:
        available = (n, s, a) in mdp.transitions
    except TypeError:  # an unhashable action is in no action set
        available = False
    if not available:
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
    if not _is_int(node_limit):
        raise ValidationError(f"node_limit must be an integer, got {node_limit!r}")
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
        probs, costs, succ = plan.cells[n][plan.index[n][s]][a]
        nodes.append((n, list(zip(probs, costs))))
        stack.extend((n + 1, states[n + 1][j]) for j in reversed(succ))
    return _tree(mdp.horizon, nodes)


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
    if not _is_int(policy_limit):
        raise ValidationError(f"policy_limit must be an integer, got {policy_limit!r}")
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

    It is not checked or compiled again: its kept outcomes and plan cells
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
    outcomes = mdp.transitions._outcomes
    table: Dict[Key, Outcomes] = {}
    cells = []
    for k, row in enumerate(keep[:-1]):
        if len(keep[k + 1]) == len(mdp.states[n + k + 1]):
            move = None  # the next row is whole: successor positions stand
        else:
            move = {j: new for new, j in enumerate(keep[k + 1])}
        stage_cells = []
        for x, i in zip(states[k], row):
            offered = plan.cells[n + k][i]
            for a, (probs, _, _) in offered.items():
                outs = outcomes[(n + k, x, a)]
                table[(k, x, a)] = outs if len(probs) == len(outs[1]) else _drop_zero(outs, 1)
            if move is not None:
                offered = {
                    a: (probs, costs, tuple(move[j] for j in succ))
                    for a, (probs, costs, succ) in offered.items()
                }
            stage_cells.append(offered)
        cells.append(tuple(stage_cells))
    index = tuple({x: i for i, x in enumerate(row)} for row in states)
    return _bare_mdp(
        horizon=mdp.horizon - n,
        states=states,
        actions=mdp.actions,
        initial=s,
        discount=mdp.discount,
        transitions=_TransitionTable(table),
        _plan=_Plan(index, tuple(cells)),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mdp_to_json_dict(mdp: FiniteHorizonMdp) -> dict:
    outcomes = mdp.transitions._outcomes
    entries = [
        {"n": n, "s": s, "a": a, "to": [{"s'": t, "p": p, "r": r} for t, p, r in zip(*outcomes[(n, s, a)])]}
        for n, cells in enumerate(mdp._plan.cells)
        for s, offered in zip(mdp.states[n], cells)
        for a in offered
    ]
    return {
        "horizon": mdp.horizon,
        "states": [list(row) for row in mdp.states],
        "actions": list(mdp.actions),
        "initial": mdp.initial,
        "lambda": mdp.discount,
        "transitions": entries,
    }


_OUTCOME_KEYS = {"s'", "p", "r"}
_OUTCOME_COLUMNS = (itemgetter("s'"), itemgetter("p"), itemgetter("r"))


def mdp_from_json_dict(data: dict) -> FiniteHorizonMdp:
    """The MDP of the JSON form `mdp_to_json_dict` writes, compiled with no
    `Transition` made.  Every entry and outcome is parsed and checked
    first, in file order; then the header and the structure, as the
    constructor checks them.
    """
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
    table: Dict[Key, Outcomes] = {}
    for entry in entries:
        if not isinstance(entry, dict) or not entry.keys() >= {"n", "s", "a", "to"}:
            raise ValidationError(
                "each transition entry must be {'n':, 's':, 'a':, 'to':}"
            )
        key = _hashable((entry["n"], entry["s"], entry["a"]), "transition entry")
        if key in table:
            raise ValidationError(f"transition entry {key!r} appears twice")
        outs = entry["to"]
        if not isinstance(outs, list):
            raise ValidationError("'to' must be a list")
        table[key] = _outcome_columns(outs)
    mdp = _bare_mdp(
        horizon=data["horizon"],
        states=states,
        actions=data["actions"],
        initial=data["initial"],
        discount=json_number(data["lambda"], "'lambda'"),
    )
    mdp._compile(table.items(), None)
    return mdp


def _outcome_columns(outs: list) -> Outcomes:
    """An entry's JSON outcomes as columns, each checked as `Transition`
    checks its fields; the first faulty outcome raises."""
    # the common case in a few passes: dicts with float 'p' >= 0, float
    # 'r' and hashable targets; a sum is finite only when every term is
    try:
        if set(map(type, outs)) <= {dict}:
            targets, probs, costs = (tuple(map(get, outs)) for get in _OUTCOME_COLUMNS)
            hash(targets)
            floats = set(map(type, probs + costs)) <= {float}
            if floats and min(probs, default=0.0) >= 0.0 and math.isfinite(sum(probs) + sum(costs)):
                return targets, probs, costs
    except (KeyError, TypeError):
        pass  # the outcome-by-outcome walk below names the fault
    targets, probs, costs = [], [], []
    for o in outs:
        if not isinstance(o, dict) or not o.keys() >= _OUTCOME_KEYS:
            raise ValidationError("each outcome must be {\"s'\":, 'p':, 'r':}")
        p, r = o["p"], o["r"]
        p = p if type(p) is float else json_number(p, "outcome 'p'")
        r = r if type(r) is float else json_number(r, "outcome 'r'")
        targets.append(_hashable(o["s'"], "transition target"))
        _check_outcome(p, r)
        probs.append(p)
        costs.append(r)
    return tuple(targets), tuple(probs), tuple(costs)


def solution_to_json_dict(
    mdp: FiniteHorizonMdp, values: ValueTable, policy: Policy
) -> dict:
    """Wire format for solver output: the full value table, the policy,
    and one representative trajectory (always stepping to the most
    probable successor, earliest listed on ties).
    """
    keys = [(n, s) for n, row in enumerate(mdp.states) for s in row]
    value_rows = [{"n": n, "s": s, "v": values[(n, s)]} for n, s in keys if (n, s) in values]
    policy_rows = [
        {"n": n, "s": s, "a": policy[(n, s)]} for n, s in keys if n < mdp.horizon and (n, s) in policy
    ]
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
