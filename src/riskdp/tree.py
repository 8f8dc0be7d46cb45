"""Scenario trees, iterated risk evaluation, and path-sum distributions.

A scenario tree carries per-period costs on its edges.  Two ways of
scoring it live here: the stagewise recursion that applies a risk
functional at every node (folding discounted continuation values into
the current period's cost), and the flat route that builds the single
distribution of the discounted total cost and applies one measure or
disutility to it: `rmd` and `eud` are `measures.evaluate` and
`measures.pushforward_mean` on `discounted_total_distribution`, which
builds the law as its columns, with no object per component, afresh on
every call.

A tree is its plan.  One compiler, `_compile`, checks a tree's nodes,
listed in pre-order as (stage, [(probability, cost) per edge]), and
builds the plan: one step per node, every child before its parent, with
one (probability, cost, child step) triple per edge and, unless the node
is a leaf or has a single scalar edge, its one-step law as columns.
Every builder in the package (`deterministic_tree`, `tree_from_json_dict`,
`mdp.unroll`, the casebook) hands the compiler that list, and a
hand-built `ScenarioTree(horizon, root)` hands it the nodes of its
graph, each checked for shape as it is listed.

Everything after construction reads the plan (the recursion, the flat
law, the JSON form, the node value table, `node_count` and
`path_count`).  The `TreeNode`/`Edge` graph is a view: `root` is built
from the plan when first read, by the children-first fold that also
writes the JSON form, and kept.  The recursion builds no law object: it
gives a node with a single scalar edge its cost plus the discounted
child value, and moves each other node's columns by the discounted child
values and hands them to its stage's kernel, which the `IrmSpec` picked
when it was built.  The plan depends on neither the risk functionals nor
the discount, and is not a dataclass field, so `==`, `hash`, `repr` and
the JSON form of a tree do not see it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import ItemsView, Mapping, ValuesView
from operator import index, itemgetter, lt
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .distributions import (
    MixedDistribution,
    check_atom,
    check_moved,
    check_segment,
    check_sums_to_one,
    json_number,
    merge_columns,
)
from .errors import EnumerationLimitError, ValidationError
from .measures import (
    DisutilityFunction,
    RF_CLASSES,
    RiskFunctional,
    _check_discount,
    _check_horizon,
    _is_int,
    _kernel,
    _on_atoms,
    evaluate,
    pushforward_mean,
)

DEFAULT_PATH_LIMIT = 10**7

EdgeCost = Union[float, MixedDistribution]
# a node as the compiler takes it: (stage, [(probability, cost) per edge])
_Listed = Tuple[int, Sequence[Tuple[Any, Any]]]


@dataclass(frozen=True)
class Edge:
    """One branch out of a node: probability, the period cost incurred on
    the way down, and the child node.

    A distribution-valued cost models a conditional continuous law on the
    branch; a plain float is a degenerate cost.
    """

    probability: float
    cost: EdgeCost
    child: "TreeNode"

    def __repr__(self) -> str:
        return _tree_repr(self)


@dataclass(frozen=True)
class TreeNode:
    """A node at a stage with its outgoing edges.

    `==`, `hash` and `repr` walk the subtree off an explicit stack, so
    they work at any depth: `==` and `hash` read `_node_parts`, and `repr`
    reads as the one dataclasses generate.
    """

    stage: int
    edges: Tuple[Edge, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.edges

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or list(_node_parts(self)) == list(_node_parts(other))

    def __hash__(self) -> int:
        return hash(tuple(_node_parts(self)))

    def __repr__(self) -> str:
        return _tree_repr(self)


def _node_parts(top: TreeNode) -> Iterator[Tuple[type, int, Tuple[Tuple[float, EdgeCost], ...]]]:
    """(class, stage, ((probability, cost) per edge)) of each node under
    top, in pre-order (last child first) off an explicit stack; the edge
    counts make the sequence spell out the tree's shape."""
    stack = [top]
    while stack:
        node = stack.pop()
        yield node.__class__, node.stage, tuple([(e.probability, e.cost) for e in node.edges])
        stack.extend([e.child for e in node.edges])


def _tree_repr(top: Union[TreeNode, Edge]) -> str:
    """The repr dataclasses would generate for a node or an edge, written
    off an explicit stack.  The stack holds (text, item) pairs: a text is
    written as it is, an item as its repr, nodes and edges expanded.
    """
    out: List[str] = []
    stack: List[Tuple[bool, Any]] = [(False, top)]
    while stack:
        text, item = stack.pop()
        if text:
            out.append(item)
        elif isinstance(item, TreeNode):
            out.append(f"{type(item).__qualname__}(stage={item.stage!r}, edges=")
            edges = item.edges
            if isinstance(edges, list):
                out.append("[")
                stack.append((True, "])"))
            elif isinstance(edges, tuple):
                out.append("(")
                stack.append((True, ",))" if len(edges) == 1 else "))"))
            else:
                stack += [(True, ")"), (False, edges)]
                continue
            for k in range(len(edges) - 1, -1, -1):
                stack.append((False, edges[k]))
                if k:
                    stack.append((True, ", "))
        elif isinstance(item, Edge):
            out.append(
                f"{type(item).__qualname__}(probability={item.probability!r}, "
                f"cost={item.cost!r}, child="
            )
            stack += [(True, ")"), (False, item.child)]
        else:
            out.append(repr(item))
    return "".join(out)


# a node's one-step law as (weights, lows, highs, child positions)
_Law = Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...], Tuple[int, ...]]


class _Plan(NamedTuple):
    """A tree compiled for the walks over it, built by `_compile` when the
    tree is constructed.

    `steps` holds one step per node, in post-order with the children
    last-first: every child comes before its parent and the root is last.
    A step's position is where the recursion keeps its node's value.  A
    step is (stage, ((probability, cost, child step), ...), law), law
    being the node's one-step law before the child values move it, as
    columns (weights, lows, highs, child steps) with one entry per scalar
    edge cost and one per component of a law-valued one: its weight is
    the edge probability, times the component weight for a component.
    highs is lows itself when every entry is an atom.  law is None for a
    leaf, (horizon, (), None), one tuple shared by every leaf, and for a
    node with a single scalar edge, whose child is the step just before
    it.  `paths` is the number of leaves.
    """

    steps: Tuple[Tuple[int, tuple, Optional[_Law]], ...]
    paths: int


@dataclass(frozen=True)
class ScenarioTree:
    """A strict finite tree with every root-to-leaf path the same length.

    Strict means no node object is reachable twice; sharing would make
    the per-node value table ambiguous.  Construction checks the nodes
    and compiles them into the tree's plan, held as `_plan`.  A tree that
    a builder compiled from its pre-order list holds only the plan until
    `root` is read; `==`, `hash` and `repr` read `root`.
    """

    horizon: int
    root: TreeNode

    def __post_init__(self) -> None:
        _check_horizon(self.horizon)
        object.__setattr__(self, "_plan", _compile(_preorder(self.root), self.horizon))

    def __getattr__(self, name: str) -> Any:
        """Build `root` from the plan on its first read and keep it; called
        only for an attribute the tree does not hold."""
        if name != "root":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

        def node(stage: int, edges: tuple, made: List[TreeNode]) -> TreeNode:
            return TreeNode(stage, tuple([Edge(p, cost, made[child]) for p, cost, child in edges]))

        root = _fold(self._plan, node)
        object.__setattr__(self, "root", root)
        return root

    def node_count(self) -> int:
        return len(self._plan.steps)

    def path_count(self) -> int:
        return self._plan.paths


def _tree(horizon: int, nodes: Iterable[_Listed]) -> ScenarioTree:
    """The tree whose nodes are listed in pre-order, compiled with its
    `root` unbuilt."""
    tree = object.__new__(ScenarioTree)
    object.__setattr__(tree, "horizon", _check_horizon(horizon))
    object.__setattr__(tree, "_plan", _compile(nodes, horizon))
    return tree


def _preorder(root: TreeNode) -> Iterator[_Listed]:
    """The nodes under a hand-built root as `_compile` takes them, in
    pre-order, first child first, off an explicit stack.  Each node's
    shape is checked before it is listed: that it was not reached
    before, its edges, their children and the children's stages.
    """
    if not isinstance(root, TreeNode):
        raise ValidationError(f"tree root must be a TreeNode, got {root!r}")
    if root.stage != 0:
        raise ValidationError("root must sit at stage 0")
    seen: set = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            raise ValidationError("tree nodes must not be shared")
        seen.add(id(node))
        edges, stage = node.edges, node.stage
        if not isinstance(edges, (tuple, list)):
            raise ValidationError(f"tree node edges must be a tuple or list of Edge objects, got {edges!r}")
        branches, children = [], []
        for e in edges:
            if not isinstance(e, Edge):
                raise ValidationError(f"tree edges must be Edge objects, got {e!r}")
            if not isinstance(e.child, TreeNode):
                raise ValidationError(f"edge child must be a TreeNode, got {e.child!r}")
            if e.child.stage != stage + 1:
                raise ValidationError(f"child at stage {e.child.stage} under a stage-{stage} node")
            branches.append((e.probability, e.cost))
            children.append(e.child)
        yield stage, branches
        stack += children[::-1]


def _compile(nodes: Iterable[_Listed], horizon: int) -> _Plan:
    """Check the nodes of a tree, listed in pre-order, and build its plan.
    Each node is checked as it is listed; then the steps are built in
    reverse pre-order, which is the plan's order, so each node finds its
    children's steps on top of a stack of finished subtrees and depth is
    bounded by memory only.
    """
    listed: List[_Listed] = []
    for stage, branches in nodes:
        if not branches and stage != horizon:
            raise ValidationError(f"leaf at stage {stage} but horizon is {horizon}")
        if branches and stage >= horizon:
            raise ValidationError(f"internal node at stage {stage} exceeds horizon")
        for p, cost in branches:
            if not 0.0 < json_number(p, "edge probability") < math.inf:
                raise ValidationError(f"edge probability {p!r} must be positive")
            if isinstance(cost, bool) or not isinstance(cost, (int, float, MixedDistribution)):
                raise ValidationError(f"edge cost must be a number or a MixedDistribution, got {cost!r}")
            if not isinstance(cost, MixedDistribution) and not math.isfinite(cost):
                raise ValidationError(f"edge cost {cost!r} must be finite")
        if branches:
            check_sums_to_one((p for p, _ in branches), "edge probabilities")
        listed.append((stage, branches))
    steps: List[Any] = []
    done: List[int] = []  # steps of finished subtrees, the first child's on top
    leaf = (horizon, (), None)  # every leaf sits at the horizon, so they share one step
    for position, (stage, branches) in enumerate(reversed(listed)):
        if branches:
            edges = tuple([(p, cost, done.pop()) for p, cost in branches])
            one = len(edges) == 1 and not isinstance(edges[0][1], MixedDistribution)
            steps.append((stage, edges, None if one else _node_law(edges)))
        else:
            steps.append(leaf)
        done.append(position)
    return _Plan(tuple(steps), sum(1 for _, branches in listed if not branches))


def _node_law(edges: Tuple[Tuple[float, Any, int], ...]) -> _Law:
    """The one-step law of an internal node with these plan edges, before
    the child values move it, as `_Plan` keeps it."""
    entries = [(p * w, lo, hi, child) for p, cost, child in edges for w, lo, hi in _edge_columns(cost)]
    weights, lows, highs, children = map(tuple, zip(*entries))
    # an atom has low == high, so every entry is an atom just when the
    # columns are equal
    return weights, lows, lows if lows == highs else highs, children


def _fold(plan: _Plan, make: Callable[[int, tuple, List[Any]], Any]) -> Any:
    """make(stage, plan edges, made) of every node of the plan, children
    first, made holding what it returned for each earlier step by
    position, so a node finds its children's with no recursion; returns
    the root's."""
    made: List[Any] = []
    for stage, edges, _ in plan.steps:
        made.append(make(stage, edges, made))
    return made[-1]


def deterministic_tree(costs: Sequence[EdgeCost]) -> ScenarioTree:
    """A single-path tree: one edge per period, probability one each."""
    try:
        costs = list(costs)
    except TypeError:
        raise ValidationError(f"deterministic_tree costs must be a sequence, got {costs!r}") from None
    if not costs:
        raise ValidationError("deterministic_tree needs at least one period cost")
    return _tree(len(costs), [(n, [(1.0, cost)]) for n, cost in enumerate(costs)] + [(len(costs), [])])


# ---------------------------------------------------------------------------
# tree serialization
# ---------------------------------------------------------------------------


def _cost_from_json(data) -> EdgeCost:
    if isinstance(data, dict):
        return MixedDistribution.from_json_dict(data)
    return json_number(data, "edge cost")


def tree_to_json_dict(tree: ScenarioTree) -> dict:
    def node(stage: int, edges: tuple, made: List[dict]) -> dict:
        return {"children": [
            {"p": p, "cost": cost.to_json_dict() if isinstance(cost, MixedDistribution) else cost, "node": made[child]}
            for p, cost, child in edges
        ]}

    root = _fold(tree._plan, node)
    return {"horizon": tree.horizon, "root": root}


def tree_from_json_dict(data: dict) -> ScenarioTree:
    if not isinstance(data, dict) or "horizon" not in data or "root" not in data:
        raise ValidationError("tree JSON must be an object with 'horizon' and 'root'")
    horizon = data["horizon"]
    if not _is_int(horizon):
        raise ValidationError("tree horizon must be an integer")
    nodes = []
    stack = [(data["root"], 0)]
    while stack:
        node, stage = stack.pop()
        if not isinstance(node, dict) or not isinstance(node.get("children"), list):
            raise ValidationError("tree node JSON must be an object with a 'children' list")
        entries = node["children"]
        for e in entries:
            if not isinstance(e, dict) or not {"p", "cost", "node"} <= set(e):
                raise ValidationError("tree edges must be {'p':, 'cost':, 'node':} objects")
        branches = [(json_number(e["p"], "edge 'p'"), _cost_from_json(e["cost"])) for e in entries]
        nodes.append((stage, branches))
        stack.extend((e["node"], stage + 1) for e in reversed(entries))
    return _tree(horizon, nodes)


# ---------------------------------------------------------------------------
# stagewise (iterated) evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrmSpec:
    """One risk functional per decision period, applied innermost-last."""

    stages: Tuple[RiskFunctional, ...]

    def __post_init__(self) -> None:
        """Check the stages and pick each one's kernel, held as `_kernels`
        (not a dataclass field)."""
        try:
            object.__setattr__(self, "stages", tuple(self.stages))
        except TypeError:
            raise ValidationError(
                f"IrmSpec stages must be a sequence of risk functionals, got {self.stages!r}"
            ) from None
        if not self.stages:
            raise ValidationError("IrmSpec needs at least one stage")
        for rf in self.stages:
            if not isinstance(rf, RF_CLASSES):
                raise ValidationError(f"IrmSpec stage {rf!r} is not a risk functional")
        object.__setattr__(self, "_kernels", tuple(map(_kernel, self.stages)))

    @classmethod
    def repeat(cls, rf: RiskFunctional, horizon: int) -> "IrmSpec":
        return cls(stages=(rf,) * _check_horizon(horizon))

    def __len__(self) -> int:
        return len(self.stages)


def _check_spec(spec: IrmSpec, horizon: int) -> None:
    """Raise unless spec is an IrmSpec with one stage per period."""
    if not isinstance(spec, IrmSpec):
        raise ValidationError("spec must be an IrmSpec")
    if len(spec.stages) != horizon:
        raise ValidationError(
            f"spec has {len(spec.stages)} stages but the horizon is {horizon}"
        )


class _NodeTable(Mapping):
    """The value of every node of a tree, read-only, keyed by its
    child-index path from the root (the root's is the empty tuple).

    It keeps the tree's plan and the values by plan position, and makes a
    key only when one is read: a lookup walks the plan down the path, and
    iteration walks it once, root first, then each node's subtrees last
    child first.  `==` and `repr` read as a dict's.
    """

    def __init__(self, plan: _Plan, values: List[float]) -> None:
        self._plan = plan
        self._values = values

    def __getitem__(self, key: Tuple[int, ...]) -> float:
        if not isinstance(key, tuple):
            hash(key)  # an unhashable key raises as a dict would
            raise KeyError(key)
        steps = self._plan.steps
        at = len(steps) - 1
        for i in key:
            edges = steps[at][1]
            try:
                i = index(i)
            except TypeError:
                hash(key)
                raise KeyError(key) from None
            if not 0 <= i < len(edges):
                raise KeyError(key)
            at = edges[i][2]
        return self._values[at]

    def _walk(self) -> Iterator[Tuple[Tuple[int, ...], float]]:
        steps, values = self._plan.steps, self._values
        stack: List[Tuple[int, Tuple[int, ...]]] = [(len(steps) - 1, ())]
        while stack:
            at, key = stack.pop()
            yield key, values[at]
            stack.extend((child, key + (i,)) for i, (_, _, child) in enumerate(steps[at][1]))

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return (key for key, _ in self._walk())

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> ItemsView:
        return _WalkedItems(self)

    def values(self) -> ValuesView:
        return _WalkedValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _WalkedItems(ItemsView):
    def __iter__(self):
        return self._mapping._walk()


class _WalkedValues(ValuesView):
    def __iter__(self):
        return (value for _, value in self._mapping._walk())


@dataclass(frozen=True)
class IrmResult:
    root_value: float
    node_values: Mapping[Tuple[int, ...], float]


def _node_values(tree: ScenarioTree, spec: IrmSpec, lam: float) -> List[float]:
    """Backward recursion over the tree's plan: the value of every node,
    by plan position.  Leaves are worth zero; an internal node at period
    n applies the period-n functional to the mixture over its edges of
    cost + lam * (child value).  A node with one scalar-cost edge is worth
    cost + lam * (child value), checked for finiteness as `PointMass`
    would check it, since every functional maps a constant to itself.
    Any other node moves each entry of its compiled law by
    lam * (child value) and hands it to its stage's kernel, as the spec
    picked it: a law of atoms through `_on_atoms`, any other after
    `check_moved` has checked it.
    """
    lam = _check_discount(lam)
    _check_spec(spec, tree.horizon)
    kernels = spec._kernels
    values: List[float] = []
    append = values.append
    for stage, edges, law in tree._plan.steps:
        if law is None:
            if edges:
                ((_, cost, child),) = edges
                append(check_atom(cost + lam * values[child]))
            else:
                append(0.0)
            continue
        weights, lows, highs, children = law
        moves = [lam * values[child] for child in children]
        moved_lows = [lo + move for lo, move in zip(lows, moves)]
        if highs is lows:
            append(_on_atoms(kernels[stage], weights, moved_lows))
        else:
            moved_highs = [hi + move for hi, move in zip(highs, moves)]
            check_moved(lows, highs, moved_lows, moved_highs)
            append(kernels[stage]((weights, moved_lows, moved_highs)))
    return values


def irm_evaluate(tree: ScenarioTree, spec: IrmSpec, lam: float) -> IrmResult:
    """Stagewise recursion, recording every node value.

    Node keys are child-index paths from the root, the root being the
    empty tuple; the table is a `_NodeTable`, which makes them only when
    they are read.
    """
    values = _node_values(tree, spec, lam)
    return IrmResult(root_value=values[-1], node_values=_NodeTable(tree._plan, values))


def irm_root_value(tree: ScenarioTree, spec: IrmSpec, lam: float) -> float:
    """Root value of the stagewise recursion; builds no key table."""
    return _node_values(tree, spec, lam)[-1]


# ---------------------------------------------------------------------------
# flat evaluation through the discounted total
# ---------------------------------------------------------------------------


def discounted_total_distribution(
    tree: ScenarioTree,
    lam: float,
    *,
    path_limit: int = DEFAULT_PATH_LIMIT,
) -> MixedDistribution:
    """Exact law of the discounted sum of per-period costs.

    Along each root-to-leaf path the per-period costs are independent
    given the path, so the path law is the convolution of the discounted
    edge laws; across paths the laws mix with the path probabilities.  At
    most one edge per path may carry a segment-valued cost, because the
    convolution of two segments leaves the closed mixture family.  Atoms
    are merged as `merge_atoms` merges them.

    The law is built as its columns, with no object per component: a
    walk over the plan, pre-order with the first child first, expands all
    of a node's edges before it visits a child and collects the leaves as
    (value, weight) atoms and (lo, hi, weight) segments for
    `merge_columns` (see `_flat_leaves`).  A leaf is checked as
    `PointMass` or `UniformSegment` would check it, and errors come in the
    same order as they would with the law built object by object.  Each
    call builds the law afresh and keeps nothing.
    """
    lam = _check_discount(lam)
    if not _is_int(path_limit):
        raise ValidationError(f"path_limit must be an integer, got {path_limit!r}")
    if tree.path_count() > path_limit:
        raise EnumerationLimitError(
            f"tree has more than {path_limit} root-to-leaf paths"
        )
    steps = tree._plan.steps
    leaves = _flat_leaves(steps, tree.horizon, lam, False) or _flat_leaves(steps, tree.horizon, lam, True)
    return MixedDistribution._from_columns(merge_columns(*leaves))


def _flat_leaves(steps: tuple, horizon: int, lam: float, checked: bool) -> Optional[Tuple[list, list]]:
    """The leaves of the walk in `discounted_total_distribution`: (value,
    weight) atoms and (lo, hi, weight) segments, each in walk order.

    Checked, the walk checks each leaf when it reaches it and raises at a
    node that puts a second segment on a path, so the first fault raises.
    Unchecked, it adds the leaves of a last-stage node whose costs are all
    atoms with one list comprehension per path into the node, and checks
    all leaves together at the end; a fault of either kind returns None,
    for the checked walk to find the first.  Both give the same leaves.
    `last` holds each such node's edges at the stage's discount while the
    walk runs.
    """
    atoms: List[Tuple[float, float]] = []
    segments: List[Tuple[float, float, float]] = []
    last: Dict[int, list] = {}  # plan position -> (edge probability, weight, discounted cost) per component
    # (plan position, path probability, discounted point costs so far, the
    # one segment so far as (lo, hi) or None)
    stack: List[Tuple[int, float, float, Any]] = [(len(steps) - 1, 1.0, 0.0, None)]
    while stack:
        at, prob, shift, seg = stack.pop()
        stage, edges, law = steps[at]
        while edges and law is None:  # one scalar edge: follow it in place
            ((q, cost, at),) = edges
            prob, shift = prob * q, shift + lam**stage * cost
            stage, edges, law = steps[at]
        if not edges:
            if seg is None:
                atoms.append((check_atom(shift) if checked else shift, prob))
                continue
            lo, hi = seg[0] + shift, seg[1] + shift
            if checked:
                check_segment(lo, hi)
            segments.append((lo, hi, prob))
            continue
        if stage + 1 == horizon and not checked and law[2] is law[1]:  # leaf children, atoms only
            if at not in last:
                scale = lam**stage
                last[at] = [(q, w, scale * lo) for q, cost, _ in edges for w, lo, _ in _edge_columns(cost) if w > 0.0]
            if seg is None:
                atoms += [(shift + lo, prob * q * w) for q, w, lo in last[at]]
            else:
                segments += [(seg[0] + (shift + lo), seg[1] + (shift + lo), prob * q * w) for q, w, lo in last[at]]
            continue
        scale = lam**stage
        branches = []
        for q, cost, child in edges:
            p = prob * q
            for w, lo, hi in _edge_columns(cost):
                if w <= 0.0:
                    continue
                if lo == hi:
                    branches.append((child, p * w, shift + scale * lo, seg))
                elif seg is None:
                    branches.append((child, p * w, shift, (scale * lo, scale * hi)))
                elif not checked:
                    return None
                else:
                    raise ValidationError(
                        "a path carries two segment-valued costs; "
                        "their sum leaves the mixed point/uniform family"
                    )
        stack.extend(reversed(branches))
    if checked:
        return atoms, segments
    low, high = itemgetter(0), itemgetter(1)
    # a sum is finite only if every term is
    ends = sum(map(low, atoms)) + sum(map(low, segments)) + sum(map(high, segments))
    return (atoms, segments) if math.isfinite(ends) and all(map(lt, map(low, segments), map(high, segments))) else None


def _edge_columns(cost: EdgeCost) -> Iterable[Tuple[float, float, float]]:
    """An edge cost's (weight, low, high) components, a scalar as one atom
    of weight 1.0."""
    return zip(*cost.columns()) if isinstance(cost, MixedDistribution) else ((1.0, cost, cost),)


def rmd(tree: ScenarioTree, rf: RiskFunctional, lam: float) -> float:
    """One risk functional applied to the discounted total cost:
    `evaluate` on `discounted_total_distribution`, the functional checked
    first.  Each call builds the law; a caller with several questions of
    one total builds it once and calls `evaluate` on it."""
    if not isinstance(rf, RF_CLASSES):
        raise ValidationError(f"unknown risk functional {rf!r}")
    return evaluate(rf, discounted_total_distribution(tree, lam))


def eud(tree: ScenarioTree, u: DisutilityFunction, lam: float) -> float:
    """Expected disutility of the discounted total cost:
    `pushforward_mean` on `discounted_total_distribution`, the disutility
    checked after the law."""
    return pushforward_mean(u, discounted_total_distribution(tree, lam))
