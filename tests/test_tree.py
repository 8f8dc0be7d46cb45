"""Scenario trees: construction rules, stagewise recursion, the flat law
of the discounted total, and when the two evaluations must or must not
agree."""
from __future__ import annotations

import dataclasses
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp import (
    Composite,
    Cte,
    Edge,
    EnumerationLimitError,
    EvaluationOverflowError,
    Erm,
    Expectation,
    Exponential,
    IrmSpec,
    Linear,
    MixedDistribution,
    PiecewiseLinear,
    PointMass,
    Power,
    ScenarioTree,
    TreeNode,
    UniformSegment,
    ValidationError,
    ValueAtRisk,
    affine_transform,
    casebook,
    cte,
    deterministic_tree,
    discounted_total_distribution,
    erm,
    eud,
    evaluate,
    irm_evaluate,
    irm_root_value,
    mean,
    merge_atoms,
    rf_from_json_dict,
    rmd,
    tree_from_json_dict,
    tree_to_json_dict,
    unroll,
)
from riskdp import measures
from riskdp import tree as tree_module

from .conftest import assert_close, mixture, random_tree
from .data import make_tree_bits

DATA = Path(__file__).parent / "data"

# far past the default recursion limit of 1000 frames
DEEP_STAGES = 10**4


def two_outcome_tree(p: float, high: float, low: float = 0.0) -> ScenarioTree:
    leaf_a, leaf_b = TreeNode(stage=1, edges=()), TreeNode(stage=1, edges=())
    root = TreeNode(
        stage=0,
        edges=(Edge(p, high, leaf_a), Edge(1.0 - p, low, leaf_b)),
    )
    return ScenarioTree(horizon=1, root=root)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_edge_probabilities_must_sum_to_one():
    leaf_a, leaf_b = TreeNode(1, ()), TreeNode(1, ())
    root = TreeNode(0, (Edge(0.6, 1.0, leaf_a), Edge(0.3, 2.0, leaf_b)))
    with pytest.raises(ValidationError):
        ScenarioTree(horizon=1, root=root)


def test_zero_probability_edges_are_rejected():
    leaf_a, leaf_b = TreeNode(1, ()), TreeNode(1, ())
    root = TreeNode(0, (Edge(1.0, 1.0, leaf_a), Edge(0.0, 2.0, leaf_b)))
    with pytest.raises(ValidationError):
        ScenarioTree(horizon=1, root=root)


def test_every_leaf_must_sit_at_the_horizon():
    short_leaf = TreeNode(1, ())
    deep = TreeNode(1, (Edge(1.0, 0.0, TreeNode(2, ())),))
    root = TreeNode(0, (Edge(0.5, 0.0, short_leaf), Edge(0.5, 0.0, deep)))
    with pytest.raises(ValidationError):
        ScenarioTree(horizon=2, root=root)


def test_node_sharing_is_rejected():
    leaf = TreeNode(1, ())
    root = TreeNode(0, (Edge(0.5, 1.0, leaf), Edge(0.5, 2.0, leaf)))
    with pytest.raises(ValidationError):
        ScenarioTree(horizon=1, root=root)


def test_boolean_cost_is_rejected():
    leaf = TreeNode(1, ())
    root = TreeNode(0, (Edge(1.0, True, leaf),))
    with pytest.raises(ValidationError):
        ScenarioTree(horizon=1, root=root)


@pytest.mark.parametrize(
    "root, match",
    [
        ("x", "tree root must be a TreeNode, got 'x'"),
        (TreeNode(0, ((1.0, 0.0, TreeNode(1, ())),)), "tree edges must be Edge objects"),
        (TreeNode(0, (Edge(1.0, 0.0, None),)), "edge child must be a TreeNode, got None"),
        (TreeNode(0, (Edge(True, 0.0, TreeNode(1, ())),)), "edge probability must be a number, got True"),
        (TreeNode(0, (Edge("1", 0.0, TreeNode(1, ())),)), "edge probability must be a number, got '1'"),
        (TreeNode(1, ()), "root must sit at stage 0"),
        (
            TreeNode(0, (Edge(1.0, 0.0, TreeNode(1, (Edge(1.0, 0.0, TreeNode(2, ())),))),)),
            "internal node at stage 1 exceeds horizon",
        ),
        (
            TreeNode(0, (Edge(1.0, 0.0, TreeNode(1, None)),)),
            "tree node edges must be a tuple or list of Edge objects, got None",
        ),
        (TreeNode(0, {Edge(1.0, 0.0, TreeNode(1, ())): 1}), r"tree node edges must be a tuple or list of Edge objects, got \{"),
        (TreeNode(0, 5), "tree node edges must be a tuple or list of Edge objects, got 5"),
        (
            TreeNode(0, (e for e in [Edge(1.0, 0.0, TreeNode(1, ()))])),
            "tree node edges must be a tuple or list of Edge objects, got <generator",
        ),
    ],
    ids=[
        "root", "edge", "child", "bool-probability", "str-probability", "root-stage", "internal-past-horizon",
        "edges-none", "edges-dict", "edges-int", "edges-generator",
    ],
)
def test_malformed_nodes_and_edges_are_rejected(root, match):
    with pytest.raises(ValidationError, match=match):
        ScenarioTree(horizon=1, root=root)


def test_child_stage_must_advance_by_one():
    grandchild = TreeNode(2, ())
    root = TreeNode(0, (Edge(1.0, 0.0, grandchild),))
    with pytest.raises(ValidationError):
        ScenarioTree(horizon=2, root=root)


def test_a_boolean_horizon_is_rejected():
    root = two_outcome_tree(0.5, 10.0).root
    with pytest.raises(ValidationError, match="horizon must be an integer >= 1"):
        ScenarioTree(horizon=True, root=root)
    with pytest.raises(ValidationError, match="horizon must be an integer >= 1"):
        IrmSpec.repeat(Expectation(), True)


def test_deterministic_tree_shape():
    t = deterministic_tree([1.0, 2.0, 3.0])
    assert t.horizon == 3
    assert t.node_count() == 4
    assert t.path_count() == 1
    with pytest.raises(ValidationError):
        deterministic_tree([])
    for costs in (None, 5):
        with pytest.raises(ValidationError) as info:
            deterministic_tree(costs)
        assert str(info.value) == f"deterministic_tree costs must be a sequence, got {costs!r}"


def two_fault_cases() -> dict:
    """Inputs with two faults each, by name: a builder and the error that
    must win, as (type, message).  Every tree is checked node by node in
    pre-order, first child first, and each node's edges in order; a
    hand-built node's shape (its edges, their children and the children's
    stages) before its numbers (stage against horizon, probabilities,
    costs).  The JSON reader parses every node before any of that;
    `deterministic_tree` checks its costs in period order."""
    leaf = lambda n: TreeNode(n, ())  # noqa: E731

    def tree(horizon: int, *edges: Edge):
        return lambda: ScenarioTree(horizon, TreeNode(0, edges))

    def down(n: int, *edges: Edge) -> TreeNode:
        return TreeNode(n, edges)

    def json_tree(horizon, *children):
        return lambda: tree_from_json_dict({"horizon": horizon, "root": {"children": list(children)}})

    def edge(p, cost, *children):
        return {"p": p, "cost": cost, "node": {"children": list(children)}}

    def sums_to(total: str):
        return (ValidationError, f"edge probabilities sum to {total}; must be 1 within 1e-12")

    shared = down(1, Edge(0.5, 0.0, leaf(2)))
    cost_x = (ValidationError, "edge cost must be a number or a MixedDistribution, got 'x'")
    p_x = (ValidationError, "edge 'p' must be a number, got 'x'")
    return {
        # an ancestor's fault against a descendant's, on one path
        "tree: root probabilities off one above a bad cost": (
            tree(2, Edge(0.5, 0.0, down(1, Edge(1.0, "x", leaf(2)))), Edge(0.4, 0.0, down(1, Edge(1.0, 0.0, leaf(2))))),
            sums_to("0.9"),
        ),
        "tree: a bad root probability above an edge that is not an Edge": (
            tree(2, Edge(0.0, 0.0, down(1, (1.0, 0.0, leaf(2))))),
            (ValidationError, "edge probability 0.0 must be positive"),
        ),
        "tree: a child at the wrong stage above a bad cost": (
            tree(3, Edge(1.0, 0.0, down(2, Edge(1.0, "x", leaf(3))))),
            (ValidationError, "child at stage 2 under a stage-0 node"),
        ),
        "tree: an internal node past the horizon above a leaf past it": (
            tree(1, Edge(1.0, 0.0, down(1, Edge(1.0, 0.0, leaf(2))))),
            (ValidationError, "internal node at stage 1 exceeds horizon"),
        ),
        "tree: a shared node whose own probabilities are off one": (
            tree(2, Edge(0.5, 0.0, shared), Edge(0.5, 1.0, shared)),
            sums_to("0.5"),
        ),
        "deterministic_tree: an infinite cost before a string cost": (
            lambda: deterministic_tree([math.inf, "x"]),
            (ValidationError, "edge cost inf must be finite"),
        ),
        "deterministic_tree: a boolean cost before a nan cost": (
            lambda: deterministic_tree([1.0, True, math.nan]),
            (ValidationError, "edge cost must be a number or a MixedDistribution, got True"),
        ),
        # a parse-time fault against a structural one
        "json: a bad 'p' in the last subtree and root probabilities off one": (
            json_tree(2, edge(0.5, 0.0, edge(1.0, 0.0)), edge(0.4, 0.0, edge("x", 0.0))),
            p_x,
        ),
        "json: a bad cost law and a leaf short of the horizon": (
            json_tree(2, edge(0.5, 0.0), edge(0.5, {"components": "x"}, edge(1.0, 0.0))),
            (ValidationError, "'components' must be a list"),
        ),
        "json: a node without a 'children' list and a negative probability": (
            json_tree(1, edge(-0.5, 0.0), {"p": 1.5, "cost": 0.0, "node": {}}),
            (ValidationError, "tree node JSON must be an object with a 'children' list"),
        ),
        "json: an edge without a cost and a bad horizon": (
            json_tree(0, {"p": 1.0, "node": {"children": []}}),
            (ValidationError, "tree edges must be {'p':, 'cost':, 'node':} objects"),
        ),
        "json: a non-integer horizon and a node without children": (
            json_tree(1.5, {"p": 1.0, "cost": 0.0, "node": {}}),
            (ValidationError, "tree horizon must be an integer"),
        ),
        # two faults of one kind on two edges of one node
        "tree: two bad probabilities": (
            tree(1, Edge(-0.5, 0.0, leaf(1)), Edge(math.nan, 0.0, leaf(1))),
            (ValidationError, "edge probability -0.5 must be positive"),
        ),
        "tree: two bad costs": (
            tree(1, Edge(0.5, "x", leaf(1)), Edge(0.5, math.inf, leaf(1))),
            cost_x,
        ),
        "tree: two edges that are not Edges": (
            tree(1, (1.0, 0.0, leaf(1)), "e"),
            (ValidationError, "tree edges must be Edge objects, got (1.0, 0.0, TreeNode(stage=1, edges=()))"),
        ),
        "tree: two children at the wrong stage": (
            tree(2, Edge(0.5, 0.0, leaf(2)), Edge(0.5, 0.0, leaf(3))),
            (ValidationError, "child at stage 2 under a stage-0 node"),
        ),
        "tree: a child that is not a TreeNode before a bad probability": (
            tree(1, Edge(0.5, 0.0, None), Edge(-0.5, 0.0, leaf(1))),
            (ValidationError, "edge child must be a TreeNode, got None"),
        ),
        "json: two bad 'p's": (json_tree(1, edge("x", 0.0), edge("y", 0.0)), p_x),
        "json: two negative probabilities": (
            json_tree(1, edge(-0.5, 0.0), edge(0.0, 0.0)),
            (ValidationError, "edge probability -0.5 must be positive"),
        ),
        # faults in two sibling subtrees: the first child's wins
        "tree: a bad cost under the first child, probabilities off one under the second": (
            tree(2, Edge(0.5, 0.0, down(1, Edge(1.0, "x", leaf(2)))), Edge(0.5, 0.0, down(1, Edge(0.5, 0.0, leaf(2))))),
            cost_x,
        ),
        "json: probabilities off one under the first child, a short leaf under the second": (
            json_tree(2, edge(0.5, 0.0, edge(0.5, 0.0)), edge(0.5, 0.0)),
            sums_to("0.5"),
        ),
        # within one node, its shape before its numbers
        "tree: a bad probability before an edge that is not an Edge": (
            tree(1, Edge(-0.5, 0.0, leaf(1)), "e"),
            (ValidationError, "tree edges must be Edge objects, got 'e'"),
        ),
        "tree: a bad cost before a child that is not a TreeNode": (
            tree(1, Edge(0.5, "x", leaf(1)), Edge(0.5, 0.0, "leaf")),
            (ValidationError, "edge child must be a TreeNode, got 'leaf'"),
        ),
        "tree: an internal node past the horizon with a child at the wrong stage": (
            tree(1, Edge(1.0, 0.0, down(1, Edge(1.0, 0.0, leaf(3))))),
            (ValidationError, "child at stage 3 under a stage-1 node"),
        ),
    }


@pytest.mark.parametrize("case", list(two_fault_cases()))
def test_the_first_of_two_tree_faults_wins(case):
    run, (kind, message) = two_fault_cases()[case]
    with pytest.raises(kind) as info:
        run()
    assert (type(info.value), str(info.value)) == (kind, message)


# ---------------------------------------------------------------------------
# stagewise recursion
# ---------------------------------------------------------------------------


def test_single_stage_recursion_is_the_static_functional():
    t = two_outcome_tree(0.5, 10.0)
    d = MixedDistribution.of_atoms([(0.5, 10.0), (0.5, 0.0)])
    spec = IrmSpec((Cte(0.5),))
    assert_close(irm_root_value(t, spec, 1.0), cte(0.5, d), rel=1e-12)


def test_recursion_records_every_node_value():
    t = casebook.one_year_tree()
    result = irm_evaluate(t, IrmSpec.repeat(Expectation(), 2), 1.0)
    assert result.node_values[()] == result.root_value
    # one child under the root, then its two leaves
    assert set(result.node_values) == {(), (0,), (0, 0), (0, 1)}
    assert result.node_values[(0, 0)] == 0.0
    assert_close(result.node_values[(0,)], 300.0, rel=1e-12)


def test_spec_length_must_match_horizon():
    t = two_outcome_tree(0.5, 10.0)
    with pytest.raises(ValidationError):
        irm_root_value(t, IrmSpec.repeat(Expectation(), 2), 1.0)
    with pytest.raises(ValidationError):
        irm_evaluate(t, IrmSpec.repeat(Expectation(), 2), 1.0)
    with pytest.raises(ValidationError, match="spec must be an IrmSpec"):
        irm_root_value(t, [Expectation()], 1.0)


def test_spec_stages_are_stored_as_a_tuple():
    spec = IrmSpec([Cte(0.5), Erm(1.0)])
    assert spec.stages == (Cte(0.5), Erm(1.0))
    assert spec == IrmSpec((Cte(0.5), Erm(1.0)))
    assert hash(spec) == hash(IrmSpec((Cte(0.5), Erm(1.0))))


def test_a_single_functional_is_not_a_spec():
    with pytest.raises(ValidationError, match="sequence of risk functionals"):
        IrmSpec(Cte(0.5))


@pytest.mark.parametrize(
    "stages, message",
    [
        ((), "IrmSpec needs at least one stage"),
        (("cte",), "IrmSpec stage 'cte' is not a risk functional"),
    ],
    ids=["empty", "not-a-functional"],
)
def test_malformed_specs_are_rejected(stages, message):
    with pytest.raises(ValidationError) as info:
        IrmSpec(stages)
    assert str(info.value) == message


def test_rmd_rejects_a_non_functional_before_building_the_law():
    # the discount is out of range too, but the functional is checked first
    with pytest.raises(ValidationError, match="unknown risk functional"):
        rmd(two_outcome_tree(0.5, 10.0), "mean", 1.5)


def test_discount_factor_range_is_enforced():
    t = two_outcome_tree(0.5, 10.0)
    spec = IrmSpec((Expectation(),))
    for bad in (-0.1, 1.1, float("nan"), True, "0.5"):
        with pytest.raises(ValidationError):
            irm_root_value(t, spec, bad)
    # zero is legal: continuations vanish and only period-0 cost remains
    assert_close(irm_root_value(t, spec, 0.0), 5.0, rel=1e-12)


ORACLE_SPECS = (
    Expectation(),
    Erm(0.3),
    ValueAtRisk(0.7),
    Cte(0.6),
    Composite(((0.5, Expectation()), (0.5, Cte(0.9)))),
)


def reference_node_values(tree: ScenarioTree, spec: IrmSpec, lam: float) -> dict:
    """The stagewise recursion written plainly and recursively, sharing no
    code with riskdp.tree: every node value keyed by its child-index path.
    """
    table = {}

    def value(node: TreeNode, key: tuple) -> float:
        laws = []
        for i, e in enumerate(node.edges):
            shift = lam * value(e.child, key + (i,))
            if isinstance(e.cost, MixedDistribution):
                laws.append((e.probability, affine_transform(e.cost, 1.0, shift)))
            else:
                laws.append((e.probability, MixedDistribution.point(e.cost + shift)))
        table[key] = evaluate(spec.stages[node.stage], MixedDistribution.mix(laws)) if laws else 0.0
        return table[key]

    value(tree.root, ())
    return table


def test_recursion_matches_a_plain_recursive_reference():
    rng = random.Random(404)
    for _ in range(30):
        tree = random_tree(rng, max_horizon=5, max_children=3, segment_stage=rng.randrange(5))
        for rf in ORACLE_SPECS:
            spec = IrmSpec.repeat(rf, tree.horizon)
            for lam in (0.0, 0.5, 0.9, 1.0):
                want = reference_node_values(tree, spec, lam)
                got = irm_evaluate(tree, spec, lam).node_values
                assert set(got) == set(want)
                for key, value in want.items():
                    assert_close(got[key], value, rel=1e-12, abs_tol=1e-12)
                assert_close(irm_root_value(tree, spec, lam), want[()], rel=1e-12, abs_tol=1e-12)


def test_cached_plan_depends_on_neither_spec_nor_discount():
    rng = random.Random(405)
    tree = random_tree(rng, max_horizon=4, max_children=3, segment_stage=1)
    runs = [
        (IrmSpec.repeat(rf, tree.horizon), lam)
        for rf in (Cte(0.6), Erm(0.3))
        for lam in (0.5, 1.0)
    ]
    for spec, lam in runs + runs[::-1]:
        fresh = ScenarioTree(horizon=tree.horizon, root=tree.root)
        assert irm_evaluate(tree, spec, lam) == irm_evaluate(fresh, spec, lam)
        assert irm_root_value(tree, spec, lam) == irm_root_value(fresh, spec, lam)


OVERFLOW = (ValidationError, "PointMass value must be finite")


def non_finite_node_cases() -> dict:
    """Two-stage trees whose stage-1 node is worth 1e308 (or 1e17) under
    the mean, so a root edge cost moved by that value leaves the finite
    floats or collapses a segment.  Each case is (root edges, the error
    the recursion raises); the root's edges are met in order, and each law
    component in its law's order."""
    seg = MixedDistribution.uniform(0.0, 1.0)
    seg_part = UniformSegment(0.0, 1.0)

    def down(value: float) -> TreeNode:
        return TreeNode(1, (Edge(1.0, value, TreeNode(2, ())),))

    segment_error = (
        ValidationError,
        "UniformSegment requires lo < hi; use PointMass for a single value",
    )
    return {
        # one scalar edge per node: the constant shortcut
        "constant node": ((Edge(1.0, 1e308, down(1e308)),), OVERFLOW),
        "scalar edges": ((Edge(0.5, 1e308, down(1e308)), Edge(0.5, 1e308, down(1e308))), OVERFLOW),
        "edge-law atom": (
            (Edge(1.0, MixedDistribution.of_atoms([(0.5, 0.0), (0.5, 1e308)]), down(1e308)),),
            OVERFLOW,
        ),
        "segment endpoint": (
            (Edge(1.0, MixedDistribution.uniform(0.0, 1e308), down(1e308)),),
            (ValidationError, "UniformSegment endpoints must be finite"),
        ),
        "segment collapsed by a huge child value": ((Edge(1.0, seg, down(1e17)),), segment_error),
        "scalar edge before a segment": (
            (Edge(0.5, 1e308, down(1e308)), Edge(0.5, seg, down(1e17))),
            OVERFLOW,
        ),
        "segment before a scalar edge": (
            (Edge(0.5, seg, down(1e17)), Edge(0.5, 1e308, down(1e308))),
            segment_error,
        ),
        "atom before a segment in one law": (
            (Edge(1.0, MixedDistribution(((0.5, PointMass(1e308)), (0.5, seg_part))), down(1e308)),),
            OVERFLOW,
        ),
        "segment before an atom in one law": (
            (Edge(1.0, MixedDistribution(((0.5, seg_part), (0.5, PointMass(1e308)))), down(1e308)),),
            segment_error,
        ),
    }


@pytest.mark.parametrize("case", list(non_finite_node_cases()))
def test_non_finite_node_values_are_rejected(case):
    edges, (kind, message) = non_finite_node_cases()[case]
    tree = ScenarioTree(horizon=2, root=TreeNode(0, edges))
    spec = IrmSpec.repeat(Expectation(), 2)
    for run in (irm_root_value, irm_evaluate):
        with pytest.raises(kind) as info:
            run(tree, spec, 1.0)
        assert (type(info.value), str(info.value)) == (kind, message)


RUN_STAGES = 12
FLOAT_MAX = 1.7976931348623157e308


def run_overflow_cases() -> dict:
    """Trees with a run of single-scalar-edge nodes whose value leaves the
    finite floats, each as (tree, discount, the error the recursion
    raises), and two whose value stays finite, each with the value it
    returns.  Under the mean, a node whose one edge carries a segment at
    the float limit is worth that segment's finite midpoint, so the runs
    above it at discount 0 and 1 stay finite.  In the fork, the first
    child's subtree would collapse a segment, but the last child's
    subtree comes first in the plan."""
    seg = MixedDistribution.uniform(0.0, 1.0)
    # from the leaf up: five ones, two 1e308s, five ones; the sum passes
    # the float limit halfway up and stays inf
    halfway = [1.0] * 5 + [1e308] * 2 + [1.0] * 5

    def chain(costs, bottom: TreeNode, stage: int) -> TreeNode:
        node = bottom
        for n, cost in reversed(list(enumerate(costs, stage))):
            node = TreeNode(n, (Edge(1.0, cost, node),))
        return node

    limit_edge = (Edge(1.0, MixedDistribution.uniform(1.7e308, FLOAT_MAX), TreeNode(RUN_STAGES, ())),)
    near_limit = chain([2.0] * (RUN_STAGES - 1), TreeNode(RUN_STAGES - 1, limit_edge), 0)
    collapse = TreeNode(1, (Edge(1.0, seg, chain([1e17] * (RUN_STAGES - 2), TreeNode(RUN_STAGES, ()), 2)),))
    overflowing = chain(halfway[1:], TreeNode(RUN_STAGES, ()), 1)
    fork = TreeNode(0, (Edge(0.5, 0.0, collapse), Edge(0.5, 0.0, overflowing)))
    return {
        "a run overflows halfway at discount 1": (deterministic_tree(halfway), 1.0, OVERFLOW),
        "a run at discount 0 over a child near the float limit": (ScenarioTree(RUN_STAGES, near_limit), 0.0, 2.0),
        # 0.5 * 1.7e308 + 0.5 * FLOAT_MAX, which absorbs each cost of 2
        "a run at discount 1 over a child near the float limit": (
            ScenarioTree(RUN_STAGES, near_limit), 1.0, 1.7488465674311577e308,
        ),
        "a run overflows before a later collapsed segment": (ScenarioTree(RUN_STAGES, fork), 1.0, OVERFLOW),
        "the collapsed segment alone": (
            ScenarioTree(RUN_STAGES, TreeNode(0, (Edge(1.0, 0.0, collapse),))),
            1.0,
            (ValidationError, "UniformSegment requires lo < hi; use PointMass for a single value"),
        ),
    }


@pytest.mark.parametrize("case", list(run_overflow_cases()))
def test_runs_of_scalar_edges_that_overflow_keep_their_error(case):
    tree, lam, outcome = run_overflow_cases()[case]
    spec = IrmSpec.repeat(Expectation(), RUN_STAGES)
    if isinstance(outcome, float):
        assert irm_root_value(tree, spec, lam) == irm_evaluate(tree, spec, lam).root_value == outcome
        return
    kind, message = outcome
    for run in (irm_root_value, irm_evaluate):
        with pytest.raises(kind) as info:
            run(tree, spec, lam)
        assert (type(info.value), str(info.value)) == (kind, message)


def test_preference_region_reproduces_the_pinned_bits():
    """The 100 x 100 payment-plan region of `riskdp fig1`: its cells, the
    upfront tree's value at every discount under every tail level, and
    the installment tree's value at every grid point, by float.hex, as
    recorded in data/sweep_bits.json (see data/make_sweep_bits.py)."""
    fixture = json.loads((DATA / "sweep_bits.json").read_text())
    steps = fixture["steps"]
    grid = casebook.preference_region(steps, steps)
    assert ["".join("01"[c] for c in row) for row in grid.cells] == fixture["cells"]
    upfront, installment = casebook.upfront_tree(), casebook.installment_tree()
    assert len(fixture["installment"]) == len(grid.alpha_axis) == steps
    for alpha, want in zip(grid.alpha_axis, fixture["installment"]):
        spec = IrmSpec.repeat(Cte(alpha), casebook.PAYMENT_DAYS)
        got_upfront = [irm_root_value(upfront, spec, lam).hex() for lam in grid.lambda_axis]
        assert got_upfront == fixture["upfront"], alpha
        assert [irm_root_value(installment, spec, lam).hex() for lam in grid.lambda_axis] == want, alpha


def test_below_its_root_the_installment_tree_has_one_scalar_edge_per_node():
    """Every functional maps a constant to itself, so no tail level moves
    the value of a node with one scalar-cost edge: below the installment
    tree's root only its one-step law sees the tail level."""
    root = casebook.installment_tree().root
    stack, seen = [e.child for e in root.edges], 0
    while stack:
        node = stack.pop()
        seen += 1
        if node.stage == casebook.PAYMENT_DAYS:
            assert node.edges == ()
            continue
        assert len(node.edges) == 1
        assert isinstance(node.edges[0].cost, float)
        stack.append(node.edges[0].child)
    assert seen == 2 * casebook.PAYMENT_DAYS


def test_preference_region_makes_no_single_level_tail_call(monkeypatch):
    """The sweep reads every tail level from the root law's breakpoint
    statistics; the recursion below the root needs no tail level, so on
    atom laws that leave `_cte_levels` no float dust to hand off, the
    single-level kernel is never called."""
    calls = []
    single = measures._cte

    def spy(alpha, cols):
        calls.append(alpha)
        return single(alpha, cols)

    monkeypatch.setattr(measures, "_cte", spy)
    grid = casebook.preference_region(100, 100)
    assert len(grid.cells) == 100
    assert calls == []


@pytest.mark.parametrize("lambda_steps, alpha_steps", [(2, 2), (3, 17), (41, 7), (257, 3), (3, 1000)])
def test_preference_region_cells_are_the_recursion_cell_by_cell(lambda_steps, alpha_steps):
    """Each cell of the region is the comparison of the two trees' root
    values under the cell's tail level and discount, each recursion run
    on its own."""
    grid = casebook.preference_region(lambda_steps, alpha_steps)
    assert (len(grid.lambda_axis), len(grid.alpha_axis)) == (lambda_steps, alpha_steps)
    upfront, installment = casebook.upfront_tree(), casebook.installment_tree()
    cells = []
    for alpha in grid.alpha_axis:
        spec = IrmSpec.repeat(Cte(alpha), casebook.PAYMENT_DAYS)
        cells.append(tuple(
            irm_root_value(upfront, spec, lam) <= irm_root_value(installment, spec, lam)
            for lam in grid.lambda_axis
        ))
    assert grid.cells == tuple(cells)


def test_a_negative_zero_component_moves_to_positive_zero():
    """A law component at -0.0 under a child value of +0.0 moves to +0.0,
    as a scalar edge cost and the flat law already do, so on a one-stage
    tree the recursion and rmd agree in sign."""
    rf = ValueAtRisk(0.0)
    for cost in (-0.0, MixedDistribution.point(-0.0), MixedDistribution.uniform(-0.0, 1.0)):
        tree = deterministic_tree([cost])
        got = irm_root_value(tree, IrmSpec((rf,)), 1.0)
        assert (got.hex(), rmd(tree, rf, 1.0).hex()) == ("0x0.0p+0", "0x0.0p+0"), cost


def test_evaluation_leaves_the_tree_unchanged():
    rng = random.Random(406)
    tree = random_tree(rng, max_horizon=4, max_children=3, segment_stage=2)
    fresh = tree_from_json_dict(tree_to_json_dict(tree))
    fields = dataclasses.fields(ScenarioTree)
    as_json = tree_to_json_dict(tree)
    irm_evaluate(tree, IrmSpec.repeat(Cte(0.5), tree.horizon), 0.9)
    assert tree.node_count() == fresh.node_count()
    assert tree == fresh and fresh == tree
    assert hash(tree) == hash(fresh)
    assert dataclasses.fields(ScenarioTree) == fields
    assert tree_to_json_dict(tree) == as_json


def test_installment_chain_tail_recursion_closed_form():
    spec = IrmSpec.repeat(Cte(0.5), casebook.PAYMENT_DAYS)
    got = irm_root_value(casebook.installment_tree(), spec, 0.95)
    assert_close(got, casebook.installment_recursive_value(0.5, 0.95), rel=1e-12)
    # billed branch folds into amount * geometric sum, scaled by q/(1-alpha)
    want = (0.0475 / 0.5) * 1000.0 * (1.0 - 0.95**20) / 0.05
    assert_close(got, want, rel=1e-12)


def test_installment_closed_form_in_the_upper_band():
    """At tail levels from the no-bill mass up, the value is the whole
    discounted total on the billed branch."""
    for alpha in (1.0 - casebook.PAYMENT_PROBABILITY, 0.97, 0.999):
        for lam in (0.5, 0.95, 1.0):
            spec = IrmSpec.repeat(Cte(alpha), casebook.PAYMENT_DAYS)
            got = irm_root_value(casebook.installment_tree(), spec, lam)
            assert_close(got, casebook.installment_recursive_value(alpha, lam), rel=1e-12)


def test_route_trees_under_stagewise_tail_expectation():
    spec = IrmSpec.repeat(Cte(0.5), 2)
    assert_close(irm_root_value(casebook.highway_tree(), spec, 1.0), 21.0, rel=1e-12)
    assert_close(irm_root_value(casebook.local_roads_tree(), spec, 1.0), 22.0, rel=1e-12)


# ---------------------------------------------------------------------------
# flat law of the discounted total
# ---------------------------------------------------------------------------


def test_single_path_totals_collapse_to_a_point():
    t = deterministic_tree([1.0, 2.0])
    d = discounted_total_distribution(t, 0.5)
    assert d.components == ((1.0, PointMass(2.0)),)


def test_installment_flat_law_is_all_or_nothing():
    d = discounted_total_distribution(casebook.installment_tree(), 1.0)
    assert d.components == (
        (0.9525, PointMass(0.0)),
        (0.0475, PointMass(20000.0)),
    )
    d9 = discounted_total_distribution(casebook.installment_tree(), 0.9)
    values = sorted(o.value for _, o in d9.components)
    assert_close(values[0], 0.0, rel=1e-12)
    assert_close(values[1], 1000.0 * (1.0 - 0.9**20) / 0.1, rel=1e-12)


def test_segment_costs_scale_and_shift_through_the_total():
    inner = TreeNode(1, (Edge(1.0, 3.0, TreeNode(2, ())),))
    root = TreeNode(0, (Edge(1.0, MixedDistribution.uniform(0.0, 1.0), inner),))
    t = ScenarioTree(horizon=2, root=root)
    d = discounted_total_distribution(t, 0.5)
    assert d.components == ((1.0, UniformSegment(1.5, 2.5)),)


def test_two_segments_on_one_path_are_rejected():
    inner = TreeNode(1, (Edge(1.0, MixedDistribution.uniform(0.0, 1.0), TreeNode(2, ())),))
    root = TreeNode(0, (Edge(1.0, MixedDistribution.uniform(0.0, 1.0), inner),))
    t = ScenarioTree(horizon=2, root=root)
    with pytest.raises(ValidationError):
        discounted_total_distribution(t, 1.0)


def test_path_budget_is_enforced():
    t = casebook.installment_tree()
    with pytest.raises(EnumerationLimitError):
        discounted_total_distribution(t, 1.0, path_limit=1)


TWO_SEGMENTS = (
    ValidationError,
    "a path carries two segment-valued costs; their sum leaves the mixed point/uniform family",
)
TOO_MANY_PATHS = (EnumerationLimitError, "tree has more than 10000000 root-to-leaf paths")
BAD_DISCOUNT = (ValidationError, "discount factor must lie in [0, 1], got 1.5")


def flat_error_cases() -> dict:
    """Inputs the flat law cannot be built or scored from.  Each case is
    (tree, discount, functional, disutility, error) with the error that
    discounted_total_distribution, rmd and eud raise, or a dict of them
    by call.  The walk meets errors in pre-order, first child first, and
    expands all of a node's edges before it visits any child."""
    leaf = lambda n: TreeNode(n, ())  # noqa: E731
    seg = MixedDistribution.uniform(0.0, 1.0)

    def fork(first: Edge, second: Edge) -> ScenarioTree:
        return ScenarioTree(2, TreeNode(0, (first, second)))

    huge = TreeNode(1, (Edge(1.0, 1e308, leaf(2)),))
    limit = 1.7976931348623157e308
    doubled = TreeNode(1, (Edge(1.0, seg, leaf(2)),))
    # a node, reached with a segment and a shift of 1e308, whose first edge
    # overflows and whose second carries a second segment
    mixed = TreeNode(2, (Edge(0.5, 1e308, leaf(3)), Edge(0.5, seg, leaf(3))))
    expanded = TreeNode(0, (Edge(1.0, seg, TreeNode(1, (Edge(1.0, 1e308, mixed),))),))

    def drifting(stage: int) -> TreeNode:
        # each node's edges sum to one within 1e-12; a path's product drifts
        if stage == 3:
            return leaf(3)
        return TreeNode(stage, tuple(Edge(0.5 + 4e-13, float(k), drifting(stage + 1)) for k in range(2)))

    two = two_outcome_tree(0.5, 10.0)
    return {
        "overflowing leaf total": (deterministic_tree([1e308, 1e308]), 1.0, Cte(0.5), Linear(), OVERFLOW),
        "overflowing segment": (
            deterministic_tree([seg, 1e308, 1e308]), 1.0, Cte(0.5), Linear(),
            (ValidationError, "UniformSegment endpoints must be finite"),
        ),
        "segment collapsed by a huge shift": (
            deterministic_tree([seg, 1e17]), 1.0, Cte(0.5), Linear(),
            (ValidationError, "UniformSegment requires lo < hi; use PointMass for a single value"),
        ),
        "two segments on one path": (deterministic_tree([seg, seg]), 1.0, Cte(0.5), Linear(), TWO_SEGMENTS),
        "overflow before a later second segment": (
            fork(Edge(0.5, 1e308, huge), Edge(0.5, seg, doubled)), 1.0, Cte(0.5), Linear(), OVERFLOW,
        ),
        "second segment before a later overflow": (
            fork(Edge(0.5, seg, doubled), Edge(0.5, 1e308, huge)), 1.0, Cte(0.5), Linear(), TWO_SEGMENTS,
        ),
        "a node expands every edge first": (ScenarioTree(3, expanded), 1.0, Cte(0.5), Linear(), TWO_SEGMENTS),
        "path weights drift off one": (
            ScenarioTree(3, drifting(0)), 1.0, Cte(0.5), Linear(),
            (ValidationError, "component weights sum to 1.0000000000024; must be 1 within 1e-12"),
        ),
        "too many paths": (two, 1.0, Cte(0.5), Linear(), TOO_MANY_PATHS),
        # two leaves at the float limit merge with weights summing above one
        "merged atom overflows": (
            ScenarioTree(1, TreeNode(0, (Edge(0.5, limit, leaf(1)), Edge(0.5 + 4e-13, limit, leaf(1))))),
            1.0, Cte(0.5), Linear(),
            (EvaluationOverflowError, f"merged atom at {limit!r} overflowed the floating range"),
        ),
        # rmd checks its functional before the law, eud its disutility after
        "bad functional or disutility and bad discount": (
            two, 1.5, "mean", "linear",
            {
                "discounted_total_distribution": BAD_DISCOUNT,
                "rmd": (ValidationError, "unknown risk functional 'mean'"),
                "eud": BAD_DISCOUNT,
            },
        ),
        "bad disutility and bad tree": (
            deterministic_tree([1e308, 1e308]), 1.0, Cte(0.5), "linear", OVERFLOW,
        ),
        "bad disutility": (
            two, 1.0, Cte(0.5), "linear",
            {
                "discounted_total_distribution": None,
                "rmd": None,
                "eud": (ValidationError, "unknown disutility 'linear'"),
            },
        ),
    }


@pytest.mark.parametrize("call", ["discounted_total_distribution", "rmd", "eud"])
@pytest.mark.parametrize("case", list(flat_error_cases()))
def test_flat_law_errors_keep_their_type_message_and_order(monkeypatch, case, call):
    tree, lam, rf, u, error = flat_error_cases()[case]
    if isinstance(error, dict):
        error = error[call]
    if error is TOO_MANY_PATHS:  # under the default budget of 10**7
        monkeypatch.setattr(ScenarioTree, "path_count", lambda self: 10**7 + 1)
    run = {
        "discounted_total_distribution": lambda: discounted_total_distribution(tree, lam),
        "rmd": lambda: rmd(tree, rf, lam),
        "eud": lambda: eud(tree, u, lam),
    }[call]
    if error is None:
        run()
        return
    kind, message = error
    with pytest.raises(kind) as info:
        run()
    assert (type(info.value), str(info.value)) == (kind, message)


def test_a_lone_atom_at_the_float_limit_keeps_its_value():
    # its weight is a little above one, as the weight check allows, so
    # value * weight leaves the floating range
    limit, weight = 1.7976931348623157e308, 1.0 + 4e-13
    law = merge_atoms(MixedDistribution(((weight, PointMass(limit)),)))
    assert law.columns() == ([weight], [limit], [limit])
    tree = ScenarioTree(1, TreeNode(0, (Edge(weight, limit, TreeNode(1, ())),)))
    assert discounted_total_distribution(tree, 1.0).columns() == ([weight], [limit], [limit])
    assert rmd(tree, Cte(0.5), 1.0) == irm_root_value(tree, IrmSpec.repeat(Cte(0.5), 1), 1.0) == limit
    assert eud(tree, PiecewiseLinear(((0.0, 0.0), (limit, 1.0))), 1.0) == weight


def test_flat_law_reproduces_the_pinned_bits():
    """Tie-heavy trees (costs in integers or thirds, probabilities in
    eighths, some paths of probability zero, one segment per path at
    most, two single-path trees): every component of the flat law and
    every rmd and eud value by float.hex, as recorded in
    data/flat_bits.json (see data/make_flat_bits.py)."""
    fixture = json.loads((DATA / "flat_bits.json").read_text())
    disutilities = {
        repr(u): u
        for u in (
            Exponential(0.5),
            Linear(),
            Power(2.0),
            PiecewiseLinear(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0), (5.0, 8.0))),
        )
    }
    assert len(fixture["cases"]) == 14
    for case in fixture["cases"]:
        tree, lam, name = tree_from_json_dict(case["tree"]), case["lambda"], case["name"]
        law = [
            [w.hex(), o.value.hex()] if isinstance(o, PointMass) else [w.hex(), o.lo.hex(), o.hi.hex()]
            for w, o in discounted_total_distribution(tree, lam).components
        ]
        assert law == case["law"], name
        assert list(case["rmd"]) == list(fixture["functionals"])
        for label, want in case["rmd"].items():
            rf = rf_from_json_dict(fixture["functionals"][label])
            assert rmd(tree, rf, lam).hex() == want, (name, label)
        assert list(case["eud"]) == list(disutilities)
        for label, want in case["eud"].items():
            assert eud(tree, disutilities[label], lam).hex() == want, (name, label)


def leaf_bits(leaves) -> list:
    """Atoms and segments from `_flat_leaves`, every number by float.hex."""
    return [[[x.hex() for x in leaf] for leaf in part] for part in leaves]


def test_the_unchecked_flat_walk_gives_the_checked_walks_leaves():
    """Where nothing faults, the walk that adds a last-stage node's leaves
    unchecked and checks them together gives the leaves of the walk that
    checks each one, bit for bit and in the same order: on random trees
    and on the tie-heavy pinned trees, some of whose paths have
    probability zero."""
    rng = random.Random(2401)
    trees = [
        random_tree(rng, max_horizon=4, max_children=3, segment_stage=rng.choice([None, 0, 1, 2, 3]))
        for _ in range(150)
    ]
    trees += [tree_from_json_dict(case["tree"]) for case in json.loads((DATA / "flat_bits.json").read_text())["cases"]]
    for tree in trees:
        for lam in (1.0, 0.9, 0.5, 0.0):
            walk = lambda checked: tree_module._flat_leaves(tree._plan.steps, tree.horizon, lam, checked)  # noqa: E731
            try:
                checked = walk(True)
            except ValidationError:  # a discount of 0 collapses a segment
                assert lam == 0.0 and walk(False) is None
                continue
            assert leaf_bits(walk(False)) == leaf_bits(checked)


def test_a_fault_among_unchecked_leaves_raises_in_walk_order():
    """A last-stage node whose costs are all atoms adds its leaves
    unchecked; a fault among them still raises before one that the walk
    meets later, and after one that it meets first."""
    leaf = lambda: TreeNode(2, ())  # noqa: E731
    seg = MixedDistribution.uniform(0.0, 1.0)
    atoms = mixture([(0.5, 1.0), (0.5, 2.0)])
    # reached with a shift of 1e308, its first leaf leaves the floats
    overflowing = TreeNode(1, (Edge(0.5, mixture([(0.5, 1e308), (0.5, 1.0)]), leaf()), Edge(0.5, atoms, leaf())))
    # reached with a segment, its atoms 1e17 away collapse it
    collapsing = TreeNode(1, (Edge(0.5, 1e17, leaf()), Edge(0.5, atoms, leaf())))
    doubled = TreeNode(1, (Edge(1.0, seg, leaf()),))
    collapsed = (ValidationError, "UniformSegment requires lo < hi; use PointMass for a single value")
    cases = [
        ((0.5, 1e308, overflowing), (0.5, seg, doubled), OVERFLOW),
        ((0.5, seg, doubled), (0.5, 1e308, overflowing), TWO_SEGMENTS),
        ((0.5, seg, collapsing), (0.5, 1e308, overflowing), collapsed),
        ((0.5, 1e308, overflowing), (0.5, seg, collapsing), OVERFLOW),
    ]
    for first, second, (kind, message) in cases:
        tree = ScenarioTree(2, TreeNode(0, (Edge(*first), Edge(*second))))
        assert tree_module._flat_leaves(tree._plan.steps, 2, 1.0, False) is None
        for call in (lambda: discounted_total_distribution(tree, 1.0), lambda: rmd(tree, Cte(0.5), 1.0)):
            with pytest.raises(kind) as info:
                call()
            assert (type(info.value), str(info.value)) == (kind, message)


def test_rmd_and_eud_keep_nothing_on_the_tree():
    """rmd and eud build the flat law on every call and keep nothing: the
    tree's attributes, ==, hash, repr and JSON form are as before, and
    each law discounted_total_distribution returns is a fresh one, so a
    caller that writes into its columns changes no later rmd."""
    tree = random_tree(random.Random(2402), max_horizon=4, max_children=3, segment_stage=2)
    fresh = tree_from_json_dict(tree_to_json_dict(tree))
    before = (sorted(vars(tree)), hash(tree), repr(tree), tree_to_json_dict(tree))
    value = rmd(tree, Cte(0.5), 0.9)
    eud(tree, Exponential(0.5), 0.9)
    assert (sorted(vars(tree)), hash(tree), repr(tree), tree_to_json_dict(tree)) == before
    assert tree == fresh and fresh == tree and hash(fresh) == hash(tree)
    one, two = discounted_total_distribution(tree, 0.9), discounted_total_distribution(tree, 0.9)
    assert one is not two and one.columns() is not two.columns()
    weights, lows, highs = one.columns()
    lows[0] += 100.0
    highs[0] += 100.0
    assert rmd(tree, Cte(0.5), 0.9) == value


def test_rmd_and_eud_read_the_law_of_their_own_discount():
    """On the pinned trees, with the discounts interleaved (a, b, a), every
    rmd and eud value is evaluate or pushforward_mean on a fresh
    discounted_total_distribution, by float.hex."""
    fixture = json.loads((DATA / "flat_bits.json").read_text())
    functionals = [rf_from_json_dict(rf) for rf in fixture["functionals"].values()]
    disutilities = (
        Exponential(0.5),
        Linear(),
        Power(2.0),
        PiecewiseLinear(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0), (5.0, 8.0))),
    )
    for case in fixture["cases"]:
        tree, a = tree_from_json_dict(case["tree"]), case["lambda"]
        for lam in (a, 0.5 if a != 0.5 else 1.0, a):
            law = discounted_total_distribution(tree_from_json_dict(case["tree"]), lam)
            for rf in functionals:
                assert rmd(tree, rf, lam).hex() == evaluate(rf, law).hex(), (case["name"], lam, rf)
            for u in disutilities:
                assert eud(tree, u, lam).hex() == measures.pushforward_mean(u, law).hex(), (case["name"], lam, u)


def test_recursion_reproduces_the_pinned_bits():
    """The same trees under the stagewise recursion: every node value of
    irm_evaluate, in key order and by float.hex, for each functional at
    the discounts 0, 0.5 and 1, as recorded in data/flat_bits.json."""
    fixture = json.loads((DATA / "flat_bits.json").read_text())
    for case in fixture["cases"]:
        tree, name, irm = tree_from_json_dict(case["tree"]), case["name"], case["irm"]
        keys = [tuple(key) for key in irm["keys"]]
        assert [run["lambda"] for run in irm["runs"]] == [0.0, 0.5, 1.0]
        for run in irm["runs"]:
            lam = run["lambda"]
            assert list(run["values"]) == list(fixture["functionals"])
            for label, want in run["values"].items():
                spec = IrmSpec.repeat(rf_from_json_dict(fixture["functionals"][label]), tree.horizon)
                result = irm_evaluate(tree, spec, lam)
                assert list(result.node_values) == keys, (name, lam, label)
                assert [v.hex() for v in result.node_values.values()] == want, (name, lam, label)
                assert irm_root_value(tree, spec, lam).hex() == want[0], (name, lam, label)


def test_every_built_tree_keeps_its_pinned_shape():
    """The repr, JSON form, node and path counts and node-key order of
    every tree the package builds, as recorded in data/tree_bits.json
    (see data/make_tree_bits.py)."""
    fixture = json.loads((DATA / "tree_bits.json").read_text())
    built = make_tree_bits.trees()
    assert [name for name, _ in built] == [case["name"] for case in fixture["cases"]]
    for (name, tree), case in zip(built, fixture["cases"]):
        assert {"name": name, **json.loads(json.dumps(make_tree_bits.record(tree)))} == case, name


def test_flat_tail_expectation_of_installments():
    assert_close(rmd(casebook.installment_tree(), Cte(0.5), 1.0), 1900.0, rel=1e-12)


def test_expected_disutility_of_discounted_total():
    assert_close(eud(casebook.installment_tree(), Linear(), 1.0), 950.0, rel=1e-12)


# ---------------------------------------------------------------------------
# when stagewise and flat evaluation agree
# ---------------------------------------------------------------------------


def test_expectation_recursion_equals_flat_at_any_discount():
    rng = random.Random(31)
    for _ in range(100):
        t = random_tree(rng, segment_stage=rng.randrange(3))
        lam = rng.choice([0.3, 0.7, 1.0])
        rec = irm_root_value(t, IrmSpec.repeat(Expectation(), t.horizon), lam)
        flat = rmd(t, Expectation(), lam)
        assert_close(rec, flat)


def test_entropic_recursion_equals_flat_without_discounting():
    rng = random.Random(32)
    for _ in range(100):
        t = random_tree(rng, segment_stage=rng.randrange(3))
        g = rng.choice([-1.0, -0.3, 0.5, 1.0])
        rec = irm_root_value(t, IrmSpec.repeat(Erm(g), t.horizon), 1.0)
        flat = rmd(t, Erm(g), 1.0)
        assert_close(rec, flat)


def test_entropic_recursion_diverges_from_flat_under_discounting():
    for t in (casebook.one_year_tree(), casebook.two_year_tree()):
        spec = IrmSpec.repeat(Erm(0.001), t.horizon)
        rec = irm_root_value(t, spec, 0.92)
        flat = rmd(t, Erm(0.001), 0.92)
        assert abs(rec - flat) > 1e-6


def test_stage_scaled_entropic_parameters_recover_the_flat_value():
    # shrinking gamma by the accumulated discount restores agreement
    lam, g = 0.92, 0.001
    for t in (casebook.one_year_tree(), casebook.two_year_tree()):
        spec = IrmSpec(tuple(Erm(g * lam**n) for n in range(t.horizon)))
        assert_close(irm_root_value(t, spec, lam), rmd(t, Erm(g), lam), rel=1e-12)


def test_stagewise_tail_expectation_departs_from_the_flat_one():
    t = casebook.highway_tree()
    rec = irm_root_value(t, IrmSpec.repeat(Cte(0.5), 2), 1.0)
    flat = rmd(t, Cte(0.5), 1.0)
    assert_close(rec, 21.0, rel=1e-12)
    assert_close(flat, 18.0, rel=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_tree_json_roundtrip():
    rng = random.Random(33)
    for t in (casebook.installment_tree(), casebook.one_year_tree(),
              random_tree(rng, segment_stage=0)):
        again = tree_from_json_dict(tree_to_json_dict(t))
        assert again == t


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"horizon": 1},
        {"horizon": 1.5, "root": {"children": []}},
        {"horizon": True, "root": {"children": [{"p": 1.0, "cost": 1.0, "node": {"children": []}}]}},
        {"horizon": 1, "root": {}},
        {"horizon": 1, "root": {"children": [{"p": 1.0, "cost": "x", "node": {"children": []}}]}},
        {"horizon": 1, "root": {"children": [{"p": 1.0, "node": {"children": []}}]}},
    ],
)
def test_tree_json_rejects_malformed(payload):
    with pytest.raises(ValidationError):
        tree_from_json_dict(payload)


# ---------------------------------------------------------------------------
# deep trees
# ---------------------------------------------------------------------------


def deep_chain(stages: int):
    """A chain of scalar costs whose last edge carries a point/segment law."""
    last = MixedDistribution(((0.5, PointMass(4.0)), (0.5, UniformSegment(1.0, 3.0))))
    costs = [float(n % 7) for n in range(stages - 1)] + [last]
    return costs, deterministic_tree(costs)


def test_deep_chain_walks_need_no_recursion():
    costs, tree = deep_chain(DEEP_STAGES)
    lam = 0.9999
    head = math.fsum(lam**n * c for n, c in enumerate(costs[:-1]))
    tail = lam ** (DEEP_STAGES - 1)
    spec = IrmSpec.repeat(Cte(0.5), DEEP_STAGES)
    assert_close(irm_root_value(tree, spec, lam), head + tail * cte(0.5, costs[-1]))
    law = discounted_total_distribution(tree, lam)
    assert len(law.components) == 2
    assert_close(mean(law), head + tail * mean(costs[-1]))
    assert tree.path_count() == 1
    assert tree.node_count() == DEEP_STAGES + 1
    # compared edge by edge, independently of TreeNode.__eq__
    node, again = tree_from_json_dict(tree_to_json_dict(tree)).root, []
    while node.edges:
        again.append(node.edges[0].cost)
        node = node.edges[0].child
    assert again == costs


def test_deep_chains_compare_and_hash_without_recursion():
    costs, tree = deep_chain(DEEP_STAGES)
    _, same = deep_chain(DEEP_STAGES)
    assert tree == same
    assert hash(tree) == hash(same)
    other = deterministic_tree(costs[:-1] + [MixedDistribution.point(4.0)])
    assert tree != other
    assert tree.root != other.root


def test_repr_reads_as_the_generated_dataclass_repr():
    law = MixedDistribution(((0.5, PointMass(4.0)), (0.5, UniformSegment(1.0, 3.0))))
    root = TreeNode(0, (Edge(0.5, 1, TreeNode(1, ())), Edge(0.5, law, TreeNode(1, ()))))
    tree = ScenarioTree(horizon=1, root=root)
    assert repr(tree) == (
        "ScenarioTree(horizon=1, root=TreeNode(stage=0, edges=("
        "Edge(probability=0.5, cost=1, child=TreeNode(stage=1, edges=())), "
        "Edge(probability=0.5, cost=MixedDistribution(components=((0.5, PointMass(value=4.0)), "
        "(0.5, UniformSegment(lo=1.0, hi=3.0)))), child=TreeNode(stage=1, edges=())))))"
    )
    chain = deterministic_tree([2.0])
    assert repr(chain.root.edges[0]) == (
        "Edge(probability=1.0, cost=2.0, child=TreeNode(stage=1, edges=()))"
    )
    assert repr(chain.root) == f"TreeNode(stage=0, edges=({chain.root.edges[0]!r},))"


def test_repr_of_a_node_with_a_list_of_edges_reads_as_the_generated_one():
    node = TreeNode(0, [Edge(0.5, 1.0, TreeNode(1, ())), Edge(0.5, 2.0, TreeNode(1, ()))])
    assert repr(node) == (
        "TreeNode(stage=0, edges=[Edge(probability=0.5, cost=1.0, child=TreeNode(stage=1, edges=())), "
        "Edge(probability=0.5, cost=2.0, child=TreeNode(stage=1, edges=()))])"
    )


def test_deep_chain_repr_needs_no_recursion():
    _, tree = deep_chain(DEEP_STAGES)
    text = repr(tree)
    assert text.startswith(
        "ScenarioTree(horizon=10000, root=TreeNode(stage=0, edges=(Edge(probability=1.0, cost=0.0, "
        "child=TreeNode(stage=1, edges=(Edge(probability=1.0, cost=1.0, child="
    )
    assert text.endswith("child=TreeNode(stage=10000, edges=())" + "),))" * DEEP_STAGES + ")")
    assert text.count("TreeNode(") == DEEP_STAGES + 1


def test_nodes_differ_on_stage_or_edge_count_and_defer_to_other_types():
    leaf = TreeNode(stage=1, edges=())
    one = TreeNode(stage=0, edges=(Edge(0.5, 2.0, leaf),))
    two = TreeNode(stage=0, edges=(Edge(0.5, 2.0, leaf), Edge(0.5, 2.0, leaf)))
    assert one == TreeNode(stage=0, edges=(Edge(0.5, 2.0, TreeNode(stage=1, edges=())),))
    assert one != two and two != one
    assert TreeNode(stage=1, edges=()) != TreeNode(stage=2, edges=())
    assert leaf.__eq__("leaf") is NotImplemented
    assert leaf != "leaf"


def test_trees_differ_on_the_class_of_a_nested_node():
    class Marked(TreeNode):
        pass

    def tree(leaf_class):
        return ScenarioTree(1, TreeNode(0, (Edge(1.0, 2.0, leaf_class(1, ())),)))

    plain, marked = tree(TreeNode), tree(Marked)
    assert plain != marked and marked != plain
    assert plain.root != marked.root and marked.root != plain.root
    assert tree(Marked) == marked and hash(tree(Marked)) == hash(marked)


def hand_built(data: dict) -> ScenarioTree:
    """The tree of a JSON form, built node by node from the leaves up off
    an explicit stack, sharing no code with riskdp.tree."""
    order, stack = [], [(data["root"], 0)]
    while stack:
        node, stage = stack.pop()
        order.append((node, stage))
        stack += [(e["node"], stage + 1) for e in node["children"]]
    built = {}
    for node, stage in reversed(order):  # every node after its descendants
        edges = []
        for e in node["children"]:
            cost = MixedDistribution.from_json_dict(e["cost"]) if isinstance(e["cost"], dict) else e["cost"]
            edges.append(Edge(e["p"], cost, built[id(e["node"])]))
        built[id(node)] = TreeNode(stage, tuple(edges))
    return ScenarioTree(data["horizon"], built[id(data["root"])])


def test_a_tree_built_from_a_list_builds_its_root_only_when_read():
    """Every walk reads a listed tree's plan, never its `root`; read, the
    root is built once, without recursion, and the tree then compares,
    hashes and prints as a hand-built twin does."""
    costs, deep = deep_chain(DEEP_STAGES)
    chain = TreeNode(DEEP_STAGES, ())
    for n in range(DEEP_STAGES - 1, -1, -1):
        chain = TreeNode(n, (Edge(1.0, costs[n], chain),))
    payments = casebook.payments_mdp(0.9)
    slots = [(n, s) for n, s in payments.reachable() if n < payments.horizon]
    flat = json.loads((DATA / "flat_bits.json").read_text())["cases"]
    trees = [(deep, ScenarioTree(DEEP_STAGES, chain))]
    trees += [(tree_from_json_dict(case["tree"]), hand_built(case["tree"])) for case in flat[:4]]
    listed = [casebook.installment_tree(), casebook.local_roads_tree(), casebook.one_year_tree()]
    listed += [unroll(payments, {slot: "installments" for slot in slots}), deterministic_tree([1, 2.5, -0.0])]
    trees += [(tree, hand_built(tree_to_json_dict(tree))) for tree in listed]
    for tree, twin in trees:
        spec = IrmSpec.repeat(Cte(0.5), tree.horizon)
        assert list(irm_evaluate(tree, spec, 0.9999).node_values.items())
        irm_root_value(tree, spec, 0.9999)
        discounted_total_distribution(tree, 0.9999)
        rmd(tree, Cte(0.5), 0.9999)
        eud(tree, Linear(), 0.9999)
        tree_to_json_dict(tree)
        assert (tree.node_count(), tree.path_count()) == (twin.node_count(), twin.path_count())
        assert "root" not in vars(tree)
        assert tree.root is tree.root and "root" in vars(tree)
        assert tree == twin and twin == tree
        assert hash(tree) == hash(twin)
        assert repr(tree) == repr(twin)


def bumped(data: dict) -> dict:
    """A copy of a tree's JSON form whose root's first edge costs one
    more."""
    data = json.loads(json.dumps(data))
    edge = data["root"]["children"][0]
    if isinstance(edge["cost"], dict):
        edge["cost"] = affine_transform(MixedDistribution.from_json_dict(edge["cost"]), 1.0, 1.0).to_json_dict()
    else:
        edge["cost"] += 1.0
    return data


def test_trees_compare_and_hash_alike_before_and_after_their_roots_are_built():
    """Two trees read from JSON, whose roots are built when first
    compared or hashed, give the answers their graphs give: against each
    other, against a hand-built twin, and once their roots are read."""
    for name, tree in make_tree_bits.trees():
        data = tree_to_json_dict(tree)
        one, two, other = tree_from_json_dict(data), tree_from_json_dict(data), tree_from_json_dict(bumped(data))
        assert one == two and two == one and hash(one) == hash(two), name
        assert one != other and other != one, name
        twin = hand_built(data)
        assert hash(twin) == hash(one), name
        assert twin == one and one == twin and twin != other, name
        assert one == two and two == one and hash(one) == hash(two), name
        assert one != other and other != one, name


def test_large_trees_read_from_json_compare_and_hash_without_their_roots():
    """Two 9,841-node trees (depth 8, three branches) read from JSON
    compare and hash alike, their roots built without recursion."""

    def node(stage: int) -> dict:
        if stage == 8:
            return {"children": []}
        return {"children": [{"p": p, "cost": float(stage + k), "node": node(stage + 1)} for k, p in enumerate((0.5, 0.25, 0.25))]}

    data = {"horizon": 8, "root": node(0)}
    one, two = tree_from_json_dict(data), tree_from_json_dict(data)
    assert one.node_count() == 9841
    assert one == two and hash(one) == hash(two)


def test_trees_equal_after_a_list_edge_is_rewritten_hash_alike():
    """A node may hold its edges in a list, which stays writable after the
    tree is built; two trees that then compare equal hash alike."""

    def one_stage(cost: float) -> ScenarioTree:
        return ScenarioTree(1, TreeNode(0, [Edge(1.0, cost, TreeNode(1, []))]))

    a, b = one_stage(1.0), one_stage(2.0)
    a.root.edges[0] = Edge(1.0, 2.0, TreeNode(1, []))
    assert a == b
    assert hash(a) == hash(b)


def built_by_hand(data: dict, edges: type) -> ScenarioTree:
    """`hand_built`, with each node's edges held in edges (list or tuple)."""
    tree = hand_built(data)

    def rebuilt(node: TreeNode) -> TreeNode:
        return TreeNode(node.stage, edges(Edge(e.probability, e.cost, rebuilt(e.child)) for e in node.edges))

    return ScenarioTree(tree.horizon, rebuilt(tree.root))


def listed(data: dict) -> ScenarioTree:
    """The tree of a JSON form, handed to the compiler as its pre-order
    list of (stage, [(probability, cost) per edge])."""
    nodes, stack = [], [(data["root"], 0)]
    while stack:
        node, stage = stack.pop()
        costs = [MixedDistribution.from_json_dict(e["cost"]) if isinstance(e["cost"], dict) else e["cost"] for e in node["children"]]
        nodes.append((stage, [(e["p"], c) for e, c in zip(node["children"], costs)]))
        stack += [(e["node"], stage + 1) for e in reversed(node["children"])]
    return tree_module._tree(data["horizon"], nodes)


def twin_laws(rng: random.Random) -> list:
    """Laws of the same components built every public way: the
    constructor, `of_atoms` (when every component is an atom), `mix` with
    one part, and the JSON reader, each twice over."""
    parts = []
    for _ in range(rng.randint(1, 5)):
        lo = float(rng.randint(-4, 4))
        parts.append(lo if rng.random() < 0.7 else (lo, lo + rng.choice((0.5, 1.0, 3.0))))
    cuts = sorted(rng.randint(0, 16) for _ in range(len(parts) - 1))
    weights = [(b - a) / 16.0 for a, b in zip([0, *cuts], [*cuts, 16])]
    law = mixture(list(zip(weights, parts)))
    laws = [law, mixture(list(zip(weights, parts))), MixedDistribution.mix([(1.0, law)])]
    laws.append(MixedDistribution.from_json_dict(json.loads(json.dumps(law.to_json_dict()))))
    if not any(isinstance(p, tuple) for p in parts):
        laws.append(MixedDistribution.of_atoms(list(zip(weights, parts))))
    return laws


def twin_functionals(rng: random.Random) -> list:
    """A risk functional built directly and read back from its JSON form,
    with its numbers given as floats and, where they are whole, as ints."""
    alpha = rng.choice((0, 0.5, 0.9, rng.random()))
    gamma = rng.choice((-2, 1, rng.uniform(-3.0, 3.0)))
    rf = rng.choice(
        [
            Expectation(),
            Erm(gamma),
            ValueAtRisk(alpha),
            Cte(alpha),
            Composite(((0.25, Cte(alpha)), (0.75, Erm(gamma)))),
        ]
    )
    return [rf, rf_from_json_dict(json.loads(json.dumps(measures.rf_to_json_dict(rf)))), dataclasses.replace(rf)]


def twin_disutilities(rng: random.Random) -> list:
    """A disutility built with its numbers as ints and as floats, its
    knots as lists and as tuples."""
    k = rng.choice((1, 2, 3))
    choice = rng.randrange(4)
    if choice == 0:
        return [Exponential(k), Exponential(float(k))]
    if choice == 1:
        return [Linear(), Linear()]
    if choice == 2:
        return [Power(k), Power(float(k))]
    knots = [[-1, -1], [0, 0], [k, 2 * k]]
    return [PiecewiseLinear(knots), PiecewiseLinear(tuple((float(c), float(u)) for c, u in knots))]


def assert_equal_and_hash_alike(twins: list, name: str) -> None:
    for a in twins:
        for b in twins:
            assert a == b, name
            assert hash(a) == hash(b), name


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_equal_values_hash_alike(seed):
    """Twins of every public value type, built each public way, compare
    equal and hash alike: trees (hand-built with list and with tuple
    edges, listed, read from JSON, root read and unread), their nodes and
    edges, laws, specs, risk functionals and disutilities."""
    rng = random.Random(seed)
    data = tree_to_json_dict(random_tree(rng, segment_stage=rng.randrange(3)))
    read = tree_from_json_dict(data)
    assert read.root is not None
    trees = [
        built_by_hand(data, list),
        built_by_hand(data, tuple),
        listed(data),
        tree_from_json_dict(data),
        read,
    ]
    assert_equal_and_hash_alike(trees, "trees")
    assert_equal_and_hash_alike([t.root for t in trees], "nodes")
    assert_equal_and_hash_alike([t.root.edges[-1] for t in trees], "edges")
    assert_equal_and_hash_alike(twin_laws(rng), "laws")
    rfs = twin_functionals(rng)
    assert_equal_and_hash_alike(rfs, "functionals")
    horizon = rng.randint(1, 4)
    specs = [IrmSpec.repeat(rfs[0], horizon), IrmSpec([rfs[1]] * horizon), IrmSpec(tuple(rfs[2:]) * horizon)]
    assert_equal_and_hash_alike(specs, "specs")
    assert_equal_and_hash_alike(twin_disutilities(rng), "disutilities")


def test_deep_chain_records_every_node_value():
    costs, tree = deep_chain(DEEP_STAGES)
    spec = IrmSpec.repeat(Cte(0.5), DEEP_STAGES)
    result = irm_evaluate(tree, spec, 0.9999)
    assert len(result.node_values) == DEEP_STAGES + 1
    assert result.root_value == irm_root_value(tree, spec, 0.9999)
    assert result.node_values[(0,) * DEEP_STAGES] == 0.0
    assert result.node_values[(0,) * (DEEP_STAGES - 1)] == cte(0.5, costs[-1])
    assert (0,) * (DEEP_STAGES + 1) not in result.node_values


def test_the_node_table_needs_no_more_memory_than_the_root_value():
    """The node values of a deep chain are kept as the recursion leaves
    them, one float per node, and keyed only when read: irm_evaluate
    peaks within twice what irm_root_value does."""
    _, tree = deep_chain(DEEP_STAGES)
    spec = IrmSpec.repeat(Cte(0.5), DEEP_STAGES)

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run(tree, spec, 0.9999)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    root, table = peak(irm_root_value), peak(irm_evaluate)
    assert table <= 2 * root, (table, root)


def restaged(node: TreeNode, shift: int) -> TreeNode:
    edges = tuple(Edge(e.probability, e.cost, restaged(e.child, shift)) for e in node.edges)
    return TreeNode(node.stage - shift, edges)


def table_the_old_way(tree: ScenarioTree, spec: IrmSpec, lam: float) -> dict:
    """The node values as irm_evaluate once built them, a dict of every
    child-index path, root first, then each node's subtrees last child
    first; here each value is the root value of the node's subtree."""
    table, stack = {}, [(tree.root, ())]
    while stack:
        node, key = stack.pop()
        if node.edges:
            sub = ScenarioTree(tree.horizon - node.stage, restaged(node, node.stage))
            table[key] = irm_root_value(sub, IrmSpec(spec.stages[node.stage:]), lam)
        else:
            table[key] = 0.0
        stack.extend((e.child, key + (i,)) for i, e in enumerate(node.edges))
    return table


def test_the_node_table_reads_as_the_dict_it_replaces():
    rng = random.Random(407)
    trees = [
        random_tree(rng, max_horizon=6, max_children=2, segment_stage=rng.randrange(6)) for _ in range(40)
    ]
    trees += [deep_chain(50)[1], casebook.installment_tree(), casebook.highway_tree()]
    one_edge = 0
    for tree in trees:
        spec = IrmSpec.repeat(Composite(((0.5, Expectation()), (0.5, Cte(0.6)))), tree.horizon)
        got = irm_evaluate(tree, spec, 0.9).node_values
        want = table_the_old_way(tree, spec, 0.9)
        assert list(got) == list(want)
        assert got == want and want == got
        assert not (got != want or want != got)
        assert list(got.items()) == list(want.items())
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        assert len(got) == len(want) == tree.node_count()
        assert repr(got) == repr(want)
        for key, value in want.items():
            assert key in got and got[key] == value and got.get(key) == value
        missing = []
        for key in want:  # past a leaf, past each node's last edge, and below zero
            missing += [key + (len(tree_node(tree, key).edges),), key + (-1,)]
        missing += [(0.5,), "0", 0, None, (0,) * (tree.horizon + 1)]
        for key in missing:
            assert key not in got and got.get(key) is None, key
            with pytest.raises(KeyError):
                got[key]
        with pytest.raises(TypeError):
            got[[0]]
        with pytest.raises(TypeError):
            got[()] = 1.0
        changed = {**want, (): want[()] + 1.0}
        assert got != changed and changed != got
        one_edge += sum(1 for _, edges, law in tree._plan.steps if edges and law is None)
    assert one_edge > 40


def tree_node(tree: ScenarioTree, key: tuple) -> TreeNode:
    node = tree.root
    for i in key:
        node = node.edges[i].child
    return node


def test_runs_keep_their_edge_probabilities():
    """A chain of single scalar edges compiles to one plan step per node;
    its probabilities, which need only lie within 1e-12 of one, reach the
    JSON form and the flat law as they would node by node."""
    near = 1.0 - 2.0**-45
    leaf = TreeNode(3, ())
    chain = TreeNode(1, (Edge(near, 2.0, TreeNode(2, (Edge(1.0, 3.0, leaf),))),))
    tree = ScenarioTree(3, TreeNode(0, (Edge(near, 1.0, chain),)))
    assert [len(edges) for _, edges, law in tree._plan.steps if edges and law is None] == [1, 1, 1]
    again = tree_from_json_dict(json.loads(json.dumps(tree_to_json_dict(tree))))
    assert again == tree
    assert tree_node(again, (0,)).edges[0].probability == near
    law = discounted_total_distribution(tree, 0.5)
    assert law.components == ((near * near, PointMass(1.0 + 0.5 * 2.0 + 0.25 * 3.0)),)
