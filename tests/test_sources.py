"""Static rules on the package's source."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "riskdp"

# Python 3.12 compensates the builtin sum of floats and earlier versions do
# not, so a sum whose bits reach a value must be math.fsum or a loop.  The
# builtin may only gate finiteness (a float sum is finite only when every
# term is), count, or locate a crossing that is checked afterwards.
# (module, function) -> the number of references to the builtin sum there.
SUM_ALLOWED = {
    ("cli", "lemma1"): 1,  # a count
    ("distributions", "check_weights"): 1,  # a finiteness gate
    ("distributions", "merge_columns"): 1,  # a finiteness gate
    ("mdp", "_outcome_columns"): 2,  # finiteness gates
    ("measures", "_locate"): 1,  # locates only; `_scan` decides
    ("measures", "_check_atoms"): 1,  # a finiteness gate
    ("measures", "pushforward_mean"): 1,  # a finiteness gate
    ("tree", "_compile"): 1,  # a count
    ("tree", "_flat_leaves"): 3,  # finiteness gates
}


def _builtin_sums(tree: ast.AST) -> Counter:
    """The references to the name sum per enclosing function, named by its
    dotted path of classes and functions ('' at module level)."""
    found: Counter = Counter()
    stack = [(tree, "")]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, f"{where}.{child.name}" if where else child.name))
                continue
            if isinstance(child, ast.Name) and child.id == "sum":
                found[where] += 1
            stack.append((child, where))
    return found


def test_the_builtin_sum_is_used_only_where_its_bits_do_not_matter():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, n in _builtin_sums(tree).items():
            found[(path.stem, where)] = n
    assert found == SUM_ALLOWED

