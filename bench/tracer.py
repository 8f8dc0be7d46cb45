"""Spans around the calls into each riskdp layer, for the traced run.

The tracer replaces public functions with timing wrappers wherever a
riskdp module holds them as a global (``riskdp.tree.evaluate``,
``riskdp.mdp.evaluate`` and so on), plus the ``MixedDistribution.point``
classmethod.  Spans are kept in memory as totals.  A layer's self time is
the time during which its span is the innermost open one.  Nothing is
wrapped unless ``install`` is called, and ``uninstall`` puts every
original back.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from statistics import median

# (layer, function) pairs wrapped at every module-global reference
FUNCTIONS = (
    ("measures", "evaluate"),
    ("measures", "value_at_risk"),
    ("measures", "cte"),
    ("measures", "mean"),
    ("measures", "erm"),
    ("measures", "pushforward_mean"),
    ("distributions", "affine_transform"),
    ("distributions", "merge_atoms"),
    ("tree", "irm_root_value"),
    ("tree", "irm_evaluate"),
    ("tree", "discounted_total_distribution"),
    ("tree", "rmd"),
    ("tree", "eud"),
    ("tree", "tree_to_json_dict"),
    ("tree", "tree_from_json_dict"),
    ("casebook", "preference_region"),
    ("mdp", "mdp_from_json_dict"),
    ("mdp", "solve_dp"),
    ("mdp", "evaluate_policy"),
    ("mdp", "tail_mdp"),
)
# laws entering the measures layer from outside are sized here
SIZED = {"measures.evaluate", "measures.pushforward_mean", "measures.value_at_risk", "measures.cte"}
# an evaluate call made straight from these is one tree node visited
IRM = {"tree.irm_root_value", "tree.irm_evaluate"}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.sizes: list = []
        self._stack: list = []
        self._depth: Counter = Counter()
        self._last = 0.0
        self._patched: list = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def span(*args, **kwargs):
            now = clock()
            outer, caller = stack[-1] if stack else (None, None)
            if outer is not None:
                self.self_s[outer] += now - self._last
            self.calls[key] += 1
            if key in SIZED and outer != "measures":
                self.sizes.append(len(args[-1].components))
            if key == "measures.evaluate":
                if caller in IRM:
                    self.counts["tree.nodes_visited"] += 1
                elif outer == "mdp":
                    self.counts["mdp.cells"] += 1
            stack.append((layer, key))
            depth[key] += 1
            self._last = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                self.self_s[layer] += now - self._last
                stack.pop()
                depth[key] -= 1
                if not depth[key]:
                    self.incl[key] += now - start
                self._last = now
            if key == "tree.discounted_total_distribution":
                self.counts["tree.flat_law_components"] += len(result.components)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        from riskdp.distributions import MixedDistribution

        modules = [m for name, m in sys.modules.items() if name == "riskdp" or name.startswith("riskdp.")]
        for layer, name in FUNCTIONS:
            original = getattr(sys.modules[f"riskdp.{layer}"], name)
            span = self._wrap(layer, f"{layer}.{name}", original)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, span)
        point = MixedDistribution.__dict__["point"]
        self._patched.append((MixedDistribution, "point", point))
        MixedDistribution.point = classmethod(self._wrap("distributions", "distributions.point", point.__func__))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def reset_stack(self) -> None:
        """Drop spans left open by an operation that blew the stack."""
        self._stack.clear()
        self._depth.clear()

    # -- report --------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-round totals for the per-layer metric names."""
        out = {}
        for layer, name in FUNCTIONS + (("distributions", "point"),):
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = self.calls[key] / rounds
            out[f"{key}.s"] = self.incl[key] / rounds
        for layer in ("distributions", "measures", "tree", "casebook", "mdp"):
            out[f"{layer}.self_s"] = self.self_s[layer] / rounds
        for key in ("tree.nodes_visited", "mdp.cells", "tree.flat_law_components"):
            out[key] = self.counts[key] / rounds
        out["measures.support_p50"] = median(self.sizes) if self.sizes else 0
        out["measures.support_max"] = max(self.sizes, default=0)
        return out
