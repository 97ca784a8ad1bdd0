"""In-memory span tracer for the ddpnkit layers, installed from outside src/.

The tracer wraps every public function of the layer modules and rebinds the
wrapper wherever the original is reachable as a module attribute, including
names imported with ``from x import y`` (``network.ddpn_beta_nll``,
``ensemble.load_checkpoint``, ``moments.dp_log_weight`` and so on). Each
call records one span (name, start, end, parent span). Spans stay in memory
until ``summary()`` folds them into per-name totals at process exit.

Self time of a span is its duration minus the durations of its direct
children. The total time of a name counts only its outermost spans, so a
recursive call such as ``pmf_vector`` on a mixture is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("datagen", "network", "losses", "distributions", "metrics", "ensemble", "ood",
          "moments")

# Functions a layer imports by name from outside the package whose cost the
# benchmark attributes to that layer.
FOREIGN = {"distributions": ("logsumexp",)}


def _pmf_vector_hook(counters, args, kwargs, result):
    counters["distributions.pmf_terms"] += result.size
    trunc = args[1] if len(args) > 1 else kwargs.get("trunc")
    if trunc is None:
        trunc = sys.modules["ddpnkit.distributions"].DEFAULT_TRUNCATION
    if result.size >= trunc.hard_cap:
        counters["distributions.pmf_cap_hits"] += 1


def _mdf_epsilon_hook(counters, args, kwargs, result):
    n_terms = args[2] if len(args) > 2 else kwargs.get(
        "n_terms", sys.modules["ddpnkit.moments"].DEFAULT_N_TERMS)
    counters["moments.terms"] += n_terms


def _render_checkpoint_hook(counters, args, kwargs, result):
    counters["network.ckpt_bytes"] += len(result.encode())


def _backward_hook(counters, args, kwargs, result):
    # forward, weight gradients and input gradients: 3 matmuls of 2*B*in*out
    weights, X = args[0], args[1]
    n_weights = sum(W.size for W, _ in weights.hidden) + weights.head_w.size
    counters["network.backward_flops"] += 6.0 * len(X) * n_weights


HOOKS = {
    "distributions.pmf_vector": _pmf_vector_hook,
    "moments.mdf_epsilon": _mdf_epsilon_hook,
    "network.render_checkpoint": _render_checkpoint_hook,
    "network.backward": _backward_hook,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent span index or -1, outermost)
        self.counters = defaultdict(float)
        self._stack = []
        self._depth = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        hook = HOOKS.get(name)
        spans, stack, depth, counters = self.spans, self._stack, self._depth, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outer = depth[nid] == 0
            depth[nid] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[nid] -= 1
                stack.pop()
                spans[idx] = (nid, start, end, parent, outer)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions and rebind them in every ddpnkit module."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"ddpnkit.{layer}"]
            for attr, value in list(vars(module).items()):
                own = inspect.isfunction(value) and value.__module__ == module.__name__
                if (own and not attr.startswith("_")) or attr in FOREIGN.get(layer, ()):
                    if id(value) not in replacements:
                        replacements[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "ddpnkit" and not modname.startswith("ddpnkit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def summary(self):
        """Per-name calls, outermost calls, total and self seconds, durations."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, _, outer = span
            rec = out.setdefault(self.names[nid], {
                "calls": 0, "outer_calls": 0, "s": 0.0, "self_s": 0.0, "durations_s": []})
            duration = end - start
            rec["calls"] += 1
            rec["self_s"] += duration - child[i]
            rec["durations_s"].append(duration)
            if outer:
                rec["outer_calls"] += 1
                rec["s"] += duration
        return out

