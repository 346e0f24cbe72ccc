"""Spans around the package's stage functions, for the traced run only.

The tracer replaces each stage function in the modules that call it, keeps
one span per call in memory (operation id, layer, start, end, parent) and
restores the originals on ``uninstall``.  A layer's self time is the time
of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path

# Stage function -> layer.  ``theta`` is split into theta.g and theta.gprime
# by lineage: a call on a graph that the compile stage produced is ϑ(G').
LAYER_OF = {
    "parse_graph": "serialize",
    "record_to_jsonable": "serialize",
    "dumps_canonical": "serialize",
    "expand_weighted": "graphs.expand",
    "build_two_point_graph": "graphs.compile",
    "independence_number": "independence",
    "theta": "theta",
    "extract_ortho_rep": "orthorep.extract",
    "verify_ortho_rep": "orthorep.verify",
    "joint_probs_projective": "simulate.exact",
    "joint_probs_demolition": "simulate.exact",
    "run_experiment": "simulate.montecarlo",
    "epsilon_signaling": "simulate.epsilon",
    "epsilon_prime": "simulate.epsilon",
    "certify": "certify",
    "main": "cli",
}

# Where each stage function is looked up when it is called.  certify.py and
# cli.py import the stages; the ε tables are also built inside
# serialize.record_to_jsonable, and the exact kernels inside
# simulate.run_experiment.  ``twopoint.certify`` names the function (the
# package re-exports it), hence sys.modules.
PATCH_SITES = {
    "twopoint.certify": (
        "expand_weighted", "independence_number", "theta", "build_two_point_graph",
        "extract_ortho_rep", "verify_ortho_rep", "joint_probs_projective",
        "run_experiment", "epsilon_signaling", "epsilon_prime",
        "record_to_jsonable", "dumps_canonical",
    ),
    "twopoint.cli": (
        "certify", "build_two_point_graph", "extract_ortho_rep", "verify_ortho_rep",
        "independence_number", "theta", "run_experiment", "epsilon_signaling",
        "epsilon_prime", "record_to_jsonable", "dumps_canonical", "parse_graph",
    ),
    "twopoint.serialize": ("epsilon_signaling", "epsilon_prime"),
    "twopoint.simulate": ("joint_probs_projective", "joint_probs_demolition"),
}

BUSY_LAYERS = (
    "theta.g", "theta.gprime", "independence", "graphs.compile", "graphs.expand",
    "orthorep.extract", "orthorep.verify", "simulate.exact", "simulate.montecarlo",
    "simulate.epsilon", "serialize",
)
SHARE_GROUPS = (
    "theta.g", "theta.gprime", "independence", "graphs", "orthorep", "simulate",
    "serialize", "certify", "cli",
)
COUNTS = (
    "theta.calls", "theta.iterations", "theta.m_max", "theta.unconverged",
    "independence.calls", "independence.nodes", "graphs.compile.label_pairs",
    "graphs.gprime_edges", "simulate.contexts", "simulate.epsilon.entries",
    "serialize.bytes",
)

# span fields
OP, LAYER, START, END, PARENT, INFO = range(6)


def _counts(layer: str, args, result, info: dict) -> None:
    if layer.startswith("theta."):
        info["theta.iterations"] = result.iterations
        info["theta.m"] = 1 + len(args[0].edges)
        info["theta.unconverged"] = int(result.status.value != "converged")
    elif layer == "independence":
        info["independence.nodes"] = result.node_count
    elif layer == "graphs.compile":
        info["graphs.compile.label_pairs"] = result.n * (result.n - 1) // 2
        info["graphs.gprime_edges"] = len(result.edges)
    elif layer == "simulate.montecarlo":
        info["simulate.contexts"] = len(result.pair_counts)
    elif layer == "simulate.epsilon":
        info["simulate.epsilon.entries"] = len(result)
    elif layer == "serialize" and isinstance(result, str):
        info["serialize.bytes"] = len(result.encode("utf-8"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trace_alloc = False  # tracemalloc inside ϑ calls
        self.stack: list[int] = []
        self.op = -1
        self.compiled: list = []  # edge tuples of this operation's G'
        self.saved: list = []
        self.wrappers: dict = {}

    def wrap(self, fn, name: str):
        if fn in self.wrappers:
            return self.wrappers[fn]
        layer = LAYER_OF[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_layer = layer
            if layer == "theta":
                edges = args[0].edges
                gprime = any(edges is e for e in self.compiled)
                span_layer = "theta.gprime" if gprime else "theta.g"
            info: dict = {}
            span = [self.op, span_layer, 0.0, 0.0, self.stack[-1] if self.stack else None, info]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            alloc = layer == "theta" and self.trace_alloc
            if alloc:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
                if alloc:
                    info["theta.peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if layer == "graphs.compile":
                self.compiled.append(result.edges)
            _counts(span_layer, args, result, info)
            return result

        self.wrappers[fn] = traced
        return traced

    def install(self) -> None:
        for modname, names in PATCH_SITES.items():
            mod = sys.modules[modname]
            for name in names:
                original = getattr(mod, name)
                self.saved.append((mod, name, original))
                setattr(mod, name, self.wrap(original, name))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self.saved):
            setattr(mod, name, original)
        self.saved.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.compiled = []

    def run_op(self, fn, *args):
        """Run one operation under a root span of layer ``op``."""
        span = [self.op, "op", time.perf_counter(), 0.0, None, {}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()

    def take(self) -> list[list]:
        """The spans recorded so far; recording starts afresh."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: Path, phases: dict[str, list[list]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for phase, spans in phases.items():
            for op, layer, start, end, parent, info in spans:
                f.write(json.dumps({"phase": phase, "op": op, "layer": layer, "start": start,
                                    "end": end, "parent": parent, **info}) + "\n")


def layer_metrics(timed: list[list], counted: list[list]) -> dict[str, tuple[float, str]]:
    """Per-operation busy time and share of each layer, and exact counts.

    Times are self times averaged over the operations of ``timed``, traced
    without allocation tracking.  Counts and the ϑ allocation peak come
    from ``counted``, one cycle of the seed's inputs, so counts
    repeat exactly.
    """
    child_time = [0.0] * len(timed)
    for span in timed:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    self_time: dict[str, float] = {}
    total = 0.0
    ops = set()
    for idx, span in enumerate(timed):
        duration = span[END] - span[START]
        layer = span[LAYER]
        self_time[layer] = self_time.get(layer, 0.0) + duration - child_time[idx]
        if layer == "op":
            total += duration
            ops.add(span[OP])
    n_ops = max(1, len(ops))
    out: dict[str, tuple[float, str]] = {}
    for layer in BUSY_LAYERS:
        out[f"{layer}.busy_s"] = (self_time.get(layer, 0.0) / n_ops, "s")
    out["certify.self_s"] = (self_time.get("certify", 0.0) / n_ops, "s")
    out["cli.self_s"] = (self_time.get("cli", 0.0) / n_ops, "s")
    for group in SHARE_GROUPS:
        busy = sum(t for layer, t in self_time.items()
                   if layer == group or layer.startswith(group + "."))
        out[f"share.{group}"] = (busy / total if total else 0.0, "fraction")

    counts = dict.fromkeys(COUNTS, 0)
    peak = 0
    for span in counted:
        info = span[INFO]
        peak = max(peak, info.get("theta.peak_alloc", 0))
        for key, value in info.items():
            if key in counts:
                counts[key] += value
        if span[LAYER].startswith("theta."):
            counts["theta.calls"] += 1
            counts["theta.m_max"] = max(counts["theta.m_max"], info["theta.m"])
        elif span[LAYER] == "independence":
            counts["independence.calls"] += 1
    for key, value in counts.items():
        out[key] = (value, "count")
    out["theta.peak_alloc_mib"] = (peak / 2**20, "MiB")
    return out
