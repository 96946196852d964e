"""Spans around the benchmark's calls into rewb's layers.

Workloads call every layer function through ``tracer.call(name, fn, ...)``.
``NullTracer`` makes that a plain call, so the untraced run that yields the
end-to-end metrics pays one extra Python call per layer call and nothing
else. ``Tracer`` records a span per call (name, start, end, parent span,
operation id, whether it raised) in memory; the run writes them out when
it ends and reduces them to the per-layer metrics below.

Spans sit in the benchmark's own code, around calls into the library, so an
engine span includes that engine's internal compile. The workloads time
``alpha_rename``/``register_nfa``/``hier_automaton`` separately (their
``probe`` step) to estimate the compile share.
"""

from __future__ import annotations

import time

# Each timed layer function: the end-to-end metric it should move, and the
# workloads that exercise it (in parentheses: workloads that bypass it).
LAYERS = {
    "syntax.parse_expr": ("setup_s", "decide: pcp deltas (rpq: short queries)"),
    "syntax.print_expr": ("setup_s", "decide: pcp deltas (rpq)"),
    "syntax.parse_graph": ("setup_s", "rpq (decide)"),
    "expr.alpha_rename": ("setup_s, op_p50_ms", "decide; rpq inside eval_stratified"),
    "expr.classify": ("setup_s, op_p50_ms", "decide; rpq inside eval_stratified"),
    "expr.free_vars": ("setup_s, op_p50_ms", "decide: every member_any call; rpq inside eval_stratified"),
    "automata.register_nfa": ("setup_s; op_p50_ms", "decide: pcp deltas in set-up, a gadget per operation; rpq"),
    "automata.hier_automaton": ("op_p50_ms", "rpq: eval_stratified operations (decide)"),
    "evaluate.eval_flat": ("ops_per_s, op_tail_ms", "rpq (decide)"),
    "evaluate.eval_stratified": ("ops_per_s, op_p50_ms", "rpq (decide)"),
    "evaluate.connected": ("op_p50_ms, op_tail_ms", "decide (rpq)"),
    "evaluate.witness_path": ("op_p50_ms", "decide (rpq)"),
    "evaluate.member_any": ("ops_per_s, op_p50_ms, op_tail_ms", "decide (rpq)"),
    "gadgets.sat_reduction": ("op_p50_ms (small share)", "decide (rpq)"),
    "gadgets.wqsat_reduction": ("op_p50_ms (small share)", "decide (rpq)"),
    "pcp.pcp_delta": ("setup_s", "decide (rpq)"),
}

# Sizes noted once per distinct input; shares are averaged, the rest summed.
SIZES = (
    "expr.size.nodes",
    "automata.register_nfa.states",
    "automata.register_nfa.transitions",
    "automata.hier_automaton.states",
    "evaluate.result.pairs",
    "evaluate.witness_path.edges",
    "evaluate.connected.true_share",
    "gadgets.graph.nodes",
)

OVERHEAD = "trace.overhead_ratio"


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.ms", "ms"), (f"{layer}.calls", "count"), (f"{layer}.errors", "count")]
    out += [(name, "ratio" if name.endswith("share") else "count") for name in SIZES]
    out.append((OVERHEAD, "ratio"))
    return out


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def note(self, metric, key, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, raised]
        self._stack = []
        self.op = None
        self._sizes = {name: {} for name in SIZES}

    def call(self, name, fn, *args):
        if name not in LAYERS:
            raise KeyError(f"untracked layer {name!r}")
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def note(self, metric, key, value):
        """Record a size of one distinct input; repeats of ``key`` are ignored."""
        self._sizes[metric].setdefault(key, value)

    def layer_metrics(self):
        totals = {layer: [0.0, 0, 0] for layer in LAYERS}
        for name, start, end, _parent, _op, raised in self.spans:
            entry = totals[name]
            entry[0] += end - start
            entry[1] += 1
            entry[2] += raised
        out = {}
        for layer, (busy, calls, errors) in totals.items():
            out[f"{layer}.ms"] = busy * 1000.0
            out[f"{layer}.calls"] = calls
            out[f"{layer}.errors"] = errors
        for name, values in self._sizes.items():
            if name.endswith("share"):
                out[name] = sum(values.values()) / len(values) if values else 0.0
            else:
                out[name] = sum(values.values())
        return out
