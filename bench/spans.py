"""Spans around the benchmark's own calls into walgebra, and the per-layer
metrics derived from them.

A span is named ``<layer>.<function>`` after the public walgebra function it
wraps (``wbracket.bracket_table[k=1]`` distinguishes the level).  Spans are
kept in memory and returned with the repetition's result; grouping spans
(``replay.shape`` and the like) have no layer prefix and only parent the
calls made inside them.  Counters record work done at the same boundaries.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

# Modules with no public boundary that the workloads call from outside: they
# run only inside the layers above and are not measured on their own.
NOT_MEASURED = ("linalg", "coeffs", "cli", "errors")

# per-layer metric -> span names whose durations it sums
LAYER_TIMES = {
    "liestruct.setup_s": ("liestruct.build_algebra", "liestruct.centralizer"),
    "wbracket.table_symbolic_s": ("wbracket.bracket_table[symbolic]",),
    "wbracket.table_k1_s": ("wbracket.bracket_table[k=1]",),
    "wbracket.conformal_s": ("wbracket.conformal_check",),
    "pvacore.skew_s": ("pvacore.check_skew",),
    "pvacore.jacobi_s": ("pvacore.check_jacobi",),
    "weakgen.scripted_s": ("weakgen.scripted_verify",),
    "weakgen.closure_s": ("weakgen.closure_search",),
    "dsreduction.rctx_s": ("dsreduction.ReductionCtx", "dsreduction.affine_table"),
    "dsreduction.reconcile_s": ("dsreduction.reconcile",),
}
SERIALIZE_PREFIX = "serialize."

# per-call latency percentiles: metric prefix -> span name
LAYER_LATENCIES = {
    "pvacore.jacobi": "pvacore.check_jacobi",
    "weakgen.closure": "weakgen.closure_search",
}

# counters reported as they are, summed over the repetition
LAYER_COUNTS = (
    "pvacore.violations",
    "weakgen.identities",
    "weakgen.failed_identities",
    "weakgen.products_tried",
    "dsreduction.variables",
    "dsreduction.deferred",
    "dsreduction.failed",
)


class Tracer:
    """Records spans when enabled; counters are kept either way.  ``clock``
    times the spans and the workloads' per-unit latencies."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._open: list = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx)

    def count(self, name: str, value) -> None:
        self.counts[name] += value


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def percentile(values: list, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(spans: list, counts: dict, overhead_s: float) -> dict:
    """Per-layer metrics of one traced repetition, as name -> (value, unit).

    A layer the workload never calls reports 0."""
    busy: Counter = Counter()
    for name, _parent, start, end in spans:
        busy[name] += end - start
    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = (sum(busy[n] for n in names), "s")
    out["serialize.report_json_s"] = (
        sum(v for n, v in busy.items() if n.startswith(SERIALIZE_PREFIX)), "s")
    out["wbracket.pairs_per_s"] = (
        _ratio(counts.get("wbracket.pairs", 0), out["wbracket.table_symbolic_s"][0]), "1/s")
    out["pvacore.triples_per_s"] = (
        _ratio(counts.get("pvacore.triples", 0), out["pvacore.jacobi_s"][0]), "1/s")
    tried = counts.get("weakgen.products_tried", 0)
    out["weakgen.products_per_s"] = (_ratio(tried, out["weakgen.closure_s"][0]), "1/s")
    out["weakgen.reveal_ratio"] = (_ratio(counts.get("weakgen.revealing_products", 0), tried),
                                   "ratio")
    for prefix, span_name in LAYER_LATENCIES.items():
        calls = [(end - start) * 1e3 for name, _p, start, end in spans if name == span_name]
        for p in (50, 95):
            out[f"{prefix}_p{p}_ms"] = (percentile(calls, p), "ms")
    for name in LAYER_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def self_times(spans: list) -> dict:
    """Span name -> summed self time (duration minus the time its children
    cover), for the trace file."""
    child: Counter = Counter()
    for _name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for idx, (name, _parent, start, end) in enumerate(spans):
        out[name] += end - start - child[idx]
    return dict(out)
