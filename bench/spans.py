"""Outside-in spans around the module-level names each layer calls through.

Nothing in the package is instrumented.  `Tracer.install` swaps a module
attribute for a wrapper that records a span (name, start, end, parent
span, op id) and the span's work counters, and `uninstall` puts the
original back.  A call made through the replaced name is traced, so a
target must be a name the caller looks up at call time: a module global
inside the package, or a module attribute the benchmark itself calls.
Spans are kept in memory; `layer_metrics` folds them into per-layer
totals once the run is over.
"""

import contextlib
import time

import numpy as np

from eigenbounds import bounds, cli, heatflow, sturm_liouville, surfaces


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[-1]))}


def _dijkstra(args, kwargs, result):
    return {"nodes": int(args[0].shape[0]), "sources": len(kwargs["indices"])}


def _node_records(args, kwargs, result):
    return {"node_records": int(result.states.size)}


def _pair_evals(args, kwargs, result):
    flow = args[0]
    n = len(flow.xs)
    return {"pair_evals": n * (n - 1) // 2 * len(flow.times)}


# (module, attribute, span name, counter).  A counter reads the call's
# arguments, or its result when the call returned one.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "kahler_neumann_bound", "bounds.bound", None),
    (cli, "kahler_dirichlet_bound", "bounds.bound", None),
    (cli, "riemannian_neumann_bound", "bounds.bound", None),
    (cli, "riemannian_dirichlet_bound", "bounds.bound", None),
    (surfaces, "kahler_neumann_bound", "bounds.bound", None),
    (bounds, "kahler_neumann_bound", "bounds.bound", None),
    (bounds, "solve_shooting", "sturm_liouville.solve_shooting", None),
    (bounds, "solve_fd", "sturm_liouville.solve_fd", None),
    (bounds, "eigen_limit", "sturm_liouville.eigen_limit", None),
    (sturm_liouville, "eigh_tridiagonal", "sturm_liouville.eigh_tridiagonal", _rows),
    (bounds, "weight_kahler", "coefficients.weight", _points),
    (bounds, "weight_dirichlet", "coefficients.weight", _points),
    (bounds, "weight_riemannian", "coefficients.weight", _points),
    (bounds, "weight_riemannian_dirichlet", "coefficients.weight", _points),
    (surfaces, "surface_diameter_upper", "surfaces.surface_diameter_upper", None),
    (surfaces, "dijkstra", "surfaces.dijkstra", _dijkstra),
    (surfaces, "surface_eigen", "surfaces.surface_eigen", None),
    (surfaces, "eigh_tridiagonal", "surfaces.eigh_tridiagonal", _rows),
    (heatflow, "heatflow_1d", "heatflow.heatflow_1d", _node_records),
    (heatflow, "modulus_envelope_check", "heatflow.modulus_envelope_check", _pair_evals),
)

# per-layer metrics: span name -> (stats, counters).  "self_ms" is the
# span time not covered by child spans, "ms" the whole span time.
LAYERS = {
    "cli.main": (("self_ms",), ()),
    "bounds.bound": (("calls", "self_ms"), ()),
    "sturm_liouville.solve_shooting": (("calls", "self_ms"), ()),
    "sturm_liouville.solve_fd": (("calls", "self_ms"), ()),
    "sturm_liouville.eigen_limit": (("calls", "self_ms"), ()),
    "sturm_liouville.eigh_tridiagonal": (("calls", "ms"), ("rows",)),
    "coefficients.weight": (("calls", "ms"), ("points",)),
    "surfaces.surface_diameter_upper": (("calls", "self_ms"), ()),
    "surfaces.dijkstra": (("calls", "ms"), ("nodes", "sources")),
    "surfaces.surface_eigen": (("calls", "self_ms"), ()),
    "surfaces.eigh_tridiagonal": (("calls", "ms"), ("rows",)),
    "heatflow.heatflow_1d": (("calls", "self_ms"), ("node_records",)),
    "heatflow.modulus_envelope_check": (("calls", "self_ms"), ("pair_evals",)),
}


def layer_metric_names():
    """Every per-layer span metric as (name, unit), in report order."""
    out = []
    for span, (stats, counters) in LAYERS.items():
        out += [(f"{span}.{s}", "count" if s == "calls" else "ms") for s in stats]
        out += [(f"{span}.{c}", "count") for c in counters]
    return out


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.counts = {}

    def to_dict(self):
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "counts": self.counts,
        }


class Tracer:
    """Span recorder; spans carry the id of the op open when they start."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counter is not None and result is not None:
                    span.counts = counter(args, kwargs, result)

        return traced

    def install(self):
        for module, attr, name, counter in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def op(self, op_id, kind):
        """Root span of one op; the layer spans it causes are its children."""
        self.op_id = op_id
        span = Span(f"op.{kind}", None, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def layer_metrics(spans):
    """Per-layer calls, counters, total ms and self ms from one pass."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    totals = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        t["calls"] += 1
        t["ms"] += 1e3 * (span.end - span.start)
        t["self_ms"] += 1e3 * (span.end - span.start - child_s[i])
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    out = {}
    for span_name, (stats, counters) in LAYERS.items():
        t = totals.get(span_name, {})
        for key in stats + counters:
            out[f"{span_name}.{key}"] = t.get(key, 0)
    return out
