"""In-memory spans and counters for the traced benchmark run.

The traced run wraps the package's layer functions from outside: it
rebinds the module attributes the smoother and the probe look up at call
time, so no file of the package changes.  Each wrapped call records one
span (name, start, end, parent span, request id) in flat arrays; the
spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans.  The density
field's evaluation methods are only counted, because a span around every
evaluation would cost more than the evaluation itself.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

SPAN_NAMES = (
    "request",
    "smoother.smooth",
    "smoother.auto_scale",
    "grid_image.window_at",
    "lts_trim.trim_values",
    "mode_density.DensityField",
    "mode_density.nearest_mode",
    "eval_robust.max_bias_probe",
    "smoother.window_mode_estimate",
    "eval_robust.metrics",
)
SPAN_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

EVAL_METHODS = ("eval_all", "eval_value", "eval_d1", "value", "d1", "d2")


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.names = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.request_id = -1
        self.counts = {"iterations": 0, "evals": 0, "scan": 0, "stay": 0,
                       "nonconverged": 0, "trimmed_total": 0}
        self._stack = [-1]

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(result)` runs outside it."""
        nid = SPAN_ID[name]
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def counted(self, fn):
        """`fn` adding one to the evaluation count per call, no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def instrument(self, tm, api) -> None:
        """Rebind the layer functions of the imported package `tm` and of
        the benchmark's call table `api` to traced versions."""
        sm, er = tm.smoother, tm.eval_robust
        counts = self.counts

        def mode_done(res):
            counts["iterations"] += res.iterations
            counts["scan"] += res.used_scan
            counts["stay"] += res.direction == "stay"
            counts["nonconverged"] += not res.converged

        def trim_done(out):
            counts["trimmed_total"] += out[3]

        field_cls = sm.DensityField
        for meth in EVAL_METHODS:
            setattr(field_cls, meth, self.counted(getattr(field_cls, meth)))
        sm.window_at = self.wrap("grid_image.window_at", sm.window_at)
        sm.trim_values = self.wrap("lts_trim.trim_values", sm.trim_values,
                                   trim_done)
        sm.DensityField = self.wrap("mode_density.DensityField", field_cls)
        sm.nearest_mode = self.wrap("mode_density.nearest_mode",
                                    sm.nearest_mode, mode_done)
        sm.auto_scale = self.wrap("smoother.auto_scale", sm.auto_scale)
        er.window_mode_estimate = self.wrap("smoother.window_mode_estimate",
                                            er.window_mode_estimate)
        api.smooth = self.wrap("smoother.smooth", api.smooth)
        api.metrics = self.wrap("eval_robust.metrics", api.metrics)
        api.max_bias_probe = self.wrap("eval_robust.max_bias_probe",
                                       api.max_bias_probe)

    def request(self, request_id: int, fn, *args):
        """Run one request under a root span tagged with its id."""
        self.request_id = request_id
        try:
            return self.wrap("request", fn)(*args)
        finally:
            self.request_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as NumPy arrays (views, no copy)."""
        return {"name": np.frombuffer(self.names, dtype=np.uint8),
                "start": np.frombuffer(self.starts, dtype=np.float64),
                "end": np.frombuffer(self.ends, dtype=np.float64),
                "parent": np.frombuffer(self.parents, dtype=np.int32),
                "request": np.frombuffer(self.requests, dtype=np.int32)}


def span_totals(spans: dict[str, np.ndarray],
                end_request: int | None = None):
    """Per span name: (calls, total duration, self time) over the requests
    with ids below end_request (all requests by default)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_time = dur - covered
    sel = spans["request"] >= 0
    if end_request is not None:
        sel &= spans["request"] < end_request
    k = len(SPAN_NAMES)
    name = spans["name"][sel]
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur[sel], minlength=k)
    own = np.bincount(name, weights=self_time[sel], minlength=k)
    return ({n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)},
            {n: float(total[i]) for i, n in enumerate(SPAN_NAMES)},
            {n: float(own[i]) for i, n in enumerate(SPAN_NAMES)})
