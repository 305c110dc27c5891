"""Reference clock: wall time rescaled by the host's momentary speed.

The benchmark's host is a few virtual cores of a shared machine whose
speed drifts by a factor of two within minutes (neighbours on the same
physical cores), so plain wall time spreads between runs of the same
code by far more than any useful bound.  While a run measures, a timer
signal interrupts the single benchmark thread every PERIOD_S and runs a
fixed calibration slice in the same thread: per-window kernel-density
work on a 5x5 window of tiny NumPy arrays, the instruction mix of the
smoother's pixel loop.  The slice's duration against SLICE_REF_S, its
duration on an unloaded host, is the host's slow-down factor at that
moment.

`HostClock.ref` maps perf_counter timestamps to reference seconds: the
time between two slices counts at the mean of their (median-smoothed)
slow-down factors, and time spent inside a slice counts zero.  A
duration in reference seconds is what the interval would have taken on
the unloaded host; a slower program takes more of them at any host
speed.  No thread or process is started; the slices take about a tenth
of the run's wall time.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.05
SLICE_WINDOWS = 64
# one slice on an unloaded host: the fast end (10th percentile) of the
# slice times seen over many minutes on a 2-vCPU Xeon at 2.0 GHz with
# Python 3.11 and NumPy 2.4.  It sets the scale of a reference second.
SLICE_REF_S = 0.0032

_RNG = np.random.default_rng(20070803)
_IMAGE = _RNG.uniform(0.0, 255.0, (9, 9))
_KAPPA = _RNG.uniform(0.1, 1.0, 25)


def calibration_slice() -> float:
    """Fixed work shaped like the smoother's per-pixel estimate: take a
    5x5 window, sort it, and run a few density-gradient steps."""
    acc = 0.0
    for k in range(SLICE_WINDOWS):
        i, j = divmod(k % 25, 5)
        vals = _IMAGE[i:i + 5, j:j + 5].ravel()
        order = np.argsort(vals, kind="stable")
        ys = vals[order]
        kc = _KAPPA[order] * 0.02
        y = float(vals[12])
        for _ in range(4):
            v = (y - ys) / 30.0
            t = np.where(np.abs(v) < 1.0, kc * np.exp(-0.5 * v * v), 0.0)
            f = float(t.sum())
            fp = float(-(v * t).sum() / 30.0)
            fpp = float(((v * v - 1.0) * t).sum() / 900.0)
            step = fp / -fpp if fpp < 0.0 else 7.5 * np.sign(fp)
            y += max(-15.0, min(15.0, step))
        acc += y + f
    return acc


class HostClock:
    """Context manager sampling the host's speed on a timer signal."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._busy = False
        self._knots = None

    def probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        calibration_slice()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()
        self._knots = None

    def factors(self) -> np.ndarray:
        """Slow-down factor of each slice, median of it and its two
        neighbours (one disturbed slice must not rescale its segments)."""
        p = (np.frombuffer(self.ends) - np.frombuffer(self.starts)) \
            / SLICE_REF_S
        if p.size < 3:
            return p
        padded = np.concatenate(([p[0]], p, [p[-1]]))
        return np.median(np.lib.stride_tricks.sliding_window_view(
            padded, 3), axis=1)

    def ref(self, t):
        """perf_counter time(s) -> reference seconds since the first slice.
        Only times between the first and the last slice are defined."""
        if self._knots is None:
            s, e = np.frombuffer(self.starts), np.frombuffer(self.ends)
            q = self.factors()
            gaps = (s[1:] - e[:-1]) / (0.5 * (q[1:] + q[:-1]))
            r = np.concatenate(([0.0], np.cumsum(gaps)))
            # a slice counts zero: R(start_k) = R(end_k)
            self._knots = (np.column_stack((s, e)).ravel(),
                           np.repeat(r, 2))
        out = np.interp(t, *self._knots)
        return float(out) if np.ndim(out) == 0 else out

    def speed_summary(self) -> dict:
        q = self.factors()
        return {"slices": int(q.size),
                "slowdown_p10": float(np.percentile(q, 10)),
                "slowdown_p50": float(np.median(q)),
                "slowdown_p90": float(np.percentile(q, 90))}
