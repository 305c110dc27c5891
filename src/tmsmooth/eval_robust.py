"""Error metrics and empirical robustness probes.

Metrics compare a smoothed estimate against the clean reference image
(MAE/MSE, optionally split into inside/outside/edge-band zones of a
region mask).  The probes contaminate a single window with adversarial
and randomized replacements and measure how far the mode estimate can
be displaced: the trimmed smoother must stay inside an explicit support
bound whenever at most the trimmable number of values is replaced,
while the untrimmed smoother is dragged arbitrarily far by a single
replacement of its starting value.

True maximum bias is a supremum over an unbounded replacement space;
the probe renders it as a fixed strategy family (cumulative over
replacement counts 1..r, so the reported worst bias is monotone in r)
plus seeded random trials at exactly r.  This can falsify the support
bound and demonstrate breakdown, but does not certify the exact
breakdown fraction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, Philox

from .grid_image import Image
from .lts_trim import trim_count
from .scene_noise import _rekey
from .smoother import SmootherParams, _window_iqr, window_mode_estimate

DEFAULT_MAGNITUDES = (1e3, 1e6, 1e9)
DEFAULT_STRATEGIES = ("all_plus", "all_minus", "center", "split",
                      "mode_plus", "mode_minus")
DEFAULT_RANDOM_TRIALS = 64
PROBE_FALLBACK_BANDWIDTH = 1.0
BREAKDOWN_RANGE_FACTOR = 10.0

# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    mse: float
    count: int
    zones: dict | None = None  # inside/outside/band sub-metrics

    def to_dict(self) -> dict:
        out = {"mae": self.mae, "mse": self.mse, "count": self.count}
        if self.zones is not None:
            out["zones"] = self.zones
        return out


def _zone_metrics(diff: np.ndarray, mask: np.ndarray) -> dict:
    n = int(mask.sum())
    if n == 0:
        return {"mae": None, "mse": None, "count": 0}
    sel = diff[mask]
    return {"mae": float(np.mean(np.abs(sel))),
            "mse": float(np.mean(sel * sel)),
            "count": n}


def _dilate(mask: np.ndarray, k: int) -> np.ndarray:
    """Chebyshev dilation by k pixels (edge-padded with False)."""
    if k <= 0:
        return mask.copy()
    pad = np.pad(mask, k, constant_values=False)
    win = sliding_window_view(pad, (2 * k + 1, 2 * k + 1))
    return win.any(axis=(2, 3))


def edge_band(mask: np.ndarray, band_px: int = 2) -> np.ndarray:
    """Pixels within band_px (Chebyshev) of the mask boundary."""
    mask = np.asarray(mask, dtype=bool)
    return _dilate(mask, band_px) & _dilate(~mask, band_px)


def metrics(truth: Image, estimate: Image,
            region_mask: np.ndarray | None = None,
            band_px: int = 2) -> MetricsReport:
    """MAE/MSE of estimate against truth, optionally split by zone.

    With a region mask, the band zone collects pixels within band_px of
    the region boundary; inside/outside cover the remaining pixels.
    """
    if (truth.height, truth.width) != (estimate.height, estimate.width):
        raise ValueError("image dimensions differ")
    diff = estimate.pixels - truth.pixels
    zones = None
    if region_mask is not None:
        region_mask = np.asarray(region_mask, dtype=bool)
        if region_mask.shape != diff.shape:
            raise ValueError("region mask dimensions differ from images")
        band = edge_band(region_mask, band_px)
        zones = {"inside": _zone_metrics(diff, region_mask & ~band),
                 "outside": _zone_metrics(diff, ~region_mask & ~band),
                 "band": _zone_metrics(diff, band)}
    return MetricsReport(mae=float(np.mean(np.abs(diff))),
                         mse=float(np.mean(diff * diff)),
                         count=diff.size, zones=zones)


# -- support bound -----------------------------------------------------------


def tm_support_bound(y_min: float, y_max: float, count: int, r: int,
                     bandwidth: float) -> tuple[float, float]:
    """Interval guaranteed to contain the trimmed estimate when at most
    r of the count window values are replaced (elementwise over arrays of
    extremes)."""
    if np.any(np.less(y_max, y_min)):
        raise ValueError("y_max must be >= y_min")
    if not (0 <= r < count):
        raise ValueError("need 0 <= r < count")
    if not (bandwidth > 0):
        raise ValueError("bandwidth must be positive")
    spread = 2.0 * math.sqrt(count - r) * (y_max - y_min)
    return (y_min - spread - bandwidth, y_max + spread + bandwidth)


# -- bias probe --------------------------------------------------------------


@dataclass(frozen=True)
class BiasProbeReport:
    r: int
    worst_bias: float
    bound: float | None          # scalar bias bound (trimmed probes only)
    violated: bool               # worst_bias > bound
    bound_violations: int        # per-instance support-interval misses
    estimate_clean: float
    bandwidth: float
    magnitudes: tuple[float, ...]
    strategies: tuple[str, ...]
    random_trials: int

    def to_dict(self) -> dict:
        return {"r": self.r, "worst_bias": self.worst_bias,
                "bound": self.bound, "violated": self.violated,
                "bound_violations": self.bound_violations,
                "estimate_clean": self.estimate_clean,
                "bandwidth": self.bandwidth,
                "magnitudes": list(self.magnitudes),
                "strategies": list(self.strategies),
                "random_trials": self.random_trials}


def _window_side(n: int) -> int:
    side = math.isqrt(n)
    if side * side != n or side % 2 == 0 or side < 3:
        raise ValueError("window must be a full odd square lattice of >= 9 "
                         f"values, got {n}")
    return side


def _positions_by_centrality(side: int) -> list[int]:
    """Flat indices sorted by (Chebyshev distance from center, row, col)."""
    c = side // 2
    order = []
    for i in range(side):
        for j in range(side):
            order.append((max(abs(i - c), abs(j - c)), i, j))
    order.sort()
    return [i * side + j for _, i, j in order]


def _strategy_values(name: str, count: int, magnitude: float,
                     clean_mode: float) -> np.ndarray:
    if name == "all_plus" or name == "center":
        return np.full(count, magnitude)
    if name == "all_minus":
        return np.full(count, -magnitude)
    if name == "split":
        vals = np.full(count, magnitude)
        vals[1::2] = -magnitude
        return vals
    if name == "mode_plus":
        return np.full(count, clean_mode + magnitude)
    if name == "mode_minus":
        return np.full(count, clean_mode - magnitude)
    raise ValueError(f"unknown strategy {name!r}")


def _probe_bandwidth(values: np.ndarray, params: SmootherParams) -> float:
    if params.bandwidth is not None:
        return params.bandwidth
    iqr = float(_window_iqr(values))
    return iqr if iqr > 1e-6 else PROBE_FALLBACK_BANDWIDTH


def max_bias_probe(values, r: int,
                   params: SmootherParams = SmootherParams(),
                   magnitudes: tuple[float, ...] = DEFAULT_MAGNITUDES,
                   strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
                   random_trials: int = DEFAULT_RANDOM_TRIALS,
                   seed: int = 0) -> BiasProbeReport:
    """Worst single-window estimate displacement under r replacements.

    Fixed strategies place replacements at the positions nearest the
    window center (the center value itself only under the "center"
    strategy, which is what breaks the untrimmed smoother) and are run
    cumulatively for every replacement count up to r.  Random trials
    draw positions and values at exactly r.  When trimming is active
    and r does not exceed the trimmable count, each contaminated
    estimate is checked against the support interval computed from the
    values that were NOT replaced, and the reported scalar bound comes
    from the clean window extremes.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    side = _window_side(n)
    params = replace(params, radius_px=side // 2)
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < window size")
    g = _probe_bandwidth(vals, params)
    # the clean window rides as row 0 of the stacked estimate call below,
    # unless a strategy places its values relative to the clean estimate
    relative = bool({"mode_plus", "mode_minus"} & set(strategies))
    clean_est = window_mode_estimate(vals, params, g) if relative else None

    order = _positions_by_centrality(side)
    noncenter = order[1:]
    cases: list[tuple[list[int], np.ndarray]] = (
        [] if relative else [([], np.empty(0))])
    for name in strategies:
        pool = order if name == "center" else noncenter
        for k in range(1, min(r, len(pool)) + 1):
            for mag in magnitudes:
                cases.append((pool[:k],
                              _strategy_values(name, k, mag, clean_est)))
    if r > 0 and random_trials > 0:
        vmax = max(magnitudes) if magnitudes else DEFAULT_MAGNITUDES[-1]
        gen = Generator(Philox(0))
        for trial in range(random_trials):
            _rekey(gen, [seed, trial])
            positions = gen.choice(n, size=r, replace=False).tolist()
            cases.append((positions, gen.uniform(-vmax, vmax, size=r)))
    # every contaminated window, estimated in one stacked call
    contaminated = np.tile(vals, (len(cases), 1))
    replaced = np.zeros(contaminated.shape, dtype=bool)
    for row, (positions, repl) in enumerate(cases):
        contaminated[row, positions] = repl
        replaced[row, positions] = True
    est = window_mode_estimate(contaminated, params, g)
    if not relative:
        clean_est = float(est[0])
        contaminated, replaced, est = contaminated[1:], replaced[1:], est[1:]
    worst = float(np.abs(est - clean_est).max(initial=0.0))
    r_trim = trim_count(n, params.trim_fraction)
    check_bound = params.trim_fraction > 0.0 and 0 < r <= r_trim
    bound = None
    bound_violations = 0
    if check_bound:
        lo, hi = tm_support_bound(float(vals.min()), float(vals.max()),
                                  n, r_trim, g)
        bound = max(hi - clean_est, clean_est - lo)
        # support interval of each instance from the values NOT replaced
        ilo, ihi = tm_support_bound(
            np.where(replaced, np.inf, contaminated).min(axis=1),
            np.where(replaced, -np.inf, contaminated).max(axis=1),
            n, r_trim, g)
        bound_violations = int(np.count_nonzero(~((ilo <= est)
                                                  & (est <= ihi))))

    violated = bound is not None and worst > bound
    return BiasProbeReport(
        r=r, worst_bias=float(worst), bound=bound, violated=bool(violated),
        bound_violations=bound_violations, estimate_clean=float(clean_est),
        bandwidth=float(g), magnitudes=tuple(magnitudes),
        strategies=tuple(strategies), random_trials=random_trials)


def breakdown_estimate(values, params: SmootherParams = SmootherParams(),
                       magnitudes: tuple[float, ...] = DEFAULT_MAGNITUDES
                       ) -> float:
    """Smallest replacement fraction that drives the estimate far away.

    Escalates the replacement count until the probe's worst bias
    exceeds BREAKDOWN_RANGE_FACTOR times the clean value range at the
    largest magnitude tried; returns 1.0 if no count does.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    _window_side(n)
    threshold = BREAKDOWN_RANGE_FACTOR * float(vals.max() - vals.min())
    for r in range(1, n):
        report = max_bias_probe(vals, r, params, magnitudes=magnitudes,
                                random_trials=0)
        if report.worst_bias > threshold:
            return r / n
    return 1.0


# -- report serialization ----------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json_report(payload: dict, path) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
        + "\n")


_METRIC_FIELDS = ("label", "zone", "mae", "mse", "count")


def write_metrics_csv(rows: list[tuple[str, MetricsReport]], path) -> None:
    """One record per labelled report, plus one per zone when present."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRIC_FIELDS)
        for label, rep in rows:
            writer.writerow([label, "all", rep.mae, rep.mse, rep.count])
            for zone, sub in (rep.zones or {}).items():
                writer.writerow([label, zone, sub["mae"], sub["mse"],
                                 sub["count"]])


_PROBE_FIELDS = ("window", "trim_fraction", "r", "worst_bias", "bound",
                 "violated", "bound_violations", "estimate_clean",
                 "bandwidth")


def write_probe_csv(rows: list[tuple[int, float, BiasProbeReport]],
                    path) -> None:
    """One record per probed window: (window index, trim fraction, report)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PROBE_FIELDS)
        for idx, l, rep in rows:
            writer.writerow([idx, l, rep.r, rep.worst_bias, rep.bound,
                             rep.violated, rep.bound_violations,
                             rep.estimate_clean, rep.bandwidth])
