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

Each case is a row of a `replaced` mask over the window positions,
ranked once by centrality, and of replacement values.  The probe at r
holds every fixed case of the probes at smaller r, so
`breakdown_estimate` estimates each replacement count once, in doubling
blocks, and stops at the first block that breaks.  An unknown strategy
or a non-finite window value raises ValueError at any r, also r = 0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, Philox

from .grid_image import Image
from .lts_trim import trim_count
from .scene_noise import _rekey
from .smoother import (DEGENERATE_SCALE_FLOOR, SmootherParams, _window_iqr,
                       window_mode_estimate)

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
    if band_px < 0:
        raise ValueError(f"band_px must be >= 0, got {band_px}")
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
    if band_px < 0:
        raise ValueError(f"band_px must be >= 0, got {band_px}")
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
        return {**asdict(self), "magnitudes": list(self.magnitudes),
                "strategies": list(self.strategies)}


def _window_side(n: int) -> int:
    side = math.isqrt(n)
    if side * side != n or side % 2 == 0 or side < 3:
        raise ValueError("window must be a full odd square lattice of >= 9 "
                         f"values, got {n}")
    return side


# name -> (sign at even pool rank, sign at odd pool rank): a replaced
# value is sign * magnitude
_STRATEGY_SIGNS = {
    "all_plus": (1.0, 1.0),
    "all_minus": (-1.0, -1.0),
    "center": (1.0, 1.0),
    "split": (1.0, -1.0),
    "mode_plus": (1.0, 1.0),
    "mode_minus": (-1.0, -1.0),
}
# strategies whose values are offset by the clean estimate
_RELATIVE = ("mode_plus", "mode_minus")


def _probe_bandwidth(values: np.ndarray, params: SmootherParams) -> float:
    if params.bandwidth is not None:
        return params.bandwidth
    iqr = float(_window_iqr(values))
    return iqr if iqr > DEGENERATE_SCALE_FLOOR else PROBE_FALLBACK_BANDWIDTH


def _probe_stack(vals: np.ndarray, r: int, params: SmootherParams,
                 magnitudes: tuple[float, ...], strategies: tuple[str, ...],
                 random_trials: int, seed: int, first: int = 1):
    """(g, clean estimate, contaminated, replaced, estimates) of the fixed
    cases with first .. r replacements and the random trials at r; each
    row of the stack is estimated on its own."""
    n = vals.size
    side = _window_side(n)
    if not np.all(np.isfinite(vals)):
        raise ValueError("window values must be finite")
    params = replace(params, radius_px=side // 2)
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < window size")
    if random_trials < 0:
        raise ValueError(f"random_trials must be >= 0, got {random_trials}")
    for name in strategies:
        if name not in _STRATEGY_SIGNS:
            raise ValueError(f"unknown strategy {name!r}")
    g = _probe_bandwidth(vals, params)
    # the clean window rides as row 0 of the stacked estimate call below,
    # unless a strategy places its values relative to the clean estimate
    offset = np.array([name in _RELATIVE for name in strategies], dtype=bool)
    relative = bool(offset.any())
    clean_est = window_mode_estimate(vals, params, g) if relative else None

    # each position's rank in (Chebyshev distance from center, row, col)
    # order, and its rank in each strategy's pool: (strategies, n)
    ring = abs(np.arange(side) - side // 2)
    order = np.argsort(np.maximum.outer(ring, ring), axis=None, kind="stable")
    # only the "center" strategy replaces the center; the others spare it
    spares = [name != "center" for name in strategies]
    pool = np.argsort(order) - np.array(spares, dtype=int)[:, None]
    # case (strategy, count k, magnitude) replaces pool ranks 0 .. k - 1;
    # the fixed cases are the rows of a (strategies, counts, magnitudes, n)
    # stack, in that order
    counts = np.arange(first, r + 1)
    # (strategies, counts, n)
    fixed = (0 <= pool[:, None]) & (pool[:, None] < counts[:, None])
    signs = np.array([_STRATEGY_SIGNS[name] for name in strategies])
    even, odd = signs.reshape(-1, 2).T[:, :, None]         # (strategies, 1)
    # (strategies, magnitudes, n)
    value = (np.where(pool % 2, odd, even)[:, None]
             * np.asarray(magnitudes, dtype=float)[:, None])
    if relative:
        value[offset] += clean_est
    shape = (len(strategies), counts.size, len(magnitudes), n)
    masks = [np.broadcast_to(fixed[:, :, None], shape).reshape(-1, n)]
    repl = [np.broadcast_to(value[:, None], shape).reshape(-1, n)]
    if r > 0 and random_trials > 0:
        vmax = max(magnitudes, default=DEFAULT_MAGNITUDES[-1])
        if not np.isfinite(2.0 * vmax):
            raise ValueError(
                f"random trials draw values from (-{vmax:g}, {vmax:g}), a "
                "range wider than the float maximum; pass smaller "
                "magnitudes or no random trials")
        gen = Generator(Philox(0))
        masks.append(np.zeros((random_trials, n), dtype=bool))
        repl.append(np.zeros((random_trials, n)))
        for trial in range(random_trials):
            _rekey(gen, [seed, trial])
            positions = gen.choice(n, size=r, replace=False)
            masks[-1][trial, positions] = True
            repl[-1][trial, positions] = gen.uniform(-vmax, vmax, size=r)
    replaced = np.concatenate(masks)
    contaminated = np.where(replaced, np.concatenate(repl), vals)
    # every contaminated window, estimated in one stacked call
    stack = contaminated if relative else np.vstack([vals, contaminated])
    est = window_mode_estimate(stack, params, g)
    if not relative:
        clean_est, est = float(est[0]), est[1:]
    return g, clean_est, contaminated, replaced, est


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
    from the clean window extremes.  An unknown strategy or a non-finite
    window value raises ValueError, also at r = 0.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    g, clean_est, contaminated, replaced, est = _probe_stack(
        vals, r, params, magnitudes, strategies, random_trials, seed)
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

    The smallest r whose probe (default strategies, no random trials)
    has a worst bias above BREAKDOWN_RANGE_FACTOR times the clean value
    range, over n; 1.0 if no r < n does.  The probe at r holds the fixed
    cases of every smaller count, so the counts are estimated once each,
    in blocks 1, 2-3, 4-7, ..., stopping at the first block that breaks.
    A NaN bias makes every probe from its count on report NaN, which
    never exceeds the threshold.  A non-finite window value raises
    ValueError.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    _window_side(n)
    threshold = BREAKDOWN_RANGE_FACTOR * float(vals.max() - vals.min())
    first = 1
    while first < n:
        last = min(2 * first - 1, n - 1)
        _, clean_est, _, replaced, est = _probe_stack(
            vals, last, params, magnitudes, DEFAULT_STRATEGIES, 0, 0, first)
        bias = np.abs(est - clean_est)
        count = replaced.sum(axis=1)
        stop = count[(bias > threshold) | np.isnan(bias)]
        if stop.size:
            k = stop.min()
            return 1.0 if np.isnan(bias[count == k]).any() else int(k) / n
        first = last + 1
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
