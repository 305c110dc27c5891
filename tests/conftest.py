"""Shared test fixtures and independent reference implementations.

The reference code here recomputes everything from the mathematical
definitions with plain numpy (no package internals), so the unit tests
compare two structurally different implementations.  The probe
references are the exception: they build the contaminated windows one
case at a time, but reuse the package's seeded draws, bandwidth rule
and window estimator.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

TRUNC_MASS = math.erf(1.0 / math.sqrt(2.0))
GAUSS_NORM = 1.0 / (TRUNC_MASS * math.sqrt(2.0 * math.pi))

# the keys of a smooth report; the CLI's --report JSON adds input, output
REPORT_KEYS = {"width", "height", "radius_px", "bandwidth", "bandwidth_mode",
               "trim_fraction", "border", "interior_trim_count",
               "trimmed_total", "median_fallback_pixels",
               "nonconverged_pixels", "wall_time_s"}


def ref_field(ys, ks, g):
    """Reference density: returns (F, F1, F2) callables, vectorised in y.

    Kernel i counts exactly where ys[i] - g < y < ys[i] + g, with both cut
    points rounded as computed in floating point.
    """
    ys = np.asarray(ys, dtype=float)
    ks = np.asarray(ks, dtype=float)
    c = ks * GAUSS_NORM / g

    def terms(y):
        y = np.atleast_1d(np.asarray(y, float))[:, None]
        v = (y - ys) / g
        t = np.where((ys - g < y) & (y < ys + g),
                     c * np.exp(-0.5 * v * v), 0.0)
        return v, t

    def F(y):
        _, t = terms(y)
        return t.sum(axis=1)

    def F1(y):
        v, t = terms(y)
        return -(v * t).sum(axis=1) / g

    def F2(y):
        v, t = terms(y)
        return ((v * v - 1.0) * t).sum(axis=1) / (g * g)

    return F, F1, F2


def ref_first_crossing(ys, ks, g, start, d, n_per_g=2000):
    """First zero of d*F' beyond `start` in direction d (+1 or -1).

    d*F' is sampled on a grid of spacing g / n_per_g from the start and
    just short of every kernel cut point y_i -/+ g ahead, so a sign change
    between two samples is never hidden by a jump at a cut; a cut within
    1e-12 g of the start gives no sample, as its one would lie behind the
    start.  The first sample with d*F' <= 0 and the one before it bracket
    the zero, which sign bisection then refines.  Nothing here assumes the
    shape of F.
    """
    ys = np.asarray(ys, dtype=float)
    _, F1, _ = ref_field(ys, ks, g)
    end = ys.max() + g if d > 0 else ys.min() - g
    cuts = np.concatenate([ys - g, ys + g])
    ahead = cuts[(cuts - start) * d > 0] - d * 1e-12 * g
    ahead = ahead[(ahead - start) * d > 0]
    h = g / n_per_g
    grid = start + d * h * np.arange(1, int(abs(end - start) / h) + 2)
    samples = np.sort(np.concatenate([grid, ahead]))
    if d < 0:
        samples = samples[::-1]
    prev = start
    for chunk in np.array_split(samples, max(1, samples.size // 4096)):
        neg = np.nonzero(d * F1(chunk) <= 0.0)[0]
        if neg.size:
            k = int(neg[0])
            a, b = (prev if k == 0 else chunk[k - 1]), chunk[k]
            for _ in range(100):
                mid = 0.5 * (a + b)
                if d * F1(mid)[0] > 0.0:
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)
        prev = chunk[-1]
    raise AssertionError("d*F' stayed positive up to the support end")


def ref_nearest_mode(ys, ks, g, start, tol=1e-8):
    """Nearest mode by the documented search policy, via the grid above."""
    ys = np.asarray(ys, dtype=float)
    F, F1, _ = ref_field(ys, ks, g)
    if F(start)[0] > 0.0:
        fp = F1(start)[0]
        if abs(fp) <= tol:
            return start
        return ref_first_crossing(ys, ks, g, start, 1.0 if fp > 0 else -1.0)
    # outlier start: search away from it from where the density begins
    cands = []
    if np.any(ys > start):
        cands.append(ref_first_crossing(ys, ks, g, ys[ys > start].min() - g,
                                        1.0))
    if np.any(ys < start):
        cands.append(ref_first_crossing(ys, ks, g, ys[ys < start].max() + g,
                                        -1.0))
    return min(cands, key=lambda m: (abs(m - start), m))


def ref_lts_center(values, r):
    """Brute-force least trimmed squares over contiguous sorted blocks.

    Blocks are ranked by keep * sum(x'^2) - (sum x')^2 around an integer
    shift, which is exact for integer-valued data; the first minimum wins,
    matching the documented smaller-start-index tie rule.
    """
    srt = sorted(float(v) for v in values)
    keep = len(srt) - r
    shift = round(srt[(len(srt) - 1) // 2])
    best_ssq = None
    best_mean = None
    for s in range(r + 1):
        block = srt[s:s + keep]
        ssq = (keep * sum((b - shift) ** 2 for b in block)
               - sum(b - shift for b in block) ** 2)
        if best_ssq is None or ssq < best_ssq:
            best_ssq, best_mean = ssq, sum(block) / keep
    return best_mean


def ref_lts_center_stack(values, r):
    """LTS centres of a (P, n) stack, every sorted block scored at once.

    All r + 1 blocks of n - r sorted values are scored on one strided
    sliding-window view by the ranking of ref_lts_center, and argmin's
    first occurrence picks the block.
    """
    s = np.sort(np.asarray(values, dtype=float), axis=-1)
    h = s.shape[-1] - r
    blocks = np.lib.stride_tricks.sliding_window_view(s, h, axis=-1)
    sb = blocks - np.round(s[..., (s.shape[-1] - 1) // 2])[..., None, None]
    best = np.argmin(h * (sb * sb).sum(axis=-1) - sb.sum(axis=-1) ** 2, -1)
    return np.take_along_axis(blocks, best[..., None, None], axis=-2)[
        ..., 0, :].mean(axis=-1)


def ref_lattice_weights(radius_px):
    """Spatial weights over the full (2w+1)^2 offset lattice, row-major."""
    w = radius_px
    lat = np.arange(-w, w + 1) / w
    u1 = np.repeat(lat, 2 * w + 1)
    u2 = np.tile(lat, 2 * w + 1)
    phi = lambda u: np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    k = np.where((np.abs(u1) < 1) & (np.abs(u2) < 1),
                 (phi(u1) / TRUNC_MASS) * (phi(u2) / TRUNC_MASS), 0.0)
    return k / (w * w)


def ref_smooth(px, radius_px, g, trim_fraction, border="clip"):
    """Whole-image smoother, one pixel at a time, from the definitions.

    Windows come from slicing (replicate: indices clipped to the image),
    weights from the truncated product kernel at the offsets (centre -
    entry) / w scaled by 1 / (h_row h_col H W), the trim keeps the n - r
    smallest squared residuals against ref_lts_center with threshold ties
    kept in window order, and the mode is ref_nearest_mode from the
    centre value; no kept entry with positive weight gives the lower
    median of the window.
    """
    px = np.asarray(px, dtype=float)
    H, W = px.shape
    w = radius_px
    knorm = 1.0 / ((w / H) * (w / W) * H * W)
    phi = lambda u: np.where(np.abs(u) < 1.0,
                             np.exp(-0.5 * u * u) * GAUSS_NORM, 0.0)
    out = np.empty((H, W))
    for i in range(H):
        for j in range(W):
            rows = np.arange(i - w, i + w + 1)
            cols = np.arange(j - w, j + w + 1)
            if border == "clip":
                rows = rows[(rows >= 0) & (rows < H)]
                cols = cols[(cols >= 0) & (cols < W)]
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            vals = px[np.clip(rr, 0, H - 1), np.clip(cc, 0, W - 1)].ravel()
            wts = (phi((i - rr.ravel()) / w) * phi((j - cc.ravel()) / w)
                   * knorm)
            n = vals.size
            r = math.floor(n * trim_fraction)
            center = ref_lts_center(vals, r)
            resid = (vals - center) ** 2
            kept = sorted(range(n), key=lambda e: (resid[e], e))[:n - r]
            kept = [e for e in kept if wts[e] > 0.0]
            if not kept:
                out[i, j] = np.sort(vals)[(n + 1) // 2 - 1]
            else:
                out[i, j] = ref_nearest_mode(vals[kept], wts[kept], g,
                                             px[i, j])
    return out


def ref_positions_by_centrality(side):
    """Flat indices sorted by (Chebyshev distance from center, row, col)."""
    c = side // 2
    order = sorted((max(abs(i - c), abs(j - c)), i, j)
                   for i in range(side) for j in range(side))
    return [i * side + j for _, i, j in order]


def ref_strategy_values(name, count, magnitude, clean_mode):
    """The values a fixed probe strategy writes into its `count` positions."""
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


def ref_probe_cases(vals, r, strategies, magnitudes, clean_mode,
                    random_trials=0, seed=0):
    """(replaced, contaminated) rows of the probe at r, one case tuple at
    a time: every strategy's cases for counts 1..r in (strategy, count,
    magnitude) order, positions nearest the centre first (sparing the
    centre unless the strategy is "center"), then the seeded random
    trials at exactly r."""
    from numpy.random import Generator, Philox

    from tmsmooth.eval_robust import DEFAULT_MAGNITUDES
    from tmsmooth.scene_noise import _rekey
    vals = np.asarray(vals, dtype=float).ravel()
    n = vals.size
    order = ref_positions_by_centrality(math.isqrt(n))
    cases = []
    for name in strategies:
        pool = order if name == "center" else order[1:]
        for k in range(1, min(r, len(pool)) + 1):
            for mag in magnitudes:
                cases.append((pool[:k],
                              ref_strategy_values(name, k, mag, clean_mode)))
    if r > 0 and random_trials > 0:
        vmax = max(magnitudes) if magnitudes else DEFAULT_MAGNITUDES[-1]
        gen = Generator(Philox(0))
        for trial in range(random_trials):
            _rekey(gen, [seed, trial])
            positions = gen.choice(n, size=r, replace=False).tolist()
            cases.append((positions, gen.uniform(-vmax, vmax, size=r)))
    contaminated = np.tile(vals, (len(cases), 1))
    replaced = np.zeros(contaminated.shape, dtype=bool)
    for row, (positions, repl) in enumerate(cases):
        contaminated[row, positions] = repl
        replaced[row, positions] = True
    return replaced, contaminated


def ref_breakdown(values, params, magnitudes):
    """Breakdown fraction by escalation: probe r = 1, 2, ... (default
    strategies, no random trials, cases from ref_probe_cases) until the
    worst bias exceeds BREAKDOWN_RANGE_FACTOR times the clean range; 1.0
    if no r does.  A NaN bias makes the worst bias NaN."""
    from dataclasses import replace

    from tmsmooth.eval_robust import (BREAKDOWN_RANGE_FACTOR,
                                      DEFAULT_STRATEGIES, _probe_bandwidth)
    from tmsmooth.smoother import window_mode_estimate
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    params = replace(params, radius_px=math.isqrt(n) // 2)
    g = _probe_bandwidth(vals, params)
    clean = window_mode_estimate(vals, params, g)
    threshold = BREAKDOWN_RANGE_FACTOR * float(vals.max() - vals.min())
    for r in range(1, n):
        _, contaminated = ref_probe_cases(vals, r, DEFAULT_STRATEGIES,
                                          magnitudes, clean)
        est = window_mode_estimate(contaminated, params, g)
        if np.abs(est - clean).max(initial=0.0) > threshold:
            return r / n
    return 1.0


def random_positive_field(rng, n_max=25, g_range=(5.0, 60.0)):
    """Random density field with strictly positive weights.

    Values mix a central cluster with a few strays so trimming has
    something to bite on.
    """
    n = int(rng.integers(5, n_max + 1))
    center = rng.uniform(0.0, 255.0)
    spread = rng.uniform(2.0, 40.0)
    vals = center + rng.normal(0.0, spread, size=n)
    n_stray = int(rng.integers(0, max(1, n // 5) + 1))
    if n_stray:
        idx = rng.choice(n, size=n_stray, replace=False)
        vals[idx] = rng.uniform(-200.0, 500.0, size=n_stray)
    wts = rng.uniform(0.05, 1.0, size=n)
    g = rng.uniform(*g_range)
    return vals, wts, g


@pytest.fixture
def rng():
    return np.random.default_rng(20260813)
