"""Trimmed-mode and mode image smoothers.

Each output pixel is the local mode, nearest to the centre observation, of
a kernel density built from the pixel's window: spatial weights come from
the product kernel evaluated at the window offsets, the intensity kernel
has bandwidth g, and (for positive trim fractions) the entries with the
largest squared residuals against the window's LTS centre are removed
before the density is formed.  A trim fraction of zero gives the plain
mode smoother that uses every window entry.

The automatic intensity bandwidth is the median over all pixels of the
interquartile range of the pixel's window values, with quartiles taken at
the ceiling ranks ceil(0.25 k) and ceil(0.75 k) of the k sorted values and
the median of an even count taken at the lower middle.  Nearly constant
images make this collapse; a bandwidth below 1e-6 raises
DegenerateScaleError instead of smoothing with a degenerate kernel.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .grid_image import Image, window_at
from .kernels import k2
from .lts_trim import trim_values
from .mode_density import (DEFAULT_MAX_ITER, DEFAULT_TOL, DegenerateFieldError,
                           DensityField, nearest_mode)

DEGENERATE_SCALE_FLOOR = 1e-6


class DegenerateScaleError(ValueError):
    """Automatic bandwidth selection collapsed (nearly constant image)."""


@dataclass(frozen=True)
class SmootherParams:
    """Configuration of the mode smoothers.

    bandwidth=None selects the automatic intensity bandwidth; border is
    either "clip" (windows shrink at the image edge) or "replicate"
    (edge rows/columns are repeated to fill full windows).
    """

    radius_px: int = 2
    bandwidth: float | None = None
    trim_fraction: float = 0.15
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    border: str = "clip"

    def __post_init__(self):
        if self.radius_px < 1:
            raise ValueError("radius_px must be >= 1")
        if self.bandwidth is not None and not (self.bandwidth > 0):
            raise ValueError("bandwidth must be positive (or None for auto)")
        if not (0.0 <= self.trim_fraction < 0.5):
            raise ValueError("trim_fraction must be in [0, 0.5)")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.border not in ("clip", "replicate"):
            raise ValueError(f"unknown border mode {self.border!r}")


@dataclass(frozen=True)
class SmoothReport:
    """Diagnostics of one smoothing run."""

    width: int
    height: int
    radius_px: int
    bandwidth: float
    bandwidth_mode: str
    trim_fraction: float
    border: str
    tol: float
    max_iter: int
    interior_trim_count: int
    trimmed_total: int
    median_fallback_pixels: int
    nonconverged_pixels: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _quartile_ranks(k: int) -> tuple[int, int]:
    """0-based ceiling ranks of the lower and upper quartile."""
    return math.ceil(0.25 * k) - 1, math.ceil(0.75 * k) - 1


def _lower_median(sorted_vals: np.ndarray) -> float:
    """Median taking the lower middle value for even counts."""
    return float(sorted_vals[(sorted_vals.size + 1) // 2 - 1])


def window_iqr_grid(img: Image, radius_px: int) -> np.ndarray:
    """Interquartile range of every pixel's clipped window."""
    H, W = img.height, img.width
    w = radius_px
    iqrs = np.empty((H, W))
    k_full = (2 * w + 1) ** 2
    if H >= 2 * w + 1 and W >= 2 * w + 1:
        view = np.lib.stride_tricks.sliding_window_view(
            img.pixels, (2 * w + 1, 2 * w + 1))
        flat = view.reshape(H - 2 * w, W - 2 * w, k_full)
        s = np.sort(flat, axis=-1)
        q1, q3 = _quartile_ranks(k_full)
        iqrs[w:H - w, w:W - w] = s[..., q3] - s[..., q1]
        border_rows = [i for i in range(H) if i < w or i >= H - w]
    else:
        border_rows = list(range(H))
    for i in border_rows:
        for j in range(W):
            _set_border_iqr(img, i, j, w, iqrs)
    if H >= 2 * w + 1 and W >= 2 * w + 1:
        for i in range(w, H - w):
            for j in list(range(w)) + list(range(W - w, W)):
                _set_border_iqr(img, i, j, w, iqrs)
    return iqrs


def _set_border_iqr(img: Image, i: int, j: int, w: int, iqrs: np.ndarray):
    H, W = img.height, img.width
    block = img.pixels[max(0, i - w):min(H, i + w + 1),
                       max(0, j - w):min(W, j + w + 1)]
    s = np.sort(block.ravel())
    q1, q3 = _quartile_ranks(s.size)
    iqrs[i, j] = s[q3] - s[q1]


def auto_scale(img: Image, radius_px: int = 2) -> float:
    """Automatic intensity bandwidth: median of the window IQRs."""
    if radius_px < 1:
        raise ValueError("radius_px must be >= 1")
    iqrs = np.sort(window_iqr_grid(img, radius_px).ravel())
    g = _lower_median(iqrs)
    if g < DEGENERATE_SCALE_FLOOR:
        raise DegenerateScaleError(
            f"automatic bandwidth {g!r} is below {DEGENERATE_SCALE_FLOOR}; "
            "the image is nearly constant, pass an explicit bandwidth")
    return g


def _mode_pixel(values: np.ndarray, kappa: np.ndarray, start: float,
                bandwidth: float, trim_fraction: float, tol: float,
                max_iter: int) -> tuple[float, int, bool, bool]:
    """One pixel estimate: (mode, r, median_fallback, converged)."""
    if trim_fraction > 0.0:
        _, mask, _, r = trim_values(values, trim_fraction)
    else:
        mask, r = None, 0
    try:
        fld = DensityField(values, kappa, bandwidth, mask)
    except DegenerateFieldError:
        return _lower_median(np.sort(values)), r, True, True
    res = nearest_mode(fld, start, tol, max_iter)
    return res.mode, r, False, res.converged


def smooth(img: Image, params: SmootherParams = SmootherParams()
           ) -> tuple[Image, SmoothReport]:
    """Run the (trimmed) mode smoother over the whole image."""
    t0 = time.perf_counter()
    H, W = img.height, img.width
    w = params.radius_px
    if params.bandwidth is None:
        g = auto_scale(img, w)
        g_mode = "auto"
    else:
        g, g_mode = float(params.bandwidth), "fixed"
    h_row, h_col = w / H, w / W
    # the spatial kernel K_h(x) = K(x/h) / h^2 and the 1/n^2 average both
    # stay in the weights so field values match the estimator definition
    knorm = 1.0 / (h_row * h_col * H * W)
    full = (2 * w + 1) ** 2
    kappa_full: np.ndarray | None = None
    out = np.empty((H, W))
    trimmed_total = 0
    interior_r = 0
    fallbacks = 0
    nonconv = 0
    for i0 in range(H):
        for j0 in range(W):
            win = window_at(img, i0, j0, w, params.border)
            if len(win) == full:
                if kappa_full is None:
                    kappa_full = k2(win.offsets[:, 0], win.offsets[:, 1]) * knorm
                kappa = kappa_full
            else:
                kappa = k2(win.offsets[:, 0], win.offsets[:, 1]) * knorm
            start = float(img.pixels[i0, j0])
            mode, r, fb, conv = _mode_pixel(
                win.values, kappa, start, g, params.trim_fraction,
                params.tol, params.max_iter)
            out[i0, j0] = mode
            trimmed_total += r
            if len(win) == full:
                interior_r = r
            fallbacks += fb
            nonconv += not conv
    report = SmoothReport(
        width=W, height=H, radius_px=w, bandwidth=g, bandwidth_mode=g_mode,
        trim_fraction=params.trim_fraction, border=params.border,
        tol=params.tol, max_iter=params.max_iter,
        interior_trim_count=interior_r, trimmed_total=trimmed_total,
        median_fallback_pixels=fallbacks, nonconverged_pixels=nonconv,
        wall_time_s=time.perf_counter() - t0)
    return Image(out), report


def window_mode_estimate(values, params: SmootherParams,
                         bandwidth: float) -> float:
    """Estimate for a single full window given row-major entry values.

    The window is treated as interior: spatial weights follow the product
    kernel on the (2w+1)^2 offset lattice.  The starting point is the
    centre entry.
    """
    vals = np.asarray(values, dtype=float).ravel()
    w = params.radius_px
    k = (2 * w + 1) ** 2
    if vals.size != k:
        raise ValueError(f"expected {k} values for radius {w}, got {vals.size}")
    lat = np.arange(-w, w + 1) / w
    u1 = np.repeat(lat, 2 * w + 1)
    u2 = np.tile(lat, 2 * w + 1)
    kappa = k2(u1, u2) / (w * w)
    start = float(vals[k // 2])
    mode, _, _, _ = _mode_pixel(vals, kappa, start, bandwidth,
                                   params.trim_fraction, params.tol,
                                   params.max_iter)
    return mode


def median_smooth(img: Image, radius_px: int = 2,
                  border: str = "clip") -> Image:
    """Window median baseline (lower middle value for even counts)."""
    if radius_px < 1:
        raise ValueError("radius_px must be >= 1")
    H, W = img.height, img.width
    out = np.empty((H, W))
    for i0 in range(H):
        for j0 in range(W):
            win = window_at(img, i0, j0, radius_px, border)
            out[i0, j0] = _lower_median(np.sort(win.values))
    return Image(out)
