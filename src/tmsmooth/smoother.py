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

Whole images are processed in row bands of stacked windows, not pixel by
pixel.  A band holds as many image rows as fit BAND_ENTRIES window entries
(at least one row), read from a sliding-window view of the padded image:
edge padding for "replicate", NaN for the entries a "clip" window lacks.
Each band is trimmed in groups of equal entry count and then searched in
lock step (see mode_density), so working memory beyond the input and
output images scales with the band, not with the image.  A band whose
pixels all stay (each start is a mode of its own window density, as on a
noise-free image of flat regions) ends its search after the start test.
The trim scores one LTS block at a time and the search copies its
per-row arrays only when half of its rows are done, so a band of 2**15
entries (256 kB of window values) takes under 2 MB of temporaries on 5x5
and 9x9 windows.
No row's arithmetic depends on the other rows of its band: the output is
bit-identical for every band size and traversal order.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import lts_trim, mode_density
# window_at, trim_values, DensityField and nearest_mode are not called here;
# they stay importable from this module for code that rebinds them on it,
# such as the traced benchmark run (perfbench/spans.py)
from .grid_image import Image, _check_border, window_at  # noqa: F401
from .kernels import k2
from .lts_trim import trim_count, trim_values  # noqa: F401
from .mode_density import (DEFAULT_MAX_ITER, DEFAULT_TOL,  # noqa: F401
                           DensityField, _check_bandwidth, nearest_mode)

DEGENERATE_SCALE_FLOOR = 1e-6
# window entries per row band: bounds the working set of one batched pass.
# 2**16 raised the peak resident set by 7-8 % on 100x100 and 64x64 images
# and ran 23 % slower on a 160x160 one
BAND_ENTRIES = 1 << 15


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
    border: str = "clip"

    def __post_init__(self):
        if self.radius_px < 1:
            raise ValueError("radius_px must be >= 1")
        if self.bandwidth is not None:
            _check_bandwidth(self.bandwidth)
        if not (0.0 <= self.trim_fraction < 0.5):
            raise ValueError("trim_fraction must be in [0, 0.5)")
        _check_border(self.border)


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
    interior_trim_count: int
    trimmed_total: int
    median_fallback_pixels: int
    nonconverged_pixels: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _bands(img: Image, radius_px: int, border: str):
    """(first pixel, (P, k) window stack) per row band of the image.

    Row p of a stack holds the window of pixel first + p in row-major
    order; entries outside a "clip" image are NaN.  A band holds as many
    whole image rows as fit BAND_ENTRIES window entries, at least one.
    """
    w, H, W = radius_px, img.height, img.width
    side = 2 * w + 1
    if border == "replicate":
        pad = np.pad(img.pixels, w, mode="edge")
    else:
        pad = np.pad(img.pixels, w, constant_values=np.nan)
    view = np.lib.stride_tricks.sliding_window_view(pad, (side, side))
    step = max(1, BAND_ENTRIES // (W * side * side))
    for i in range(0, H, step):
        yield i * W, view[i:i + step].reshape(-1, side * side)


def _quantiles(win: np.ndarray, *qs: float) -> list[np.ndarray]:
    """Per row, the ceil(q n)-th smallest of the n non-NaN entries along
    the last axis, for each q: the quartile and median rank rule."""
    s = np.sort(win, axis=-1)
    n = s.shape[-1] - np.count_nonzero(np.isnan(s), axis=-1)
    return [np.take_along_axis(
        s, np.asarray(np.ceil(q * n), dtype=int)[..., None] - 1, axis=-1
    )[..., 0] for q in qs]


def _window_iqr(win: np.ndarray) -> np.ndarray:
    """Interquartile range of each window of a stack (or of one window)."""
    q1, q3 = _quantiles(win, 0.25, 0.75)
    return q3 - q1


def window_iqr_grid(img: Image, radius_px: int) -> np.ndarray:
    """Interquartile range of every pixel's clipped window."""
    iqrs = np.empty(img.pixels.size)
    for p0, win in _bands(img, radius_px, "clip"):
        iqrs[p0:p0 + len(win)] = _window_iqr(win)
    return iqrs.reshape(img.pixels.shape)


def auto_scale(img: Image, radius_px: int = 2) -> float:
    """Automatic intensity bandwidth: median of the window IQRs."""
    if radius_px < 1:
        raise ValueError("radius_px must be >= 1")
    g = float(_quantiles(window_iqr_grid(img, radius_px).ravel(), 0.5)[0])
    if g < DEGENERATE_SCALE_FLOOR:
        raise DegenerateScaleError(
            f"automatic bandwidth {g!r} is below {DEGENERATE_SCALE_FLOOR}; "
            "the image is nearly constant, pass an explicit bandwidth")
    return g


def _lattice_kappa(w: int) -> np.ndarray:
    """Spatial weights of the (2w+1)^2 window offsets, row-major.

    The spatial kernel K_h(x) = K(x/h) / h^2 and the 1/n^2 average both
    stay in the weights so field values match the estimator definition:
    with h = (w/H, w/W) and n^2 = HW, their product is 1 / w^2.
    """
    lat = np.arange(-w, w + 1) / w
    return k2(np.repeat(lat, 2 * w + 1), np.tile(lat, 2 * w + 1)) / (w * w)


def _estimate(win: np.ndarray, kappa: np.ndarray, g: float,
              params: SmootherParams):
    """Estimates for a (P, k) window stack; NaN entries lie off the image.

    Returns (modes, trimmed entries, median fallbacks, non-converged).
    Windows are trimmed in groups of equal entry count; each is then one
    search row (mode_density._rows), or the window median if the row holds
    no kernel.
    """
    keep, trimmed = None, 0
    if params.trim_fraction > 0.0:
        keep = ~np.isnan(win)
        n = np.count_nonzero(keep, axis=1)
        for m in np.unique(n):
            rows = np.flatnonzero(n == m)
            sub = keep[rows]
            _, mask, _, r = lts_trim.trim_values(
                win[rows][sub].reshape(-1, m), params.trim_fraction)
            sub[sub] = mask.ravel()
            keep[rows] = sub
            trimmed += r * rows.size
    ys, kc, on = mode_density._rows(win, kappa, g, keep)
    start = win[:, win.shape[1] // 2]
    fb = ~on.any(axis=1)
    modes = np.empty(len(win))
    if fb.any():
        modes[fb] = _quantiles(win[fb], 0.5)[0]
        ys, kc, start = ys[~fb], kc[~fb], start[~fb]
    modes[~fb], _, _, conv = mode_density._nearest_modes(
        ys, kc, g, start, DEFAULT_TOL, DEFAULT_MAX_ITER)
    return modes, trimmed, int(fb.sum()), int(conv.size - conv.sum())


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
    kappa = _lattice_kappa(w)
    out = np.empty(H * W)
    totals = np.zeros(3, dtype=int)
    for p0, win in _bands(img, w, params.border):
        out[p0:p0 + len(win)], *counts = _estimate(win, kappa, g, params)
        totals += counts
    has_full = params.border == "replicate" or min(H, W) > 2 * w
    report = SmoothReport(
        width=W, height=H, radius_px=w, bandwidth=g, bandwidth_mode=g_mode,
        trim_fraction=params.trim_fraction, border=params.border,
        interior_trim_count=(trim_count((2 * w + 1) ** 2,
                                        params.trim_fraction)
                             if has_full else 0),
        trimmed_total=int(totals[0]), median_fallback_pixels=int(totals[1]),
        nonconverged_pixels=int(totals[2]),
        wall_time_s=time.perf_counter() - t0)
    return Image(out.reshape(H, W)), report


def window_mode_estimate(values, params: SmootherParams, bandwidth: float):
    """Estimates for full windows given row-major entry values.

    `values` is one window of (2w+1)^2 entries, or a stack of them along
    the leading axes, which gives an array of estimates.  Windows are
    treated as interior: spatial weights follow the product kernel on the
    (2w+1)^2 offset lattice.  The starting point is the centre entry.
    """
    _check_bandwidth(bandwidth)
    vals = np.asarray(values, dtype=float)
    w = params.radius_px
    k = (2 * w + 1) ** 2
    if vals.shape[-1:] != (k,):
        raise ValueError(f"expected {k} values for radius {w}, got "
                         f"shape {vals.shape}")
    modes = _estimate(vals.reshape(-1, k), _lattice_kappa(w), bandwidth,
                      params)[0]
    return float(modes[0]) if vals.ndim == 1 else modes.reshape(
        vals.shape[:-1])


def median_smooth(img: Image, radius_px: int = 2,
                  border: str = "clip") -> Image:
    """Window median baseline (lower middle value for even counts)."""
    if radius_px < 1:
        raise ValueError("radius_px must be >= 1")
    _check_border(border)
    out = np.empty(img.pixels.size)
    for p0, win in _bands(img, radius_px, border):
        out[p0:p0 + len(win)] = _quantiles(win, 0.5)[0]
    return Image(out.reshape(img.pixels.shape))
