"""Least-trimmed-squares location estimation and window trimming.

For one-dimensional data the LTS location estimate can be computed
exactly: the optimal retained subset of size n - r is always a contiguous
block of the sorted sample, so it suffices to slide a block of that size
across the sorted values and keep the block mean with the smallest
within-block sum of squares.  Ties go to the block with the smaller
starting index in sorted order; block scatter is compared through an
integer-exact quantity so that this rule is deterministic on integer
(pixel-valued) data, where genuine scatter ties actually occur.

Trimming a window removes the r = floor(l * n) entries with the largest
squared residuals against the LTS centre.  The retained set is defined by
the order statistic of the squared residuals; residual ties at the
threshold are resolved by dropping entries in descending (row, column)
order until exactly n - r remain, which makes the whole procedure
deterministic.
"""

from __future__ import annotations

import math

import numpy as np


def trim_count(n: int, trim_fraction: float) -> int:
    """Number of entries removed from an n-entry window: floor(n * l)."""
    if not (0.0 <= trim_fraction < 0.5):
        raise ValueError(f"trim fraction must be in [0, 0.5), got {trim_fraction}")
    return int(math.floor(n * trim_fraction))


def lts_center(values, r: int):
    """Exact 1-D LTS location estimate with r values trimmed.

    Returns the mean of the contiguous sorted block of size n - r with
    minimal within-block sum of squared deviations.  Values run along the
    last axis; leading axes are independent windows (a float for 1-D input).
    """
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    n = vals.shape[-1]
    if n == 0:
        raise ValueError("lts_center needs at least one value")
    if not (0 <= r < n):
        raise ValueError(f"trim count r={r} must satisfy 0 <= r < {n}")
    h = n - r
    s = np.sort(vals, axis=-1)
    if r == 0:
        center = s.mean(axis=-1)
    else:
        # order blocks by h * SS = h * sum(x'^2) - (sum x')^2 with an integer
        # shift: every intermediate is exact in float for integer-valued
        # data, so equal-scatter blocks compare exactly equal, and keeping
        # the first strict minimum implements the smaller-start-index tie
        # rule.  One block at a time, so no (r + 1, h) stack is built
        shift = np.round(s[..., (n - 1) // 2])[..., None]
        sb = np.empty(s.shape[:-1] + (h,))
        best_ssq, center = np.inf, 0.0
        for b in range(r + 1):
            block = s[..., b:b + h]
            np.subtract(block, shift, out=sb)
            ssum = sb.sum(axis=-1)
            sb *= sb
            ssq = h * sb.sum(axis=-1) - ssum ** 2
            better = ssq < best_ssq
            best_ssq = np.where(better, ssq, best_ssq)
            center = np.where(better, block.mean(axis=-1), center)
    return float(center) if vals.ndim == 1 else center


def trim_values(values, trim_fraction: float):
    """Array-level trimming: (lts_centre, retained mask, threshold, r).

    Entries run along the last axis in window order, i.e. ascending (row,
    column); threshold ties are dropped from the back of that order.
    Leading axes are independent windows of the same size, all trimmed by
    the same r.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    n = vals.shape[-1]
    if n == 0:
        raise ValueError("cannot trim an empty window")
    r = trim_count(n, trim_fraction)
    keep = n - r
    center = lts_center(vals, r)
    resid = (vals - np.expand_dims(center, -1)) ** 2
    if r == 0:
        return center, np.ones(vals.shape, dtype=bool), resid.max(axis=-1), 0
    thr = np.take(np.partition(resid, keep - 1, axis=-1), keep - 1, axis=-1)
    below = resid < thr[..., None]
    tied = resid == thr[..., None]
    need = keep - np.count_nonzero(below, axis=-1)
    mask = below | (tied & (np.cumsum(tied, axis=-1) <= need[..., None]))
    return center, mask, thr, r
