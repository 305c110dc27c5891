"""Weighted kernel density in the intensity variable and local mode search.

A density field is the weighted sum of truncated-Gaussian kernels centred
at the retained window intensities.  The per-pixel estimate is the local
mode of that field nearest to a starting intensity (the untrimmed centre
observation).

The kernel of an entry y_i is cut at the points y_i - g and y_i + g, so F
is smooth only between consecutive cut points.  On such a segment every
active term of F'' is kappa_i (v^2 - 1) phi(v) / g^3 < 0 for |v| < 1: F is
strictly concave there and F' strictly decreasing.  Moving in a direction
d (+1 or -1), a kernel enters at v = -d or leaves at v = +d, and either
event makes d*F' jump upward.  From a point where d*F' > 0, d*F' therefore
decreases continuously within each segment and only rises across cuts.

The mode in direction d is the first zero of d*F': the unique root of F'
on the first segment whose far-end value of d*F', taken with that
segment's kernels, is <= 0.  Such a segment always exists before the end
of the support component, because d*F' < 0 just inside that end.  The
search evaluates d*F' at the cut points ahead in order, then solves the
one bracketed root by Newton, bisecting whenever a Newton step leaves the
bracket.  There is no other fallback.

Search policy, given F = field value and F' its derivative at the start:

* F(start) > 0 and |F'(start)| > tol: d is the sign of F'(start); the
  first zero of d*F' beyond the start is returned ("up" or "down").
* F(start) > 0 and |F'(start)| <= tol: the start is returned unchanged
  ("stay"); it is a local maximum because F'' < 0 wherever F > 0.
* F(start) = 0 (the centre observation was an outlier far from every
  retained value): search away from the start from the cut point where
  the density begins on each side, and keep the mode closer to the start,
  ties picking the smaller intensity ("both").

The root solver stops once |F'| <= tol and returns one more Newton step
from there; `max_iter` caps its number of steps, and a search that hits
the cap is reported as not converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .kernels import _GAUSS_COEF, l0, l1, l2

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200


class DegenerateFieldError(ValueError):
    """No retained entry carries positive spatial weight."""


@dataclass
class DensityField:
    """Intensity density built from (value, weight) pairs.

    `retained` is a boolean mask over the entries; None keeps all of them.
    Entries with zero spatial weight contribute nothing and are excluded
    from the support hull.
    """

    values: np.ndarray
    weights: np.ndarray
    g: float
    retained: np.ndarray | None = None

    _ys: np.ndarray = dc_field(init=False, repr=False)
    _ks: np.ndarray = dc_field(init=False, repr=False)
    _kc: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        wts = np.asarray(self.weights, dtype=float).ravel()
        if vals.size != wts.size:
            raise ValueError("values and weights must have equal length")
        if vals.size == 0:
            raise ValueError("density field needs at least one entry")
        if not np.all(np.isfinite(vals)) or not np.all(np.isfinite(wts)):
            raise ValueError("values and weights must be finite")
        if np.any(wts < 0):
            raise ValueError("weights must be non-negative")
        if not (self.g > 0 and np.isfinite(self.g)):
            raise ValueError(f"bandwidth g must be positive, got {self.g}")
        if self.retained is None:
            mask = np.ones(vals.size, dtype=bool)
        else:
            mask = np.asarray(self.retained, dtype=bool).ravel()
            if mask.size != vals.size:
                raise ValueError("retained mask length mismatch")
        active = mask & (wts > 0)
        if not np.any(active):
            raise DegenerateFieldError(
                "no retained entry has positive spatial weight")
        order = np.argsort(vals[active], kind="stable")
        self._ys = vals[active][order]
        self._ks = wts[active][order]
        # shared coefficient for the fast combined evaluation:
        # kappa * phi(v) / (Z * g) is the per-entry contribution to F.
        self._kc = self._ks * (_GAUSS_COEF / self.g)
        self.values = vals
        self.weights = wts
        self.retained = mask

    # -- support geometry ------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        """Hull of the positive-density region."""
        return float(self._ys[0] - self.g), float(self._ys[-1] + self.g)

    # -- reference evaluation (vectorised over y) -------------------------

    def value(self, y):
        """Field value F(y); accepts scalars or arrays."""
        y_arr = np.asarray(y, dtype=float)
        v = (y_arr[..., None] - self._ys) / self.g
        out = (self._ks * l0(v)).sum(axis=-1) / self.g
        return float(out) if y_arr.ndim == 0 else out

    def d1(self, y):
        """First derivative F'(y)."""
        y_arr = np.asarray(y, dtype=float)
        v = (y_arr[..., None] - self._ys) / self.g
        out = (self._ks * l1(v)).sum(axis=-1) / self.g ** 2
        return float(out) if y_arr.ndim == 0 else out

    def d2(self, y):
        """Second derivative F''(y)."""
        y_arr = np.asarray(y, dtype=float)
        v = (y_arr[..., None] - self._ys) / self.g
        out = (self._ks * l2(v)).sum(axis=-1) / self.g ** 3
        return float(out) if y_arr.ndim == 0 else out

    # -- fast scalar evaluation for the mode search -----------------------

    def eval_all(self, y: float, active: slice | None = None
                 ) -> tuple[float, float, float]:
        """(F, F', F'') at a scalar y, sharing one exponential pass.

        `active` selects a run of kernels in ascending order of their
        centres and sums them without truncation: the smooth piece of F
        on one segment between cut points, extended to its ends.
        """
        if active is None:
            v = (y - self._ys) / self.g
            t = np.where(np.abs(v) < 1.0, self._kc * np.exp(-0.5 * v * v),
                         0.0)
        else:
            v = (y - self._ys[active]) / self.g
            t = self._kc[active] * np.exp(-0.5 * v * v)
        f = float(t.sum())
        fp = float(-(v * t).sum() / self.g)
        fpp = float(((v * v - 1.0) * t).sum() / (self.g * self.g))
        return f, fp, fpp

    def eval_value(self, y: float) -> float:
        v = (y - self._ys) / self.g
        t = np.where(np.abs(v) < 1.0, self._kc * np.exp(-0.5 * v * v), 0.0)
        return float(t.sum())

    def eval_d1(self, y: float) -> float:
        v = (y - self._ys) / self.g
        t = np.where(np.abs(v) < 1.0, self._kc * np.exp(-0.5 * v * v), 0.0)
        return float(-(v * t).sum() / self.g)


@dataclass(frozen=True)
class ModeResult:
    """Outcome of a nearest-mode search."""

    mode: float
    iterations: int  # root-solver steps
    direction: str  # "up", "down", "both", or "stay"
    converged: bool
    field_value: float
    used_scan: bool = False  # always False: the search has no scan fallback


def _ascend(f: DensityField, y0: float, d: float, tol: float,
            max_iter: int) -> tuple[float, int, bool]:
    """First zero of d*F' beyond y0, where d*F' > 0 just beyond y0."""
    enter, leave = f._ys - f.g, f._ys + f.g
    cuts = np.unique(np.concatenate([enter, leave]))
    if d > 0.0:
        ahead, side = cuts[cuts > y0], "left"
    else:
        ahead, side = cuts[cuts < y0][::-1], "right"
    # the segment that ends at a cut holds the kernels entered and not yet
    # left on the near side of it: a run of consecutive sorted entries
    first = np.searchsorted(leave, ahead, side)
    stop = np.searchsorted(enter, ahead, side)
    near = y0
    for far, i, j in zip(ahead.tolist(), first.tolist(), stop.tolist()):
        seg = slice(i, j)
        _, fp, fpp = f.eval_all(far, seg)
        if d * fp <= 0.0:
            break
        near = far
    # the last cut ends the support, where d*F' < 0, so the loop broke:
    # the root of F' on `seg` lies in [near, far]
    y = far
    for it in range(1, max_iter + 1):
        lo, hi = min(near, far), max(near, far)
        y_new = y - fp / fpp if fpp < 0.0 else near
        if not lo < y_new < hi:
            y_new = 0.5 * (near + far)
            if not lo < y_new < hi:
                return y, it - 1, False
        y = y_new
        _, fp, fpp = f.eval_all(y, seg)
        if abs(fp) <= tol:
            # |F'| <= tol leaves y up to tol / |F''| from the root; one more
            # Newton step costs no evaluation and squares that distance
            y_new = y - fp / fpp if fpp < 0.0 else y
            return (y_new if lo < y_new < hi else y), it, True
        if d * fp > 0.0:
            near = y
        else:
            far = y
    return y, max_iter, False


def _pick_closer(start: float, cands: list[tuple[float, int, bool]]
                 ) -> tuple[float, int, bool]:
    """Closest candidate mode; equidistant picks the smaller intensity."""
    mode, _, conv = min(cands, key=lambda c: (abs(c[0] - start), c[0]))
    return mode, sum(c[1] for c in cands), conv


def nearest_mode(f: DensityField, start: float, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> ModeResult:
    """Local maximum of the field nearest to `start` (see module docstring)."""
    if not np.isfinite(start):
        raise ValueError("start must be finite")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    fv, fp, _ = f.eval_all(start)
    if fv <= 0.0:
        # outlier start: search from the cut points where the density
        # begins on either side
        g, ys = f.g, f._ys
        idx = int(np.searchsorted(ys, start))
        cands = []
        if idx < ys.size:
            cands.append(_ascend(f, ys[idx] - g, +1.0, tol, max_iter))
        if idx > 0:
            cands.append(_ascend(f, ys[idx - 1] + g, -1.0, tol, max_iter))
        mode, iters, conv = _pick_closer(start, cands)
        return ModeResult(mode=mode, iterations=iters, direction="both",
                          converged=conv, field_value=f.eval_value(mode))
    if abs(fp) <= tol:
        return ModeResult(mode=start, iterations=0, direction="stay",
                          converged=True, field_value=fv)
    d = 1.0 if fp > 0.0 else -1.0
    mode, iters, conv = _ascend(f, start, d, tol, max_iter)
    return ModeResult(mode=mode, iterations=iters,
                      direction="up" if d > 0 else "down",
                      converged=conv, field_value=f.eval_value(mode))
