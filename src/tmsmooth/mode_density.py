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

The search runs on a stack of fields at once, in lock step: each pass of
the walk checks the next WALK_CUTS cut points of every row still walking,
each pass of the root solver takes one step on every row still solving,
and a row leaves the batch when it is done.  A downward search runs as an
upward one on the mirrored field (y -> -y), which negates every
intermediate exactly.  nearest_mode is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .kernels import _GAUSS_COEF, l0, l1, l2

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
# cut points the search checks per lock-step pass
WALK_CUTS = 4


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

    # -- fast scalar evaluation ------------------------------------------

    def eval_all(self, y: float) -> tuple[float, float, float]:
        """(F, F', F'') at a scalar y, sharing one exponential pass."""
        v = (y - self._ys) / self.g
        t = np.where(np.abs(v) < 1.0, self._kc * np.exp(-0.5 * v * v), 0.0)
        f = float(t.sum())
        fp = float(-(v * t).sum() / self.g)
        fpp = float(((v * v - 1.0) * t).sum() / (self.g * self.g))
        return f, fp, fpp

    def eval_value(self, y: float) -> float:
        return self.eval_all(y)[0]

    def eval_d1(self, y: float) -> float:
        return self.eval_all(y)[1]


@dataclass(frozen=True)
class ModeResult:
    """Outcome of a nearest-mode search."""

    mode: float
    iterations: int  # root-solver steps
    direction: str  # "up", "down", "both", or "stay"
    converged: bool
    field_value: float
    used_scan: bool = False  # always False: the search has no scan fallback


def _seg_derivs(y, ys, kc, seg, g):
    """(F', F'') at y, summing the kernels of `seg` untruncated; the kernel
    axis is the last one of ys, kc and seg and is summed out."""
    v = (y[..., None] - ys) / g
    t = np.where(seg, kc * np.exp(-0.5 * v * v), 0.0)
    fpp = ((v * v - 1.0) * t).sum(axis=-1) / (g * g)
    return -(v * t).sum(axis=-1) / g, fpp


def _climb(ys, kc, g, y0, tol, max_iter):
    """First zero of F' above y0[p] per row, where F' > 0 just above y0[p].

    Rows are independent fields; kc == 0 marks a slot without a kernel.
    Every row runs the same steps in lock step, and a row leaves the batch
    when it is done.  Returns (mode, root-solver steps, converged).
    """
    live = kc > 0.0
    enter = np.where(live, ys - g, np.nan)
    leave = np.where(live, ys + g, np.nan)
    cuts = np.sort(np.concatenate([enter, leave], axis=1), axis=1)
    nxt = np.count_nonzero(cuts <= y0[:, None], axis=1)
    near, far, fp, fpp = y0.copy(), np.empty_like(y0), np.empty_like(y0), \
        np.empty_like(y0)
    seg = np.empty(ys.shape, dtype=bool)
    rows = np.arange(y0.size)
    ahead = np.arange(WALK_CUTS)
    while rows.size:
        # the next WALK_CUTS cuts of each row at once; the segment that ends
        # at cut x holds the kernels entered and not yet left just below x.
        # The last cut of a support component ends it with F' < 0 there,
        # so every row stops (indices past the last cut repeat it)
        idx = np.minimum(nxt[rows, None] + ahead, cuts.shape[1] - 1)
        x = np.take_along_axis(cuts[rows], idx, axis=1)
        ent, lv = enter[rows, None], leave[rows, None]
        m = (ent < x[..., None]) & (x[..., None] <= lv)
        p, pp = _seg_derivs(x, ys[rows, None], kc[rows, None], m, g)
        hit = p <= 0.0
        stop = hit.any(axis=1)
        k = hit.argmax(axis=1)[stop]
        done, s = rows[stop], np.flatnonzero(stop)
        far[done], fp[done], fpp[done] = x[s, k], p[s, k], pp[s, k]
        seg[done] = m[s, k]
        near[done[k > 0]] = x[s[k > 0], k[k > 0] - 1]
        rows = rows[~stop]
        near[rows] = x[~stop, -1]
        nxt[rows] += WALK_CUTS
    # the root of F' on `seg` lies in [near, far]: Newton, bisecting when a
    # step leaves the bracket, plus one final Newton step that costs no
    # evaluation (|F'| <= tol leaves y up to tol / |F''| from the root)
    y = far.copy()
    iters = np.full(y0.size, max_iter)
    conv = np.zeros(y0.size, dtype=bool)
    rows = np.arange(y0.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if not rows.size:
                break
            lo, hi, p, pp = near[rows], far[rows], fp[rows], fpp[rows]
            yn = np.where(pp < 0.0, y[rows] - p / pp, lo)
            out = ~((lo < yn) & (yn < hi))
            yn[out] = 0.5 * (lo[out] + hi[out])
            stuck = ~((lo < yn) & (yn < hi))
            iters[rows[stuck]] = it - 1
            keep = ~stuck
            rows, yn, lo, hi = rows[keep], yn[keep], lo[keep], hi[keep]
            p, pp = _seg_derivs(yn, ys[rows], kc[rows], seg[rows], g)
            y[rows] = yn
            ok = np.abs(p) <= tol
            yf = np.where(pp < 0.0, yn - p / pp, yn)
            y[rows[ok]] = np.where((lo < yf) & (yf < hi), yf, yn)[ok]
            iters[rows[ok]] = it
            conv[rows[ok]] = True
            up = p > 0.0
            near[rows[~ok & up]] = yn[~ok & up]
            far[rows[~ok & ~up]] = yn[~ok & ~up]
            fp[rows], fpp[rows] = p, pp
            rows = rows[~ok]
    return y, iters, conv


def _nearest_modes(ys, ks, g, start, tol, max_iter):
    """Nearest-mode search for a stack of fields (see module docstring).

    Row p holds kernel centres ys[p] with spatial weights ks[p] (weight 0:
    no kernel) and starts at start[p].  Returns (mode, iterations,
    direction, converged) per row, direction 1 up, -1 down, 0 stay and
    2 both.
    """
    kc = ks * (_GAUSS_COEF / g)
    v = (start[:, None] - ys) / g
    t = np.where(np.abs(v) < 1.0, kc * np.exp(-0.5 * v * v), 0.0)
    fp = -(v * t).sum(axis=1) / g
    d = np.where(t.sum(axis=1) <= 0.0, 2,
                 np.where(np.abs(fp) <= tol, 0, np.sign(fp))).astype(int)
    climb, both = np.flatnonzero(abs(d) == 1), np.flatnonzero(d == 2)
    # outlier start: search away from it from the cut point where the
    # density begins on either side
    live = kc[both] > 0.0
    above = ys[both] > start[both, None]
    up = np.where(live & above, ys[both], np.inf).min(axis=1) - g
    down = np.where(live & ~above, ys[both], -np.inf).max(axis=1) + g
    src = np.concatenate([climb, both, both])
    sgn = np.concatenate([d[climb], np.repeat([1, -1], both.size)])
    y0 = np.concatenate([start[climb], up, down])
    go = np.isfinite(y0)
    src, sgn, y0 = src[go], sgn[go], y0[go]
    m, it, ok = _climb(sgn[:, None] * ys[src], kc[src], g, sgn * y0, tol,
                       max_iter)
    # slot 0 holds the upward results and the stays, slot 1 the downward
    # ones; only an outlier start fills both, and then the candidate closer
    # to the start wins, a tie picking the smaller (downward) intensity
    slot = (sgn < 0).astype(int)
    cand = np.full((2, start.size), np.nan)
    iters = np.zeros((2, start.size), dtype=int)
    conv = np.ones((2, start.size), dtype=bool)
    cand[0, d == 0] = start[d == 0]
    cand[slot, src], iters[slot, src], conv[slot, src] = sgn * m, it, ok
    dist = np.abs(cand - start)
    pick = ((dist[1] <= dist[0]) | np.isnan(dist[0])).astype(int)
    rows = np.arange(start.size)
    return cand[pick, rows], iters.sum(axis=0), d, conv[pick, rows]


_DIRECTIONS = {1: "up", -1: "down", 0: "stay", 2: "both"}


def nearest_mode(f: DensityField, start: float, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> ModeResult:
    """Local maximum of the field nearest to `start` (see module docstring)."""
    if not np.isfinite(start):
        raise ValueError("start must be finite")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    mode, iters, d, conv = _nearest_modes(
        f._ys[None], f._ks[None], f.g, np.array([float(start)]), tol,
        max_iter)
    mode = float(mode[0])
    return ModeResult(mode=mode, iterations=int(iters[0]),
                      direction=_DIRECTIONS[int(d[0])],
                      converged=bool(conv[0]), field_value=f.eval_value(mode))
