"""Weighted kernel density in the intensity variable and local mode search.

A density field is the weighted sum of truncated-Gaussian kernels centred
at the retained window intensities.  The per-pixel estimate is the local
mode of that field nearest to a starting intensity (the untrimmed centre
observation).  A field is one row of a search stack (_rows, for the
smoother's windows and DensityField alike): a slot per positive-weight
entry in entry order, without a kernel where trimmed, off-image or collapsed.

The kernel of an entry y_i is cut at the points y_i - g and y_i + g, taken
as computed in floating point, and it is active exactly where
fl(y_i - g) < y < fl(y_i + g).  The field, the search policy and the walk
all decide membership by this one rule, so F is 0 at both ends of its
support and positive just inside them.  A kernel is active at some float
iff it is active at y_i itself, fl(y_i - g) < y_i < fl(y_i + g): rounding
is monotone and adjacent gaps between floats differ by at most a factor
of two, so once one cut rounds to y_i the other rounds to y_i or to its
neighbour, and no float lies strictly between them.  A kernel active
nowhere carries no kernel, like a trimmed entry.  F is smooth only
between consecutive cut points.  On such a segment every active term of
F'' is kappa_i (v^2 - 1) phi(v) / g^3 < 0 for |v| < 1: F is strictly concave
there and F' strictly decreasing.  Moving in a direction d (+1 or -1), a
kernel enters at v = -d or leaves at v = +d, and either event makes d*F'
jump upward.  From a point where d*F' > 0, d*F' therefore decreases
continuously within each segment and only rises across cuts.

The mode in direction d is the first zero of d*F': the unique root of F'
on the first segment whose far-end value of d*F', taken with that
segment's kernels, is <= 0.  Such a segment always exists before the end
of the support component, because d*F' < 0 just inside that end.  The
search evaluates d*F' at the cut points ahead in order, skipping those a
curvature bound clears (below), then solves the one bracketed root by
Newton, bisecting whenever a Newton step leaves the bracket.  There is no
other fallback.

Every search ends.  The walk stops a row at the first checked cut where
d*F' is not > 0.  No collapsed kernel can put a start past a row's last
cut, and every cut checked past that one is the NaN padding of the row's
cut array (or the last cut again), so the row stops there at the latest.
A NaN from terms that overflow (values near the float maximum) stops a
row in the same way; such a row, like one whose root solver hits the
step cap, is reported as not converged.

Search policy, given F = field value and F' its derivative at the start:

* F(start) > 0 and |F'(start)| > tol: d is the sign of F'(start); the
  first zero of d*F' beyond the start is returned ("up" or "down").
* F(start) > 0 and |F'(start)| <= tol: the start is returned unchanged
  ("stay"); it is a local maximum because F'' < 0 wherever F > 0.
* F(start) > 0 and F'(start) NaN (the terms of a kernel more than the
  float maximum from the start overflow): "stay", not converged.
* F(start) = 0, no kernel active (the centre observation was an outlier
  far from every retained value): search away from the start from the
  cut point where the density begins on each side, and keep the mode
  closer to the start, ties picking the smaller intensity ("both").

The root solver stops once |F'| <= tol and returns one more Newton step
from there.  tol = DEFAULT_TOL and the cap of DEFAULT_MAX_ITER steps are
constants; a search that hits the cap is reported as not converged.  The
cap is far from binding: on the benchmark's inputs of seeds 1, 2 and 9
the most steps any search took were 6 on denoise_trimmed, 4 on
ramp_wide, 9 on probe_windows and 0 on flat_fixed_point, and every
search converged.

The skip bound: (v^2 - 1) phi(v) >= -phi(0) for every v, so F'' >= -K on
every segment, with K = phi(0) sum_i kappa_i / g^3.  Since d*F' also
never jumps downward, a checked point x with d*F' = p just before it has
d*F' >= p - K (y - x) at every y beyond x, and no zero lies below
x + p / K.  The next cut checked is the first at or beyond
x + (p - tol) / K.  tol is the margin for rounding: the rounding of p and
of the bound is of order eps K (|x| + n g) for n kernels, so every cut
skipped is one where the computed d*F' is positive, and the walk stops at
the same cut as one that checks every cut.  The first skip starts from
|F'(start)|, which the search policy computes anyway.  The kernels active
just beyond the start are those active at it plus those entering at it,
and an entering kernel only raises d*F', so |F'(start)| bounds d*F' there
from below.  An outlier start skips nothing from the start.

The search runs on a stack of fields at once, in lock step: each pass of
the walk checks consecutive cut points of every row in its working set,
from the row's first cut not cleared, and each pass of the root solver
takes one step on every row in its working set.  A row that is done
stays in the set, its results no longer taken, until at most half of the
set is live; the set then drops its finished rows, so each per-row array
is copied about log2(batch) times per search, not on every pass.  A pass
checks batch // set size cuts per row, so the work per pass stays about
batch row-cut evaluations and the last rows of a batch finish in a few
passes.  A downward search runs as an upward one on the mirrored field
(y -> -y), which negates every intermediate exactly.  A stack whose
rows all stay returns right after the start test.  Otherwise the
climbing rows are gathered, row-major, into a float64 workspace that
also holds the walk's enter, leave and cut arrays and that the search
sizes itself; a caller that searches many stacks (the smoother's bands)
passes one _Workspace for all of them.  Each row's mode, step count and
convergence flag are written straight to that row, only an outlier row
compares its upward and downward results, and a row without any kernel
reads NaN.  nearest_mode is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .kernels import _GAUSS_COEF

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200


class DegenerateFieldError(ValueError):
    """No retained entry carries a kernel of positive spatial weight."""


def _check_bandwidth(g: float) -> None:
    """g must be positive and finite, and so must the kernel's peak
    _GAUSS_COEF / g: g is at least about 3.25e-309."""
    if not (0 < g < np.inf and _GAUSS_COEF / float(g) < np.inf):
        raise ValueError("bandwidth must be positive and finite, at least "
                         f"about 3.25e-309, got {g!r}")


@dataclass
class DensityField:
    """Intensity density built from (value, weight) pairs: one search row
    (_rows), a slot per positive-weight entry in entry order.

    `retained` is a boolean mask over the entries; None keeps all of them.
    A slot not retained, or whose kernel collapses (g below half an ulp of
    the value), carries no kernel and is left out of the support hull.
    """

    values: np.ndarray
    weights: np.ndarray
    g: float
    retained: np.ndarray | None = None

    _ys: np.ndarray = dc_field(init=False, repr=False)
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
        _check_bandwidth(self.g)
        mask = np.ones(vals.size, dtype=bool)
        if self.retained is not None:
            mask = np.asarray(self.retained, dtype=bool).ravel()
            if mask.size != vals.size:
                raise ValueError("retained mask length mismatch")
        self._ys, self._kc, _ = _rows(vals, wts, self.g, mask)
        if not np.any(self._kc > 0.0):
            raise DegenerateFieldError(
                "no retained entry carries a kernel of positive weight")
        self.values, self.weights, self.retained = vals, wts, mask

    @property
    def support(self) -> tuple[float, float]:
        """Hull of the positive-density region: the outermost cut points."""
        ys = self._ys[self._kc > 0.0]
        return float((ys - self.g).min()), float((ys + self.g).max())

    def eval_all(self, y):
        """(F, F', F'') at y, a scalar or an array; F' and F'' are the
        search's own (_seg_derivs, with the start test's membership)."""
        y_arr = np.asarray(y, dtype=float)
        ys, kc, g = self._ys, self._kc, self.g
        on = _active(ys - g, ys + g, y_arr[..., None]) & (kc > 0.0)
        v = (y_arr[..., None] - ys) / g
        out = ((on * kc * np.exp(-0.5 * v * v)).sum(axis=-1),
               *_seg_derivs(y_arr, ys, kc, on, g))
        return tuple(map(float, out)) if y_arr.ndim == 0 else out

    def value(self, y):
        """Field value F(y); accepts scalars or arrays."""
        return self.eval_all(y)[0]

    def d1(self, y):
        """First derivative F'(y)."""
        return self.eval_all(y)[1]

    def d2(self, y):
        """Second derivative F''(y)."""
        return self.eval_all(y)[2]

    eval_value, eval_d1 = value, d1


@dataclass(frozen=True)
class ModeResult:
    """Outcome of a nearest-mode search."""

    mode: float
    iterations: int  # root-solver steps
    direction: str  # "up", "down", "both", or "stay"
    converged: bool
    field_value: float
    used_scan: bool = False  # always False: the search has no scan fallback


def _active(enter, leave, y):
    """The membership rule: a kernel is active at y iff enter < y < leave."""
    return (enter < y) & (y < leave)


def _rows(vals, wts, g, keep=None):
    """(ys, kc, on): search rows of the entry values vals (entries on the
    last axis) with weights wts, one slot per positive weight.  A slot is
    on where kept and fl(y - g) < y < fl(y + g) (never at NaN); ys and kc
    are 0 where it is off."""
    pos = wts > 0.0
    ys = vals[..., pos]
    on = _active(ys - g, ys + g, ys)
    if keep is not None:
        on &= keep[..., pos]
    ys[~on] = 0.0
    return ys, on * (wts[pos] * (_GAUSS_COEF / g)), on


def _seg_derivs(y, ys, kc, seg, g, second=True):
    """(F', F'') at y, summing the kernels of `seg` untruncated; the kernel
    axis is the last one of ys, kc and seg and is summed out.  The mask is
    multiplied into the terms (seg=None: kc already holds 0 outside the
    segment), and second=False skips F'' (None)."""
    v = y[..., None] - ys
    v /= g
    t = np.multiply(v, -0.5)
    t *= v
    np.exp(t, out=t)
    if seg is not None:
        t *= seg
    t *= kc
    fpp = None
    if second:
        fpp = v * v
        fpp -= 1.0
        fpp *= t
        fpp = fpp.sum(axis=-1) / (g * g)
    v *= t
    return -v.sum(axis=-1) / g, fpp


def _climb(ys, kc, g, y0, slope0, tol, max_iter, work=None):
    """First zero of F' above y0[p] per row, where F' > 0 just above y0[p].

    Rows are independent fields; kc == 0 marks a slot without a kernel.
    slope0[p] is |F'(y0[p])| over the kernels active at y0[p] (0 if none
    is known); the walk skips the cut points the bound from there clears
    (see module docstring).  Every row of the working set runs the same
    steps in lock step.  The walk's enter, leave and cut arrays are built
    in the float64 buffer `work`, which holds at least 4 * ys.size values
    (None: a new one).  Returns (mode, root-solver steps, converged).
    Overflows, divisions by 0 and NaN are part of the search; _nearest_modes
    runs it with their warnings off.
    """
    n = y0.size
    if not n:
        return y0.copy(), np.zeros(0, dtype=int), np.zeros(0, dtype=bool)
    size = ys.size
    if work is None:
        work = np.empty(4 * size)
    enter = work[:size].reshape(ys.shape)
    leave = work[size:2 * size].reshape(ys.shape)
    cuts = work[2 * size:4 * size].reshape(n, -1)
    # a slot without a kernel has NaN cuts: sorted last, never active
    enter.fill(np.nan)
    np.copyto(enter, ys, where=kc > 0.0)
    np.add(enter, g, out=leave)
    enter -= g
    np.concatenate([enter, leave], axis=1, out=cuts)
    cuts.sort(axis=1)
    last = cuts.shape[1] - 1
    first = np.count_nonzero(cuts <= y0[:, None], axis=1)
    # no zero lies below reach (the skip bound of the module docstring)
    curv = kc.sum(axis=1) / g / g
    nxt, reach = first, y0 + (slope0 - tol) / curv
    lo, hi = np.empty(n), np.empty(n)
    at, live, y, k = np.arange(n), np.ones(n, dtype=bool), ys, kc
    while at.size:
        # each pass checks `span` consecutive cuts of every row in the set,
        # from the first one not cleared.  The segment that ends at cut x
        # holds the kernels entered and not yet left just below x.  A row
        # stops at the first x where F' is not > 0 (a NaN stops it too),
        # the segment [lo, hi] that holds its root; the last cut of a
        # support component ends it with F' < 0 there, and indices past a
        # row's last cut read its NaN padding or repeat the array's last
        span = min(last + 1, n // at.size)
        j = np.maximum(nxt, np.count_nonzero(cuts < reach[:, None], axis=1))
        idx = np.minimum(j[:, None] + np.arange(span), last)
        x = np.take_along_axis(cuts, idx, axis=1)
        m = enter[:, None] < x[..., None]
        m &= x[..., None] <= leave[:, None]
        p = _seg_derivs(x, y[:, None], k[:, None], m, g, False)[0]
        down = ~(p > 0.0)
        stop = np.flatnonzero(live & down.any(axis=1))
        h = down[stop].argmax(axis=1)
        hit, row = idx[stop, h], at[stop]
        hi[row] = x[stop, h]
        lo[row] = np.where(hit == first[row], y0[row], cuts[stop, hit - 1])
        live[stop] = False
        nxt, reach = j + span, x[:, -1] + (p[:, -1] - tol) / curv
        if 2 * np.count_nonzero(live) <= at.size:
            # one array at a time, so each original is freed before the
            # next copy is made
            cuts = cuts[live]
            enter = enter[live]
            leave = leave[live]
            at, y, k, curv, nxt, reach, live = (a[live] for a in (
                at, y, k, curv, nxt, reach, live))
    # Newton on [lo, hi], bisecting when a step leaves the bracket, plus
    # one final Newton step that costs no evaluation (|F'| <= tol leaves y
    # up to tol / |F''| from the root).  The segment's kernels are folded
    # into the weights, which is exact: t * 1 * kc = t * kc and t * 0 = 0
    # for t >= 0
    k = np.where((ys - g < hi[:, None]) & (hi[:, None] <= ys + g), kc, 0.0)
    p, pp = _seg_derivs(hi, ys, k, None, g)
    mode, yc, y = hi.copy(), hi, ys
    iters = np.full(n, max_iter)
    conv = np.zeros(n, dtype=bool)
    at, live = np.arange(n), np.ones(n, dtype=bool)
    for it in range(1, max_iter + 1):
        if not at.size:
            break
        yn = np.where(pp < 0.0, yc - p / pp, lo)
        out = ~((lo < yn) & (yn < hi))
        yn[out] = 0.5 * (lo[out] + hi[out])
        stuck = live & ~((lo < yn) & (yn < hi))
        iters[at[stuck]] = it - 1
        live &= ~stuck
        p, pp = _seg_derivs(yn, y, k, None, g)
        mode[at[live]] = yn[live]
        ok = live & (np.abs(p) <= tol)
        yf = np.where(pp < 0.0, yn - p / pp, yn)
        mode[at[ok]] = np.where((lo < yf) & (yf < hi), yf, yn)[ok]
        iters[at[ok]] = it
        conv[at[ok]] = True
        live &= ~ok
        up = p > 0.0
        lo, hi, yc = np.where(up, yn, lo), np.where(up, hi, yn), yn
        if 2 * np.count_nonzero(live) <= at.size:
            at, y, k, lo, hi, yc, p, pp, live = (a[live] for a in (
                at, y, k, lo, hi, yc, p, pp, live))
    return mode, iters, conv


class _Workspace:
    """Float64 buffer for climbing stacks: a stack's centres and
    coefficients (_nearest_modes), then the walk's enter, leave and cut
    arrays (_climb).  It is reallocated only when a stack asks for more
    than it holds, so stacks no larger than the first reuse one array."""

    def __init__(self):
        self._buf = np.empty(0)

    def buffer(self, size: int) -> np.ndarray:
        if self._buf.size < size:
            self._buf = np.empty(size)
        return self._buf


def _nearest_modes(ys, kc, g, start, work=None):
    """Nearest-mode search for a stack of fields (see module docstring).

    Row p holds kernel centres ys[p] with coefficients kc[p], the spatial
    weights times _GAUSS_COEF / g (0: no kernel), and starts at start[p];
    a row without any kernel reads NaN, for its caller to replace.  The
    search reads DEFAULT_TOL and DEFAULT_MAX_ITER at each call and asks
    `work` (None: a new _Workspace) for 12 * ys.size values: two climbing
    rows per row, since an outlier start climbs both ways.  Returns (mode,
    iterations, direction, converged) per row, direction 1 up, -1 down,
    0 stay and 2 both.  g must keep _GAUSS_COEF / g finite.
    """
    # overflowing terms (values near the float maximum) give inf or NaN: a
    # NaN start slope stays, and a NaN stops a row or fails its root
    # solver; each such row is reported not converged
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        live = kc > 0.0
        s = start[:, None]
        on = _active(ys - g, ys + g, s) & live
        fp = _seg_derivs(start, ys, kc, on, g, False)[0]
        d = np.where(on.any(axis=1), np.where(np.abs(fp) > DEFAULT_TOL,
                                              np.sign(fp), 0), 2).astype(int)
        mode, iters = start.copy(), np.zeros(start.size, dtype=int)
        conv = ~np.isnan(fp)
        if not d.any():
            return mode, iters, d, conv
        src = np.flatnonzero(abs(d) == 1)
        # the walk of a climbing start skips from |F'(start)|
        sgn, y0, slope0 = d[src], start[src], np.abs(fp[src])
        both, tail = np.flatnonzero(d == 2), 0
        if both.size:
            # outlier start: no kernel is active there, so each one enters
            # at or above it or leaves at or below it.  Search away from the
            # start from the cut point where the density begins on either
            # side; there is no slope to skip from.  The downward searches
            # come last
            enter, leave = ys[both] - g, ys[both] + g
            s, live = s[both], live[both]
            up = np.where(live & (enter >= s), enter, np.inf).min(axis=1)
            down = np.where(live & (leave <= s), leave, -np.inf).max(axis=1)
            mode[both] = np.nan
            src = np.concatenate([src, both, both])
            sgn = np.concatenate([sgn, np.repeat([1, -1], both.size)])
            y0 = np.concatenate([y0, up, down])
            slope0 = np.concatenate([slope0, np.zeros(2 * both.size)])
            go = np.isfinite(y0)
            src, sgn, y0, slope0 = src[go], sgn[go], y0[go], slope0[go]
            tail = np.count_nonzero(np.isfinite(down))
        # the stack is gathered row-major into the workspace; a downward
        # search climbs the mirrored field y -> -y
        size = src.size * ys.shape[1]
        work = (work or _Workspace()).buffer(12 * ys.size)
        stack = work[:2 * size].reshape(2, src.size, ys.shape[1])
        # mode="raise" would gather into a temporary and copy that out
        np.take(ys, src, axis=0, out=stack[0], mode="clip")
        np.take(kc, src, axis=0, out=stack[1], mode="clip")
        ys, kc = stack
        ys *= sgn[:, None]
        m, it, ok = _climb(ys, kc, g, sgn * y0, slope0, DEFAULT_TOL,
                           DEFAULT_MAX_ITER, work[2 * size:])
        m *= sgn
        m += 0.0  # a downward mode of 0 reads +0.0, not -0.0
        # each row takes its results, an outlier row those of its upward
        # search first (NaN if it has none)
        head = src.size - tail
        row = src[:head]
        mode[row], iters[row], conv[row] = m[:head], it[:head], ok[:head]
        if tail:
            # an outlier row's downward result wins when it is no farther
            # from the start, a tie picking the smaller intensity, or when
            # the upward one is NaN; the steps of both searches add up
            row, m, it, ok = src[head:], m[head:], it[head:], ok[head:]
            iters[row] += it
            x, up = start[row], mode[row]
            near = (np.abs(m - x) <= np.abs(up - x)) | np.isnan(up)
            mode[row[near]], conv[row[near]] = m[near], ok[near]
        return mode, iters, d, conv


_DIRECTIONS = {1: "up", -1: "down", 0: "stay", 2: "both"}


def nearest_mode(f: DensityField, start: float) -> ModeResult:
    """Local maximum of the field nearest to `start` (see module docstring)."""
    if not np.isfinite(start):
        raise ValueError("start must be finite")
    mode, iters, d, conv = _nearest_modes(
        f._ys[None], f._kc[None], f.g, np.array([float(start)]))
    mode = float(mode[0])
    return ModeResult(mode=mode, iterations=int(iters[0]),
                      direction=_DIRECTIONS[int(d[0])],
                      converged=bool(conv[0]), field_value=f.eval_value(mode))
