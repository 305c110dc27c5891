"""Kernel density field and the nearest-mode ascent."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmsmooth import mode_density
from tmsmooth.kernels import _GAUSS_COEF
from tmsmooth.mode_density import (DEFAULT_MAX_ITER, DEFAULT_TOL,
                                   DegenerateFieldError, DensityField,
                                   _Workspace, _climb, _nearest_modes,
                                   nearest_mode)

from conftest import (GAUSS_NORM, random_positive_field, ref_field,
                      ref_lattice_weights, ref_nearest_mode)


def make_field(vals, wts, g, retained=None):
    return DensityField(values=np.asarray(vals, float),
                        weights=np.asarray(wts, float),
                        g=g, retained=retained)


# -- field evaluation --------------------------------------------------------


def test_rejects_empty_active_set():
    with pytest.raises(DegenerateFieldError):
        make_field([1.0, 2.0], [0.0, 0.0], 5.0)
    with pytest.raises(DegenerateFieldError):
        make_field([1.0, 2.0], [1.0, 1.0], 5.0,
                   retained=np.array([False, False]))


def test_zero_weight_entries_do_not_contribute():
    f_all = make_field([0.0, 50.0], [1.0, 0.0], 10.0)
    f_one = make_field([0.0], [1.0], 10.0)
    ys = np.linspace(-15.0, 65.0, 401)
    assert np.array_equal(f_all.value(ys), f_one.value(ys))
    assert f_all.support == f_one.support


def test_support_hull(rng):
    f = make_field([0.0, 1.0, 100.0], [1.0, 1.0, 1.0], 10.0)
    assert f.support == (-10.0, 110.0)
    # one-kernel fields: F is exactly 0 at both support ends and positive
    # one ulp inside them
    for _ in range(2000):
        f = make_field([rng.uniform(-300.0, 300.0)], [1.0],
                       rng.uniform(0.1, 200.0))
        lo, hi = f.support
        assert np.all(f.value(np.array([lo, hi])) == 0.0)
        assert np.all(f.value(np.nextafter([lo, hi], [hi, lo])) > 0.0)


def test_concave_between_cuts_and_derivative_jumps_up(rng):
    # the facts the search rests on: F'' < 0 wherever F > 0, at a cut point
    # F' only rises, so d*F' jumps upward in either direction d, and F'' is
    # never below -sum(kappa_i c / g) / g^2, the floor the walk's skip uses
    for _ in range(200):
        vals, wts, g = random_positive_field(rng)
        F, F1, F2 = ref_field(vals, wts, g)
        cuts = np.concatenate([vals - g, vals + g])
        eps = 1e-12 * g
        ys = np.concatenate([
            rng.uniform(vals.min() - g, vals.max() + g, size=256),
            cuts - eps, cuts + eps])
        inside = F(ys) > 0.0
        assert np.all(F2(ys)[inside] < 0.0)
        assert np.all(F1(cuts + eps) - F1(cuts - eps) > -1e-10)
        floor = -(wts * GAUSS_NORM / g).sum() / (g * g)
        assert np.all(F2(ys)[inside] >= floor)


def test_matches_reference_on_random_fields(rng):
    for _ in range(200):
        vals, wts, g = random_positive_field(rng)
        f = make_field(vals, wts, g)
        F, F1, F2 = ref_field(vals, wts, g)
        ys = rng.uniform(vals.min() - 2 * g, vals.max() + 2 * g, size=64)
        assert np.allclose(f.value(ys), F(ys), rtol=0, atol=1e-12)
        assert np.allclose(f.d1(ys), F1(ys), rtol=0, atol=1e-12)
        assert np.allclose(f.d2(ys), F2(ys), rtol=0, atol=1e-12)


def test_eval_all_agrees_with_vectorized_paths(rng):
    for _ in range(100):
        vals, wts, g = random_positive_field(rng)
        f = make_field(vals, wts, g)
        for y in rng.uniform(vals.min() - g, vals.max() + g, size=16):
            fv, fp, fpp = f.eval_all(float(y))
            assert fv == pytest.approx(float(f.value(y)), abs=1e-12)
            assert fp == pytest.approx(float(f.d1(y)), abs=1e-12)
            assert fpp == pytest.approx(float(f.d2(y)), abs=1e-12)


def test_exact_zeros_outside_support():
    f = make_field([10.0, 20.0], [1.0, 2.0], 5.0)
    for y in (5.0, 25.0, -100.0, 300.0):
        assert float(f.value(y)) == 0.0
        assert float(f.d1(y)) == 0.0
        assert float(f.d2(y)) == 0.0


# -- retained masks ----------------------------------------------------------


def test_retained_mask_removes_kernels():
    vals = [0.0, 0.0, 500.0]
    wts = [1.0, 1.0, 1.0]
    trimmed = make_field(vals, wts, 10.0,
                         retained=np.array([True, True, False]))
    assert trimmed.support == (-10.0, 10.0)
    assert float(trimmed.value(500.0)) == 0.0


def test_trimmed_field_equals_full_in_the_middle_band(rng):
    # excluded kernels vanish identically away from the retained extremes
    for _ in range(50):
        vals = np.concatenate([rng.uniform(100, 140, size=10),
                               rng.uniform(-300, -200, size=2),
                               rng.uniform(500, 600, size=2)])
        wts = rng.uniform(0.1, 1.0, size=vals.size)
        g = 15.0
        retained = (vals > 0) & (vals < 400)
        full = make_field(vals, wts, g)
        trim = make_field(vals, wts, g, retained=retained)
        y_u, y_o = vals[retained].min(), vals[retained].max()
        band = np.linspace(y_u + g, y_o - g, 33)[1:-1]
        if band.size == 0 or y_o - y_u <= 2 * g:
            continue
        # excluded kernels contribute exact zeros in the band, and both
        # fields hold one slot per entry in entry order: equal bit for bit
        assert np.array_equal(trim.d1(band), full.d1(band))
        assert np.array_equal(trim.value(band), full.value(band))


# -- mode search -------------------------------------------------------------


def test_stationary_start_is_returned_unchanged():
    vals = np.array([0.0] * 12 + [255.0] * 13)
    wts = np.ones(25)
    f = make_field(vals, wts, 25.0)
    res = nearest_mode(f, 255.0)
    assert res.mode == 255.0  # bit-exact
    assert res.direction == "stay"
    assert res.iterations == 0
    assert res.converged
    res0 = nearest_mode(f, 0.0)
    assert res0.mode == 0.0


def test_symmetric_pair_mode_frozen():
    # kernels at 0 and 10 overlap; the one at 30 is out of reach at y = 5
    f = make_field([0.0, 10.0, 30.0], [1.0, 1.0, 1.0], 20.0)
    res = nearest_mode(f, 0.0)
    assert res.direction == "up"
    assert res.converged
    assert res.mode == pytest.approx(5.0, abs=1e-3)
    assert abs(float(f.d1(res.mode))) <= DEFAULT_TOL


def test_weighted_mode_frozen():
    # reference root polished with an independent scan + brentq
    f = make_field([0.0, 10.0, 30.0], [1.0, 3.0, 1.0], 20.0)
    res = nearest_mode(f, 29.0)
    assert res.direction == "down"
    assert res.mode == pytest.approx(10.903488689626345, abs=1e-3)


def test_outlier_start_enters_nearest_component():
    f = make_field([0.0, 1.0, 2.0, 100.0, 101.0], np.ones(5), 5.0)
    res = nearest_mode(f, 50.0)
    assert res.direction == "both"
    assert res.mode == pytest.approx(1.0, abs=1e-3)
    # starting nearer the right cluster flips the choice
    res2 = nearest_mode(f, 60.0)
    assert res2.mode == pytest.approx(100.5, abs=1e-3)


def test_single_kernel_field():
    f = make_field([42.0], [1.0], 10.0)
    assert nearest_mode(f, 42.0).mode == 42.0
    assert nearest_mode(f, 1000.0).mode == pytest.approx(42.0, abs=1e-3)


def test_mode_contract_on_random_fields(rng):
    checked = 0
    for _ in range(300):
        vals, wts, g = random_positive_field(rng)
        f = make_field(vals, wts, g)
        lo, hi = f.support
        start = float(rng.uniform(lo - 0.5 * g, hi + 0.5 * g))
        res = nearest_mode(f, start)
        fv = float(f.value(res.mode))
        assert lo <= res.mode <= hi
        assert fv > 0.0
        # density can only improve along a path free of kernel cut points;
        # a cut crossed mid-path drops the field discontinuously while the
        # derivative stays one-signed, so the nearest stationary maximum
        # may sit below the start density
        a, b = sorted((start, res.mode))
        cuts = np.concatenate([vals - g, vals + g])
        if not np.any((cuts > a) & (cuts < b)):
            assert fv >= float(f.value(start)) - 1e-12
        if res.direction == "up":
            assert res.mode >= start
        elif res.direction == "down":
            assert res.mode <= start
        elif res.direction == "stay":
            assert res.mode == start
        if res.converged:
            checked += 1
            assert abs(float(f.d1(res.mode))) <= DEFAULT_TOL
            assert res.field_value == pytest.approx(fv, abs=1e-12)
    assert checked > 250  # convergence is the norm, not the exception


# an 81-entry window of the ramp_wide benchmark input (seed 1, pixel
# (18, 51)), rounded to 0.1: kernel cut points lie between the centre value
# and the first zero of F' below it, and another mode lies 12 levels lower
RAMP_WINDOW = np.array([
    [127.6, 119.6, 136.9, 113.2, 124.8, 128.0, 129.0, 130.7, 108.6],
    [121.0, 112.9, 120.2, 122.1, 122.4, 122.7, 141.3, 109.3, 123.7],
    [132.1, 102.7, 119.9, 122.5, 119.2, 129.7, 115.4, 135.4, 137.2],
    [107.5, 143.5, 123.5, 116.4, 124.4, 131.4, 131.7, 129.8, 123.5],
    [136.6, 129.9, 117.9, 121.3, 140.3, 118.2, 137.8, 146.1, 142.7],
    [123.9, 131.7, 123.2, 127.7, 144.2, 104.3, 143.4, 138.0, 120.3],
    [128.9, 124.0, 154.5, 144.6, 128.8, 144.6, 139.9, 130.6, 125.4],
    [125.1, 138.3, 119.3, 119.8, 138.0, 150.3, 138.2, 140.7, 132.5],
    [135.8, 118.2, 119.9, 133.9, 126.6, 105.9, 141.7, 121.7, 135.2]])


def test_ramp_window_stops_at_first_zero():
    vals, wts, g = RAMP_WINDOW.ravel(), ref_lattice_weights(4), 13.0
    res = nearest_mode(make_field(vals, wts, g), 140.3)
    assert res.direction == "down"
    assert res.converged
    assert res.mode == pytest.approx(ref_nearest_mode(vals, wts, g, 140.3),
                                     abs=1e-4 * g)
    assert res.mode == pytest.approx(137.450, abs=1e-3)


def test_first_zero_matches_grid_reference_on_random_fields(rng):
    # strays put kernel cut points between many starts and their modes
    crossed = 0
    for _ in range(300):
        vals, wts, g = random_positive_field(rng)
        f = make_field(vals, wts, g)
        lo, hi = f.support
        start = float(rng.uniform(lo - 0.5 * g, hi + 0.5 * g))
        res = nearest_mode(f, start)
        ref = ref_nearest_mode(vals, wts, g, start)
        assert res.converged
        assert res.mode == pytest.approx(ref, abs=1e-4 * g)
        a, b = sorted((start, res.mode))
        cuts = np.concatenate([vals - g, vals + g])
        crossed += bool(np.any((cuts > a) & (cuts < b)))
    assert crossed > 100


def _check_stack(rows, g, tol):
    """Run the (values, weights, start) rows as one _nearest_modes stack
    and compare every mode with the reference at tolerance tol (the
    search's own, mode_density.DEFAULT_TOL); returns (direction,
    converged) per row."""
    n = max(v.size for v, _, _ in rows)
    ys = np.zeros((len(rows), n))
    ks = np.zeros((len(rows), n))
    for i, (vals, wts, _) in enumerate(rows):
        ys[i, :vals.size], ks[i, :vals.size] = vals, wts
    start = np.array([s for _, _, s in rows])
    modes, _, d, conv = _nearest_modes(ys, ks * (_GAUSS_COEF / g), g, start)
    for (vals, wts, s), m in zip(rows, modes):
        assert m == pytest.approx(ref_nearest_mode(vals, wts, g, s, tol),
                                  abs=1e-4 * g)
    return d, conv


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
def test_walk_skips_no_zero_on_adversarial_stack(rng, monkeypatch, tol):
    # rows of one stack finish on different passes of the lock-step walk;
    # tol is also the margin of the walk's skip bound.  g and the values
    # are exact in binary, so coincident and shared cuts are exact.
    # Weights of order 1e4 keep |F'| well above tol = 1e-3 off the modes
    monkeypatch.setattr(mode_density, "DEFAULT_TOL", tol)
    g = 16.0
    fields = []
    for _ in range(12):
        # duplicate values: 25 integers from 21 levels, so cuts coincide
        vals = rng.integers(110, 131, size=25).astype(float)
        fields.append((vals, rng.uniform(5e2, 1e4, size=25)))
    for _ in range(12):
        # pairs exactly 2g apart: one kernel's exit is the other's entry
        a = rng.integers(60, 160, size=6).astype(float)
        vals = np.concatenate([a, a + 2 * g, rng.uniform(60.0, 200.0, 6)])
        fields.append((vals, rng.uniform(5e2, 1e4, size=vals.size)))
    for _ in range(6):
        # a heavy cluster puts F'' near its floor at the mode, where light
        # kernels enter: the skip bound is nearly tight just before cuts
        c = float(rng.integers(100, 150))
        light = c + g + 0.25 * np.arange(1, 7)
        vals = np.concatenate([np.full(8, c), light])
        fields.append((vals, np.concatenate([np.full(8, 1e4),
                                             np.full(6, 1e2)])))
    lattice = ref_lattice_weights(8)
    for _ in range(4):
        # 225-slot radius-8 windows: a noisy ramp plus a few outliers
        vals = np.linspace(90.0, 170.0, lattice.size) + rng.normal(
            0.0, 10.0, lattice.size)
        vals[rng.choice(lattice.size, 5, replace=False)] = rng.uniform(
            0.0, 255.0, 5)
        fields.append((vals[lattice > 0], 1e4 * lattice[lattice > 0]))
    rows, near_tol = [], 0
    for vals, wts in fields:
        cuts = np.concatenate([vals - g, vals + g])
        # starts on a cut and one ulp to either side of it, at an entry,
        # and below the lowest value, so that cuts lie ahead
        for c in rng.choice(cuts, 3, replace=False):
            rows += [(vals, wts, s) for s in (
                c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf))]
        rows.append((vals, wts, float(rng.choice(vals))))
        rows.append((vals, wts, vals.min() - 0.9 * g))
        # starts whose |F'| lies just above tol: offset from a mode by
        # 1.5 tol / |F''| on either side
        _, F1, F2 = ref_field(vals, wts, g)
        mode = ref_nearest_mode(vals, wts, g, float(np.median(vals)), 1e-12)
        for side in (-1.0, 1.0):
            s = mode + side * 1.5 * tol / abs(F2(mode)[0])
            if tol < abs(F1(s)[0]) < 2 * tol:
                rows.append((vals, wts, s))
                near_tol += 1
    assert near_tol > 40
    d, conv = _check_stack(rows, g, tol)
    assert conv.all()
    assert {-1, 1, 2} <= set(d.tolist())

    # starts within rounding of a cut: a probe window's bandwidth is its
    # IQR q3 - q1, so with the centre at q1 the kernel of q3 has |v| = 1 at
    # the start while its rounded cut q3 - g lies an ulp below it, which
    # makes that kernel active at the start.  A closer value below pulls
    # the search down, and it must converge on a root of F', not stop at
    # the cut an ulp from the start
    g = 171.03946521844668
    rows = []
    for s in rng.uniform(20.0, 80.0, size=400):
        q3 = s + g + np.spacing(s + g) * np.arange(-3, 4)
        q3 = q3[(q3 - s == g) & (q3 - g < s)]
        if q3.size:
            vals = np.array([s, q3[0], s - 0.05 * g * rng.uniform(0.5, 1.5)])
            rows.append((vals, np.full(3, 1e4), s))
    assert len(rows) >= 20
    _, conv = _check_stack(rows, g, tol)
    assert conv.all()


def test_mixed_stack_matches_batches_of_one():
    # one stack of stay, up, down and outlier rows, padded with weight-0
    # slots: each row gets, bit for bit, what it gets alone
    g = 10.0
    two = [0.0, 4.0, 9.0, 60.0, 62.0, 67.0]
    rows = [([42.0], 42.0),        # one kernel, F'(42) = 0: stay
            (two[:3], 0.0),        # up
            (two[:3], 9.0),        # down
            (two, 30.0),           # outlier between two components
            (two[:3], 100.0),      # outlier above the only component
            (two, 62.0)]           # up, in the upper of two components
    ys, ks = np.zeros((len(rows), 6)), np.zeros((len(rows), 6))
    for i, (vals, _) in enumerate(rows):
        ys[i, :len(vals)] = vals
        ks[i, :len(vals)] = np.linspace(1.0, 2.0, len(vals))
    start = np.array([s for _, s in rows])
    kc = ks * (_GAUSS_COEF / g)
    stack = _nearest_modes(ys, kc, g, start)
    assert set(stack[2].tolist()) >= {0, 1, -1, 2}
    for i in range(len(rows)):
        alone = _nearest_modes(ys[i:i + 1], kc[i:i + 1], g, start[i:i + 1])
        for got, want in zip(stack, alone):
            assert got[i:i + 1].tobytes() == want.tobytes(), i
    # the outlier row between two components searches both ways from the
    # cuts 19 and 50; its steps are those of both searches
    assert stack[2][3] == 2
    up = _climb(ys[3:4], kc[3:4], g, np.array([50.0]), np.zeros(1),
                DEFAULT_TOL, DEFAULT_MAX_ITER)
    down = _climb(-ys[3:4], kc[3:4], g, np.array([-19.0]), np.zeros(1),
                  DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert up[1][0] > 0 and down[1][0] > 0
    assert stack[1][3] == up[1][0] + down[1][0]
    assert stack[0][3] == -down[0][0]  # the lower mode is nearer to 30


def test_outlier_rows_without_kernels_climb_nothing():
    # rows whose every slot is empty (collapsed kernels) are outliers with
    # no cut to search from: the climbing stack is empty and each such row
    # reads NaN, also next to a row that does search
    g = 0.3
    ys = np.array([[0.5, 0.0], [0.0, 1.0]])
    kc = np.array([[0.0, 0.0], [1.0, 1.0]])
    mode, iters, d, conv = _nearest_modes(ys[:1], kc[:1], g, np.array([0.5]))
    assert np.isnan(mode[0]) and (iters[0], d[0], conv[0]) == (0, 2, True)
    mode, iters, d, conv = _nearest_modes(ys, kc, g, np.array([0.5, 5.0]),
                                          _Workspace())
    assert np.isnan(mode[0]) and mode[1] == 1.0
    assert d.tolist() == [2, 2] and conv.tolist() == [True, True]


@settings(max_examples=150, deadline=None)
@given(st.floats(-3.0, 300.0), st.floats(-17.0, 1.0), st.integers(1, 25),
       st.sampled_from(["value", "inside", "below", "above"]),
       st.integers(0, 2**32 - 1))
def test_walk_passes_at_most_the_row_cuts(log_scale, log_g, n, where, seed):
    # one row's walk checks one cut per pass and stops at its last real cut
    # at the latest, so it takes at most as many passes as the row has
    # cuts, at any value scale and g; kernels that collapse carry none
    rng = np.random.default_rng(seed)
    scale, g = 10.0 ** log_scale, 10.0 ** (log_scale + log_g)
    ys = scale * rng.uniform(-1.0, 1.0, n)
    ys[rng.random(n) < 0.3] = ys[0]
    on = (ys - g < ys) & (ys < ys + g)
    kc = np.where(on, rng.uniform(0.1, 1.0, n) * (_GAUSS_COEF / g), 0.0)
    start = {"value": ys[-1], "inside": scale * rng.uniform(-1.0, 1.0),
             "below": ys.min() - 3.0 * g, "above": ys.max() + 3.0 * g}[where]
    passes = []
    seg_derivs = mode_density._seg_derivs

    def counted(y, *args):
        if np.ndim(y) == 2:  # one walk pass: F' at (rows, cuts) points
            passes.append(1)
        return seg_derivs(y, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mode_density, "_seg_derivs", counted)
        _nearest_modes(ys[None], kc[None], g, np.array([start]))
    assert len(passes) <= 2 * np.count_nonzero(kc)


@pytest.mark.parametrize("start, direction", [(3.0, "down"), (60.0, "both")])
def test_downward_mode_at_zero_is_positive_zero(start, direction):
    # a downward search climbs the mirrored field and negates its mode,
    # which must not turn a mode of 0 into -0.0
    res = nearest_mode(make_field([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 5.0),
                       start)
    assert res.direction == direction
    assert res.mode == 0.0 and not np.signbit(res.mode)


def test_nan_start_slope_stays_not_converged():
    # the terms of a kernel 2e308 from the start overflow, so F'(start) is
    # NaN: the row stays and is reported not converged
    with np.errstate(over="ignore", invalid="ignore"):
        f = make_field([-1e308, 1e308], [1.0, 1.0], 1e308)
        res = nearest_mode(f, 1e308)
    assert (res.mode, res.direction, res.converged) == (1e308, "stay", False)
    # in a stack, next to an up and a stay row.  g = 1e300 keeps the kernel
    # at 1e308 active at its own value, and coefficients of 1e295 make
    # |F'| = 1e295 |v| phi(v) / g > tol at the up row's start
    g = 1e300
    ys = np.array([[-1e308, 1e308], [0.0, 4e300], [0.0, 4e300]])
    kc = np.full(ys.shape, 1e295)
    d, conv = _nearest_modes(ys, kc, g, np.array([1e308, -1e299, 0.0]))[2:]
    assert d.tolist() == [0, 1, 0]
    assert conv.tolist() == [False, True, True]


def test_skip_bound_at_huge_bandwidth():
    # g * g overflows above g of about 1.34e154; the curvature floor then
    # read 0 and the walk skipped every cut, to the mode at 3e155 of
    # another support component.  The first zero of F' above the start is
    # the midpoint of the two kernels at 0 and 5e154
    g = 1e155
    res = nearest_mode(make_field([0.0, 5e154, 3e155], [1e307] * 3, g),
                       1e154)
    assert (res.direction, res.converged) == ("up", True)
    assert res.mode == pytest.approx(2.5e154, abs=1e-3 * g)


def test_unimodal_cluster_finds_global_max(rng):
    for _ in range(50):
        g = float(rng.uniform(10.0, 40.0))
        center = float(rng.uniform(0.0, 200.0))
        vals = center + rng.uniform(-0.4 * g, 0.4 * g, size=15)
        wts = rng.uniform(0.2, 1.0, size=15)
        f = make_field(vals, wts, g)
        start = float(rng.choice(vals))
        res = nearest_mode(f, start)
        grid = np.linspace(vals.min() - g, vals.max() + g, 4001)
        peak = grid[int(np.argmax(f.value(grid)))]
        assert res.mode == pytest.approx(peak, abs=2e-3 * g)


def test_invalid_start_rejected():
    f = make_field([0.0], [1.0], 5.0)
    with pytest.raises(ValueError):
        nearest_mode(f, float("nan"))
