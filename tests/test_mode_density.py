"""Kernel density field and the nearest-mode ascent."""

import numpy as np
import pytest

from tmsmooth.mode_density import (DEFAULT_TOL, DegenerateFieldError,
                                   DensityField, nearest_mode)

from conftest import (random_positive_field, ref_field, ref_lattice_weights,
                      ref_nearest_mode)


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


def test_support_hull():
    f = make_field([0.0, 1.0, 100.0], [1.0, 1.0, 1.0], 10.0)
    assert f.support == (-10.0, 110.0)


def test_concave_between_cuts_and_derivative_jumps_up(rng):
    # the two facts the search rests on: F'' < 0 wherever F > 0, and at a
    # cut point F' only rises, so d*F' jumps upward in either direction d
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
        # excluded kernels contribute exact zeros in the band, but summation
        # order differs between the two fields, so allow ulp-level residue
        assert np.allclose(trim.d1(band), full.d1(band), rtol=0, atol=1e-15)
        assert np.allclose(trim.value(band), full.value(band),
                           rtol=0, atol=1e-15)


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
