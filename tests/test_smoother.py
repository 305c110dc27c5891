"""Window estimates, automatic bandwidth, and whole-image smoothing."""

import tracemalloc

import numpy as np
import pytest

from tmsmooth import mode_density, smoother
from tmsmooth.grid_image import GridGeometry, Image
from tmsmooth.scene_noise import Disk, Rect, Region, SceneSpec, rasterize
from tmsmooth.smoother import (DegenerateScaleError, SmootherParams,
                               auto_scale, median_smooth, smooth,
                               window_iqr_grid, window_mode_estimate)
from tmsmooth.lts_trim import trim_values
from tmsmooth.mode_density import DEFAULT_TOL, DensityField, nearest_mode

from conftest import (REPORT_KEYS, ref_field, ref_lattice_weights,
                      ref_lts_center, ref_smooth)

# 25 window values, row-major; centre entry (index 12) is 66
WINDOW25 = [12, 40, 208, 63, 89, 27, 250, 71, 44, 96, 58, 80, 66,
            90, 101, 73, 35, 244, 84, 50, 96, 61, 77, 55, 68]


# -- parameter validation -----------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"radius_px": 0},
    {"bandwidth": 0.0},
    {"bandwidth": -3.0},
    {"trim_fraction": 0.5},
    {"trim_fraction": -0.1},
    # keeps the id it had while the tol and max_iter cases stood before it
    pytest.param({"border": "wrap"}, id="kwargs7"),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SmootherParams(**kwargs)


@pytest.mark.parametrize("g", [float("inf"), float("nan")])
def test_params_reject_nonfinite_bandwidth(g):
    with pytest.raises(ValueError, match="finite"):
        SmootherParams(bandwidth=g)


def test_bandwidth_lower_limit():
    # below about 3.25e-309 the kernel's peak _GAUSS_COEF / g overflows;
    # above it, the lone 5.0 among zeros moves to their mode and converges
    for g in (1e-320, 3.25e-309):
        with pytest.raises(ValueError, match="3.25e-309"):
            SmootherParams(bandwidth=g)
        with pytest.raises(ValueError, match="3.25e-309"):
            window_mode_estimate(WINDOW25, SmootherParams(), g)
        with pytest.raises(ValueError, match="3.25e-309"):
            DensityField([0.0], [1.0], g)
    px = np.zeros((6, 6))
    px[2, 3] = 5.0
    out, rep = smooth(Image(px), SmootherParams(bandwidth=3.3e-309,
                                                trim_fraction=0.0))
    assert np.all(out.pixels == 0.0)
    assert rep.nonconverged_pixels == 0


@pytest.mark.parametrize("g", [-1.0, 0.0, float("nan"), float("inf")])
def test_window_estimate_rejects_bad_bandwidth(g):
    with pytest.raises(ValueError, match="bandwidth"):
        window_mode_estimate(WINDOW25, SmootherParams(radius_px=2), g)


# -- automatic bandwidth ------------------------------------------------------


def test_auto_scale_rejects_constant_image():
    img = Image(np.full((6, 6), 100.0))
    with pytest.raises(DegenerateScaleError):
        auto_scale(img, radius_px=2)


def test_auto_scale_hand_example():
    # 1x5 ramp, radius 1: window IQRs are [10, 20, 20, 20, 10] with the
    # ceiling-rank quartiles, and the lower median of the sorted IQRs is 20
    img = Image(np.array([[0.0, 10.0, 20.0, 30.0, 40.0]]))
    assert auto_scale(img, radius_px=1) == 20.0


def ref_iqr(block):
    s = np.sort(np.asarray(block, dtype=float).ravel())
    k = s.size
    q1 = int(np.ceil(0.25 * k)) - 1
    q3 = int(np.ceil(0.75 * k)) - 1
    return float(s[q3] - s[q1])


def test_window_iqr_grid_matches_reference(rng):
    px = rng.integers(0, 256, size=(8, 9)).astype(float)
    img = Image(px)
    for w in (1, 2):
        got = window_iqr_grid(img, w)
        for i in range(8):
            for j in range(9):
                blk = px[max(0, i - w):i + w + 1, max(0, j - w):j + w + 1]
                assert got[i, j] == ref_iqr(blk)


def test_smooth_records_bandwidth_mode(rng):
    px = rng.integers(0, 256, size=(6, 6)).astype(float)
    img = Image(px)
    _, rep = smooth(img, SmootherParams(radius_px=2))
    assert rep.bandwidth_mode == "auto"
    assert rep.bandwidth == auto_scale(img, 2)
    _, rep = smooth(img, SmootherParams(radius_px=2, bandwidth=17.0))
    assert rep.bandwidth_mode == "fixed"
    assert rep.bandwidth == 17.0


# -- single-window estimates --------------------------------------------------


def test_window_estimate_frozen_trimmed():
    # trim drops the three bright strays; the remaining density's nearest
    # stationary maximum above the centre start sits at 77.7496 (the last
    # converged iterate may sit anywhere inside the tol/|F''| slack, so the
    # position check is loose and the derivative check is the sharp one)
    params = SmootherParams(radius_px=2, trim_fraction=0.15)
    est = window_mode_estimate(WINDOW25, params, 30.0)
    assert est == pytest.approx(77.74961586219449, abs=1e-3)
    center, keep, _, r = trim_values(np.asarray(WINDOW25, float), 0.15)
    assert r == 3
    assert sorted(np.nonzero(~keep)[0].tolist()) == [2, 6, 17]
    assert center == pytest.approx(65.27272727272727, abs=1e-12)
    assert ref_lts_center(WINDOW25, 3) == pytest.approx(center, abs=1e-12)
    wts = ref_lattice_weights(2)
    F, F1, F2 = ref_field(np.asarray(WINDOW25, float)[keep], wts[keep], 30.0)
    assert abs(F1(est)) <= DEFAULT_TOL
    assert F2(est) < 0.0


def test_window_estimate_frozen_untrimmed_matches_trimmed():
    # the dropped strays are farther than one bandwidth from the estimate,
    # so their kernels vanish there and the plain mode agrees
    trimmed = window_mode_estimate(
        WINDOW25, SmootherParams(radius_px=2, trim_fraction=0.15), 30.0)
    plain = window_mode_estimate(
        WINDOW25, SmootherParams(radius_px=2, trim_fraction=0.0), 30.0)
    assert plain == pytest.approx(77.74961586219449, abs=1e-3)
    assert plain == pytest.approx(trimmed, abs=1e-9)


def test_window_estimate_frozen_variant():
    # raising one entry from 44 to 46 moves enough mass below the kernel
    # cut that the stationary point lands at 74.089 instead
    vals = list(WINDOW25)
    vals[8] = 46
    est = window_mode_estimate(
        vals, SmootherParams(radius_px=2, trim_fraction=0.15), 30.0)
    assert est == pytest.approx(74.08896948788838, abs=1e-3)


def test_window_estimate_size_check():
    with pytest.raises(ValueError):
        window_mode_estimate([1.0] * 24, SmootherParams(radius_px=2), 10.0)


def test_window_estimate_matches_smooth_center(rng):
    # replicate windows are full, so smooth and window_mode_estimate see
    # the same entries and must give the same estimates, bit for bit.  At
    # 5x5 and 160x160, fl((w/H)(w/W) H W) != w^2: K_h / n^2 taken factor
    # by factor does not round to the same weights as 1 / w^2
    for shape in ((5, 5), (9, 7), (160, 160)):
        for trim in (0.0, 0.15):
            px = rng.integers(0, 256, size=shape).astype(float)
            params = SmootherParams(radius_px=2, bandwidth=30.0,
                                    trim_fraction=trim, border="replicate")
            out, _ = smooth(Image(px), params)
            win = np.lib.stride_tricks.sliding_window_view(
                np.pad(px, 2, mode="edge"), (5, 5)).reshape(*shape, 25)
            est = window_mode_estimate(win, params, 30.0)
            assert np.array_equal(out.pixels, est), (shape, trim)


# -- whole-image behaviour ----------------------------------------------------


def test_constant_image_is_fixed_point():
    img = Image(np.full((7, 7), 42.0))
    out, rep = smooth(img, SmootherParams(radius_px=2, bandwidth=10.0))
    assert np.array_equal(out.pixels, img.pixels)
    assert rep.nonconverged_pixels == 0


def test_binary_image_is_fixed_point_without_trim():
    # levels 0/255 with bandwidth 25: the two kernel groups never overlap,
    # so each start sits exactly on its own group's stationary maximum
    rng = np.random.default_rng(99)
    px = np.where(rng.random((12, 12)) < 0.4, 0.0, 255.0)
    img = Image(px)
    out, rep = smooth(img, SmootherParams(radius_px=2, bandwidth=25.0,
                                          trim_fraction=0.0))
    assert np.array_equal(out.pixels, px)
    assert rep.trimmed_total == 0
    assert rep.median_fallback_pixels == 0


def test_fixed_point_scene_never_climbs(monkeypatch):
    # a noise-free scene of constant regions 50 or more apart, untrimmed at
    # g = 25: every start is a mode of its own level's kernels, so every
    # band returns after the start test and no search climbs
    def climb(*args):
        raise AssertionError("a row climbed")

    monkeypatch.setattr(mode_density, "_climb", climb)
    scene = SceneSpec(base_offset=40.0, regions=(
        Region(shape=Rect(corner=(0.1, 0.1), opposite=(0.45, 0.5)),
               height=140.0),
        Region(shape=Disk(center=(0.7, 0.3), radius=0.18), height=90.0)))
    img = rasterize(scene, GridGeometry(48, 40))
    assert len(np.unique(img.pixels)) == 3
    for border in ("clip", "replicate"):
        out, rep = smooth(img, SmootherParams(bandwidth=25.0,
                                              trim_fraction=0.0,
                                              border=border))
        assert np.array_equal(out.pixels, img.pixels)
        assert rep.nonconverged_pixels == rep.median_fallback_pixels == 0


def test_smooth_report_fields(rng):
    px = rng.integers(0, 256, size=(6, 7)).astype(float)
    out, rep = smooth(Image(px), SmootherParams(radius_px=2, bandwidth=30.0))
    assert (rep.height, rep.width) == (6, 7)
    assert out.pixels.shape == (6, 7)
    assert rep.radius_px == 2
    assert rep.trim_fraction == 0.15
    assert rep.interior_trim_count == 3  # floor(25 * 0.15)
    assert rep.trimmed_total >= rep.interior_trim_count
    assert rep.wall_time_s >= 0.0
    d = rep.to_dict()
    assert d["border"] == "clip"
    assert set(d) == REPORT_KEYS


def test_translation_equivariance_with_fixed_bandwidth(rng):
    # integer pixels plus an exactly representable shift keep all kernel
    # residuals bit-identical, so the outputs track the shift closely
    px = rng.integers(0, 256, size=(9, 9)).astype(float)
    params = SmootherParams(radius_px=2, bandwidth=30.0)
    base, _ = smooth(Image(px), params)
    shifted, _ = smooth(Image(px + 37.25), params)
    assert np.allclose(shifted.pixels, base.pixels + 37.25,
                       rtol=0, atol=1e-9)


def test_median_fallback_when_kept_entries_carry_no_weight():
    # aggressive trim keeps only outer-ring entries (zero spatial weight):
    # the pixel falls back to the window's lower median
    px = np.full((5, 5), 1e6)
    ring = [50.0, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62,
            5000.0, 5001.0, 5002.0]
    border = [(i, j) for i in range(5) for j in range(5)
              if i in (0, 4) or j in (0, 4)]
    for (i, j), v in zip(border, ring):
        px[i, j] = v
    out, rep = smooth(Image(px), SmootherParams(radius_px=2, bandwidth=20.0,
                                                trim_fraction=0.45))
    assert rep.median_fallback_pixels >= 1
    assert out.pixels[2, 2] == 62.0  # lower median of the 25 window values


# -- batched passes -----------------------------------------------------------


def noisy_integer_image(rng, shape):
    px = rng.integers(40, 200, size=shape).astype(float)
    px[rng.random(shape) < 0.06] = 255.0
    px[rng.random(shape) < 0.03] = 0.0
    return px


@pytest.mark.parametrize("border", ["clip", "replicate"])
@pytest.mark.parametrize("trim", [0.0, 0.15])
def test_output_independent_of_band_size(monkeypatch, border, trim):
    # one image row per band, seven rows, and the whole 23x17 image in one
    # band must give bit-identical output and reports (auto bandwidth, so
    # the banded window IQRs are covered too)
    img = Image(noisy_integer_image(np.random.default_rng(5), (23, 17)))
    params = SmootherParams(radius_px=2, trim_fraction=trim, border=border)
    runs = []
    for rows in (1, 7, 23):
        monkeypatch.setattr(smoother, "BAND_ENTRIES", rows * 17 * 25)
        out, rep = smooth(img, params)
        runs.append((out.pixels, {**rep.to_dict(), "wall_time_s": 0.0},
                     median_smooth(img, 2, border).pixels))
    for out, rep, med in runs[1:]:
        assert np.array_equal(out, runs[0][0])
        assert rep == runs[0][1]
        assert np.array_equal(med, runs[0][2])


@pytest.mark.parametrize("border", ["clip", "replicate"])
@pytest.mark.parametrize("radius, trim, g", [(4, 0.0, 13.0), (2, 0.15, None)])
def test_output_independent_of_band_size_at_scale(monkeypatch, border,
                                                  radius, trim, g):
    # a noisy 40x37 ramp in one band, in bands of one and of five rows,
    # and in the default bands (at least two of them).  At radius 4,
    # untrimmed, rows leave the walk and the root solver on different
    # passes, so the search drops finished rows from its working set
    i, j = np.mgrid[0:40, 0:37]
    noise = np.random.default_rng(11).normal(0.0, 10.0, (40, 37))
    img = Image(np.round(80.0 + 1.5 * i + j + noise))
    params = SmootherParams(radius_px=radius, trim_fraction=trim,
                            bandwidth=g, border=border)
    k = (2 * radius + 1) ** 2
    assert smoother.BAND_ENTRIES // (37 * k) < 40  # two default bands
    sets = []
    seg_derivs = mode_density._seg_derivs

    def recorded(y, *args):
        sets.append(len(y))
        return seg_derivs(y, *args)

    runs = []
    monkeypatch.setattr(mode_density, "_seg_derivs", recorded)
    for entries in (40 * 37 * k, 37 * k, 5 * 37 * k, smoother.BAND_ENTRIES):
        monkeypatch.setattr(smoother, "BAND_ENTRIES", entries)
        out, rep = smooth(img, params)
        runs.append((out.pixels, {**rep.to_dict(), "wall_time_s": 0.0}))
        if radius == 4 and len(runs) == 1:
            # one band: a search that never dropped rows would see two
            # sizes only, the band and its climbing rows
            assert len(set(sets)) > 4
    for out, rep in runs[1:]:
        assert out.tobytes() == runs[0][0].tobytes()
        assert rep == runs[0][1]


def test_working_set_does_not_grow_with_image():
    # aim: memory stays bounded on large images.  The traced peak of a
    # smooth, minus the output and the padded copy of the input, is the
    # same for a 96x96 and a 192x192 image within one band of window values
    for radius, trim, g in [(2, 0.15, None), (4, 0.0, 13.0)]:
        params = SmootherParams(radius_px=radius, trim_fraction=trim,
                                bandwidth=g)
        rest = []
        for n in (96, 192):
            img = Image(noisy_integer_image(np.random.default_rng(n), (n, n)))
            smooth(img, params)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out, _ = smooth(img, params)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            rest.append(peak - out.pixels.nbytes - (n + 2 * radius) ** 2 * 8)
        assert abs(rest[1] - rest[0]) <= smoother.BAND_ENTRIES * 8


@pytest.mark.parametrize("border", ["clip", "replicate"])
def test_smooth_matches_pixelwise_reference(rng, border):
    px = noisy_integer_image(rng, (9, 8))
    for trim in (0.0, 0.15):
        out, _ = smooth(Image(px), SmootherParams(
            radius_px=2, bandwidth=30.0, trim_fraction=trim, border=border))
        ref = ref_smooth(px, 2, 30.0, trim, border)
        assert np.max(np.abs(out.pixels - ref)) <= 1e-9 * 30.0


def test_window_estimate_stack_matches_single_calls(rng):
    windows = [rng.integers(0, 256, size=(30, 25)).astype(float)]
    # replacements at 1e9, some of them at the centre
    huge = rng.integers(0, 256, size=(20, 25)).astype(float)
    for row in huge:
        row[rng.choice(25, size=int(rng.integers(1, 4)), replace=False)] = \
            rng.choice([-1e9, 1e9])
    huge[::4, 12] = 1e9
    windows.append(huge)
    # outlier centres: trimmed away, so the search starts where F = 0
    outlier = 100.0 + rng.integers(-8, 9, size=(10, 25)).astype(float)
    outlier[:, 12] = 250.0
    windows.append(outlier)
    # kept entries on the zero-weight outer ring only (at trim 0.45)
    ring = np.full((5, 5), 1e6)
    edge = [(i, j) for i in range(5) for j in range(5)
            if i in (0, 4) or j in (0, 4)]
    for (i, j), v in zip(edge, list(range(50, 63)) + [5000, 5001, 5002]):
        ring[i, j] = v
    windows.append(ring.reshape(1, 25))
    stack = np.concatenate(windows)
    for trim in (0.0, 0.15, 0.45):
        params = SmootherParams(radius_px=2, trim_fraction=trim)
        got = window_mode_estimate(stack, params, 20.0)
        one = [window_mode_estimate(row, params, 20.0) for row in stack]
        assert np.array_equal(got, one)
        assert np.array_equal(window_mode_estimate(
            stack[:60].reshape(3, 20, 25), params, 20.0),
            got[:60].reshape(3, 20))
    assert one[-1] == 62.0  # the median fallback at trim 0.45
    _, keep, _, _ = trim_values(outlier[0], 0.15)
    f = DensityField(outlier[0], ref_lattice_weights(2), 20.0, keep)
    assert nearest_mode(f, 250.0).direction == "both"


def _random_windows(rng, k, count):
    """(count, k) windows: integer and real values, planted outliers
    (some at the centre) and kernels that collapse at a moderate g."""
    ints = rng.integers(0, 256, size=(count // 2, k)).astype(float)
    reals = rng.uniform(0.0, 255.0, size=(count - count // 2, k))
    wins = np.concatenate([ints, reals])
    rows = rng.choice(count, count // 3, replace=False)
    for p in rows:
        at = rng.choice(k, size=int(rng.integers(1, k // 4 + 2)),
                        replace=False)
        # 1e20: the kernel collapses at any g below about 8e3
        wins[p, at] = rng.choice([-1e9, 1e9, 250.0, 1e20], size=at.size)
    wins[rows[::5], k // 2] = 1e20
    wins[rows[1::7]] = 1e20 + 16384.0 * rng.integers(0, 3, size=k)
    return wins


def test_density_field_is_the_smoothers_search_row(rng):
    # nearest_mode on the field of a window's entries, lattice weights and
    # trim mask is the smoother's search of that window, bit for bit: the
    # same slots, the same mode, and, with the rows of many windows run as
    # one stack, the same steps, direction and convergence flag
    checked = fallbacks = 0
    for w in (1, 2, 4):
        kappa = smoother._lattice_kappa(w)
        k = kappa.size
        for trim in (0.0, 0.15, 0.3):
            for g in (16.0, float(rng.uniform(5.0, 40.0))):
                params = SmootherParams(radius_px=w, trim_fraction=trim)
                wins = _random_windows(rng, k, 60)
                est = window_mode_estimate(wins, params, g)
                keep = np.array([trim_values(win, trim)[1] for win in wins])
                ys, kc, on = mode_density._rows(wins, kappa, g,
                                                keep if trim else None)
                live = on.any(axis=1)
                stack = mode_density._nearest_modes(
                    ys[live], kc[live], g, wins[live, k // 2], DEFAULT_TOL,
                    mode_density.DEFAULT_MAX_ITER)
                results = []
                for p, win in enumerate(wins):
                    if not live[p]:
                        with pytest.raises(mode_density.DegenerateFieldError):
                            DensityField(win, kappa, g, keep[p])
                        assert est[p] == np.sort(win)[(k - 1) // 2]
                        fallbacks += 1
                        continue
                    f = DensityField(win, kappa, g, keep[p])
                    assert f._ys.tobytes() == ys[p].tobytes()
                    assert f._kc.tobytes() == kc[p].tobytes()
                    results.append(nearest_mode(f, win[k // 2]))
                modes = np.array([r.mode for r in results])
                assert modes.tobytes() == est[live].tobytes(), (w, trim, g)
                assert modes.tobytes() == stack[0].tobytes()
                assert [r.iterations for r in results] == stack[1].tolist()
                assert [r.direction for r in results] == [
                    mode_density._DIRECTIONS[d] for d in stack[2].tolist()]
                assert [r.converged for r in results] == stack[3].tolist()
                checked += len(results)
    assert checked > 900 and fallbacks > 20


# -- median baseline ----------------------------------------------------------


def test_median_smooth_hand_examples():
    img = Image(np.array([[10.0, 0.0, 50.0, 40.0, 30.0]]))
    clip = median_smooth(img, radius_px=1, border="clip")
    assert clip.pixels.tolist() == [[0.0, 10.0, 40.0, 40.0, 30.0]]
    rep = median_smooth(img, radius_px=1, border="replicate")
    assert rep.pixels.tolist() == [[10.0, 10.0, 40.0, 40.0, 30.0]]


def test_median_smooth_rejects_bad_radius():
    with pytest.raises(ValueError):
        median_smooth(Image(np.zeros((3, 3))), radius_px=0)


def test_median_smooth_rejects_unknown_border():
    with pytest.raises(ValueError, match="border"):
        median_smooth(Image(np.zeros((3, 3))), radius_px=2, border="wrap")
