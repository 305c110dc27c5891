"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package at its stated
tolerance and prints a single PASS line with the measured numbers, so a
verbose run doubles as a results table.  The real-image reconstruction
tests at the bottom are opt-in: they need user-supplied clean images and
are skipped otherwise.
"""

import math
import os
import time

import numpy as np
import pytest

from tmsmooth.eval_robust import max_bias_probe, metrics
from tmsmooth.grid_image import GridGeometry, read_pgm
from tmsmooth.lts_trim import lts_center, trim_count, trim_values
from tmsmooth.mode_density import DensityField
from tmsmooth.scene_noise import (Disk, NoiseSpec, Rect, Region, SceneSpec,
                                  Wedge, add_noise, rasterize)
from tmsmooth.smoother import SmootherParams, smooth

SEED = 20260813


# -- shared scene builders ------------------------------------------------


def wedge_scene(alpha_deg: float, bisector_deg: float,
                n: int = 64, vertex_px: tuple = (32, 32)) -> SceneSpec:
    """Binary wedge (levels 0/255) whose tip sits on a pixel design point."""
    v = ((vertex_px[0] + 0.5) / n, (vertex_px[1] + 0.5) / n)
    th = math.radians(bisector_deg)
    shape = Wedge(vertex=v, bisector=(math.cos(th), math.sin(th)),
                  angle=math.radians(alpha_deg), extent=0.45)
    return SceneSpec(regions=(Region(shape=shape, height=255.0),))


# opening angle, bisector direction: each pairing puts at least 4 wedge
# pixels into the 5x5 window centred on the tip pixel (the 30 degree
# wedge needs the tilted bisector to reach 4)
WEDGE_CASES = ((30.0, 35.0), (60.0, 45.0), (90.0, 45.0), (120.0, 45.0))

GEOMETRIC_SCENE = SceneSpec(
    base_offset=40.0,
    regions=(
        Region(shape=Rect(corner=(0.08, 0.08), opposite=(0.45, 0.5)),
               height=140.0),
        Region(shape=Disk(center=(0.7, 0.3), radius=0.18), height=90.0),
        Region(shape=Wedge(vertex=(0.35, 0.72), bisector=(1.0, 0.3),
                           angle=1.2, extent=0.5), height=170.0),
    ))


# -- 1: sharp corners are fixed points of the untrimmed smoother ----------


def test_corner_wedges_are_fixed_points_untrimmed():
    t0 = time.monotonic()
    params = SmootherParams(radius_px=2, bandwidth=25.0, trim_fraction=0.0)
    for alpha, bis in WEDGE_CASES:
        img = rasterize(wedge_scene(alpha, bis), GridGeometry(64, 64))
        assert set(np.unique(img.pixels)) == {0.0, 255.0}
        out, _ = smooth(img, params)
        differing = int((out.pixels != img.pixels).sum())
        assert differing == 0, f"alpha={alpha}: {differing} pixels changed"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS corner preservation (untrimmed): angles "
          f"{[a for a, _ in WEDGE_CASES]} all exact, {elapsed:.2f}s")


# -- 2: trimming keeps corners that leave at least 4 minority pixels ------


def test_corner_wedges_survive_trimming():
    params = SmootherParams(radius_px=2, bandwidth=25.0, trim_fraction=0.15)
    assert trim_count(25, 0.15) == 3
    counts = []
    for alpha, bis in WEDGE_CASES:
        img = rasterize(wedge_scene(alpha, bis), GridGeometry(64, 64))
        window = img.pixels[30:35, 30:35]
        minority = int((window == 255.0).sum())
        counts.append(minority)
        assert minority >= 4, f"alpha={alpha}: scene violates design"
        out, _ = smooth(img, params)
        assert np.array_equal(out.pixels[30:35, 30:35], window), \
            f"alpha={alpha}: corner-adjacent pixels changed"
        assert np.array_equal(out.pixels, img.pixels), \
            f"alpha={alpha}: wedge not preserved exactly"
    print(f"PASS corner preservation (trimmed): tip-window minority "
          f"counts {counts}, all preserved exactly")


def test_three_pixel_corner_is_lost_to_trimming():
    # with exactly 3 minority pixels in the tip window the trimmer can
    # drop the whole corner, so preservation is not promised below 4
    img = rasterize(wedge_scene(30.0, 45.0), GridGeometry(64, 64))
    window = img.pixels[30:35, 30:35]
    assert int((window == 255.0).sum()) == 3
    assert img.pixels[32, 32] == 255.0
    out, _ = smooth(img, SmootherParams(radius_px=2, bandwidth=25.0,
                                        trim_fraction=0.15))
    assert out.pixels[32, 32] != 255.0
    assert abs(out.pixels[32, 32]) < 1.0  # flipped to the background level
    print(f"PASS trim threshold: 3-pixel corner tip moved to "
          f"{out.pixels[32, 32]:.2e}")


# -- 3: breakdown dichotomy over random windows ---------------------------


def test_breakdown_dichotomy_over_random_windows():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    p_m = SmootherParams(radius_px=2, trim_fraction=0.0)
    p_tm = SmootherParams(radius_px=2, trim_fraction=0.15)
    min_m_bias = math.inf
    interval_misses = 0
    scalar_violations = 0
    for w in range(1000):
        vals = rng.uniform(0.0, 255.0, size=25)
        rep_m = max_bias_probe(vals, 1, p_m, strategies=("center",),
                               magnitudes=(1e9,), random_trials=0)
        min_m_bias = min(min_m_bias, rep_m.worst_bias)
        assert rep_m.worst_bias > 1e8, f"window {w}: M probe bias too small"
        rep_tm = max_bias_probe(vals, 3, p_tm, seed=w)
        interval_misses += rep_tm.bound_violations
        scalar_violations += rep_tm.violated
    elapsed = time.monotonic() - t0
    assert interval_misses == 0
    assert scalar_violations == 0
    assert elapsed < 60.0
    print(f"PASS breakdown dichotomy: 1000 windows, min untrimmed bias "
          f"{min_m_bias:.3g}, 0 support-bound violations, {elapsed:.1f}s")


# -- 4: trimmed-density identities ----------------------------------------


def test_trimmed_density_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    band_checked = 0
    for _ in range(10_000):
        n = int(rng.choice([9, 25, 49]))
        spread = float(rng.uniform(20.0, 120.0))
        center = float(rng.uniform(0.0, 255.0))
        vals = center + rng.uniform(-0.5 * spread, 0.5 * spread, size=n)
        if rng.random() < 0.5:
            k = int(rng.integers(1, max(2, n // 5)))
            sign = rng.choice([-1.0, 1.0], size=k)
            vals[:k] = center + sign * rng.uniform(spread, 4 * spread, size=k)
        # snap observations and bandwidth to a dyadic lattice so that the
        # interval endpoints y +/- g are exactly representable; the
        # exact-zero claim at the endpoints is unfalsifiable otherwise
        vals = np.round(vals * 1024.0) / 1024.0
        wts = rng.uniform(0.05, 1.0, size=n)
        frac = float(rng.uniform(0.0, 0.49))
        _, mask, _, r = trim_values(vals, frac)
        g = float(rng.uniform(0.08, 0.45)) * spread
        g = round(g * 1024.0) / 1024.0
        full = DensityField(vals, wts, g)
        trimmed = DensityField(vals, wts, g, mask) if r else full
        y_u = float(vals[mask].min())
        y_o = float(vals[mask].max())
        # middle band: the excluded kernels cannot reach it
        if y_o - y_u > 2.0 * g:
            band = rng.uniform(y_u + g, y_o - g, size=128)
            # both fields hold one slot per entry in entry order, and the
            # excluded kernels add exact zeros: equal bit for bit
            assert np.array_equal(trimmed.d1(band), full.d1(band))
            band_checked += 1
        # side bands: strictly signed slope toward the retained mass
        lo_side = rng.uniform(y_u - g, y_u, size=32)
        hi_side = rng.uniform(y_o, y_o + g, size=32)
        assert np.all(trimmed.d1(lo_side) > 0.0)
        assert np.all(trimmed.d1(hi_side) < 0.0)
        # outside the retained reach: identically zero, cut points included
        outside = np.concatenate([
            y_u - g - rng.uniform(0.0, 3.0 * g, size=31),
            y_o + g + rng.uniform(0.0, 3.0 * g, size=31),
            [y_u - g, y_o + g]])
        assert np.all(trimmed.value(outside) == 0.0)
        assert np.all(trimmed.d1(outside) == 0.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert band_checked > 2000  # the middle band existed often enough
    print(f"PASS density identities: 10000 windows, middle band checked "
          f"{band_checked}x (bit-identical), {elapsed:.1f}s")


# -- 5: trimming center matches exhaustive search -------------------------


def _brute_lts(values, frac):
    """Plain-Python exhaustive search over contiguous sorted blocks with
    the first-minimum and entry-order tie rules spelled out.  Blocks are
    ranked by the shifted scatter quantity q * sum(x'^2) - (sum x')^2,
    exact for integer-valued data, so scatter ties rank deterministically.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    r = math.floor(n * frac)
    q = n - r
    srt = sorted(vals)
    shift = round(srt[(n - 1) // 2])
    best_ssq, best_mean = None, None
    for s in range(r + 1):
        block = srt[s:s + q]
        ssq = (q * sum((b - shift) ** 2 for b in block)
               - sum(b - shift for b in block) ** 2)
        if best_ssq is None or ssq < best_ssq:
            best_ssq, best_mean = ssq, sum(block) / q
    res = [(v - best_mean) ** 2 for v in vals]
    thresh = sorted(res)[q - 1]
    keep = [False] * n
    need = q
    for i in range(n):
        if res[i] < thresh and need > 0:
            keep[i] = True
            need -= 1
    for i in range(n):
        if need > 0 and res[i] == thresh and not keep[i]:
            keep[i] = True
            need -= 1
    return best_mean, np.array(keep), r


def test_lts_center_matches_bruteforce():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    exact = 0
    for i in range(10_000):
        n = int(rng.integers(1, 26))
        kind = i % 3
        if kind == 0:
            vals = rng.integers(0, 8, size=n).astype(float)
        elif kind == 1:
            vals = rng.integers(0, 256, size=n).astype(float)
        else:
            vals = rng.uniform(0.0, 255.0, size=n)
        frac = float(rng.uniform(0.0, 0.5))
        ref_center, ref_mask, ref_r = _brute_lts(vals, frac)
        center, mask, _, r = trim_values(vals, frac)
        assert r == ref_r
        assert np.array_equal(mask, ref_mask), f"instance {i}"
        if kind < 2:
            assert center == ref_center  # integer sums are exact
            exact += 1
        else:
            assert center == pytest.approx(ref_center, rel=1e-12)
        assert lts_center(vals, r) == center
    elapsed = time.monotonic() - t0
    print(f"PASS trimming oracle: 10000 instances, {exact} bit-exact, "
          f"{elapsed:.1f}s")


# -- 6: analytic derivatives agree with central differences ---------------


def test_field_derivatives_match_central_differences():
    rng = np.random.default_rng(SEED)
    worst1 = worst2 = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 26))
        center = float(rng.uniform(0.0, 255.0))
        vals = center + rng.uniform(-40.0, 40.0, size=n)
        wts = rng.uniform(0.05, 1.0, size=n)
        g = float(rng.uniform(5.0, 60.0))
        f = DensityField(vals, wts, g)
        h = g * 1e-6
        cuts = np.concatenate([vals - g, vals + g])
        ys = rng.uniform(vals.min() - g, vals.max() + g, size=64)
        # differentiability fails exactly at the kernel cut points, so
        # difference stencils must not straddle one
        ok = np.abs(ys[:, None] - cuts[None, :]).min(axis=1) > 10.0 * h
        ys = ys[ok]
        d1 = f.d1(ys)
        d2 = f.d2(ys)
        fd1 = (f.value(ys + h) - f.value(ys - h)) / (2.0 * h)
        fd2 = (f.d1(ys + h) - f.d1(ys - h)) / (2.0 * h)
        s1 = np.abs(d1) > 1e-3 * np.abs(d1).max()
        s2 = np.abs(d2) > 1e-3 * np.abs(d2).max()
        if s1.any():
            rel1 = float(np.abs((fd1[s1] - d1[s1]) / d1[s1]).max())
            worst1 = max(worst1, rel1)
            assert rel1 <= 1e-5
        if s2.any():
            rel2 = float(np.abs((fd2[s2] - d2[s2]) / d2[s2]).max())
            worst2 = max(worst2, rel2)
            assert rel2 <= 1e-5
    print(f"PASS derivative check: 1000 fields, worst rel err "
          f"d1 {worst1:.2e}, d2 {worst2:.2e}")


# -- 7: denoising quality on a contaminated geometric scene ---------------


def test_denoising_quality_on_geometric_scene():
    t0 = time.monotonic()
    clean = rasterize(GEOMETRIC_SCENE, GridGeometry(100, 100))
    maes_noisy, mses_noisy, maes_tm, mses_tm = [], [], [], []
    tm_wins = 0
    for seed in range(10):
        noisy = add_noise(clean, NoiseSpec(sigma=26.0, p_white=0.01,
                                           seed=seed))
        tm, rep = smooth(noisy, SmootherParams(radius_px=2,
                                               trim_fraction=0.15))
        m, _ = smooth(noisy, SmootherParams(radius_px=2, trim_fraction=0.0,
                                            bandwidth=rep.bandwidth))
        rep_noisy = metrics(clean, noisy)
        rep_tm = metrics(clean, tm)
        rep_m = metrics(clean, m)
        maes_noisy.append(rep_noisy.mae)
        mses_noisy.append(rep_noisy.mse)
        maes_tm.append(rep_tm.mae)
        mses_tm.append(rep_tm.mse)
        tm_wins += rep_tm.mse < rep_m.mse
    mae_red = 1.0 - np.mean(maes_tm) / np.mean(maes_noisy)
    mse_red = 1.0 - np.mean(mses_tm) / np.mean(mses_noisy)
    elapsed = time.monotonic() - t0
    assert mae_red >= 0.40
    assert mse_red >= 0.70
    assert tm_wins >= 9
    assert elapsed < 180.0
    print(f"PASS denoising quality: MAE -{mae_red:.0%}, MSE -{mse_red:.0%}, "
          f"trimmed beats untrimmed {tm_wins}/10, {elapsed:.0f}s")


# -- 8: error shrinks with resolution on a smooth scene -------------------


def test_error_decreases_with_resolution_on_smooth_scene():
    # window radius grows with n (fixed spatial bandwidth w/n = 1/16), so
    # each window sees more observations and the variance shrinks
    ramp = SceneSpec(base_offset=80.0, base_gradient=(60.0, 40.0))
    medians = []
    for n, w in ((32, 2), (64, 4), (128, 8)):
        clean = rasterize(ramp, GridGeometry(n, n))
        mses = []
        for seed in range(10):
            noisy = add_noise(clean, NoiseSpec(sigma=10.0, seed=seed))
            out, _ = smooth(noisy, SmootherParams(radius_px=w,
                                                  trim_fraction=0.0,
                                                  bandwidth=13.0))
            mses.append(float(np.mean((out.pixels - clean.pixels) ** 2)))
        medians.append(float(np.median(mses)))
    assert medians[0] > medians[1] > medians[2]
    print(f"PASS resolution trend: median MSE {medians[0]:.2f} -> "
          f"{medians[1]:.2f} -> {medians[2]:.2f} for n=32,64,128")


# -- 9: optional real-image reconstruction (opt-in, needs local assets) ---


REAL_IMAGE_RECIPES = (
    ("TMSMOOTH_REAL_CLEAN_A",
     dict(sigma=26.0, p_white=0.01, seed=0), 13.9, 350.9),
    ("TMSMOOTH_REAL_CLEAN_B",
     dict(sigma=17.0, p_white=0.008, p_black=0.008, seed=0), 6.07, 77.0),
)


@pytest.mark.parametrize("env_var,recipe,mae_target,mse_target",
                         REAL_IMAGE_RECIPES)
def test_real_image_reconstruction(env_var, recipe, mae_target, mse_target):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"set {env_var} to a clean grayscale PGM to enable")
    clean = read_pgm(path)
    noisy = add_noise(clean, NoiseSpec(**recipe))
    tm, rep = smooth(noisy, SmootherParams(radius_px=2, trim_fraction=0.15))
    result = metrics(clean, tm)
    print(f"PASS real image {env_var}: auto g {rep.bandwidth:.2f}, "
          f"MAE {result.mae:.2f} (target {mae_target}), "
          f"MSE {result.mse:.1f} (target {mse_target})")
    assert 0.85 * mae_target <= result.mae <= 1.15 * mae_target
    assert 0.85 * mse_target <= result.mse <= 1.15 * mse_target
