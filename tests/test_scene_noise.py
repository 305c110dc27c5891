"""Scene geometry, rasterisation, noise model, and config parsing."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from tmsmooth.grid_image import GridGeometry, Image
from tmsmooth.scene_noise import (Disk, NoiseSpec, Polygon, Rect, Region,
                                  SceneConfigError, SceneSpec, Wedge,
                                  add_noise, parse_noise_config,
                                  parse_scene_config, rasterize)


# -- shapes -------------------------------------------------------------------


def test_wedge_membership_on_4x4_grid():
    # design points sit at (i + 0.5)/4; the 90 degree wedge opening down
    # the rows from the centre covers exactly these six pixels, with the
    # two corner pixels of row 3 lying exactly on the closed boundary
    wedge = Wedge(vertex=(0.5, 0.5), bisector=(1.0, 0.0),
                  angle=math.pi / 2, extent=1.0)
    scene = SceneSpec(regions=(Region(shape=wedge, height=1.0),))
    img = rasterize(scene, GridGeometry(4, 4))
    members = {(i, j) for i in range(4) for j in range(4)
               if img.pixels[i, j] == 1.0}
    assert members == {(2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)}


def test_wedge_normalises_bisector_and_validates():
    w = Wedge(vertex=(0.0, 0.0), bisector=(3.0, 4.0), angle=1.0, extent=2.0)
    assert w.bisector == pytest.approx((0.6, 0.8))
    with pytest.raises(ValueError):
        Wedge(vertex=(0, 0), bisector=(0.0, 0.0), angle=1.0, extent=1.0)
    with pytest.raises(ValueError):
        Wedge(vertex=(0, 0), bisector=(1, 0), angle=0.0, extent=1.0)
    with pytest.raises(ValueError):
        Wedge(vertex=(0, 0), bisector=(1, 0), angle=2 * math.pi, extent=1.0)
    with pytest.raises(ValueError):
        Wedge(vertex=(0, 0), bisector=(1, 0), angle=1.0, extent=0.0)


def test_wedge_extent_limits_membership():
    w = Wedge(vertex=(0.0, 0.0), bisector=(1.0, 0.0),
              angle=math.pi / 2, extent=0.5)
    assert bool(w.contains(0.4, 0.0))
    assert bool(w.contains(0.5, 0.0))  # closed at the arc
    assert not bool(w.contains(0.6, 0.0))


def test_disk_membership_closed():
    d = Disk(center=(0.5, 0.5), radius=0.25)
    assert bool(d.contains(0.5, 0.75))
    assert not bool(d.contains(0.5, 0.7500001))
    with pytest.raises(ValueError):
        Disk(center=(0, 0), radius=0.0)


def test_rect_membership_corner_order_irrelevant():
    a = Rect(corner=(0.2, 0.1), opposite=(0.8, 0.9))
    b = Rect(corner=(0.8, 0.9), opposite=(0.2, 0.1))
    pts = [(0.2, 0.1), (0.5, 0.5), (0.8, 0.9), (0.19, 0.5), (0.5, 0.91)]
    for p in pts:
        assert bool(a.contains(*p)) == bool(b.contains(*p))
    assert bool(a.contains(0.2, 0.1))
    assert not bool(a.contains(0.19, 0.5))


def test_polygon_membership_including_boundary():
    tri = Polygon(points=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert bool(tri.contains(0.25, 0.25))
    assert not bool(tri.contains(0.75, 0.75))
    assert bool(tri.contains(0.5, 0.5))    # on the hypotenuse
    assert bool(tri.contains(0.0, 0.0))    # vertex
    assert bool(tri.contains(0.5, 0.0))    # edge midpoint
    assert not bool(tri.contains(0.5, 0.5001))
    with pytest.raises(ValueError):
        Polygon(points=((0, 0), (1, 1)))


def test_polygon_nonconvex_even_odd():
    # arrow shape with a notch: the notch point is outside
    arrow = Polygon(points=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                            (0.5, 0.4), (0.0, 1.0)))
    assert bool(arrow.contains(0.5, 0.2))
    assert not bool(arrow.contains(0.5, 0.8))
    assert bool(arrow.contains(0.9, 0.8))


# -- scenes -------------------------------------------------------------------


def test_affine_base_rasterizes_exactly():
    scene = SceneSpec(base_offset=10.0, base_gradient=(8.0, 4.0))
    img = rasterize(scene, GridGeometry(2, 2))
    assert img.pixels.tolist() == [[13.0, 15.0], [17.0, 19.0]]


def test_region_covering_grid_gives_constant():
    scene = SceneSpec(regions=(
        Region(shape=Disk(center=(0.5, 0.5), radius=2.0), height=150.0),))
    img = rasterize(scene, GridGeometry(5, 7))
    assert np.all(img.pixels == 150.0)


def test_overlapping_region_heights_add():
    scene = SceneSpec(base_offset=5.0, regions=(
        Region(shape=Rect(corner=(0.0, 0.0), opposite=(1.0, 0.6)),
               height=100.0),
        Region(shape=Rect(corner=(0.0, 0.4), opposite=(1.0, 1.0)),
               height=-30.0),
    ))
    img = rasterize(scene, GridGeometry(1, 10))
    # columns 0..5 lie in the first rect, 4..9 in the second
    assert img.pixels[0, 0] == 105.0
    assert img.pixels[0, 4] == 75.0
    assert img.pixels[0, 9] == -25.0


def test_scene_validation():
    with pytest.raises(ValueError):
        SceneSpec(base_offset=float("nan"))
    with pytest.raises(ValueError):
        SceneSpec(base_gradient=(float("inf"), 0.0))
    with pytest.raises(ValueError):
        Region(shape=Disk(center=(0, 0), radius=1.0), height=float("nan"))


# -- noise --------------------------------------------------------------------


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(truncate=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(p_white=0.6, p_black=0.6)
    with pytest.raises(ValueError):
        NoiseSpec(p_white=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(seed=2 ** 64)
    with pytest.raises(ValueError):
        NoiseSpec(seed=-1)


def test_zero_noise_is_identity(rng):
    img = Image(rng.uniform(0, 255, size=(6, 6)))
    out = add_noise(img, NoiseSpec())
    assert np.array_equal(out.pixels, img.pixels)


def test_noise_is_deterministic(rng):
    img = Image(rng.uniform(0, 255, size=(8, 8)))
    spec = NoiseSpec(sigma=12.0, p_white=0.05, p_black=0.05, seed=31)
    a = add_noise(img, spec)
    b = add_noise(img, spec)
    assert np.array_equal(a.pixels, b.pixels)
    c = add_noise(img, NoiseSpec(sigma=12.0, p_white=0.05, p_black=0.05,
                                 seed=32))
    assert not np.array_equal(a.pixels, c.pixels)


def test_noise_independent_of_image_size():
    # pixel (i, j) draws from a stream keyed by (seed, i, j) only, so a
    # crop that preserves indices reproduces the same observations
    big = Image(np.full((6, 8), 100.0))
    small = Image(np.full((3, 4), 100.0))
    spec = NoiseSpec(sigma=9.0, p_white=0.1, seed=7)
    out_big = add_noise(big, spec)
    out_small = add_noise(small, spec)
    assert np.array_equal(out_big.pixels[:3, :4], out_small.pixels)


def test_noise_stream_layout_frozen():
    # contract: Philox key [seed, (i << 32) | j]; first draw picks the
    # outlier category, later draws feed the Gaussian residual
    spec = NoiseSpec(sigma=11.0, seed=5)
    img = Image(np.full((3, 4), 80.0))
    out = add_noise(img, spec)
    gen = Generator(Philox(key=np.array([5, (2 << 32) | 3],
                                        dtype=np.uint64)))
    gen.random()
    expect = 80.0 + gen.standard_normal() * 11.0
    assert out.pixels[2, 3] == expect


def test_reused_generator_matches_fresh_generator_per_key():
    # white and black outliers and truncation rejections all occur, so the
    # pixels draw different numbers of values; each one must still see
    # exactly the stream of a fresh Philox keyed by [seed, (i << 32) | j]
    spec = NoiseSpec(sigma=10.0, truncate=5.0, p_white=0.1, p_black=0.1,
                     seed=77)
    out = add_noise(Image(np.full((12, 13), 100.0)), spec)
    kinds, rejected = set(), 0
    for i in range(12):
        for j in range(13):
            gen = Generator(Philox(key=np.array([77, (i << 32) | j],
                                                dtype=np.uint64)))
            u = gen.random()
            if u < 0.1:
                expect, kind = 255.0, "white"
            elif u < 0.2:
                expect, kind = 0.0, "black"
            else:
                eps = gen.standard_normal() * 10.0
                while not -5.0 < eps < 5.0:
                    eps = gen.standard_normal() * 10.0
                    rejected += 1
                expect, kind = 100.0 + eps, "gauss"
            assert out.pixels[i, j] == expect
            kinds.add(kind)
    assert kinds == {"white", "black", "gauss"}
    assert rejected > 20


def test_all_white_replacement():
    img = Image(np.zeros((5, 5)))
    out = add_noise(img, NoiseSpec(p_white=1.0, seed=3))
    assert np.all(out.pixels == 255.0)


def test_custom_outlier_values():
    img = Image(np.full((20, 20), 50.0))
    out = add_noise(img, NoiseSpec(p_white=0.5, p_black=0.5,
                                   white_value=7.0, black_value=-7.0, seed=1))
    assert set(np.unique(out.pixels)) == {-7.0, 7.0}


def test_outlier_fraction_matches_probability():
    n = 100
    img = Image(np.full((n, n), 100.0))
    p = 0.1
    out = add_noise(img, NoiseSpec(p_white=p, seed=123))
    frac = np.mean(out.pixels == 255.0)
    assert abs(frac - p) <= 4.0 * math.sqrt(p * (1 - p) / (n * n))


def test_gaussian_residual_statistics():
    n = 100
    sigma = 10.0
    img = Image(np.full((n, n), 100.0))
    out = add_noise(img, NoiseSpec(sigma=sigma, seed=77))
    res = out.pixels - 100.0
    assert abs(res.mean()) <= 4.0 * sigma / n
    assert abs(res.std() - sigma) <= 4.0 * sigma / n


def test_truncation_bounds_residuals():
    img = Image(np.full((40, 40), 100.0))
    out = add_noise(img, NoiseSpec(sigma=20.0, truncate=5.0, seed=9))
    res = np.abs(out.pixels - 100.0)
    assert np.all(res < 5.0)
    assert res.max() > 3.0  # rejection reshapes, it does not rescale


def test_truncation_rejection_cap():
    img = Image(np.full((1, 1), 0.0))
    with pytest.raises(RuntimeError):
        add_noise(img, NoiseSpec(sigma=1.0, truncate=1e-9, seed=2))


# -- config parsing -----------------------------------------------------------


FULL_CONFIG = """\
# demo scene
base = affine 20 0 40
region = wedge vertex=0.5,0.5 bisector=1,0 angle_deg=90 extent=1 height=100
region = disk center=0.25,0.75 radius=0.1 height=-15
region = rect corner=0.1,0.1 opposite=0.3,0.2 height=30  # trailing comment
region = polygon points=0.6,0.1;0.9,0.1;0.9,0.4 height=12
noise = sigma=26 p_white=0.01 seed=11
"""


def test_parse_full_scene_config():
    scene = parse_scene_config(FULL_CONFIG)
    assert scene.base_offset == 20.0
    assert scene.base_gradient == (0.0, 40.0)
    kinds = [type(r.shape).__name__ for r in scene.regions]
    assert kinds == ["Wedge", "Disk", "Rect", "Polygon"]
    heights = [r.height for r in scene.regions]
    assert heights == [100.0, -15.0, 30.0, 12.0]
    assert scene.regions[0].shape.angle == pytest.approx(math.pi / 2)


def test_parse_noise_from_same_text():
    spec = parse_noise_config(FULL_CONFIG)
    assert spec.sigma == 26.0
    assert spec.p_white == 0.01
    assert spec.seed == 11
    assert spec.p_black == 0.0
    assert parse_noise_config("base = constant 5") == NoiseSpec()


def test_parse_base_constant_default():
    scene = parse_scene_config("base = constant 42")
    assert scene.base_offset == 42.0
    assert scene.base_gradient == (0.0, 0.0)
    assert scene.regions == ()
    assert parse_scene_config("").base_offset == 0.0


@pytest.mark.parametrize("text,lineno", [
    ("flavor = vanilla", 1),
    ("base = constant 1\nbase = constant 2", 2),
    ("base = linear 1 2 3", 1),
    ("\nregion = blob center=0,0 height=1", 2),
    ("region = disk center=0,0 radius=1", 1),           # missing height
    ("region = disk center=0,0 radius=1 height=1 x=2", 1),
    ("region = disk center=zero,0 radius=1 height=1", 1),
    ("region = wedge vertex=0,0,0 bisector=1,0 angle_deg=90 extent=1 height=1", 1),
    ("region = polygon points=0,0;1,1 height=1", 1),
    ("region = disk center=0,0 radius=1 radius=2 height=1", 1),
    ("just words", 1),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(SceneConfigError) as exc:
        parse_scene_config(text)
    assert f"line {lineno}:" in str(exc.value)


def test_noise_parse_errors():
    with pytest.raises(SceneConfigError) as exc:
        parse_noise_config("noise = flux=3")
    assert "unknown noise key" in str(exc.value)
    with pytest.raises(SceneConfigError):
        parse_noise_config("noise = sigma=loud")
    with pytest.raises(SceneConfigError):
        parse_noise_config("noise = p_white=0.9 p_black=0.9")


def test_region_validation_errors_carry_line_numbers():
    with pytest.raises(SceneConfigError) as exc:
        parse_scene_config(
            "region = wedge vertex=0,0 bisector=0,0 angle_deg=90 "
            "extent=1 height=1")
    assert "line 1:" in str(exc.value)
