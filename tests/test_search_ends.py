"""Every mode search ends, at any bandwidth and any finite magnitude.

A kernel whose support rounds away (g below half an ulp of its value)
carries no kernel, and the walk stops at any cut where d*F' is not > 0.
Each reproduction runs as a subprocess with a deadline, so a search that
never returns fails its test instead of holding the suite.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tmsmooth import SmootherParams, smooth
from tmsmooth.grid_image import Image, window_at, write_pgm
from tmsmooth.lts_trim import trim_count
from tmsmooth.mode_density import DensityField, nearest_mode

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 60

# five 1e20 pixels of a 12x12 image of integers 0-255, a 2x2 block and
# one neighbour; windows near them hold one to five
BIG = 1e20
BIG_AT = ((5, 5), (5, 6), (6, 5), (6, 6), (5, 7))


def _run(code: str, *args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", textwrap.dedent(code),
         *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=DEADLINE_S)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _image(big_at=()) -> np.ndarray:
    px = np.random.default_rng(1).integers(0, 256, (12, 12)).astype(float)
    for at in big_at:
        px[tuple(at)] = BIG
    return px


def _smooth_in_subprocess(g: float, trim: float, big_at=()):
    out = _run("""
        import json, sys
        from tmsmooth import Image, SmootherParams, smooth
        from test_search_ends import _image
        img = Image(_image(json.loads(sys.argv[3])))
        out, rep = smooth(img, SmootherParams(
            bandwidth=float(sys.argv[1]), trim_fraction=float(sys.argv[2])))
        print(json.dumps({"pixels": out.pixels.tolist(),
                          "nonconverged": rep.nonconverged_pixels}))
    """, g, trim, json.dumps(big_at))
    res = json.loads(out)
    return np.array(res["pixels"]), res["nonconverged"]


@pytest.mark.parametrize("g", [1e-14, 1e-15])
@pytest.mark.parametrize("trim", [0.0, 0.15])
def test_collapsed_kernels_end_on_integer_image(g, trim):
    # at g = 1e-14 the kernels of values >= 128 collapse, their cuts being
    # adjacent floats, and at 1e-15 those of values >= 16.  Every other
    # kernel is too narrow to reach a neighbour: each estimate is one of
    # its window values, and every search converges
    out, nonconverged = _smooth_in_subprocess(g, trim)
    assert nonconverged == 0
    img = Image(_image())
    for (i, j), est in np.ndenumerate(out):
        assert np.min(np.abs(window_at(img, i, j, 2) - est)) == 0.0


def _edge_kernels():
    """(y, g) pairs around the collapse: binade edges, their neighbours,
    subnormals and the float maximum, with g near half an ulp of y, and
    finite cuts."""
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    edges = np.array([1.0, 128.0, 2.0 ** -1022, 2.0 ** 1000, tiny, 3 * tiny,
                      0.1, 255.0])
    ys = np.concatenate([edges, np.nextafter(edges, 0.0),
                         np.nextafter(edges, np.inf), [big]])
    ys = np.concatenate([ys, -ys, [0.0]])
    with np.errstate(over="ignore"):
        g = np.spacing(abs(ys))[:, None] * [0.25, 0.5, 0.6, 0.75, 1, 1.5, 3]
        finite = np.isfinite(ys[:, None] + g) & np.isfinite(ys[:, None] - g)
    finite &= g > 0.0
    return [(y, gi) for y, row, ok in zip(ys, g, finite)
            for gi in row[ok]] + [(0.0, tiny)]


def test_kernel_exists_iff_a_float_lies_between_its_cuts():
    # the collapse rule fl(y - g) < y < fl(y + g) is "some float lies
    # strictly between the cuts", the nextafter test, in DensityField and
    # in smooth (a constant image whose kernels collapse falls back to the
    # median everywhere)
    pairs = _edge_kernels()
    kept = 0
    for y, g in pairs:
        exists = bool(np.nextafter(y - g, np.inf) < y + g)
        kept += exists
        # the kernel at 0 always exists; a subnormal g overflows the
        # kernel coefficient, which plays no part here
        with np.errstate(over="ignore"):
            f = DensityField(np.array([y, 0.0]), np.ones(2), g)
        assert (y in f._ys) == exists, (y, g)
        _, rep = smooth(Image(np.full((3, 3), y)), SmootherParams(
            radius_px=1, bandwidth=g, trim_fraction=0.0))
        assert rep.median_fallback_pixels == (0 if exists else 9), (y, g)
    assert 20 < kept < len(pairs) - 20


def test_big_values_are_trimmed_within_the_support_bound():
    from tmsmooth.eval_robust import tm_support_bound
    out, nonconverged = _smooth_in_subprocess(30.0, 0.15, BIG_AT)
    assert nonconverged == 0
    img = Image(_image(BIG_AT))
    checked = 0
    for (i, j), est in np.ndenumerate(out):
        win = window_at(img, i, j, 2)
        r = trim_count(win.size, 0.15)  # 3 on full windows
        if np.count_nonzero(win == BIG) > r:
            continue
        others = win[win != BIG]
        lo, hi = tm_support_bound(others.min(), others.max(), win.size, r,
                                  30.0)
        assert lo <= est <= hi, (i, j)
        checked += 1
    assert checked > 120


def test_big_values_untrimmed_take_the_mode_of_the_others():
    # untrimmed, each 1e20 pixel used to return itself, unconverged; its
    # own kernel collapses at g = 30, so it now climbs to the nearest mode
    # of the other values
    out, nonconverged = _smooth_in_subprocess(30.0, 0.0, BIG_AT)
    assert nonconverged == 0
    assert np.all((out >= -30.0) & (out <= 255.0 + 30.0))


def test_probe_at_float_maximum_ends():
    out = _run("""
        import numpy as np
        from tmsmooth import SmootherParams, max_bias_probe
        w = np.random.default_rng(1).uniform(0.0, 255.0, 25)
        rep = max_bias_probe(w, 4, SmootherParams(trim_fraction=0.15),
                             magnitudes=(1e308,), strategies=("center",),
                             random_trials=0)
        print(rep.r, rep.worst_bias)
    """)
    assert out.split()[0] == "4"


def test_cli_probe_breakdown_at_float_maximum_ends(tmp_path):
    path = tmp_path / "ints.pgm"
    write_pgm(Image(_image()), path)
    out = _run("""
        import sys
        from tmsmooth.cli import main
        sys.exit(main(["probe", sys.argv[1], "--magnitudes", "1e308",
                       "--breakdown", "--trials", "0"]))
    """, path)
    assert "breakdown fraction" in out


def test_collapsed_kernel_leaves_the_field():
    f = DensityField(np.array([0.0, 1e20]), np.array([1.0, 1.0]), 30.0)
    assert f.support == (-30.0, 30.0)
    res = nearest_mode(f, 1e20)
    assert res.mode == 0.0
    assert res.converged
