"""Design grid, window extraction, and PGM round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmsmooth.grid_image import (GridGeometry, Image, PgmParseError,
                                 parse_pgm, pgm_bytes, quantize, read_pgm,
                                 window_at, write_pgm)
from tmsmooth.scene_noise import SceneSpec, rasterize
from tmsmooth.smoother import _bands


@pytest.mark.parametrize("n_rows, n_cols", [(1, 1), (2, 2), (4, 4), (3, 7)])
def test_rasterize_samples_the_design_points(n_rows, n_cols):
    # with unit gradients the scene value is the design coordinate itself
    geom = GridGeometry(n_rows, n_cols)
    x1 = rasterize(SceneSpec(base_gradient=(1.0, 0.0)), geom).pixels
    x2 = rasterize(SceneSpec(base_gradient=(0.0, 1.0)), geom).pixels
    i, j = np.indices((n_rows, n_cols))
    assert np.array_equal(x1, (i + 0.5) / n_rows)
    assert np.array_equal(x2, (j + 0.5) / n_cols)


def test_image_validation():
    with pytest.raises(ValueError):
        Image(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(ValueError):
        Image(np.array([[np.nan]]))
    img = Image(np.zeros((2, 3)))
    assert (img.height, img.width) == (2, 3)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0  # read-only view


def test_window_counts_clip():
    img = Image(np.arange(49, dtype=float).reshape(7, 7))
    assert window_at(img, 3, 3, 2).shape == (25,)
    assert len(window_at(img, 0, 0, 2)) == 9
    assert len(window_at(img, 0, 3, 2)) == 15
    assert len(window_at(img, 6, 6, 1)) == 4


def test_window_replicate_is_full_and_clamped():
    img = Image(np.arange(9, dtype=float).reshape(3, 3))
    win = window_at(img, 0, 0, 2, border="replicate")
    assert len(win) == 25
    # corner pixel replicated into the out-of-range quadrant
    assert win[0] == img.pixels[0, 0]
    assert win[12] == img.pixels[0, 0]


def test_window_offsets_lattice():
    img = Image(np.arange(25, dtype=float).reshape(5, 5))
    win = window_at(img, 2, 2, 2)
    assert win[12] == 12.0
    # row-major entry order
    assert win[0] == 0.0 and win[-1] == 24.0


@pytest.mark.parametrize("shape", [(7, 9), (1, 5)])
@pytest.mark.parametrize("radius", range(5))
@pytest.mark.parametrize("border", ["clip", "replicate"])
def test_window_matches_band_rows(shape, radius, border):
    # the single window is the smoother's band row without its NaN slots
    rng = np.random.default_rng(radius)
    img = Image(rng.normal(100.0, 30.0, shape))
    rows = np.concatenate([win for _, win in _bands(img, radius, border)])
    for p, row in enumerate(rows):
        expect = row[~np.isnan(row)]
        got = window_at(img, *divmod(p, shape[1]), radius, border=border)
        assert np.array_equal(got, expect)


def test_quantize_rounds_half_away_from_zero_after_clamp():
    img = Image(np.array([[-5.0, 0.49, 0.5, 254.5, 300.0, 17.0]]))
    q = quantize(img)
    assert q.dtype == np.uint8
    assert q.tolist() == [[0, 0, 1, 255, 255, 17]]


def test_pgm_ascii_example():
    data = b"P2\n# tiny\n2 2\n255\n0 255\n17 3\n"
    img = parse_pgm(data)
    assert img.pixels.tolist() == [[0.0, 255.0], [17.0, 3.0]]


def test_pgm_binary_roundtrip(tmp_path):
    arr = np.arange(30, dtype=float).reshape(5, 6) * 8.0
    path = tmp_path / "x.pgm"
    write_pgm(Image(arr), path, binary=True)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, np.clip(np.floor(arr + 0.5), 0, 255))


def test_pgm_ascii_line_width(tmp_path):
    arr = np.full((9, 9), 200.0)
    data = pgm_bytes(Image(arr), binary=False)
    assert all(len(line) <= 70 for line in data.split(b"\n"))


def test_parse_errors_carry_offsets():
    with pytest.raises(PgmParseError) as exc:
        parse_pgm(b"P7\n1 1\n255\n0\n")
    assert exc.value.offset == 0
    with pytest.raises(PgmParseError) as exc:
        parse_pgm(b"P2\n1 1\n0\n0\n")
    assert exc.value.offset == 7  # maxval token position
    with pytest.raises(PgmParseError):
        parse_pgm(b"P2\n2 2\n255\n0 0 0\n")  # truncated raster
    with pytest.raises(PgmParseError):
        parse_pgm(b"P2\n1 1\n255\n0 9\n")  # trailing data
    with pytest.raises(PgmParseError):
        parse_pgm(b"P2\n1 1\n255\n300\n")  # sample above maxval
    with pytest.raises(PgmParseError):
        parse_pgm(b"P5\n2 1\n255\nA")  # short binary raster


@pytest.mark.parametrize("data, message, offset", [
    (b"P2\nx 1\n255\n0\n", "expected width, got b'x'", 3),
    (b"P2\n1 -2\n255\n0\n", "expected height, got b'-2'", 5),
    (b"P2 # c\n 2 0\n255\n", "invalid dimensions 2x0", 8),
    (b"P2\n1 1\n1.5\n0\n", "expected maxval, got b'1.5'", 7),
    (b"P5\n1 1 256 x", "maxval 256 outside 1..255", 7),
    (b"P2\n1 1", "unexpected end of file", 6),
])
def test_header_errors_carry_token_offsets(data, message, offset):
    with pytest.raises(PgmParseError) as exc:
        parse_pgm(data)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


@pytest.mark.parametrize("dims", [b"100000 100000", b"4294967296 3",
                                  b"1" + b"0" * 30 + b" 7"])
def test_header_size_is_not_allocated_before_samples(dims):
    # a claim of 10^10 pixels or more in a short file ends at the file's
    # end, not in an allocation of the claimed raster
    data = b"P2\n" + dims + b"\n255\n0\n"
    with pytest.raises(PgmParseError) as exc:
        parse_pgm(data)
    assert exc.value.offset == len(data)
    assert str(exc.value).startswith("unexpected end of file")


def test_p2_comments_between_samples():
    data = b"P2\n2 2\n255\n0 # first\n255#second\n#\n17\t#x\n3 # end"
    assert parse_pgm(data).pixels.tolist() == [[0.0, 255.0], [17.0, 3.0]]


def test_p2_trailing_token_and_separators():
    assert parse_pgm(b"P2\n1 1\n9\n7 \n# done\n\x0c").pixels[0, 0] == 7.0
    with pytest.raises(PgmParseError) as exc:
        parse_pgm(b"P2\n1 1\n9\n7 # x\n8\n")
    assert exc.value.offset == 15
    assert str(exc.value).startswith("trailing data after samples")


@pytest.mark.parametrize("byte", [b"\xb2", b"\xa0", b"\x85"])
def test_non_ascii_sample_byte_rejected(byte):
    # superscript two, no-break space and next line are neither digits nor
    # separators
    with pytest.raises(PgmParseError) as exc:
        parse_pgm(b"P2\n2 1\n255\n1 " + byte + b"\n")
    assert str(exc.value) == f"expected sample, got {byte!r} (byte offset 13)"


def test_binary_sample_above_maxval_rejected():
    data = b"P5\n2 1\n10\n" + bytes([5, 200])
    with pytest.raises(PgmParseError) as exc:
        parse_pgm(data)
    assert exc.value.offset == len(data) - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.booleans(),
       st.integers(0, 10_000))
def test_roundtrip_is_identity_on_quantized_images(h, w, binary, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 256, size=(h, w)).astype(float)
    data = pgm_bytes(Image(arr), binary=binary)
    back = parse_pgm(data)
    assert np.array_equal(back.pixels, arr)
    # a second trip is byte-identical: quantization is a fixpoint
    assert pgm_bytes(back, binary=binary) == data
