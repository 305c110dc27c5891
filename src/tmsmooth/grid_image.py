"""Image container, design-grid geometry, single windows, and PGM I/O.

Pixels live on the regular design grid: pixel (i, j) of an n_rows x n_cols
image (0-based row-major indices) sits at ((i + 1/2) / n_rows,
(j + 1/2) / n_cols) in the unit square; scene_noise.rasterize samples
scenes there.  window_at returns the values of one pixel's window, every
pixel within a Chebyshev radius measured in pixels, in row-major order.
The smoother reads whole row bands of windows at once and owns the spatial
weights of the window lattice (smoother._bands and _lattice_kappa).

PGM support covers the plain (P2) and raw 8-bit (P5) variants with
maxval <= 255.  Tokens are separated by whitespace and by '#' comments,
which run to the end of their line and may appear anywhere between the
header's tokens and, in P2, between raster samples.  A P2 raster is read
sample by sample, so memory grows with the file, not with the size its
header claims.  Parse failures raise PgmParseError carrying the byte
offset of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class PgmParseError(ValueError):
    """Malformed PGM input.  `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Image:
    """Immutable grayscale image with real-valued intensities.

    `pixels` is a read-only float64 array of shape (height, width).
    Intensities are not restricted to [0, 255]; clamping happens only when
    writing 8-bit PGM output.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image must be 2-D and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image intensities must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class GridGeometry:
    """Dimensions of the design grid."""

    n_rows: int
    n_cols: int

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("grid dimensions must be >= 1")


def _check_border(border: str) -> None:
    if border not in ("clip", "replicate"):
        raise ValueError(f"unknown border mode {border!r}")


def window_at(img: Image, i0: int, j0: int, radius_px: int,
              border: str = "clip") -> np.ndarray:
    """Values of the window of Chebyshev radius `radius_px` centred at
    pixel (i0, j0), in row-major order.

    border="clip" keeps only in-bounds entries (windows shrink at the
    image edge); border="replicate" always returns the full
    (2*radius_px + 1)^2 lattice, reading out-of-bounds entries from the
    nearest valid pixel.
    """
    H, W = img.height, img.width
    if not (0 <= i0 < H and 0 <= j0 < W):
        raise ValueError(f"centre ({i0}, {j0}) outside {H}x{W} image")
    if radius_px < 0:
        raise ValueError("radius_px must be >= 0")
    _check_border(border)
    w = radius_px
    if border == "clip":
        return img.pixels[max(0, i0 - w):i0 + w + 1,
                          max(0, j0 - w):j0 + w + 1].ravel()
    rows = np.clip(np.arange(i0 - w, i0 + w + 1), 0, H - 1)
    cols = np.clip(np.arange(j0 - w, j0 + w + 1), 0, W - 1)
    return img.pixels[np.ix_(rows, cols)].ravel()


# --- PGM ------------------------------------------------------------------

# Separators (whitespace, and '#' comments through the end of their line),
# then one token: the run of bytes up to the next separator, empty only at
# the end of the data.  \s in a bytes pattern is ASCII " \t\n\r\x0b\x0c"
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


def _int_token(m: re.Match, what: str, maxval: int | None = None) -> int:
    """The integer of a _TOKEN match: ASCII digits, at most maxval if given."""
    tok = m.group(1)
    if not tok:
        raise PgmParseError("unexpected end of file", m.start(1))
    if not tok.isdigit():
        raise PgmParseError(f"expected {what}, got {tok!r}", m.start(1))
    if len(tok) > 640:  # int() may be limited to as few as 640 digits
        raise PgmParseError(f"{what} has {len(tok)} digits, more than 640",
                            m.start(1))
    v = int(tok)
    if maxval is not None and v > maxval:
        raise PgmParseError(f"{what} {v} exceeds maxval {maxval}", m.start(1))
    return v


def parse_pgm(data: bytes) -> Image:
    """Parse PGM bytes (P2 or P5, maxval 1..255) into an Image."""
    if len(data) < 2:
        raise PgmParseError("not a PGM file", 0)
    magic = data[0:2]
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic {magic!r}", 0)
    # the last match has an empty token at the end of the data, on which
    # _int_token raises, so next() always finds one
    tokens = _TOKEN.finditer(data, 2)
    m = next(tokens)
    width, at_w = _int_token(m, "width"), m.start(1)
    height = _int_token(next(tokens), "height")
    if width < 1 or height < 1:
        raise PgmParseError(f"invalid dimensions {width}x{height}", at_w)
    m = next(tokens)
    maxval = _int_token(m, "maxval")
    if not (1 <= maxval <= 255):
        raise PgmParseError(f"maxval {maxval} outside 1..255", m.start(1))
    pos = m.end()
    n = width * height
    if magic == b"P5":
        if pos >= len(data):
            raise PgmParseError("missing raster separator", pos)
        if not data[pos:pos + 1].isspace():
            raise PgmParseError("expected single whitespace before raster",
                                pos)
        start = pos + 1
        raster = data[start:start + n]
        if len(raster) < n:
            raise PgmParseError(
                f"truncated raster: expected {n} bytes, got {len(raster)}",
                len(data))
        if len(data) > start + n:
            raise PgmParseError("trailing data after raster", start + n)
        arr = np.frombuffer(raster, dtype=np.uint8).astype(float)
        if np.any(arr > maxval):
            bad = int(np.argmax(arr > maxval))
            raise PgmParseError(f"sample exceeds maxval {maxval}", start + bad)
    else:
        # each sample is checked as it is read, and the array is built from
        # them: the header's size is never allocated up front
        vals = [_int_token(m, "sample", maxval)
                for _, m in zip(range(n), tokens)]
        m = next(tokens)
        if m.group(1):
            raise PgmParseError("trailing data after samples", m.start(1))
        arr = np.array(vals, dtype=float)
    return Image(arr.reshape(height, width))


def read_pgm(path) -> Image:
    with open(path, "rb") as fh:
        return parse_pgm(fh.read())


def quantize(img: Image) -> np.ndarray:
    """Clamp to [0, 255] and round half away from zero to uint8."""
    clamped = np.clip(img.pixels, 0.0, 255.0)
    return np.floor(clamped + 0.5).astype(np.uint8)


def pgm_bytes(img: Image, binary: bool = True) -> bytes:
    """Serialise as PGM (P5 when binary, else P2) with maxval 255."""
    q = quantize(img)
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n255\n"
    if binary:
        return header.encode("ascii") + q.tobytes()
    lines = []
    line: list[str] = []
    length = 0
    for v in q.ravel():
        tok = str(int(v))
        add = len(tok) + (1 if line else 0)
        if length + add > 70:
            lines.append(" ".join(line))
            line, length = [tok], len(tok)
        else:
            line.append(tok)
            length += add
    if line:
        lines.append(" ".join(line))
    return header.encode("ascii") + ("\n".join(lines) + "\n").encode("ascii")


def write_pgm(img: Image, path, binary: bool = True) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(img, binary=binary))
