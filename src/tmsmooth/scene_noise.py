"""Synthetic piecewise-smooth scenes and the observation noise model.

A scene is an affine base surface plus a sum of constant jumps over
closed regions (wedges, disks, axis-aligned rectangles, simple polygons)
in the unit square.  Rasterisation evaluates exact point membership of
each pixel's design-grid coordinate; there is no anti-aliasing, so jump
edges stay perfectly sharp.

Observations follow: with probability p_white the pixel is replaced by
the white outlier value, with probability p_black by the black one;
otherwise centred Gaussian noise (optionally rejection-truncated to the
open interval (-truncate, truncate)) is added to the scene value.  All
randomness is drawn from a counter-based generator keyed by
(seed, row, column), so every pixel's noise is a pure function of the
seed and its own index, independent of evaluation order or image size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .grid_image import GridGeometry, Image


class SceneConfigError(ValueError):
    """Malformed scene or noise configuration text."""


# -- region shapes -----------------------------------------------------------


@dataclass(frozen=True)
class Wedge:
    """Circular sector: points within `extent` of the vertex whose
    direction lies within angle/2 of the bisector (closed membership)."""

    vertex: tuple[float, float]
    bisector: tuple[float, float]
    angle: float  # full opening angle in radians, in (0, 2*pi)
    extent: float

    def __post_init__(self):
        if not (0.0 < self.angle < 2.0 * math.pi):
            raise ValueError("wedge angle must be in (0, 2*pi)")
        if not (self.extent > 0):
            raise ValueError("wedge extent must be positive")
        b1, b2 = self.bisector
        norm = math.hypot(b1, b2)
        if norm == 0.0:
            raise ValueError("wedge bisector must be a nonzero direction")
        object.__setattr__(self, "bisector", (b1 / norm, b2 / norm))

    def contains(self, x1, x2):
        v1, v2 = self.vertex
        b1, b2 = self.bisector
        d1 = np.asarray(x1, dtype=float) - v1
        d2 = np.asarray(x2, dtype=float) - v2
        dist = np.hypot(d1, d2)
        dot = d1 * b1 + d2 * b2
        cross = np.abs(d1 * b2 - d2 * b1)
        ang = np.arctan2(cross, dot)
        return (dist <= self.extent) & (ang <= 0.5 * self.angle)


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("disk radius must be positive")

    def contains(self, x1, x2):
        c1, c2 = self.center
        d1 = np.asarray(x1, dtype=float) - c1
        d2 = np.asarray(x2, dtype=float) - c2
        return np.hypot(d1, d2) <= self.radius


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle spanned by two opposite corners."""

    corner: tuple[float, float]
    opposite: tuple[float, float]

    def contains(self, x1, x2):
        lo1, hi1 = sorted((self.corner[0], self.opposite[0]))
        lo2, hi2 = sorted((self.corner[1], self.opposite[1]))
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return (x1 >= lo1) & (x1 <= hi1) & (x2 >= lo2) & (x2 <= hi2)


@dataclass(frozen=True)
class Polygon:
    """Simple polygon; membership is even-odd with boundary included."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        object.__setattr__(
            self, "points", tuple((float(a), float(b)) for a, b in self.points))

    def contains(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        inside = np.zeros(np.broadcast(x1, x2).shape, dtype=bool)
        boundary = np.zeros_like(inside)
        pts = self.points
        scale = max(1.0, max(max(abs(a), abs(b)) for a, b in pts))
        eps = 1e-12 * scale
        n = len(pts)
        for k in range(n):
            (p1, p2), (q1, q2) = pts[k], pts[(k + 1) % n]
            e1, e2 = q1 - p1, q2 - p2
            cross = e1 * (x2 - p2) - e2 * (x1 - p1)
            on_line = np.abs(cross) <= eps
            within = ((x1 >= min(p1, q1) - eps) & (x1 <= max(p1, q1) + eps)
                      & (x2 >= min(p2, q2) - eps) & (x2 <= max(p2, q2) + eps))
            boundary |= on_line & within
            # even-odd ray cast along increasing x1 at fixed x2
            spans = (p2 > x2) != (q2 > x2)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (x2 - p2) / (q2 - p2)
                x_int = p1 + t * e1
            inside ^= spans & (x_int > x1)
        return inside | boundary


@dataclass(frozen=True)
class Region:
    shape: Wedge | Disk | Rect | Polygon
    height: float

    def __post_init__(self):
        if not np.isfinite(self.height):
            raise ValueError("region height must be finite")


@dataclass(frozen=True)
class SceneSpec:
    """Affine base surface plus constant jumps over closed regions."""

    base_offset: float = 0.0
    base_gradient: tuple[float, float] = (0.0, 0.0)
    regions: tuple[Region, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.base_offset):
            raise ValueError("base offset must be finite")
        g1, g2 = self.base_gradient
        if not (np.isfinite(g1) and np.isfinite(g2)):
            raise ValueError("base gradient must be finite")

    def value(self, x1, x2):
        """Scene value at design coordinates (vectorised)."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = (self.base_offset + self.base_gradient[0] * x1
               + self.base_gradient[1] * x2)
        out = np.broadcast_to(out, np.broadcast(x1, x2).shape).copy()
        for region in self.regions:
            out = out + region.height * region.shape.contains(x1, x2)
        return out


def rasterize(scene: SceneSpec, geom: GridGeometry) -> Image:
    """Evaluate the scene at every design point of the grid."""
    rows = (np.arange(geom.n_rows) + 0.5) / geom.n_rows
    cols = (np.arange(geom.n_cols) + 0.5) / geom.n_cols
    x1 = rows[:, None]
    x2 = cols[None, :]
    return Image(scene.value(x1, x2))


# -- noise -------------------------------------------------------------------

_REJECTION_CAP = 100_000


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian observation noise with categorical outlier replacement."""

    sigma: float = 0.0
    truncate: float | None = None
    p_white: float = 0.0
    p_black: float = 0.0
    white_value: float = 255.0
    black_value: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ValueError("sigma must be finite and >= 0")
        if self.truncate is not None and not (self.truncate > 0):
            raise ValueError("truncate must be positive when set")
        if not (0.0 <= self.p_white <= 1.0 and 0.0 <= self.p_black <= 1.0):
            raise ValueError("outlier probabilities must be in [0, 1]")
        if self.p_white + self.p_black > 1.0:
            raise ValueError("p_white + p_black must not exceed 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


_FRESH = np.zeros(4, dtype=np.uint64)


def _rekey(gen: Generator, key) -> Generator:
    """Reset a Philox-backed `gen` to the full state (key, zero counter,
    empty buffers) that Generator(Philox(key=key)) starts in."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _FRESH, "key": np.asarray(key, dtype=np.uint64)},
        "buffer": _FRESH, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def _pixel_noise(spec: NoiseSpec, gen: Generator, clean: float) -> float:
    u = gen.random()
    if u < spec.p_white:
        return spec.white_value
    if u < spec.p_white + spec.p_black:
        return spec.black_value
    if spec.sigma == 0.0:
        return clean
    eps = gen.standard_normal() * spec.sigma
    if spec.truncate is not None:
        count = 0
        while not (-spec.truncate < eps < spec.truncate):
            eps = gen.standard_normal() * spec.sigma
            count += 1
            if count > _REJECTION_CAP:
                raise RuntimeError(
                    "truncation bound rejects nearly every draw; "
                    "increase truncate or reduce sigma")
    return clean + eps


def add_noise(img: Image, spec: NoiseSpec) -> Image:
    """Apply the noise model; each pixel depends only on (seed, i, j)."""
    H, W = img.height, img.width
    if H >= 2 ** 32 or W >= 2 ** 32:
        raise ValueError("image dimensions must fit in 32 bits")
    out = np.empty((H, W))
    pix = img.pixels
    gen = Generator(Philox(0))
    for i in range(H):
        for j in range(W):
            out[i, j] = _pixel_noise(
                spec, _rekey(gen, [spec.seed, (i << 32) | j]),
                float(pix[i, j]))
    return Image(out)


# -- plain-text configuration ------------------------------------------------


def _parse_floats(text: str, n: int, what: str, lineno: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise SceneConfigError(
            f"line {lineno}: {what} needs {n} comma-separated numbers, "
            f"got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise SceneConfigError(f"line {lineno}: {what}: {exc}") from None


def _parse_kv(tokens: list[str], lineno: int) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SceneConfigError(
                f"line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key in out:
            raise SceneConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _require(kv: dict[str, str], keys: tuple[str, ...], kind: str, lineno: int):
    missing = [k for k in keys if k not in kv]
    if missing:
        raise SceneConfigError(
            f"line {lineno}: {kind} region is missing {', '.join(missing)}")
    extra = [k for k in kv if k not in keys]
    if extra:
        raise SceneConfigError(
            f"line {lineno}: {kind} region has unknown keys "
            f"{', '.join(extra)}")


def _parse_region(rest: str, lineno: int) -> Region:
    tokens = rest.split()
    if not tokens:
        raise SceneConfigError(f"line {lineno}: empty region directive")
    kind, tokens = tokens[0], tokens[1:]
    kv = _parse_kv(tokens, lineno)
    try:
        if kind == "wedge":
            _require(kv, ("vertex", "bisector", "angle_deg", "extent",
                          "height"), kind, lineno)
            shape = Wedge(
                vertex=_parse_floats(kv["vertex"], 2, "vertex", lineno),
                bisector=_parse_floats(kv["bisector"], 2, "bisector", lineno),
                angle=math.radians(float(kv["angle_deg"])),
                extent=float(kv["extent"]))
        elif kind == "disk":
            _require(kv, ("center", "radius", "height"), kind, lineno)
            shape = Disk(
                center=_parse_floats(kv["center"], 2, "center", lineno),
                radius=float(kv["radius"]))
        elif kind == "rect":
            _require(kv, ("corner", "opposite", "height"), kind, lineno)
            shape = Rect(
                corner=_parse_floats(kv["corner"], 2, "corner", lineno),
                opposite=_parse_floats(kv["opposite"], 2, "opposite", lineno))
        elif kind == "polygon":
            _require(kv, ("points", "height"), kind, lineno)
            pairs = kv["points"].split(";")
            if len(pairs) < 3:
                raise SceneConfigError(
                    f"line {lineno}: polygon needs at least 3 points")
            shape = Polygon(points=tuple(
                _parse_floats(p, 2, "polygon point", lineno) for p in pairs))
        else:
            raise SceneConfigError(
                f"line {lineno}: unknown region kind {kind!r}")
        return Region(shape=shape, height=float(kv["height"]))
    except SceneConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise SceneConfigError(f"line {lineno}: {exc}") from None


def parse_scene_config(text: str) -> SceneSpec:
    """Parse the plain-text scene format.

    Directives, one per line ('#' starts a comment):

        base = constant <offset>
        base = affine <offset> <slope_x1> <slope_x2>
        region = wedge vertex=X,Y bisector=X,Y angle_deg=A extent=R height=H
        region = disk center=X,Y radius=R height=H
        region = rect corner=X,Y opposite=X,Y height=H
        region = polygon points=X,Y;X,Y;X,Y[;...] height=H

    Coordinates are design-grid positions: the first component runs down
    the rows, the second across the columns, both in [0, 1].
    """
    base_offset = 0.0
    base_gradient = (0.0, 0.0)
    saw_base = False
    regions: list[Region] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SceneConfigError(
                f"line {lineno}: expected '<directive> = ...', got {line!r}")
        key, rest = (part.strip() for part in line.split("=", 1))
        if key == "base":
            if saw_base:
                raise SceneConfigError(f"line {lineno}: duplicate base directive")
            saw_base = True
            tokens = rest.split()
            if tokens and tokens[0] == "constant" and len(tokens) == 2:
                base_offset = _parse_floats(tokens[1], 1, "base", lineno)[0]
            elif tokens and tokens[0] == "affine" and len(tokens) == 4:
                base_offset = _parse_floats(tokens[1], 1, "base", lineno)[0]
                base_gradient = (
                    _parse_floats(tokens[2], 1, "base", lineno)[0],
                    _parse_floats(tokens[3], 1, "base", lineno)[0])
            else:
                raise SceneConfigError(
                    f"line {lineno}: base must be 'constant <v>' or "
                    f"'affine <v> <s1> <s2>', got {rest!r}")
        elif key == "region":
            regions.append(_parse_region(rest, lineno))
        elif key == "noise":
            continue  # handled by parse_noise_config
        else:
            raise SceneConfigError(f"line {lineno}: unknown directive {key!r}")
    return SceneSpec(base_offset=base_offset, base_gradient=base_gradient,
                     regions=tuple(regions))


_NOISE_KEYS = {
    "sigma": float, "truncate": float, "p_white": float, "p_black": float,
    "white_value": float, "black_value": float, "seed": int,
}


def parse_noise_config(text: str) -> NoiseSpec:
    """Parse 'noise = key=value ...' directives from config text."""
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or "=" not in line:
            continue
        key, rest = (part.strip() for part in line.split("=", 1))
        if key != "noise":
            continue
        for name, val in _parse_kv(rest.split(), lineno).items():
            if name not in _NOISE_KEYS:
                raise SceneConfigError(
                    f"line {lineno}: unknown noise key {name!r}")
            try:
                kwargs[name] = _NOISE_KEYS[name](val)
            except ValueError as exc:
                raise SceneConfigError(f"line {lineno}: {exc}") from None
    try:
        return NoiseSpec(**kwargs)
    except ValueError as exc:
        raise SceneConfigError(str(exc)) from None
