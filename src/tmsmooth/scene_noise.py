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

Both come from one plain-text config of 'directive = ...' lines.  One
reader walks it and rejects any line that is not a base, region or noise
directive; parse_scene_config reads the base and region lines and
parse_noise_config the noise lines.  Region kinds and noise keys are each
declared once, in _REGION_KINDS and _NOISE_KEYS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if not (np.isfinite(self.white_value)
                and np.isfinite(self.black_value)):
            raise ValueError("outlier values must be finite")
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


def _directives(text: str):
    """Yield (lineno, directive, rest) for each non-blank line of config
    text, in file order; '#' starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, eq, rest = (part.strip() for part in line.partition("="))
        if not eq or directive not in ("base", "region", "noise"):
            raise SceneConfigError(
                f"line {lineno}: expected 'base = ...', 'region = ...' or "
                f"'noise = ...', got {line!r}")
        yield lineno, directive, rest


def _parse_kv(tokens: list[str], known, what: str) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key not in known:
            raise ValueError(f"unknown {what} key {key!r}")
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = val
    return out


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 2 comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


# region kind -> (shape class, {config key: (shape field, parser)}); every
# kind also takes height=H
_REGION_KINDS = {
    "wedge": (Wedge, {"vertex": ("vertex", _pair),
                      "bisector": ("bisector", _pair),
                      "angle_deg": ("angle", lambda v: math.radians(float(v))),
                      "extent": ("extent", float)}),
    "disk": (Disk, {"center": ("center", _pair), "radius": ("radius", float)}),
    "rect": (Rect, {"corner": ("corner", _pair),
                    "opposite": ("opposite", _pair)}),
    "polygon": (Polygon, {"points": (
        "points", lambda v: tuple(_pair(p) for p in v.split(";")))}),
}


def _parse_region(rest: str) -> Region:
    kind, *tokens = rest.split() or [""]
    if kind not in _REGION_KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    shape, fields = _REGION_KINDS[kind]
    keys = (*fields, "height")
    kv = _parse_kv(tokens, keys, f"{kind} region")
    missing = [k for k in keys if k not in kv]
    if missing:
        raise ValueError(f"{kind} region is missing {', '.join(missing)}")
    return Region(shape=shape(**{field: parse(kv[key]) for key, (field, parse)
                                 in fields.items()}),
                  height=float(kv["height"]))


def _parse_base(rest: str) -> SceneSpec:
    form, *numbers = rest.split() or [""]
    if (form, len(numbers)) not in (("constant", 1), ("affine", 3)):
        raise ValueError("base must be 'constant <v>' or "
                         f"'affine <v> <s1> <s2>', got {rest!r}")
    offset, *gradient = (float(v) for v in numbers)
    return SceneSpec(base_offset=offset,
                     base_gradient=tuple(gradient) or (0.0, 0.0))


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
    the rows, the second across the columns, both in [0, 1].  'noise'
    lines are left to parse_noise_config.
    """
    base = None
    regions: list[Region] = []
    for lineno, directive, rest in _directives(text):
        try:
            if directive == "base":
                if base is not None:
                    raise ValueError("duplicate base directive")
                base = _parse_base(rest)
            elif directive == "region":
                regions.append(_parse_region(rest))
        except ValueError as exc:
            raise SceneConfigError(f"line {lineno}: {exc}") from None
    return replace(base or SceneSpec(), regions=tuple(regions))


_NOISE_KEYS = {
    "sigma": float, "truncate": float, "p_white": float, "p_black": float,
    "white_value": float, "black_value": float, "seed": int,
}


def parse_noise_config(text: str) -> NoiseSpec:
    """Parse 'noise = key=value ...' directives from config text; a key
    repeated on a later noise line overrides the earlier value."""
    kwargs: dict = {}
    for lineno, directive, rest in _directives(text):
        if directive != "noise":
            continue
        try:
            for name, val in _parse_kv(rest.split(), _NOISE_KEYS,
                                       "noise").items():
                kwargs[name] = _NOISE_KEYS[name](val)
        except ValueError as exc:
            raise SceneConfigError(f"line {lineno}: {exc}") from None
    try:
        return NoiseSpec(**kwargs)
    except ValueError as exc:
        raise SceneConfigError(str(exc)) from None
