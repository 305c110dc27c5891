"""Truncated-Gaussian smoothing kernels.

The intensity kernel is a standard normal density restricted to the open
interval (-1, 1) and renormalised to unit mass; the spatial kernel is the
product of two such factors on (-1, 1)^2.  Outside the open support every
function here returns exactly 0.0, including at the boundary itself, so
weighted sums over kernel terms vanish identically once an argument
reaches the truncation radius.

All functions accept scalars or numpy arrays and vectorise elementwise.
"""

from __future__ import annotations

import math

import numpy as np

# Mass of the standard normal on (-1, 1); renormalisation constant of the
# truncated kernel.
TRUNC_MASS = math.erf(1.0 / math.sqrt(2.0))

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# phi(v) / TRUNC_MASS == _GAUSS_COEF * exp(-v^2 / 2)
_GAUSS_COEF = _INV_SQRT_2PI / TRUNC_MASS


def _masked(v, values):
    """Zero out `values` wherever |v| >= 1, preserving scalar-ness."""
    out = np.where(np.abs(v) < 1.0, values, 0.0)
    if np.isscalar(v) or np.ndim(v) == 0:
        return float(out)
    return out


def l0(v):
    """Truncated standard normal density, unit mass on (-1, 1)."""
    v = np.asarray(v, dtype=float)
    return _masked(v, _GAUSS_COEF * np.exp(-0.5 * v * v))


def k2(u1, u2):
    """Product spatial kernel on (-1, 1)^2: k2(u) = l0(u1) * l0(u2)."""
    return l0(u1) * l0(u2)
