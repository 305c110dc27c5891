"""Truncated Gaussian kernel: normalization, concavity, exact cutoff."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from tmsmooth.kernels import TRUNC_MASS, k2, l0

# independently integrated mass of the standard normal over (-1, 1)
QUAD_MASS, _ = integrate.quad(
    lambda v: math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi), -1.0, 1.0,
    epsabs=1e-14)


def test_truncation_mass_matches_quadrature():
    assert TRUNC_MASS == pytest.approx(QUAD_MASS, abs=1e-13)
    assert TRUNC_MASS == pytest.approx(0.6826894921370859, abs=1e-15)


def test_center_value_frozen():
    assert l0(0.0) == pytest.approx(0.5843685672568166, abs=1e-14)


def test_point_values_frozen():
    # quadrature-free closed forms evaluated once with scipy as cross-check
    assert l0(0.5) == pytest.approx(0.5157034505719386, abs=1e-14)


def test_l0_integrates_to_one():
    total, _ = integrate.quad(lambda v: l0(v), -1.0, 1.0, epsabs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_k2_integrates_to_one():
    total, _ = integrate.dblquad(lambda a, b: k2(a, b), -1.0, 1.0,
                                 -1.0, 1.0, epsabs=1e-10)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_exact_zero_at_and_beyond_cutoff():
    for v in (1.0, -1.0, 1.0000001, -3.0, 100.0):
        assert l0(v) == 0.0
    assert k2(1.0, 0.0) == 0.0
    assert k2(0.0, -1.0) == 0.0
    assert k2(1.0, 1.0) == 0.0


def test_vectorized_matches_scalar():
    v = np.linspace(-1.5, 1.5, 31)
    arr = l0(v)
    assert arr.shape == v.shape
    for x, y in zip(v, arr):
        assert l0(float(x)) == y


@given(st.floats(-0.999, 0.999))
def test_symmetry_and_signs(v):
    assert l0(v) == l0(-v)
    assert l0(v) > 0


@given(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999))
def test_product_kernel_structure(a, b):
    assert k2(a, b) == l0(a) * l0(b)
    assert k2(a, b) == k2(b, a)


def test_strictly_concave_inside_support():
    # l0'' is proportional to (v^2 - 1) < 0 on the open support, so the
    # curvature never flips sign; second differences away from the cutoff
    v = np.linspace(-0.999, 0.999, 501)
    h = 1e-4
    assert np.all(l0(v + h) - 2.0 * l0(v) + l0(v - h) < 0)
