"""Least trimmed squares center and residual-threshold trimming."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmsmooth.lts_trim import lts_center, trim_count, trim_values

from conftest import ref_lts_center, ref_lts_center_stack


def test_trim_count_floor():
    assert trim_count(25, 0.15) == 3
    assert trim_count(20, 0.15) == 3
    assert trim_count(9, 0.15) == 1
    assert trim_count(25, 0.0) == 0
    assert trim_count(5, 0.49) == 2


def test_trim_count_rejects_bad_fraction():
    with pytest.raises(ValueError):
        trim_count(25, 0.5)
    with pytest.raises(ValueError):
        trim_count(25, -0.01)


def test_center_examples():
    assert lts_center(np.array([0.0, 0.0, 0.0, 100.0]), 1) == 0.0
    assert lts_center(np.array([1.0, 2.0, 3.0]), 0) == 2.0
    assert lts_center(np.array([0, 1, 2, 3, 4, 100, 101], dtype=float),
                      2) == 2.0


def test_center_tie_takes_first_block():
    # blocks {0,0} and {4,4} have identical within-block scatter
    vals = np.array([4.0, 0.0, 0.0, 4.0])
    assert lts_center(vals, 2) == 0.0


@pytest.mark.parametrize("n", [9, 25, 49, 81])
def test_center_of_stack_matches_stacked_block_scoring(rng, n):
    # scoring one block at a time gives every centre bit for bit as
    # scoring all blocks at once; integer data with a run of equal values
    # holds many equal-scatter ties
    r = trim_count(n, 0.15)
    ints = rng.integers(0, 256, size=(400, n)).astype(float)
    ints[::3, :n // 3] = 7.0
    floats = rng.normal(100.0, 40.0, size=(400, n))
    for stack in (ints, floats):
        got = lts_center(stack, r)
        assert got.tobytes() == ref_lts_center_stack(stack, r).tobytes()


def test_trim_keeps_cluster_drops_planted_outliers():
    vals = np.concatenate([np.zeros(22), np.full(3, 1e6)])
    center, mask, threshold, r = trim_values(vals, 0.15)
    assert r == 3
    assert center == 0.0
    assert threshold == 0.0
    assert mask.sum() == 22
    assert not mask[22:].any()


def test_trim_zero_fraction_keeps_everything():
    vals = np.array([5.0, -3.0, 12.0, 99.0])
    center, mask, threshold, r = trim_values(vals, 0.0)
    assert r == 0
    assert mask.all()
    assert center == pytest.approx(np.mean(vals))


def test_threshold_tie_drop_is_by_entry_order(rng):
    # over tie-heavy data: kept tied entries always precede dropped tied
    # entries, and the retained count is exact regardless of ties
    partial_drops = 0
    for _ in range(500):
        n = int(rng.integers(5, 26))
        vals = rng.integers(0, 4, size=n).astype(float)
        fraction = float(rng.uniform(0.05, 0.49))
        center, mask, threshold, r = trim_values(vals, fraction)
        assert mask.sum() == n - r
        resid = (vals - center) ** 2
        tied = resid == threshold
        kept_tied = np.nonzero(tied & mask)[0]
        dropped_tied = np.nonzero(tied & ~mask)[0]
        if dropped_tied.size and kept_tied.size:
            partial_drops += 1
            assert kept_tied.max() < dropped_tied.min()
    assert partial_drops > 10  # the scenario actually occurred


def test_matches_bruteforce_on_random_instances(rng):
    for _ in range(400):
        n = int(rng.integers(3, 26))
        r = int(rng.integers(0, n // 2 + 1))
        if rng.random() < 0.4:
            # integer data: sums are exact, so equality must be bitwise
            # and block ties genuinely occur
            vals = rng.integers(0, 6, size=n).astype(float)
            assert lts_center(vals, r) == ref_lts_center(vals, r)
        else:
            # continuous data: summation order may differ by an ulp
            vals = rng.uniform(-100, 100, size=n)
            assert lts_center(vals, r) == pytest.approx(
                ref_lts_center(vals, r), rel=1e-13, abs=1e-13)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-4000, 4000).map(lambda k: k / 4.0),
                min_size=3, max_size=25),
       st.floats(0.0, 0.49))
def test_translation_equivariance(values, fraction):
    # quarter-integer lattice data with a lattice shift: block scatter
    # comparisons are exact there, so equal-scatter blocks resolve to the
    # same block before and after shifting; off-lattice data can break a
    # genuine scatter tie either way and the center may jump between
    # tied blocks
    vals = np.asarray(values)
    shift = 37.25
    c0, m0, _, r0 = trim_values(vals, fraction)
    c1, m1, _, r1 = trim_values(vals + shift, fraction)
    assert r0 == r1
    assert c1 == pytest.approx(c0 + shift, abs=1e-9)
    # well-separated residuals keep the same retained set; residual ties
    # may resolve differently after shifting, so only the count is compared
    assert m0.sum() == m1.sum()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=25),
       st.floats(0.0, 0.49))
def test_retained_count_is_exact(values, fraction):
    vals = np.asarray(values)
    n = vals.size
    _, mask, _, r = trim_values(vals, fraction)
    assert r == math.floor(n * fraction)
    assert mask.sum() == n - r


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=25),
       st.floats(0.0, 0.49))
def test_retained_residuals_never_exceed_dropped(values, fraction):
    vals = np.asarray(values)
    center, mask, threshold, r = trim_values(vals, fraction)
    if r == 0:
        return
    resid = (vals - center) ** 2
    if mask.all():
        return
    assert resid[mask].max() <= resid[~mask].min()
