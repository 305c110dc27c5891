"""Error metrics, support bounds, and contamination probes."""

import csv
import json
import math

import numpy as np
import pytest

from tmsmooth.grid_image import Image
from tmsmooth.smoother import SmootherParams, window_mode_estimate
from tmsmooth.eval_robust import (BREAKDOWN_RANGE_FACTOR, DEFAULT_MAGNITUDES,
                                  DEFAULT_STRATEGIES, BiasProbeReport,
                                  MetricsReport, _probe_stack,
                                  breakdown_estimate, edge_band,
                                  max_bias_probe, metrics, tm_support_bound,
                                  write_json_report, write_metrics_csv,
                                  write_probe_csv)

from conftest import ref_breakdown, ref_probe_cases

CLUSTER25 = np.array([
    66.955, 84.374, 77.655, 82.118, 63.668, 89.075, 78.427, 66.672, 75.417,
    84.741, 73.344, 81.707, 74.927, 70.330, 77.791, 86.545, 69.269, 82.512,
    60.858, 88.094, 71.236, 79.083, 64.553, 76.509, 72.900])
W49 = 40.0 + (np.arange(49) * 37 % 101) * 1.5


# -- metrics ------------------------------------------------------------------


def test_metrics_zero_for_identical_images(rng):
    img = Image(rng.uniform(0, 255, size=(5, 5)))
    rep = metrics(img, img)
    assert rep.mae == 0.0
    assert rep.mse == 0.0
    assert rep.count == 25
    assert rep.zones is None


def test_metrics_hand_example():
    truth = Image(np.array([[0.0, 10.0]]))
    est = Image(np.array([[0.0, 4.0]]))
    rep = metrics(truth, est)
    assert rep.mae == 3.0
    assert rep.mse == 18.0
    assert rep.count == 2


def test_metrics_dimension_checks(rng):
    a = Image(np.zeros((4, 4)))
    b = Image(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        metrics(a, b)
    with pytest.raises(ValueError):
        metrics(a, a, region_mask=np.zeros((5, 5), dtype=bool))


def test_mae_squared_never_exceeds_mse(rng):
    for _ in range(20):
        t = Image(rng.uniform(0, 255, size=(6, 6)))
        e = Image(rng.uniform(0, 255, size=(6, 6)))
        rep = metrics(t, e)
        assert rep.mae ** 2 <= rep.mse + 1e-12


def test_zone_split_hand_example():
    truth = Image(np.zeros((8, 8)))
    err = np.zeros((8, 8))
    err[:, :3] = 2.0    # interior of the region
    err[:, 3:5] = 5.0   # boundary band
    err[:, 5:] = -1.0   # outside
    mask = np.zeros((8, 8), dtype=bool)
    mask[:, :4] = True
    rep = metrics(truth, Image(err), region_mask=mask, band_px=1)
    assert rep.zones["inside"] == {"mae": 2.0, "mse": 4.0, "count": 24}
    assert rep.zones["band"] == {"mae": 5.0, "mse": 25.0, "count": 16}
    assert rep.zones["outside"] == {"mae": 1.0, "mse": 1.0, "count": 24}
    assert rep.count == 64


def test_zone_metrics_with_empty_mask():
    truth = Image(np.zeros((4, 4)))
    est = Image(np.ones((4, 4)))
    rep = metrics(truth, est, region_mask=np.zeros((4, 4), dtype=bool))
    assert rep.zones["inside"]["count"] == 0
    assert rep.zones["inside"]["mae"] is None
    assert rep.zones["band"]["count"] == 0
    assert rep.zones["outside"]["count"] == 16


def test_edge_band_single_pixel():
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True
    band = edge_band(mask, band_px=1)
    expect = np.zeros((5, 5), dtype=bool)
    expect[1:4, 1:4] = True
    assert np.array_equal(band, expect)


def test_edge_band_straight_boundary():
    mask = np.zeros((6, 10), dtype=bool)
    mask[:, :5] = True
    band = edge_band(mask, band_px=2)
    cols = np.nonzero(band.any(axis=0))[0].tolist()
    assert cols == [3, 4, 5, 6]


# -- support bound ------------------------------------------------------------


def test_support_bound_collapsed_range():
    assert tm_support_bound(70.0, 70.0, 25, 3, 12.0) == (58.0, 82.0)


def test_support_bound_hand_example():
    lo, hi = tm_support_bound(0.0, 1.0, 25, 3, 0.1)
    s = 2.0 * math.sqrt(22.0)
    assert lo == pytest.approx(-s - 0.1, abs=1e-12)
    assert hi == pytest.approx(1.0 + s + 0.1, abs=1e-12)


def test_support_bound_validation():
    with pytest.raises(ValueError):
        tm_support_bound(1.0, 0.0, 25, 3, 1.0)
    with pytest.raises(ValueError):
        tm_support_bound(0.0, 1.0, 25, 25, 1.0)
    with pytest.raises(ValueError):
        tm_support_bound(0.0, 1.0, 25, -1, 1.0)
    with pytest.raises(ValueError):
        tm_support_bound(0.0, 1.0, 25, 3, 0.0)


# -- bias probe ---------------------------------------------------------------


def test_probe_rejects_bad_window_shapes():
    with pytest.raises(ValueError):
        max_bias_probe(np.zeros(24), 1)
    with pytest.raises(ValueError):
        max_bias_probe(np.zeros(16), 1)  # even side
    with pytest.raises(ValueError):
        max_bias_probe(CLUSTER25, 25)
    with pytest.raises(ValueError):
        max_bias_probe(CLUSTER25, -1)


def test_probe_zero_replacements_is_clean():
    params = SmootherParams(radius_px=2, bandwidth=20.0)
    rep = max_bias_probe(CLUSTER25, 0, params, random_trials=0)
    assert rep.worst_bias == 0.0
    assert rep.violated is False
    assert rep.bound_violations == 0
    assert rep.estimate_clean == window_mode_estimate(CLUSTER25, params, 20.0)


def test_probe_unknown_strategy():
    with pytest.raises(ValueError):
        max_bias_probe(CLUSTER25, 1, strategies=("sideways",),
                       random_trials=0)
    # also when no replacement would use it
    with pytest.raises(ValueError):
        max_bias_probe(CLUSTER25, 0, strategies=("all_plus", "sideways"),
                       random_trials=0)


def test_probe_random_trials_need_a_finite_value_range():
    # trial values are drawn from (-m, m), which overflows past 8.99e307
    with pytest.raises(ValueError, match="random trials"):
        max_bias_probe(CLUSTER25, 1, magnitudes=(1e308,), random_trials=1)
    rep = max_bias_probe(CLUSTER25, 1, magnitudes=(1e308,), random_trials=0)
    assert rep.r == 1


def test_untrimmed_center_replacement_breaks_estimate():
    # replacing only the starting observation parks the untrimmed mode
    # on the replacement's own kernel, however far away it is
    params = SmootherParams(radius_px=2, trim_fraction=0.0, bandwidth=20.0)
    rep = max_bias_probe(CLUSTER25, 1, params, strategies=("center",),
                         magnitudes=(1e9,), random_trials=0)
    assert rep.worst_bias > 1e8
    assert rep.bound is None
    assert rep.violated is False


def test_trimmed_probe_respects_support_bound(rng):
    params = SmootherParams(radius_px=2, trim_fraction=0.15, bandwidth=20.0)
    for _ in range(12):
        win = rng.uniform(0, 255, size=25)
        rep = max_bias_probe(win, 3, params, seed=5)
        assert rep.bound_violations == 0
        assert rep.violated is False
        assert rep.worst_bias <= rep.bound


def test_probe_bias_monotone_in_replacement_count():
    params = SmootherParams(radius_px=2, trim_fraction=0.15, bandwidth=20.0)
    prev = -1.0
    for r in range(1, 5):
        rep = max_bias_probe(CLUSTER25, r, params, random_trials=0)
        assert rep.worst_bias >= prev
        prev = rep.worst_bias
    # beyond the trimmable count there is no bound to check
    assert max_bias_probe(CLUSTER25, 4, params,
                          random_trials=0).bound is None


def test_probe_constant_window_uses_fallback_bandwidth():
    params = SmootherParams(radius_px=2, trim_fraction=0.15)
    rep = max_bias_probe(np.full(25, 80.0), 2, params, random_trials=0)
    assert rep.bandwidth == 1.0
    assert rep.worst_bias == 0.0
    assert rep.bound_violations == 0


def test_probe_report_to_dict():
    params = SmootherParams(radius_px=2, trim_fraction=0.15, bandwidth=20.0)
    rep = max_bias_probe(CLUSTER25, 2, params, magnitudes=(1e3,),
                         strategies=("all_plus",), random_trials=2)
    d = rep.to_dict()
    assert d["r"] == 2
    assert d["magnitudes"] == [1e3]
    assert d["strategies"] == ["all_plus"]
    assert d["random_trials"] == 2
    assert isinstance(d["violated"], bool)
    json.dumps(d)  # plain types only


@pytest.mark.parametrize("side", [3, 5, 7])
def test_probe_stack_matches_case_tuples(rng, side):
    # the mask-and-values stack holds, row for row and bit for bit, the
    # cases the one-tuple-at-a-time builder writes
    n = side * side
    vals = rng.uniform(0.0, 255.0, n)
    params = SmootherParams(radius_px=side // 2)
    strategy_sets = ([(name,) for name in DEFAULT_STRATEGIES]
                     + [DEFAULT_STRATEGIES, ()])
    for strategies in strategy_sets:
        for r in (0, 1, n - 1):
            for mags in ((), (5.0,), (1e3, 7.5)):
                for trials in (0, 3):
                    g, clean, contaminated, replaced, _ = _probe_stack(
                        vals, r, params, mags, strategies, trials, side)
                    assert clean == window_mode_estimate(vals, params, g)
                    ref_replaced, ref_contaminated = ref_probe_cases(
                        vals, r, strategies, mags, clean, trials, side)
                    assert np.array_equal(replaced, ref_replaced)
                    assert (contaminated.tobytes()
                            == ref_contaminated.tobytes())


# frozen reports: auto g, trim 0.15, seed 7; default strategies with 64
# random trials, or "split" alone without trials
FROZEN_CLEAN = {"CLUSTER25": (74.95022160094229, 11.787999999999997),
                "W49": (108.87912475356735, 76.5)}
FROZEN_PROBES = [
    # window, r, split alone, worst_bias, bound
    ("CLUSTER25", 0, False, 0.0, None),
    ("CLUSTER25", 0, True, 0.0, None),
    ("CLUSTER25", 1, False, 1.2275858754157412, 290.61170138893317),
    ("CLUSTER25", 1, True, 0.604609139964225, 290.61170138893317),
    ("CLUSTER25", 3, False, 3.7853936914223, 290.61170138893317),
    ("CLUSTER25", 3, True, 0.870918246803555, 290.61170138893317),
    ("CLUSTER25", 24, False, 1000000074.9502217, None),
    ("CLUSTER25", 24, True, 3.5053566054293555, None),
    ("W49", 0, False, 0.0, None),
    ("W49", 0, True, 0.0, None),
    ("W49", 1, False, 21.27080031823833, 2101.8430847687905),
    ("W49", 1, True, 6.24493647153426, 2101.8430847687905),
    ("W49", 3, False, 24.63613879290601, 2101.8430847687905),
    ("W49", 3, True, 6.24493647153426, 2101.8430847687905),
    ("W49", 48, False, 1000000108.8791248, None),
    ("W49", 48, True, 52.0565423880082, None),
]


@pytest.mark.parametrize("window, r, split, worst, bound", FROZEN_PROBES)
def test_probe_reports_frozen(window, r, split, worst, bound):
    values = {"CLUSTER25": CLUSTER25, "W49": W49}[window]
    kw = {"strategies": ("split",), "random_trials": 0} if split else {}
    rep = max_bias_probe(values, r, SmootherParams(), seed=7, **kw)
    clean, g = FROZEN_CLEAN[window]
    assert rep.to_dict() == {
        "r": r, "worst_bias": worst, "bound": bound, "violated": False,
        "bound_violations": 0, "estimate_clean": clean, "bandwidth": g,
        "magnitudes": list(DEFAULT_MAGNITUDES),
        "strategies": list(kw.get("strategies", DEFAULT_STRATEGIES)),
        "random_trials": kw.get("random_trials", 64)}


# -- breakdown ----------------------------------------------------------------


@pytest.mark.parametrize("side", [3, 5, 7])
def test_breakdown_matches_escalation(rng, side):
    # estimating each count once, in blocks 1, 2-3, 4-7, ..., answers
    # what escalating r = 1, 2, ... answers; trim 0.1 breaks 5x5 windows
    # at 3, the end of a block
    for trim in (0.0, 0.1, 0.15, 0.3):
        for g in (None, 20.0):
            for mags in (DEFAULT_MAGNITUDES, (50.0, 1e4)):
                win = rng.uniform(0.0, 255.0, side * side)
                params = SmootherParams(trim_fraction=trim, bandwidth=g)
                assert (breakdown_estimate(win, params, mags)
                        == ref_breakdown(win, params, mags))


# 9x9 at trim 0.1 breaks at 9, the start of a block
@pytest.mark.parametrize("side, trim", [(9, 0.1), (11, 0.15), (15, 0.0)])
def test_breakdown_matches_escalation_wide(rng, side, trim):
    win = rng.uniform(0.0, 255.0, side * side)
    params = SmootherParams(trim_fraction=trim)
    expected = ref_breakdown(win, params, DEFAULT_MAGNITUDES)
    assert breakdown_estimate(win, params) == expected
    if trim == 0.0:
        assert expected == 1.0 / (side * side)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_breakdown_nan_bias_hides_larger_counts():
    # a NaN magnitude gives NaN estimates from one replacement on; the
    # escalation's worst bias is then NaN at every r, which never exceeds
    # the threshold, though the finite magnitude alone breaks the window
    for trim, broken in ((0.0, 1), (0.15, 4)):
        params = SmootherParams(radius_px=2, trim_fraction=trim,
                                bandwidth=20.0)
        assert breakdown_estimate(CLUSTER25, params, (1e5,)) == broken / 25
        for mags in ((1e5, float("nan")), (float("nan"), 1e5)):
            assert ref_breakdown(CLUSTER25, params, mags) == 1.0
            assert breakdown_estimate(CLUSTER25, params, mags) == 1.0


def test_breakdown_untrimmed_is_one_replacement():
    params = SmootherParams(radius_px=2, trim_fraction=0.0, bandwidth=20.0)
    assert breakdown_estimate(CLUSTER25, params) == 1.0 / 25.0


def test_breakdown_trimmed_survives_the_trimmable_count():
    # with floor(25 * 0.15) = 3 trimmable entries the estimate first
    # breaks at 4 replacements
    params = SmootherParams(radius_px=2, trim_fraction=0.15, bandwidth=20.0)
    assert breakdown_estimate(CLUSTER25, params) == 4.0 / 25.0


def test_breakdown_threshold_uses_clean_range():
    # the threshold scales with the window spread, so a probe that only
    # nudges the estimate inside the cluster never counts as breakdown
    params = SmootherParams(radius_px=2, trim_fraction=0.15, bandwidth=20.0)
    rep = max_bias_probe(CLUSTER25, 3, params, random_trials=0)
    rng = CLUSTER25.max() - CLUSTER25.min()
    assert rep.worst_bias <= BREAKDOWN_RANGE_FACTOR * rng


# -- serialization ------------------------------------------------------------


def test_write_metrics_csv(tmp_path):
    truth = Image(np.zeros((6, 6)))
    est = Image(np.ones((6, 6)))
    mask = np.zeros((6, 6), dtype=bool)
    mask[:3] = True
    plain = metrics(truth, est)
    zoned = metrics(truth, est, region_mask=mask, band_px=1)
    path = tmp_path / "m.csv"
    write_metrics_csv([("plain", plain), ("zoned", zoned)], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "zone", "mae", "mse", "count"]
    assert rows[1] == ["plain", "all", "1.0", "1.0", "36"]
    zones = {r[1] for r in rows if r[0] == "zoned"}
    assert zones == {"all", "inside", "outside", "band"}
    assert len(rows) == 1 + 1 + 4


def test_write_probe_csv(tmp_path):
    params = SmootherParams(radius_px=2, trim_fraction=0.15, bandwidth=20.0)
    rep = max_bias_probe(CLUSTER25, 1, params, magnitudes=(1e3,),
                         strategies=("all_plus",), random_trials=0)
    path = tmp_path / "p.csv"
    write_probe_csv([(0, 0.15, rep)], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["window", "trim_fraction", "r", "worst_bias"]
    assert rows[1][0] == "0"
    assert rows[1][2] == "1"
    assert float(rows[1][3]) == rep.worst_bias


def test_write_json_report_handles_numpy_scalars(tmp_path):
    path = tmp_path / "r.json"
    write_json_report({"a": np.float64(1.5), "b": np.bool_(True),
                       "c": [np.int64(3)]}, path)
    data = json.loads(path.read_text())
    assert data == {"a": 1.5, "b": True, "c": [3]}
    assert path.read_text().endswith("\n")


def test_metrics_report_to_dict():
    rep = MetricsReport(mae=1.0, mse=2.0, count=4)
    assert rep.to_dict() == {"mae": 1.0, "mse": 2.0, "count": 4}
    assert isinstance(BiasProbeReport(
        r=1, worst_bias=0.0, bound=None, violated=False, bound_violations=0,
        estimate_clean=0.0, bandwidth=1.0, magnitudes=(1e3,),
        strategies=("all_plus",), random_trials=0).to_dict(), dict)
