"""The benchmark's workloads: input synthesis, one request, its check.

Every workload is a closed loop of single requests.  Inputs are made in
set-up from the run's seed only; a request gets one input, runs the
package on it and checks the output, raising CheckFailed when the output
is wrong, so a fast but wrong change shows as failed requests.

* denoise_trimmed: the package's headline use, the geometric scene at
  100x100 with sigma = 26 noise and 1 % white outliers, smoothed with the
  default trimmed parameters (auto bandwidth).  Every per-pixel layer is
  busy.
* ramp_wide: an affine ramp at 64x64 with sigma = 10 noise, untrimmed,
  g = 13, radius 4 (81-entry windows); the mode search dominates and no
  trimming happens.
* flat_fixed_point: the geometric scene at 160x160 without noise,
  untrimmed, g = 25; every pixel already is a mode, so the time goes to
  window extraction, field construction and the pixel loop.
* probe_windows: one uniform [0, 255] 5x5 window per request, probed
  untrimmed with a replaced centre and trimmed with r = 3 adversarial
  replacements; many tiny estimates and no image traversal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckFailed(AssertionError):
    """A request's output failed its correctness check."""


@dataclass(frozen=True)
class Outcome:
    pixels: int              # input pixels the request processed
    windows: int             # window estimates it completed
    mse_ratio: float | None  # output MSE / noisy-input MSE, if noisy


@dataclass(frozen=True)
class Workload:
    name: str
    setup_reps: int   # set-ups per run; setup_s is their median
    counted: int      # requests in the counted pass (count metrics)
    reference: int    # requests also timed untraced for the trace overhead
    synth: Callable   # (tm, seed, rep, timings) -> list of inputs
    request: Callable  # (api, input) -> Outcome


def _geometric_scene(sn):
    return sn.SceneSpec(
        base_offset=40.0,
        regions=(
            sn.Region(shape=sn.Rect(corner=(0.08, 0.08), opposite=(0.45, 0.5)),
                      height=140.0),
            sn.Region(shape=sn.Disk(center=(0.7, 0.3), radius=0.18),
                      height=90.0),
            sn.Region(shape=sn.Wedge(vertex=(0.35, 0.72), bisector=(1.0, 0.3),
                                     angle=1.2, extent=0.5), height=170.0),
        ))


def _noise_seed(seed: int, rep: int) -> int:
    """Noise seed of set-up `rep` in a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(
        1, dtype=np.uint64)[0])


# set-up steps whose perf_counter (start, end) pairs `_timed` records
TIMED = ("rasterize", "add_noise")


def _timed(timings: dict, key: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    timings.setdefault(key, []).append((t0, time.perf_counter()))
    return out


def _noisy_scene(tm, scene, n: int, noise: dict, seed: int, rep: int,
                 timings: dict):
    sn = tm.scene_noise
    clean = _timed(timings, "rasterize", sn.rasterize, scene,
                   tm.GridGeometry(n, n))
    spec = sn.NoiseSpec(seed=_noise_seed(seed, rep), **noise)
    noisy = _timed(timings, "add_noise", sn.add_noise, clean, spec)
    timings.setdefault("add_noise_px", []).append(n * n)
    return [(clean, noisy)]


def _mse_ratio(api, clean, noisy, out) -> tuple[float, float]:
    """(MAE ratio, MSE ratio) of the output against the noisy input."""
    m_out = api.metrics(clean, out)
    m_in = api.metrics(clean, noisy)
    return m_out.mae / m_in.mae, m_out.mse / m_in.mse


# -- denoise_trimmed ---------------------------------------------------------


def _synth_denoise(tm, seed, rep, timings):
    return _noisy_scene(tm, _geometric_scene(tm.scene_noise), 100,
                        {"sigma": 26.0, "p_white": 0.01}, seed, rep, timings)


def _request_denoise(api, inp):
    clean, noisy = inp
    out, _ = api.smooth(noisy, api.SmootherParams())
    mae_ratio, mse_ratio = _mse_ratio(api, clean, noisy, out)
    if not (mae_ratio <= 0.60 and mse_ratio <= 0.30):
        raise CheckFailed(f"MAE ratio {mae_ratio:.3f} (max 0.60), "
                          f"MSE ratio {mse_ratio:.3f} (max 0.30)")
    return Outcome(noisy.pixels.size, noisy.pixels.size, mse_ratio)


# -- ramp_wide ---------------------------------------------------------------


def _synth_ramp(tm, seed, rep, timings):
    ramp = tm.scene_noise.SceneSpec(base_offset=80.0,
                                    base_gradient=(60.0, 40.0))
    return _noisy_scene(tm, ramp, 64, {"sigma": 10.0}, seed, rep, timings)


def _request_ramp(api, inp):
    clean, noisy = inp
    out, _ = api.smooth(noisy, api.SmootherParams(
        radius_px=4, bandwidth=13.0, trim_fraction=0.0))
    _, mse_ratio = _mse_ratio(api, clean, noisy, out)
    if not mse_ratio < 1.0:
        raise CheckFailed(f"MSE ratio {mse_ratio:.3f} is not below 1")
    return Outcome(noisy.pixels.size, noisy.pixels.size, mse_ratio)


# -- flat_fixed_point --------------------------------------------------------


def _synth_flat(tm, seed, rep, timings):
    # noise-free: the seed has nothing to vary
    clean = _timed(timings, "rasterize", tm.scene_noise.rasterize,
                   _geometric_scene(tm.scene_noise), tm.GridGeometry(160, 160))
    return [clean]


def _request_flat(api, clean):
    out, _ = api.smooth(clean, api.SmootherParams(bandwidth=25.0,
                                                  trim_fraction=0.0))
    api.metrics(clean, out)
    if not np.array_equal(out.pixels, clean.pixels):
        changed = int(np.count_nonzero(out.pixels != clean.pixels))
        raise CheckFailed(f"{changed} pixels moved off the fixed point")
    return Outcome(clean.pixels.size, clean.pixels.size, None)


# -- probe_windows -----------------------------------------------------------

PROBE_WINDOWS_PER_REP = 400


def _synth_probe(tm, seed, rep, timings):
    rng = np.random.default_rng([seed, rep])
    base = rep * PROBE_WINDOWS_PER_REP
    return [(base + k, vals)
            for k, vals in enumerate(rng.uniform(0.0, 255.0,
                                                 (PROBE_WINDOWS_PER_REP, 25)))]


def _request_probe(api, inp):
    window_id, vals = inp
    untrimmed = api.max_bias_probe(
        vals, 1, api.SmootherParams(radius_px=2, trim_fraction=0.0),
        strategies=("center",), magnitudes=(1e9,), random_trials=0)
    if not untrimmed.worst_bias > 1e8:
        raise CheckFailed(f"untrimmed bias {untrimmed.worst_bias:.3g} "
                          "is not above 1e8")
    trimmed = api.max_bias_probe(
        vals, 3, api.SmootherParams(radius_px=2, trim_fraction=0.15),
        seed=window_id)
    if trimmed.bound_violations or trimmed.violated:
        raise CheckFailed(f"{trimmed.bound_violations} support-bound "
                          f"violations, scalar bound violated: "
                          f"{trimmed.violated}")
    return Outcome(vals.size, 1, None)


WORKLOADS = {w.name: w for w in (
    Workload("denoise_trimmed", setup_reps=6, counted=4, reference=1,
             synth=_synth_denoise, request=_request_denoise),
    Workload("ramp_wide", setup_reps=10, counted=4, reference=1,
             synth=_synth_ramp, request=_request_ramp),
    Workload("flat_fixed_point", setup_reps=5, counted=1, reference=1,
             synth=_synth_flat, request=_request_flat),
    Workload("probe_windows", setup_reps=5, counted=100, reference=20,
             synth=_synth_probe, request=_request_probe),
)}
