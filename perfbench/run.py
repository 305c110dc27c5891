"""tmsmooth benchmark: one workload, one closed-loop run, one result line.

    python3 perfbench/run.py --workload denoise_trimmed --seed 1 \
        --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  One
client in one process sends one request at a time, each only after the
previous one completed, for at least --seconds and at least the
workload's counted pass.  Inputs come from --seed alone.

--trace 0 measures the end-to-end metrics untraced; --trace 1 rebinds
the package's layer functions to traced wrappers (see spans.py) and
reports the per-layer metrics.  Every time is in reference seconds
(hostclock.py: wall time rescaled by the host's momentary speed, which a
calibration slice on a timer signal samples); --seconds is wall time.
Time metrics are per request; count metrics cover the counted pass, the first `counted` requests, so they
repeat exactly for a seed.  The last line of standard output is the
result as JSON; the full record, with the machine context, is also
written under .bench_out/runs/ (or --out), and a traced run's spans
under .bench_out/spans/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

from hostclock import HostClock
from spans import SPAN_NAMES, Tracer, span_totals
from workloads import TIMED, WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def fresh_import():
    """Import tmsmooth from ./src anew, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "tmsmooth" or m.startswith("tmsmooth.")]:
        del sys.modules[name]
    tm = importlib.import_module("tmsmooth")
    if not Path(tm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tmsmooth imported from {tm.__file__}, not {SRC}")
    return tm


def machine_context(args) -> dict:
    """Machine and software the run measured, from /proc and lscpu only."""
    import numpy
    ctx = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": numpy.__version__,
           "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name":
                    ctx["cpu_model"] = val.strip()
                elif key == "cache size":
                    ctx["cpuinfo_cache_size"] = val.strip()
                    break
    except OSError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=20, check=True).stdout
        ctx["caches"] = {k.strip(): v.strip() for k, _, v in
                         (line.partition(":") for line in out.splitlines())
                         if "cache" in k}
    except (OSError, subprocess.SubprocessError):
        ctx["caches"] = None
    return ctx


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup(workload, seed):
    """Import and synthesize the inputs setup_reps times; returns the
    perf_counter (start, end) of each."""
    spans, timings, pool = [], {}, []
    for rep in range(workload.setup_reps):
        t0 = time.perf_counter()
        tm = fresh_import()
        pool.extend(workload.synth(tm, seed, rep, timings))
        spans.append((t0, time.perf_counter()))
    return tm, pool, spans, timings


def call_table(tm):
    """The package functions a request calls; tracing rebinds these."""
    return types.SimpleNamespace(
        smooth=tm.smoother.smooth, SmootherParams=tm.SmootherParams,
        metrics=tm.eval_robust.metrics,
        max_bias_probe=tm.eval_robust.max_bias_probe)


def run_loop(workload, api, pool, seconds, min_requests, tracer=None):
    """Closed loop: one request at a time until both `seconds` of wall
    time passed and `min_requests` were sent.  Returns the (start, end,
    outcome) records in perf_counter time, the loop's (start, end) and
    the tracer's counts after the counted pass."""
    records = []
    counts = None
    t_start = time.perf_counter()
    i = 0
    while i < min_requests or time.perf_counter() - t_start < seconds:
        inp = pool[i % len(pool)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.request(api, inp)
            else:
                outcome = tracer.request(i, workload.request, api, inp)
        except Exception as exc:  # a failed request must not stop the run
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            print(f"request {i} failed: {exc}", file=sys.stderr)
            outcome = None
        records.append((t0, time.perf_counter(), outcome))
        i += 1
        if tracer is not None and i == workload.counted:
            counts = dict(tracer.counts)
    return records, (t_start, time.perf_counter()), counts


def ref_durations(clock, pairs) -> list[float]:
    """Durations in reference seconds of perf_counter (start, end) pairs."""
    if not pairs:
        return []
    r = clock.ref(np.array([(a, b) for a, b, *_ in pairs]))
    return (r[:, 1] - r[:, 0]).tolist()


def end_to_end(times, loop_s, outcomes, setup_times) -> dict:
    done = [o for o in outcomes if o is not None]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_px_s": (sum(o.pixels for o in done) / loop_s, "px/s"),
        "throughput_windows_s": (sum(o.windows for o in done) / loop_s,
                                 "1/s"),
        "request_s_p50": (statistics.median(times), "s"),
        "request_s_p90": (percentile(times, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(workload, spans, outcomes, counts, overhead, timings):
    """Per-layer metrics of a traced run, and the raw counted-pass counts
    the determinism check compares.  Span times and `timings` are in
    reference seconds."""
    n_req = len(outcomes)
    _, total, own = span_totals(spans)
    calls, _, _ = span_totals(spans, workload.counted)
    pass_out = outcomes[:workload.counted]
    ratios = [o.mse_ratio for o in pass_out
              if o is not None and o.mse_ratio is not None]
    modes = calls["mode_density.nearest_mode"]
    fields = calls["mode_density.DensityField"]
    estimates = calls["smoother.window_mode_estimate"]
    raw = {
        "requests": workload.counted,
        "failed": sum(o is None for o in pass_out),
        "pixels": sum(o.pixels for o in pass_out if o is not None),
        "iterations": counts["iterations"],
        "evals": counts["evals"],
        "scan_pixels": counts["scan"],
        "stay": counts["stay"],
        "nonconverged": counts["nonconverged"],
        "median_fallback": fields - modes,
        "trimmed_total": counts["trimmed_total"],
        "mse_ratio_sum": sum(ratios),
        **{f"{name}.calls": n for name, n in calls.items()},
    }

    def per_req(x):
        return x / workload.counted

    def self_s(name):
        return own[name] / n_req, "s"

    def share(a, b):
        return a / b if b else 0.0

    def med(key):
        return statistics.median(timings[key]) if key in timings else 0.0

    add_noise_s = med("add_noise")
    windows = sum(o.windows for o in pass_out if o is not None)
    N, R = "count", "ratio"
    out = {
        "mode_density.nearest_mode.self_s":
            self_s("mode_density.nearest_mode"),
        "mode_density.nearest_mode.calls": (per_req(modes), N),
        "mode_density.iterations_per_mode":
            (share(counts["iterations"], modes), R),
        "mode_density.evals_per_mode": (share(counts["evals"], modes), R),
        "mode_density.stay_frac": (share(counts["stay"], modes), R),
        "smoother.scan_frac": (share(counts["scan"], fields), R),
        "smoother.nonconverged_pixels": (per_req(counts["nonconverged"]), N),
        "smoother.median_fallback_pixels": (per_req(fields - modes), N),
        "lts_trim.trim_values.self_s": self_s("lts_trim.trim_values"),
        "lts_trim.trim_values.calls":
            (per_req(calls["lts_trim.trim_values"]), N),
        "lts_trim.trimmed_total": (per_req(counts["trimmed_total"]), N),
        "grid_image.window_at.self_s": self_s("grid_image.window_at"),
        "grid_image.window_at.calls":
            (per_req(calls["grid_image.window_at"]), N),
        "mode_density.DensityField.self_s":
            self_s("mode_density.DensityField"),
        "mode_density.DensityField.calls": (per_req(fields), N),
        "smoother.smooth.self_s": self_s("smoother.smooth"),
        "smoother.auto_scale.s": (total["smoother.auto_scale"] / n_req, "s"),
        "scene_noise.rasterize.s": (med("rasterize"), "s"),
        "scene_noise.add_noise.s": (add_noise_s, "s"),
        "scene_noise.add_noise.px_s":
            (share(med("add_noise_px"), add_noise_s), "px/s"),
        "eval_robust.max_bias_probe.self_s":
            self_s("eval_robust.max_bias_probe"),
        "eval_robust.max_bias_probe.calls":
            (per_req(calls["eval_robust.max_bias_probe"]), N),
        "smoother.window_mode_estimate.self_s":
            self_s("smoother.window_mode_estimate"),
        "smoother.window_mode_estimate.calls": (per_req(estimates), N),
        "eval_robust.estimates_per_window": (share(estimates, windows), R),
        "eval_robust.metrics.s": (total["eval_robust.metrics"] / n_req, "s"),
        "mse_ratio": (share(sum(ratios), len(ratios)), R),
        "failed_frac": (sum(o is None for o in outcomes) / n_req, R),
        "trace.overhead_frac": (overhead, R),
        "trace.client_self_frac": (own["request"] / total["request"], R),
    }
    return out, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, default=OUT / "runs",
                    help="directory for the full run record")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "tmsmooth" / "__init__.py").is_file():
        print(f"error: no tmsmooth package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    started = time.time()
    ctx = machine_context(args)
    tracer = None
    with HostClock() as clock:
        tm, pool, setup_spans, timings = setup(workload, args.seed)
        api = call_table(tm)
        if args.trace:
            # the first requests once untraced, as the base of the overhead
            untraced, _, _ = run_loop(workload, api, pool, 0.0,
                                      workload.reference)
            tracer = Tracer()
            tracer.instrument(tm, api)
        records, loop, counts = run_loop(workload, api, pool, args.seconds,
                                         workload.counted, tracer)
    times = ref_durations(clock, records)
    loop_s = ref_durations(clock, [loop])[0]
    setup_times = ref_durations(clock, setup_spans)
    outcomes = [o for _, _, o in records]
    failed = sum(o is None for o in outcomes)
    raw = None
    if tracer is None:
        metrics = end_to_end(times, loop_s, outcomes, setup_times)
    else:
        spans = dict(tracer.arrays())
        spans["start"] = clock.ref(spans["start"])
        spans["end"] = clock.ref(spans["end"])
        ref_timings = {k: ref_durations(clock, v) if k in TIMED else v
                       for k, v in timings.items()}
        n_ref = workload.reference
        overhead = (sum(times[:n_ref])
                    / sum(ref_durations(clock, untraced)) - 1.0)
        metrics, raw = per_layer(workload, spans, outcomes, counts,
                                 overhead, ref_timings)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        np.savez(spans_dir / f"{args.workload}-seed{args.seed}.npz",
                 names=np.array(SPAN_NAMES), **spans)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    wall_times = [b - a for a, b, _ in records]
    record = {"context": ctx, "started": started,
              "wall_s": loop[1] - loop[0], "loop_ref_s": loop_s,
              "host_speed": clock.speed_summary(),
              "request_s": times, "request_wall_s": wall_times,
              "setup_s": setup_times,
              "setup_wall_s": [b - a for a, b in setup_spans],
              "counts": raw, "result": result}
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                f"{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} requests ({failed} failed) in "
          f"{loop[1] - loop[0]:.2f} s wall, {loop_s:.2f} reference s; "
          f"percentiles over {len(records)} samples; "
          f"set-up median of {workload.setup_reps}")
    print("# host slow-down " + json.dumps(clock.speed_summary()))
    print("# context " + json.dumps(ctx))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
