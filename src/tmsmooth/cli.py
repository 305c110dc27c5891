"""Command-line pipelines: synthesize, contaminate, smooth, evaluate, probe.

Every run is reproducible: noise is seeded, smoothing is deterministic,
and JSON reports echo all resolved parameters.  Exit codes: 0 success,
2 usage or configuration error, 3 image I/O error, 4 degenerate scale
(automatic bandwidth collapsed; pass an explicit --g).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .eval_robust import (DEFAULT_MAGNITUDES, DEFAULT_RANDOM_TRIALS,
                          breakdown_estimate, max_bias_probe, metrics,
                          write_json_report, write_metrics_csv,
                          write_probe_csv)
from .grid_image import (GridGeometry, Image, PgmParseError, read_pgm,
                         window_at, write_pgm)
from .lts_trim import trim_count
from .scene_noise import (NoiseSpec, SceneConfigError, add_noise,
                          parse_noise_config, parse_scene_config, rasterize)
from .smoother import DegenerateScaleError, SmootherParams, smooth

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4


def _err(msg: str) -> None:
    print(f"tmsmooth: {msg}", file=sys.stderr)


def _read_config_text(path: str) -> str:
    # config problems (including a missing file) are usage errors, not I/O
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SceneConfigError(f"cannot read config {path!r}: {exc}") from None


def _parse_bandwidth(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--g must be 'auto' or a positive number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError("--g must be positive")
    return value


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            dims = (n, n)
        elif len(parts) == 2:
            dims = (int(parts[0]), int(parts[1]))
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--size must be N or ROWSxCOLS, got {text!r}")
    if dims[0] < 1 or dims[1] < 1:
        raise argparse.ArgumentTypeError("--size dimensions must be >= 1")
    return dims


def _parse_magnitudes(text: str) -> tuple[float, ...]:
    try:
        mags = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--magnitudes must be comma-separated numbers, got {text!r}")
    if not mags or any(m <= 0 for m in mags):
        raise argparse.ArgumentTypeError("--magnitudes must be positive")
    return mags


# -- subcommands -------------------------------------------------------------


def cmd_synth(ns: argparse.Namespace) -> int:
    scene = parse_scene_config(_read_config_text(ns.config))
    rows, cols = ns.size
    img = rasterize(scene, GridGeometry(rows, cols))
    write_pgm(img, ns.out, binary=not ns.ascii)
    print(f"synth: {rows}x{cols} scene with {len(scene.regions)} region(s), "
          f"base offset {scene.base_offset}, gradient {scene.base_gradient}, "
          f"values in [{img.pixels.min():g}, {img.pixels.max():g}] "
          f"-> {ns.out}")
    return EXIT_OK


def _noise_spec_from_args(ns: argparse.Namespace) -> NoiseSpec:
    if ns.config is not None:
        spec = parse_noise_config(_read_config_text(ns.config))
    else:
        spec = NoiseSpec()
    overrides = {name: getattr(ns, name) for name in
                 ("sigma", "truncate", "p_white", "p_black",
                  "white_value", "black_value", "seed")
                 if getattr(ns, name) is not None}
    if overrides:
        merged = {**spec.__dict__, **overrides}
        try:
            spec = NoiseSpec(**merged)
        except ValueError as exc:
            raise SceneConfigError(str(exc)) from None
    return spec


def cmd_noise(ns: argparse.Namespace) -> int:
    spec = _noise_spec_from_args(ns)
    img = read_pgm(ns.input)
    noisy = add_noise(img, spec)
    write_pgm(noisy, ns.out, binary=not ns.ascii)
    print(f"noise: sigma={spec.sigma} truncate={spec.truncate} "
          f"p_white={spec.p_white} p_black={spec.p_black} seed={spec.seed} "
          f"-> {ns.out}")
    return EXIT_OK


def cmd_smooth(ns: argparse.Namespace) -> int:
    params = SmootherParams(radius_px=ns.radius, bandwidth=ns.g,
                            trim_fraction=ns.l, tol=ns.tol,
                            max_iter=ns.max_iter, border=ns.border)
    img = read_pgm(ns.input)
    result, report = smooth(img, params)
    write_pgm(result, ns.out, binary=not ns.ascii)
    payload = report.to_dict()
    payload["input"] = str(ns.input)
    payload["output"] = str(ns.out)
    if ns.report is not None:
        write_json_report(payload, ns.report)
    print(f"smooth: g={report.bandwidth:g} ({report.bandwidth_mode}) "
          f"l={report.trim_fraction} radius={report.radius_px} "
          f"trimmed_total={report.trimmed_total} "
          f"fallback={report.median_fallback_pixels} "
          f"wall={report.wall_time_s:.3f}s -> {ns.out}")
    return EXIT_OK


def cmd_eval(ns: argparse.Namespace) -> int:
    truth = read_pgm(ns.truth)
    region_mask = None
    if ns.scene is not None:
        scene = parse_scene_config(_read_config_text(ns.scene))
        clean = rasterize(scene, GridGeometry(truth.height, truth.width))
        base = rasterize(
            type(scene)(base_offset=scene.base_offset,
                        base_gradient=scene.base_gradient),
            GridGeometry(truth.height, truth.width))
        region_mask = clean.pixels != base.pixels
    rows = []
    for path in ns.estimates:
        est = read_pgm(path)
        rep = metrics(truth, est, region_mask=region_mask,
                      band_px=ns.band_px)
        rows.append((str(path), rep))
        print(f"eval: {path}: mae={rep.mae:.6g} mse={rep.mse:.6g} "
              f"n={rep.count}")
    if ns.csv is not None:
        write_metrics_csv(rows, ns.csv)
    if ns.json is not None:
        write_json_report(
            {"truth": str(ns.truth),
             "band_px": ns.band_px,
             "rows": [{"label": label, **rep.to_dict()}
                      for label, rep in rows]},
            ns.json)
    return EXIT_OK


def cmd_probe(ns: argparse.Namespace) -> int:
    img = read_pgm(ns.input)
    row = ns.row if ns.row is not None else img.height // 2
    col = ns.col if ns.col is not None else img.width // 2
    if not (0 <= row < img.height and 0 <= col < img.width):
        raise ValueError(f"probe center ({row}, {col}) is outside the image")
    win = window_at(img, row, col, ns.radius, border="replicate")
    params = SmootherParams(radius_px=ns.radius, bandwidth=ns.g,
                            trim_fraction=ns.l)
    n = win.values.size
    r = ns.r if ns.r is not None else max(trim_count(n, ns.l), 1)
    report = max_bias_probe(win.values, r, params,
                            magnitudes=ns.magnitudes,
                            random_trials=ns.trials, seed=ns.seed)
    bound_txt = "n/a" if report.bound is None else f"{report.bound:.6g}"
    print(f"probe: window=({row},{col}) radius={ns.radius} l={ns.l} "
          f"r={report.r} g={report.bandwidth:g} "
          f"worst_bias={report.worst_bias:.6g} bound={bound_txt} "
          f"violated={report.violated} "
          f"interval_misses={report.bound_violations}")
    payload = {"row": row, "col": col, "radius": ns.radius,
               "trim_fraction": ns.l, **report.to_dict()}
    if ns.breakdown:
        frac = breakdown_estimate(win.values, params,
                                  magnitudes=ns.magnitudes, seed=ns.seed)
        payload["breakdown_fraction"] = frac
        print(f"probe: breakdown fraction ~ {frac:.6g} "
              f"({round(frac * n)}/{n})")
    if ns.csv is not None:
        write_probe_csv([(0, ns.l, report)], ns.csv)
    if ns.json is not None:
        write_json_report(payload, ns.json)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_write_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", "-o", required=True, help="output PGM path")
    p.add_argument("--ascii", action="store_true",
                   help="write plain-text P2 instead of binary P5")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsmooth",
        description="Outlier-robust, corner-preserving image smoothing "
                    "via trimmed local mode estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="rasterize a scene config to PGM")
    p.add_argument("config", help="plain-text scene config path")
    p.add_argument("--size", type=_parse_size, default=(64, 64),
                   help="N or ROWSxCOLS (default 64x64)")
    _add_write_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("noise", help="add Gaussian noise and outliers")
    p.add_argument("input", help="input PGM path")
    p.add_argument("--config", help="config file with a noise directive")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--truncate", type=float, default=None,
                   help="restrict Gaussian noise to (-a, a)")
    p.add_argument("--p-white", type=float, default=None, dest="p_white")
    p.add_argument("--p-black", type=float, default=None, dest="p_black")
    p.add_argument("--white-value", type=float, default=None,
                   dest="white_value")
    p.add_argument("--black-value", type=float, default=None,
                   dest="black_value")
    p.add_argument("--seed", type=int, default=None)
    _add_write_flags(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("smooth", help="run the trimmed mode smoother")
    p.add_argument("input", help="input PGM path")
    p.add_argument("--g", type=_parse_bandwidth, default=None,
                   help="intensity bandwidth: 'auto' (default) or a "
                        "positive value")
    p.add_argument("--l", type=float, default=0.15,
                   help="trim fraction in [0, 0.5); 0 disables trimming "
                        "(default 0.15)")
    p.add_argument("--radius", type=int, default=2,
                   help="window radius in pixels (default 2)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="stop the mode search once |F'| <= tol "
                        "(default 1e-8)")
    p.add_argument("--max-iter", type=int, default=200, dest="max_iter",
                   help="cap on the mode search's root-solver steps "
                        "(default 200)")
    p.add_argument("--border", choices=("clip", "replicate"),
                   default="clip")
    p.add_argument("--report", help="write a JSON run report here")
    _add_write_flags(p)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("eval", help="MAE/MSE of estimates against truth")
    p.add_argument("truth", help="clean reference PGM")
    p.add_argument("estimates", nargs="+", help="estimate PGM path(s)")
    p.add_argument("--scene",
                   help="scene config; adds inside/outside/band zone "
                        "metrics over its regions")
    p.add_argument("--band-px", type=int, default=2, dest="band_px")
    p.add_argument("--csv", help="write per-estimate rows here")
    p.add_argument("--json", help="write a JSON summary here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="adversarial bias probe of one window")
    p.add_argument("input", help="input PGM path")
    p.add_argument("--row", type=int, default=None,
                   help="window center row (default: image center)")
    p.add_argument("--col", type=int, default=None,
                   help="window center column (default: image center)")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--l", type=float, default=0.15)
    p.add_argument("--g", type=_parse_bandwidth, default=None)
    p.add_argument("--r", type=int, default=None,
                   help="replacements (default: the trimmable count)")
    p.add_argument("--magnitudes", type=_parse_magnitudes,
                   default=DEFAULT_MAGNITUDES)
    p.add_argument("--trials", type=int, default=DEFAULT_RANDOM_TRIALS,
                   help="seeded random replacement trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--breakdown", action="store_true",
                   help="also escalate replacements to estimate the "
                        "breakdown fraction")
    p.add_argument("--csv", help="write a probe row here")
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return ns.func(ns)
    except SceneConfigError as exc:
        _err(f"config error: {exc}")
        return EXIT_USAGE
    except DegenerateScaleError as exc:
        _err(f"degenerate scale: {exc}")
        return EXIT_DEGENERATE
    except PgmParseError as exc:
        _err(f"pgm error: {exc}")
        return EXIT_IO
    except OSError as exc:
        _err(f"i/o error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _err(f"invalid arguments: {exc}")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
