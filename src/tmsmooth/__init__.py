"""Outlier-robust, corner-preserving grayscale image smoothing.

The core estimator replaces each pixel by the mode of a kernel density
over its window values that is nearest to the pixel's own observation;
the trimmed variant builds that density only from the values a least
trimmed squares fit retains, which removes impulse outliers without
rounding corners of jump regions.
"""

from .eval_robust import (BiasProbeReport, MetricsReport, breakdown_estimate,
                          edge_band, max_bias_probe, metrics,
                          tm_support_bound, write_metrics_csv,
                          write_probe_csv)
from .grid_image import (GridGeometry, Image, PgmParseError, design_point,
                         parse_pgm, pgm_bytes, quantize, read_pgm, window_at,
                         write_pgm)
from .kernels import k2, l0, l1, l2
from .lts_trim import lts_center, trim_count, trim_values
from .mode_density import (DegenerateFieldError, DensityField, ModeResult,
                           nearest_mode)
from .scene_noise import (Disk, NoiseSpec, Polygon, Rect, Region,
                          SceneConfigError, SceneSpec, Wedge, add_noise,
                          parse_noise_config, parse_scene_config, rasterize)
from .smoother import (DegenerateScaleError, SmoothReport, SmootherParams,
                       auto_scale, median_smooth, smooth,
                       window_mode_estimate)

__version__ = "0.1.0"

__all__ = [
    "BiasProbeReport", "MetricsReport", "breakdown_estimate", "edge_band",
    "max_bias_probe", "metrics", "tm_support_bound", "write_metrics_csv",
    "write_probe_csv",
    "GridGeometry", "Image", "PgmParseError", "design_point", "parse_pgm",
    "pgm_bytes", "quantize", "read_pgm", "window_at", "write_pgm",
    "k2", "l0", "l1", "l2",
    "lts_center", "trim_count", "trim_values",
    "DegenerateFieldError", "DensityField", "ModeResult", "nearest_mode",
    "Disk", "NoiseSpec", "Polygon", "Rect", "Region", "SceneConfigError",
    "SceneSpec", "Wedge", "add_noise", "parse_noise_config",
    "parse_scene_config", "rasterize",
    "DegenerateScaleError", "SmoothReport", "SmootherParams", "auto_scale",
    "median_smooth", "smooth", "window_mode_estimate",
    "__version__",
]
