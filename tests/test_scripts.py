"""The experiment scripts in `scripts/` run end to end on small inputs.

Each script runs as a subprocess with `src/` on its path, so a package
name a script imports that is renamed or removed fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

from tmsmooth.grid_image import GridGeometry, write_pgm
from tmsmooth.scene_noise import Disk, Region, SceneSpec, rasterize

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_table_experiment():
    out = _run("table_experiment.py", "--size", 24, "--seeds", 1)
    assert out[0].startswith("scene 24x24, sigma=26.0")
    assert [line.split()[0] for line in out[4:8]] == [
        "noisy", "median", "mode", "trimmed"]
    assert [line.split(":")[0] for line in out[9:]] == [
        f"MSE reduction vs noisy, {m:<8}" for m in ("median", "mode",
                                                     "trimmed")]


def test_consistency_trend():
    out = _run("consistency_trend.py", "--sizes", 16, 32, "--seeds", 1)
    assert out[0].startswith("ramp scene, sigma=10.0, 1 seeds")
    assert [line.split()[:2] for line in out[4:]] == [["16", "1"],
                                                      ["32", "2"]]


def test_real_image_suite(tmp_path):
    scene = SceneSpec(base_offset=60.0, regions=(
        Region(shape=Disk(center=(0.5, 0.5), radius=0.3), height=120.0),))
    path = tmp_path / "clean.pgm"
    write_pgm(rasterize(scene, GridGeometry(32, 32)), path)
    out = _run("real_image_suite.py", path, "--recipe", "B")
    assert out[0].startswith("image 32x32, recipe B")
    assert [line.split(":")[0].split()[0] for line in out[1:]] == [
        "automatic", "noisy", "restored", "deviation"]
