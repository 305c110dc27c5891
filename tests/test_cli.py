"""Command-line interface: exit codes, pipelines, determinism."""

import json

import numpy as np
import pytest

from tmsmooth.cli import EXIT_DEGENERATE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from tmsmooth.grid_image import Image, read_pgm, write_pgm

from conftest import REPORT_KEYS

SCENE = """\
# block on a flat base
base = constant 30
region = rect corner=0.25,0.25 opposite=0.75,0.75 height=120
noise = sigma=8 p_white=0.02 seed=9
"""


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(SCENE)
    return path


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "synth" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["polish"]) == EXIT_USAGE


def test_synth_noise_smooth_eval_probe_pipeline(tmp_path, scene_file, capsys):
    clean = tmp_path / "clean.pgm"
    noisy = tmp_path / "noisy.pgm"
    out = tmp_path / "tm.pgm"
    report = tmp_path / "report.json"
    csv_path = tmp_path / "eval.csv"

    assert main(["synth", str(scene_file), "--size", "24",
                 "--out", str(clean)]) == EXIT_OK
    img = read_pgm(clean)
    assert (img.height, img.width) == (24, 24)
    assert set(np.unique(img.pixels)) == {30.0, 150.0}

    assert main(["noise", str(noisy.parent / "clean.pgm"),
                 "--config", str(scene_file),
                 "--out", str(noisy)]) == EXIT_OK
    assert main(["smooth", str(noisy), "--g", "25", "--l", "0.15",
                 "--radius", "2", "--out", str(out),
                 "--report", str(report)]) == EXIT_OK
    rep = json.loads(report.read_text())
    assert set(rep) == REPORT_KEYS | {"input", "output"}
    assert rep["bandwidth"] == 25.0
    assert rep["bandwidth_mode"] == "fixed"
    assert rep["output"] == str(out)

    assert main(["eval", str(clean), str(noisy), str(out),
                 "--scene", str(scene_file),
                 "--csv", str(csv_path)]) == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "label,zone,mae,mse,count"
    assert len(lines) == 1 + 2 * 4  # two estimates, all + three zones
    txt = capsys.readouterr().out
    assert "mae=" in txt

    assert main(["probe", str(noisy), "--g", "25", "--l", "0.15",
                 "--trials", "4",
                 "--json", str(tmp_path / "probe.json")]) == EXIT_OK
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert probe["r"] == 3
    assert probe["violated"] is False


def test_smoothing_reduces_noise_end_to_end(tmp_path, scene_file):
    clean = tmp_path / "clean.pgm"
    noisy = tmp_path / "noisy.pgm"
    out = tmp_path / "tm.pgm"
    main(["synth", str(scene_file), "--size", "24", "--out", str(clean)])
    main(["noise", str(clean), "--config", str(scene_file),
          "--out", str(noisy)])
    main(["smooth", str(noisy), "--g", "25", "--out", str(out)])
    truth = read_pgm(clean).pixels
    mse_noisy = float(np.mean((read_pgm(noisy).pixels - truth) ** 2))
    mse_tm = float(np.mean((read_pgm(out).pixels - truth) ** 2))
    assert mse_tm < 0.5 * mse_noisy


def test_pipeline_is_deterministic(tmp_path, scene_file):
    def run(into):
        into.mkdir()
        clean = into / "clean.pgm"
        noisy = into / "noisy.pgm"
        out = into / "tm.pgm"
        rep = into / "rep.json"
        pj = into / "probe.json"
        assert main(["synth", str(scene_file), "--size", "20",
                     "--out", str(clean)]) == EXIT_OK
        assert main(["noise", str(clean), "--config", str(scene_file),
                     "--out", str(noisy)]) == EXIT_OK
        assert main(["smooth", str(noisy), "--g", "25", "--out", str(out),
                     "--report", str(rep)]) == EXIT_OK
        assert main(["probe", str(noisy), "--g", "25", "--trials", "4",
                     "--json", str(pj)]) == EXIT_OK
        report = json.loads(rep.read_text())
        report.pop("wall_time_s")  # the only nondeterministic field
        report.pop("input")        # run-directory paths differ by design
        report.pop("output")
        return (clean.read_bytes(), noisy.read_bytes(), out.read_bytes(),
                report, pj.read_bytes())

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    assert a == b


def test_noise_flag_overrides_config(tmp_path, scene_file):
    clean = tmp_path / "clean.pgm"
    main(["synth", str(scene_file), "--size", "16", "--out", str(clean)])
    base = tmp_path / "base.pgm"
    over = tmp_path / "over.pgm"
    assert main(["noise", str(clean), "--config", str(scene_file),
                 "--out", str(base)]) == EXIT_OK
    assert main(["noise", str(clean), "--config", str(scene_file),
                 "--sigma", "0", "--p-white", "0", "--out",
                 str(over)]) == EXIT_OK
    assert not np.array_equal(read_pgm(base).pixels, read_pgm(clean).pixels)
    assert np.array_equal(read_pgm(over).pixels, read_pgm(clean).pixels)


def test_synth_ascii_writes_plain_format(tmp_path, scene_file):
    out = tmp_path / "plain.pgm"
    assert main(["synth", str(scene_file), "--size", "8", "--ascii",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes().startswith(b"P2")
    binary = tmp_path / "bin.pgm"
    main(["synth", str(scene_file), "--size", "8", "--out", str(binary)])
    assert binary.read_bytes().startswith(b"P5")
    assert np.array_equal(read_pgm(out).pixels, read_pgm(binary).pixels)


# -- exit codes ---------------------------------------------------------------


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["synth", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "x.pgm")])
    assert code == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("region = blob density=1\n")
    code = main(["synth", str(bad), "--out", str(tmp_path / "x.pgm")])
    assert code == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(tmp_path):
    assert main(["smooth", "in.pgm", "--g", "-4",
                 "--out", "o.pgm"]) == EXIT_USAGE
    assert main(["smooth", "in.pgm", "--g", "soft",
                 "--out", "o.pgm"]) == EXIT_USAGE
    assert main(["synth", "s.txt", "--size", "4x4x4",
                 "--out", "o.pgm"]) == EXIT_USAGE


def test_bad_trim_fraction_is_usage_error(tmp_path, scene_file, capsys):
    clean = tmp_path / "c.pgm"
    main(["synth", str(scene_file), "--size", "8", "--out", str(clean)])
    code = main(["smooth", str(clean), "--g", "10", "--l", "0.6",
                 "--out", str(tmp_path / "o.pgm")])
    assert code == EXIT_USAGE
    assert "invalid arguments" in capsys.readouterr().err


def test_missing_image_is_io_error(tmp_path, capsys):
    code = main(["smooth", str(tmp_path / "absent.pgm"), "--g", "10",
                 "--out", str(tmp_path / "o.pgm")])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_corrupt_image_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n3 3\n255\nxx")  # truncated raster
    code = main(["smooth", str(bad), "--g", "10",
                 "--out", str(tmp_path / "o.pgm")])
    assert code == EXIT_IO
    assert "pgm error" in capsys.readouterr().err


def test_oversized_header_is_io_error(tmp_path, capsys):
    # the header claims 10^10 pixels of a 23-byte file
    big = tmp_path / "big.pgm"
    big.write_bytes(b"P2\n100000 100000\n255\n0\n")
    code = main(["smooth", str(big), "--g", "10",
                 "--out", str(tmp_path / "o.pgm")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "pgm error: unexpected end of file (byte offset 23)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.pgm").exists()


@pytest.mark.parametrize("data, message", [
    (b"P5\n" + b"9" * 5000 + b" 2\n255\n", "width has 5000 digits"),
    (b"P2\n2 1\n255\n7 " + b"0" * 5000 + b"\n", "sample has 5000 digits"),
])
def test_long_digit_token_is_io_error(tmp_path, capsys, data, message):
    # beyond the interpreter's integer-string limit (4300 digits by default)
    path = tmp_path / "long.pgm"
    path.write_bytes(data)
    code = main(["smooth", str(path), "--g", "10",
                 "--out", str(tmp_path / "o.pgm")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"pgm error: {message}, more than 640" in err
    assert "Traceback" not in err


def test_constant_image_auto_bandwidth_is_degenerate(tmp_path, capsys):
    flat = tmp_path / "flat.pgm"
    write_pgm(Image(np.full((8, 8), 77.0)), flat)
    code = main(["smooth", str(flat), "--out", str(tmp_path / "o.pgm")])
    assert code == EXIT_DEGENERATE
    assert "degenerate scale" in capsys.readouterr().err
    assert main(["smooth", str(flat), "--g", "10",
                 "--out", str(tmp_path / "o.pgm")]) == EXIT_OK


@pytest.mark.parametrize("g", ["inf", "nan", "0"])
def test_nonpositive_or_nonfinite_bandwidth_is_usage_error(g, capsys):
    assert main(["smooth", "in.pgm", "--g", g,
                 "--out", "o.pgm"]) == EXIT_USAGE
    assert "--g must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("mags", ["inf", "nan", "1e3,inf", "-1"])
def test_nonfinite_magnitudes_are_usage_error(mags, capsys):
    assert main(["probe", "in.pgm", "--magnitudes", mags]) == EXIT_USAGE
    assert "--magnitudes must be positive and finite" in (
        capsys.readouterr().err)


def test_probe_trials_at_float_maximum_are_usage_error(tmp_path, capsys):
    img = tmp_path / "ramp.pgm"
    write_pgm(Image(np.arange(64, dtype=float).reshape(8, 8)), img)
    assert main(["probe", str(img), "--magnitudes", "1e308"]) == EXIT_USAGE
    assert "random trials" in capsys.readouterr().err


def test_probe_center_outside_image(tmp_path, scene_file, capsys):
    clean = tmp_path / "c.pgm"
    main(["synth", str(scene_file), "--size", "8", "--out", str(clean)])
    code = main(["probe", str(clean), "--row", "99", "--g", "10"])
    assert code == EXIT_USAGE


def test_probe_breakdown_flag(tmp_path, scene_file):
    clean = tmp_path / "c.pgm"
    noisy = tmp_path / "n.pgm"
    main(["synth", str(scene_file), "--size", "16", "--out", str(clean)])
    main(["noise", str(clean), "--config", str(scene_file),
          "--out", str(noisy)])
    pj = tmp_path / "probe.json"
    code = main(["probe", str(noisy), "--g", "25", "--l", "0", "--r", "1",
                 "--trials", "0", "--breakdown", "--json", str(pj)])
    assert code == EXIT_OK
    payload = json.loads(pj.read_text())
    assert payload["breakdown_fraction"] == pytest.approx(1 / 25)
