import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import msimg as m
from msimg import cli

PI = math.pi


def _base_config(tmp_path, **overrides):
    cfg = {
        "trajectory": {"variant": "line", "speed": 1.0, "angle": PI / 2,
                       "offset": [0.0, 0.0], "interval": [1.0, 3.0]},
        "band": {"k_max": 3 * PI, "count": 18},
        "directions": {"angles": [PI / 2]},
        "mode": "rigorous",
        "grid": {"bounds": [[-2, 2], [0, 4]], "resolution": [41, 41]},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _run(*argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    path = _base_config(tmp_path, noise={"delta": 0.01, "seed": 7},
                        threshold=1234.5)
    c = cli.load_config(path)
    assert c.noise == m.NoiseSpec(0.01, 7)
    assert c.threshold == 1234.5
    assert c.band == m.FrequencyBand(3 * PI, 18)
    assert [d.theta for d in c.directions] == [PI / 2]
    assert (c.mode, c.output_dir) == ("rigorous", str(tmp_path / "out"))


def test_config_parse_error_has_line_context(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "trajectory": [,]\n}')
    assert _run("classify", "--config", bad) == 2
    err = capsys.readouterr().err
    assert "bad.json:2" in err


def test_config_dimension_mismatch(tmp_path, capsys):
    path = _base_config(tmp_path,
                        grid={"bounds": [[-2, 2], [0, 4], [0, 1]],
                              "resolution": [11, 11, 11],
                              "slices": [{"axis": 0, "offset": 0.0}]})
    assert _run("classify", "--config", path) == 2
    assert "2D" in capsys.readouterr().err


def test_config_missing_section(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"trajectory": {"variant": "line"}}))
    assert _run("classify", "--config", path) == 2


def test_config_direction_count_shorthand(tmp_path):
    path = _base_config(tmp_path, directions={"count": 4})
    cfg = cli.load_config(path)
    assert [d.theta for d in cfg.directions] == \
        pytest.approx([0.0, PI / 2, PI, 3 * PI / 2])


def _config3d(slices, axis=None):
    """Overrides for a 3D line config with the given grid.slices."""
    return {"trajectory": {"variant": "line", "speed": 1.0,
                           "axis": [0.0, 0.0, 1.0] if axis is None else axis,
                           "offset": [0.0, 0.0, 0.0], "interval": [0.0, 1.0]},
            "directions": {"angles": [[0.4, 0.8]]},
            "grid": {"bounds": [[-2, 2]] * 3, "resolution": [9, 9, 9],
                     "slices": slices}}


@pytest.mark.parametrize("overrides, field", [
    ({"band": {"k_max": 3 * PI, "count": 18.7}}, "band.count"),
    ({"grid": {"bounds": [[-2, 2], [0, 4]], "resolution": [20.5, 20]}},
     "grid.resolution"),
    ({"threshold": -1.0}, "threshold"),
    ({"threshold": float("nan")}, "threshold"),
    ({"band": {"k_max": 3 * PI}}, "band.count"),
    ({"band": {"count": 18}}, "band.k_max"),
    ({"band": {"k_max": float("inf"), "count": 18}}, "k_max"),
    ({"grid": {"resolution": [41, 41]}}, "grid.bounds"),
    ({"grid": {"bounds": [[-2, 2], [0, 4]], "resolution": 20}},
     "grid.resolution"),
    ({"band": 5}, "'band'"),
    ({"band": {"k_max": "3", "count": 18}}, "band.k_max"),
    ({"grid": {"bounds": [1, [0, 4]], "resolution": [41, 41]}},
     "grid.bounds"),
    ({"noise": 3}, "'noise'"),
    ({"trajectory": [1]}, "'trajectory'"),
    ({"trajectory": {"variant": "line", "speed": 1.0, "angle": PI / 2,
                     "interval": [1.0]}}, "trajectory.interval"),
    ({"directions": {"count": 2.7}}, "directions.count"),
    ([1], "JSON object"),
    (_config3d([5]), "grid.slices"),
    (_config3d([{"offset": 0.0}]), "grid.slices"),
    (_config3d([{"axis": 0.5, "offset": 0.0}]), "grid.slices axis"),
    (_config3d([{"axis": 7, "offset": 0.0}]), "grid.slices"),
    (_config3d([{"axis": 2, "offset": 2.5}]), "grid.slices"),
    (_config3d([{"axis": 0, "offset": 0.0}], axis={"z": 1}),
     "trajectory.axis"),
    ({"trajectory": {"variant": "line", "speed": 1.0, "angle": PI / 2,
                     "offset": {"a": 1}, "interval": [1.0, 3.0]}},
     "trajectory.offset"),
    ({"trajectory": {"variant": "arc", "center": {"x": 0.0},
                     "interval": [0.0, 1.0]}}, "trajectory.center"),
    ({"trajectory": {"variant": "piecewise", "times": {"t": 0.0},
                     "points": [[0.0, 0.0], [1.0, 1.0]]}}, "trajectory.times"),
    ({"trajectory": {"variant": "piecewise", "times": [0.0, 1.0],
                     "points": {"p": [0.0, 0.0]}}}, "trajectory.points"),
    ({"band": {"k_max": 3 * PI, "count": 10 ** 400}}, "band.count"),
    ({"noise": {"delta": float("nan"), "seed": 1}}, "noise.delta"),
    ({"noise": {"delta": float("inf"), "seed": 1}}, "noise.delta"),
    ({"noise": {"delta": -0.1, "seed": 1}}, "noise delta"),
    ({"noise": {"delta": 0.01, "seed": -5}}, "noise seed"),
    ({"output_dir": 5}, "output_dir"),
    ({"output_dir": ""}, "output_dir"),
    ({"mode": "exact"}, "mode"),
    ({"directions": {"count": 10 ** 9}}, "directions.count"),
    ({"band": {"k_max": 1e9, "count": 18}}, "band.k_max"),
    ({"trajectory": {"variant": "line", "speed": 1e300, "angle": PI / 2,
                     "interval": [1.0, 3.0]}}, "band.k_max"),
], ids=["fractional_count", "fractional_resolution", "negative_threshold",
        "nan_threshold", "missing_count", "missing_k_max", "infinite_k_max",
        "missing_bounds", "scalar_resolution", "band_not_object",
        "string_k_max", "bounds_entry_not_pair", "noise_not_object",
        "trajectory_not_object", "one_element_interval",
        "fractional_direction_count", "top_level_list",
        "slice_not_object", "slice_without_axis", "fractional_slice_axis",
        "slice_axis_out_of_range", "slice_offset_outside_grid",
        "axis_object", "offset_object", "center_object", "times_object",
        "points_object", "count_beyond_float", "nan_noise_delta",
        "infinite_noise_delta", "negative_noise_delta", "negative_noise_seed",
        "output_dir_number", "empty_output_dir", "unknown_mode", "huge_direction_count",
        "huge_k_max", "huge_speed"])
def test_config_rejects_out_of_range_numbers(tmp_path, capsys, overrides,
                                             field):
    if isinstance(overrides, dict):
        path = _base_config(tmp_path, **overrides)
    else:  # the whole config is not a JSON object
        path = tmp_path / "config.json"
        path.write_text(json.dumps(overrides))
    assert _run("classify", "--config", path) == 2
    assert field in capsys.readouterr().err


def test_config_rejects_band_with_vanishing_weights(tmp_path, capsys):
    # N = 1, k_max = pi, T = 2: dk T = 2 pi, so sinc(tau_1 T / 2) = 0
    path = _base_config(tmp_path, band={"k_max": PI, "count": 1})
    assert _run("image", "--config", path) == 2
    assert "vanishes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_per_direction(tmp_path, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path)
    out = tmp_path / "data"
    assert _run("synth", "--config", path, "--out", out) == 0
    rows = (out / "farfield_1.csv").read_text().splitlines()
    assert rows[0] == "k,re,im"
    assert len(rows) == 19


def test_synth_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path, noise={"delta": 0.01, "seed": 99},
                        directions={"angles": [0.0, PI / 2]})
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("synth", "--config", path, "--out", a) == 0
    assert _run("synth", "--config", path, "--out", b) == 0
    for name in ("farfield_1.csv", "farfield_2.csv",
                 "farfield_1_clean.csv", "farfield_2_clean.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_noisy_writes_clean_alongside(tmp_path, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path, noise={"delta": 0.01, "seed": 5})
    out = tmp_path / "data"
    assert _run("synth", "--config", path, "--out", out) == 0
    assert (out / "farfield_1.csv").exists()
    assert (out / "farfield_1_clean.csv").exists()
    clean = (out / "farfield_1_clean.csv").read_text()
    noisy = (out / "farfield_1.csv").read_text()
    assert clean != noisy


def test_synth_env_seed_override(tmp_path, monkeypatch):
    path = _base_config(tmp_path, noise={"delta": 0.01, "seed": 5})
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("MSIMG_SEED", "123")
    assert _run("synth", "--config", path, "--out", a) == 0
    assert _run("synth", "--config", path, "--out", b) == 0
    monkeypatch.setenv("MSIMG_SEED", "124")
    assert _run("synth", "--config", path, "--out", c) == 0
    assert (a / "farfield_1.csv").read_bytes() == (b / "farfield_1.csv").read_bytes()
    assert (a / "farfield_1.csv").read_bytes() != (c / "farfield_1.csv").read_bytes()


@pytest.mark.parametrize("seed", ["abc", "-5", "1.5"])
def test_synth_rejects_bad_env_seed_before_writing(tmp_path, capsys,
                                                   monkeypatch, seed):
    monkeypatch.setenv("MSIMG_SEED", seed)
    path = _base_config(tmp_path, noise={"delta": 0.01, "seed": 5})
    out = tmp_path / "data"
    out.mkdir()
    assert _run("synth", "--config", path, "--out", out) == 2
    assert f"MSIMG_SEED={seed!r}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_synth_3d_nine_directions(tmp_path, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    angles = [[th, ph] for ph in (PI / 4, PI / 2, PI)
              for th in (PI / 8, 2 * PI / 8, 3 * PI / 8)]
    path = _base_config(
        tmp_path,
        trajectory={"variant": "line", "speed": 1.0, "axis": [0, 0, 1],
                    "offset": [0, 0, 0], "interval": [0.0, 1.0]},
        directions={"angles": angles},
        grid={"bounds": [[-2, 2]] * 3, "resolution": [17, 17, 17],
              "slices": [{"axis": 0, "offset": 0.0}]})
    out = tmp_path / "data3"
    assert _run("synth", "--config", path, "--out", out) == 0
    assert len(list(out.glob("farfield_*.csv"))) == 9


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_fast_line_nonobservable_angle(tmp_path, capsys):
    path = _base_config(
        tmp_path,
        trajectory={"variant": "line", "speed": 4.0, "angle": PI / 4,
                    "offset": [0.0, 0.0], "interval": [1.0, 2.0]},
        directions={"angles": [20 * PI / 24]},
        grid={"bounds": [[-2, 5], [-2, 5]], "resolution": [41, 41]})
    out = tmp_path / "rep"
    assert _run("classify", "--config", path, "--out", out) == 0
    rows = (out / "classify.csv").read_text().splitlines()
    assert rows[1].split(",")[7] == "non-observable"
    assert rows[1].split(",")[8] == "non-observable"  # lemma cross-check


def test_classify_arc_downwind(tmp_path):
    path = _base_config(
        tmp_path,
        trajectory={"variant": "arc", "center": [0.0, 0.0], "radius": 1.0,
                    "interval": [0.0, PI]},
        directions={"angles": [PI]},
        grid={"bounds": [[-2, 2], [-2, 2]], "resolution": [41, 41]})
    out = tmp_path / "rep"
    assert _run("classify", "--config", path, "--out", out) == 0
    row = (out / "classify.csv").read_text().splitlines()[1].split(",")
    assert row[7] == "observable"
    assert row[8] == "observable"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phase=st.floats(-10.0, 10.0), t_min=st.floats(0.0, 10.0),
       duration=st.floats(0.01, 2 * PI - 0.01),
       center=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       theta=st.floats(0.0, 2 * PI))
def test_lemma_verdict_agrees_with_classify_on_phased_arcs(
        phase, t_min, duration, center, theta):
    # with phase phi the arc is the phase-0 arc rotated by phi, and so is
    # its observable half circle, which starts at phi + the mean parameter
    start = phase + t_min + 0.5 * duration
    for edge in (start, start + PI):
        assume(abs((theta - edge + PI) % (2 * PI) - PI) > 1e-3)
    arc = m.Arc(center=center, phase=phase,
                interval=m.TimeInterval(t_min, t_min + duration))
    d = m.Direction.from_angle(theta)
    verdict = cli._lemma_verdict(SimpleNamespace(trajectory=arc), d)
    assert verdict == ("observable" if m.classify(arc, d)
                       else "non-observable")


def test_classify_piecewise_width_equals_duration(tmp_path):
    path = _base_config(
        tmp_path,
        trajectory={"variant": "piecewise", "times": [0.0, 1.0, 2.0],
                    "points": [[3.0, 3.0], [2.0, 2.0], [3.0, 1.0]]},
        directions={"angles": [0.0]},
        grid={"bounds": [[-1, 5], [-1, 5]], "resolution": [41, 41]})
    out = tmp_path / "rep"
    assert _run("classify", "--config", path, "--out", out) == 0
    row = (out / "classify.csv").read_text().splitlines()[1].split(",")
    assert row[7] == "observable"
    assert float(row[5]) == pytest.approx(float(row[6]), abs=1e-12)


# ---------------------------------------------------------------------------
# image
# ---------------------------------------------------------------------------

def test_image_single_direction(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path)
    data = tmp_path / "data"
    assert _run("synth", "--config", path, "--out", data) == 0
    out = tmp_path / "img"
    assert _run("image", "--config", path, "--data", data, "--out", out) == 0
    assert (out / "field_1.csv").exists()
    assert (out / "field_1.pgm").exists()
    assert (out / "field_multi.csv").exists()
    assert "kept 1 of 1" in capsys.readouterr().out
    cfg = cli.load_config(path)
    fld = m.read_field_csv(out / "field_1.csv", cfg.grid)
    assert np.all(np.isfinite(fld.values)) and np.all(fld.values >= 0)


def test_image_reports_dropped_direction(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path,
                        directions={"angles": [PI / 2, 5 * PI / 4]})
    data = tmp_path / "data"
    _run("synth", "--config", path, "--out", data)
    out = tmp_path / "img"
    assert _run("image", "--config", path, "--data", data, "--out", out) == 0
    assert "kept 1 of 2 directions; dropped 1 [2]" in capsys.readouterr().out


def test_image_band_mismatch_is_validation_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path)
    data = tmp_path / "data"
    _run("synth", "--config", path, "--out", data)
    other = _base_config(tmp_path, band={"k_max": 3 * PI, "count": 9})
    assert _run("image", "--config", other, "--data", data) == 2
    assert "band" in capsys.readouterr().err


def test_image_missing_data_file(tmp_path, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path)
    assert _run("image", "--config", path, "--data", tmp_path / "nowhere") == 2


def test_image_writes_nothing_on_a_numerical_error(tmp_path, capsys,
                                                   monkeypatch):
    # every field is computed before the output directory is made: a
    # kernel failure on the second direction leaves no field_1 behind
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path, directions={"angles": [PI / 2, 0.0]})
    data = tmp_path / "data"
    assert _run("synth", "--config", path, "--out", data) == 0
    kernel, seen = m.indicator.picard_sums_grid, []

    def fail_on_second(spectrum, direction, *args):
        seen.append(direction)
        if direction is not seen[0]:
            raise np.linalg.LinAlgError("forced failure")
        return kernel(spectrum, direction, *args)

    monkeypatch.setattr(m.indicator, "picard_sums_grid", fail_on_second)
    out = tmp_path / "img"
    assert _run("image", "--config", path, "--data", data, "--out", out) == 3
    assert "forced failure" in capsys.readouterr().err
    assert not out.exists()


def test_image_writes_nothing_on_a_pgm_refusal(tmp_path, capsys,
                                               monkeypatch):
    # a zero Picard sum on the second direction makes field_2 infinite:
    # the PGM check refuses it before field_1 is written
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path, directions={"angles": [PI / 2, 0.0]})
    data = tmp_path / "data"
    assert _run("synth", "--config", path, "--out", data) == 0
    kernel, seen = m.indicator.picard_sums_grid, []

    def zero_on_second(spectrum, direction, *args):
        seen.append(direction)
        sums = kernel(spectrum, direction, *args)
        if direction is not seen[0]:
            sums[0] = 0.0
        return sums

    monkeypatch.setattr(m.indicator, "picard_sums_grid", zero_on_second)
    out = tmp_path / "img"
    assert _run("image", "--config", path, "--data", data, "--out", out) == 2
    assert "field_2: field has non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_image_threads_match_serial(tmp_path, capsys, monkeypatch):
    # --threads is accepted, warned about and ignored
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path)
    data = tmp_path / "data"
    _run("synth", "--config", path, "--out", data)
    out1, out4 = tmp_path / "img1", tmp_path / "img4"
    assert _run("image", "--config", path, "--data", data, "--out", out1) == 0
    assert "warning" not in capsys.readouterr().err
    assert _run("image", "--config", path, "--data", data, "--out", out4,
                "--threads", 4) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("warning:")]
    assert len(warnings) == 1 and "--threads is ignored" in warnings[0]
    for name in ("field_1.csv", "field_1.pgm", "field_multi.csv"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


@pytest.mark.parametrize("k_max, warned", [(3 * PI, 0), (12 * PI, 1)])
def test_image_warns_when_lattice_exceeds_period(tmp_path, capsys,
                                                 monkeypatch, k_max, warned):
    # N = 18: the period 2 pi / dk is 12 at 3 pi and 3 at 12 pi, against
    # the lattice's extent 4 along x_hat = (0, 1)
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path, band={"k_max": k_max, "count": 18})
    data = tmp_path / "data"
    _run("synth", "--config", path, "--out", data)
    capsys.readouterr()
    assert _run("image", "--config", path, "--data", data,
                "--out", tmp_path / "img") == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("warning:")]
    assert len(warnings) == warned
    if warned:
        assert "direction 1" in warnings[0] and "period" in warnings[0]


def test_image_3d_slices(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(
        tmp_path,
        trajectory={"variant": "line", "speed": 1.0, "axis": [0, 0, 1],
                    "offset": [0, 0, 0], "interval": [0.0, 1.0]},
        directions={"angles": [[PI / 8, PI / 2], [PI / 2, 0.0]]},
        grid={"bounds": [[-2, 2]] * 3, "resolution": [17, 17, 17],
              "slices": [{"axis": 0, "offset": 0.0},
                         {"axis": 2, "offset": -2.0}]})
    data = tmp_path / "data"
    _run("synth", "--config", path, "--out", data)
    out = tmp_path / "img"
    assert _run("image", "--config", path, "--data", data, "--out", out) == 0
    assert "kept 2 of 2" in capsys.readouterr().out
    cfg = cli.load_config(path)
    spectra = [m.f_sharp_spectrum(m.build_operator(m.read_farfield_csv(
        data / f"farfield_{j}.csv", d, cfg.band)), cfg.mode)
        for j, d in enumerate(cfg.directions, start=1)]
    planes = [m.slice_grid(cfg.grid, s)[:2] for s in cfg.slices]
    sums = [[m.picard_sums_grid(spec, d, pts, cfg.interval, cfg.band)
             for _, pts in planes]
            for spec, d in zip(spectra, cfg.directions)]
    # direction 1 meets the threshold on slice 1 only: a filter decided per
    # plane would drop it from slice 2's combined field
    assert sums[0][0].min() <= cfg.threshold < sums[0][1].min()
    for p, (g2, _) in enumerate(planes, start=1):
        for j in (1, 2):
            fld = m.read_field_csv(out / f"field_{j}_slice{p}.csv", g2)
            assert np.array_equal(fld.values, 1.0 / sums[j - 1][p - 1])
        fld = m.read_field_csv(out / f"field_multi_slice{p}.csv", g2)
        assert np.array_equal(fld.values,
                              1.0 / (sums[0][p - 1] + sums[1][p - 1]))


def test_image_paper_mode_flag(tmp_path, monkeypatch):
    # the config's mode chooses the spectral construction
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path)
    data = tmp_path / "data"
    _run("synth", "--config", path, "--out", data)
    (tmp_path / "paper").mkdir()
    paper = _base_config(tmp_path / "paper", mode="paper")
    out_r, out_p = tmp_path / "imgr", tmp_path / "imgp"
    assert _run("image", "--config", path, "--data", data, "--out", out_r) == 0
    assert _run("image", "--config", paper, "--data", data,
                "--out", out_p) == 0
    assert (out_r / "field_1.csv").read_bytes() != \
        (out_p / "field_1.csv").read_bytes()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_perfect_field(tmp_path):
    path = _base_config(tmp_path)
    cfg = cli.load_config(path)
    line = cfg.trajectory
    d = cfg.directions[0]
    mask = m.mask_strip(cfg.grid, m.strip(line, d))
    fld = m.ScalarField(cfg.grid, np.where(mask, 1.0, 1e-9))
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, fld)
    out = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field", field_path,
                "--out", out) == 0
    rep = json.loads(out.read_text())
    entry = rep["directions"][0]
    assert entry["observable"]
    assert entry["ratio"] >= 1e6
    assert entry["argmax_in_mask"] is True
    assert rep["theta_domain"]["ratio"] >= 1e6


def test_compare_wide_arc_strip_anchor(tmp_path):
    path = _base_config(
        tmp_path,
        trajectory={"variant": "arc", "center": [0.0, 0.0],
                    "radius": 2 * math.sqrt(2), "orientation": -1,
                    "interval": [PI / 4, 3 * PI / 4]},
        directions={"angles": [0.0]},
        grid={"bounds": [[-3, 3], [-3, 3]], "resolution": [41, 41]})
    cfg = cli.load_config(path)
    fld = m.ScalarField(cfg.grid, np.ones(cfg.grid.size))
    fld.values[0] = 2.0
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, fld)
    out = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field", field_path,
                "--out", out) == 0
    entry = json.loads(out.read_text())["directions"][0]
    assert entry["strip_lo"] == pytest.approx(-0.4292, abs=1e-4)
    assert entry["strip_hi"] == pytest.approx(0.4292, abs=1e-4)


def test_compare_non_observable_reports_empty_strip(tmp_path):
    path = _base_config(tmp_path, directions={"angles": [5 * PI / 4]})
    cfg = cli.load_config(path)
    fld = m.ScalarField(cfg.grid, np.ones(cfg.grid.size))
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, fld)
    out = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field", field_path,
                "--out", out) == 0
    rep = json.loads(out.read_text())
    entry = rep["directions"][0]
    assert entry["observable"] is False
    assert entry["strip_empty"] is True
    assert "ratio" not in entry
    assert rep["theta_domain"] is None


def test_compare_grid_mismatch(tmp_path):
    path = _base_config(tmp_path)
    other = m.make_grid([(-2, 2), (0, 4)], (21, 21))
    fld = m.ScalarField(other, np.ones(other.size))
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, fld)
    assert _run("compare", "--config", path, "--field", field_path) == 2


def test_compare_rejects_nan_field(tmp_path, capsys):
    path = _base_config(tmp_path)
    cfg = cli.load_config(path)
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, m.ScalarField(cfg.grid,
                                                np.ones(cfg.grid.size)))
    lines = field_path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].rsplit(",", 1)[0] + ",nan\n"
    field_path.write_text("".join(lines))
    assert _run("compare", "--config", path, "--field", field_path) == 2
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("margin, angles", [
    ("inf", [PI / 2]), ("nan", [PI / 2]), ("-0.1", [PI / 2]),
    # no strip is scored, so no metric would see the margin
    ("nan", [3 * PI / 2]), ("-5", [3 * PI / 2]),
], ids=["inf", "nan", "-0.1", "non_observable_nan", "non_observable_-5"])
def test_compare_rejects_bad_margin(tmp_path, capsys, margin, angles):
    path = _base_config(tmp_path, directions={"angles": angles})
    cfg = cli.load_config(path)
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, m.ScalarField(cfg.grid,
                                                np.ones(cfg.grid.size)))
    report = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field", field_path,
                "--margin", margin, "--out", report) == 2
    assert "--margin" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command", ["classify", "synth"])
def test_cli_reports_unusable_paths(tmp_path, capsys, command):
    # a config that does not exist, and an output directory that is a file
    assert _run(command, "--config", tmp_path / "nowhere.json") == 2
    assert "nowhere.json" in capsys.readouterr().err
    (tmp_path / "taken").write_text("")
    path = _base_config(tmp_path)
    assert _run(command, "--config", path, "--out", tmp_path / "taken") == 2
    assert "taken" in capsys.readouterr().err


def test_compare_missing_field_file(tmp_path, capsys):
    path = _base_config(tmp_path)
    report = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field",
                tmp_path / "field_multi.csv", "--out", report) == 2
    assert "field_multi.csv" in capsys.readouterr().err
    assert not report.exists()


def test_compare_theta_domain_is_strip_conjunction(tmp_path):
    # three observable directions and a non-observable one (empty strip)
    path = _base_config(tmp_path, directions={
        "angles": [PI / 3, PI / 2, 2 * PI / 3, 5 * PI / 4]})
    cfg = cli.load_config(path)
    fld = m.ScalarField(cfg.grid,
                        np.random.default_rng(3).uniform(size=cfg.grid.size))
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, fld)
    out = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field", field_path,
                "--out", out) == 0
    want = np.ones(cfg.grid.size, dtype=bool)
    for d in cfg.directions[:3]:
        want &= m.mask_strip(cfg.grid, m.strip(cfg.trajectory, d))
    assert want.any() and not want.all()
    expected = {"n_strips": 3,
                "argmax_in_mask": bool(want[np.argmax(fld.values)]),
                **m.contrast_metric(fld, want, 0.25)}
    assert json.loads(out.read_text())["theta_domain"] == expected


def test_compare_writes_non_finite_metrics_as_null(tmp_path):
    # the field is 1 on direction 1's strip (the line x = 0) and 0
    # elsewhere, so every outside median is 0 and every ratio infinite
    root = Path(__file__).resolve().parents[1] / "configs"
    raw = json.loads((root / "line_slow_observable.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    cfg = cli.load_config(path)
    mask = m.mask_strip(cfg.grid, m.strip(cfg.trajectory, cfg.directions[0]))
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path, m.ScalarField(cfg.grid, mask.astype(float)))
    out = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field", field_path,
                "--out", out) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rep = json.loads(out.read_text(), parse_constant=refuse)
    scored = [e for e in rep["directions"] + [rep["theta_domain"]]
              if "ratio" in e]
    assert len(scored) == 7
    for entry in scored:
        assert entry["ratio"] is None
        assert entry["outside_median"] == 0.0


def test_compare_refuses_3d_config(tmp_path, capsys):
    path = _base_config(tmp_path, **_config3d([{"axis": 0, "offset": 0.0}]))
    cfg = cli.load_config(path)
    g2, _, _ = m.slice_grid(cfg.grid, cfg.slices[0])
    field_path = tmp_path / "field_1_slice1.csv"
    m.write_field_csv(field_path, m.ScalarField(g2, np.ones(g2.size)))
    report = tmp_path / "metrics.json"
    assert _run("compare", "--config", path, "--field", field_path,
                "--out", report) == 2
    assert "compare scores 2D grids only" in capsys.readouterr().err
    assert not report.exists()


_FIELD_CORRUPTIONS = {
    "missing": None,
    "empty": "",
    "header only": "x1,x2,w\n",
    "row dropped": lambda rows: rows[:-1],
    "column dropped": lambda rows: [r.rsplit(",", 1)[0] for r in rows],
    "nan": lambda rows: rows[:5] + [rows[5].rsplit(",", 1)[0] + ",nan"]
    + rows[6:],
    "text": lambda rows: rows[:5] + ["x,y,z"] + rows[6:],
    "shifted x1": lambda rows: rows[:5] + [
        "{:.17g},{}".format(float(rows[5].split(",", 1)[0]) + 0.05,
                            rows[5].split(",", 1)[1])] + rows[6:],
    "not utf-8": b"x1,x2,w\n\xff\xfe,0,1\n",
}


@pytest.mark.parametrize("corruption", sorted(_FIELD_CORRUPTIONS))
def test_compare_contract_on_corrupt_field(tmp_path, corruption):
    path = _base_config(tmp_path)
    cfg = cli.load_config(path)
    root = tmp_path / "run"
    root.mkdir()
    field_path = root / "field.csv"
    m.write_field_csv(field_path, m.ScalarField(
        cfg.grid, np.random.default_rng(4).uniform(size=cfg.grid.size)))
    _corrupt(field_path, _FIELD_CORRUPTIONS[corruption])
    # exit 2 with a message, and no metrics file next to the field
    assert _assert_contract(root, "compare", "--config", path, "--field",
                            field_path, "--out", root / "metrics.json") == 2


@pytest.mark.parametrize("kind, header", [
    ("farfield", b"x1,x2,w\n"), ("farfield", b"k,re,in\n"),
    ("farfield", b"anything\n"), ("field", b"k,re,im\n"),
    ("field", b"x1,x2,x3,w\n"), ("field", b"x1,x2,v\n"),
])
def test_readers_refuse_a_wrong_header(tmp_path, monkeypatch, kind, header):
    # a written file reads back; with its header swapped for another
    # format's, a wrong dimension's or a misspelt one, the reader raises
    # and the command that reads it exits 2 and writes nothing
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path)
    cfg = cli.load_config(path)
    root = tmp_path / "run"
    if kind == "farfield":
        data = root / "data"
        assert _run("synth", "--config", path, "--out", data) == 0
        target = data / "farfield_1.csv"

        def read():
            return m.read_farfield_csv(target, cfg.directions[0], cfg.band)

        argv = ["image", "--config", path, "--data", data,
                "--out", root / "img"]
    else:
        root.mkdir()
        target = root / "field.csv"
        m.write_field_csv(target, m.ScalarField(
            cfg.grid, np.random.default_rng(5).uniform(size=cfg.grid.size)))

        def read():
            return m.read_field_csv(target, cfg.grid)

        argv = ["compare", "--config", path, "--field", target,
                "--out", root / "metrics.json"]
    read()
    target.write_bytes(header + target.read_bytes().partition(b"\n")[2])
    with pytest.raises(ValueError, match="header"):
        read()
    assert _assert_contract(root, *argv) == 2


@pytest.mark.parametrize("command", ["compare", "image"])
def test_empty_csv_refusal_is_the_only_stderr_line(tmp_path, command):
    # a header-only field CSV and an empty far-field CSV are refused with
    # the CLI's one error line; numpy's "input contained no data" warning
    # (with its source path) must not reach stderr as well
    path = _base_config(tmp_path)
    if command == "compare":
        target = tmp_path / "field.csv"
        target.write_text("x1,x2,w\n")
        argv = ["--field", target, "--out", tmp_path / "metrics.json"]
    else:
        data = tmp_path / "data"
        data.mkdir()
        (data / "farfield_1.csv").write_text("")
        argv = ["--data", data, "--out", tmp_path / "image"]
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(m.__file__).parent.parent), env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-m", "msimg.cli", command,
                          "--config", str(path), *map(str, argv)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def test_snapped_slice_is_one_warning_line(tmp_path, monkeypatch):
    # an off-lattice slice offset is snapped; stderr carries the CLI's one
    # warning line, not Python's UserWarning with its source path and line
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    path = _base_config(tmp_path,
                        **_config3d([{"axis": 0, "offset": 0.01}]))
    data = tmp_path / "data"
    assert _run("synth", "--config", path, "--out", data) == 0
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(m.__file__).parent.parent), env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-m", "msimg.cli", "image",
                          "--config", str(path), "--data", str(data),
                          "--out", str(tmp_path / "img")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    lines = [ln for ln in res.stderr.splitlines() if not ln.startswith("[")]
    assert lines == ["warning: slice offset 0.01 snapped to lattice plane "
                     "0.0 (slice 1)"], res.stderr


# ---------------------------------------------------------------------------
# shipped configs
# ---------------------------------------------------------------------------

def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in root.glob("*.json"))
    assert len(names) >= 8
    for name in names:
        cfg = cli.load_config(root / name)
        assert cfg.band.n == 18
        assert cfg.band.k_max == pytest.approx(3 * PI)


# ---------------------------------------------------------------------------
# package import
# ---------------------------------------------------------------------------

def test_import_does_not_load_scipy(tmp_path):
    # numpy is the only runtime dependency: a whole compare run, margin
    # exclusion included, must not import scipy
    path = _base_config(tmp_path)
    cfg = cli.load_config(path)
    mask = m.mask_strip(cfg.grid, m.strip(cfg.trajectory, cfg.directions[0]))
    field_path = tmp_path / "field.csv"
    m.write_field_csv(field_path,
                      m.ScalarField(cfg.grid, np.where(mask, 1.0, 1e-9)))
    report = tmp_path / "metrics.json"
    code = ("import sys, msimg.cli; print('scipy' in sys.modules); "
            "rc = msimg.cli.main(sys.argv[1:]); "
            "print(rc, 'scipy' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(m.__file__).parent.parent), env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-c", code, "compare", "--config",
                          str(path), "--field", str(field_path), "--out",
                          str(report)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["False", "0 False"]
    assert json.loads(report.read_text())["directions"][0]["ratio"] >= 1e6


def test_import_loads_no_polynomial_or_thread_pool():
    # start-up cost of every CLI process: the quadrature rule and the
    # thread pool are imported on first use only
    code = ("import sys, msimg.cli; print([name for name in "
            "('numpy.polynomial', 'concurrent.futures') "
            "if name in sys.modules])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(m.__file__).parent.parent), env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# size guards
# ---------------------------------------------------------------------------

_MAX_COUNT = math.isqrt(cli.MAX_OPERATOR_BYTES // 16)
_MAX_SIDE_2D = math.isqrt(cli.MAX_LATTICE_BYTES // 16)
_MAX_SIDE_3D = int((cli.MAX_LATTICE_BYTES // 24) ** (1 / 3))


@pytest.mark.parametrize("overrides, field", [
    ({"band": {"k_max": 3 * PI, "count": _MAX_COUNT + 1}}, "band.count"),
    ({"grid": {"bounds": [[-2, 2], [0, 4]],
               "resolution": [_MAX_SIDE_2D + 1, _MAX_SIDE_2D]}},
     "grid.resolution"),
    ({**_config3d([{"axis": 0, "offset": 0.0}]),
      "grid": {"bounds": [[-2, 2]] * 3, "resolution": [_MAX_SIDE_3D + 1] * 3,
               "slices": [{"axis": 0, "offset": 0.0}]}}, "grid.resolution"),
])
def test_config_size_guards(tmp_path, capsys, monkeypatch, overrides, field):
    # just past the bound: exit 2 naming the field and the bound, before
    # the test-vector weights or any lattice array is computed
    def refuse(*args):
        raise AssertionError("allocated past the size guard")

    if field == "band.count":
        monkeypatch.setattr(m.forward, "band_weights", refuse)
    monkeypatch.setattr(m.SearchGrid, "axes", refuse)
    monkeypatch.setattr(m.SearchGrid, "points", refuse)
    path = _base_config(tmp_path, **overrides)
    assert _run("classify", "--config", path) == 2
    err = capsys.readouterr().err
    assert field in err
    bound = (cli.MAX_OPERATOR_BYTES if field == "band.count"
             else cli.MAX_LATTICE_BYTES)
    assert f"bound of {bound} bytes" in err


def test_config_size_guards_admit_the_bounds(tmp_path):
    # at the bound itself the config parses; nothing large is allocated
    # because parsing builds no lattice and only length-N weights
    path = _base_config(tmp_path,
                        band={"k_max": 3 * PI, "count": _MAX_COUNT},
                        grid={"bounds": [[-2, 2], [0, 4]],
                              "resolution": [_MAX_SIDE_2D, _MAX_SIDE_2D]})
    cfg = cli.load_config(path)
    assert cfg.band.n == _MAX_COUNT
    assert cfg.grid.resolution == (_MAX_SIDE_2D, _MAX_SIDE_2D)
    assert 8 * 3 * _MAX_SIDE_3D ** 3 <= cli.MAX_LATTICE_BYTES


def test_polyline_vertex_count_is_not_size_guarded(tmp_path):
    # the far field of a polyline holds one complex per segment and
    # wavenumber: 6,999 segments x 18 wavenumbers is 2 MB, far inside the
    # bound of the size guard
    ts = np.linspace(0.0, 2.0, 7000)
    pts = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    path = _base_config(tmp_path, trajectory={
        "variant": "piecewise", "times": ts.tolist(), "points": pts.tolist()})
    assert cli.load_config(path).trajectory.times.shape == (7000,)


def _arc(radius: float) -> dict:
    return {"variant": "arc", "center": [0.0, 0.0], "radius": radius,
            "interval": [0.0, 1.0]}


def _polyline(vertices: int) -> dict:
    return {"variant": "piecewise",
            "times": np.linspace(0.0, 1.0, vertices).tolist(),
            "points": np.zeros((vertices, 2)).tolist()}


@pytest.mark.parametrize("variant, field", [("arc", "band.k_max"),
                                            ("piecewise", "trajectory.points")])
def test_far_field_size_guard(tmp_path, capsys, monkeypatch, variant, field):
    # 16 bytes per wavenumber and term: at the bound the config parses,
    # one term count past it synth exits 2 naming the field and the bound
    # before any far-field array is built
    def refuse(*args):
        raise AssertionError("far field built past the size guard")

    monkeypatch.setattr(m.forward, "far_field_value", refuse)
    monkeypatch.setattr(m.forward, "_bessel_j", refuse)
    band = {"k_max": 3 * PI, "count": 18}
    limit = cli.MAX_FAR_FIELD_BYTES // (16 * band["count"])
    if variant == "arc":
        # the largest radius whose 2 n + 1 terms fit, by bisection
        lo, hi = 1.0, 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            arc = cli._build_trajectory(_arc(mid))
            if m.forward.far_field_terms(arc, band["k_max"]) <= limit:
                lo = mid
            else:
                hi = mid
        fits, past = _arc(lo), _arc(float(np.nextafter(lo, math.inf)))
    else:
        fits, past = _polyline(limit + 1), _polyline(limit + 2)
    for name, trajectory in (("fits", fits), ("past", past)):
        (tmp_path / name).mkdir()
        _base_config(tmp_path / name, trajectory=trajectory, band=band)
    traj = cli.load_config(tmp_path / "fits" / "config.json").trajectory
    assert limit - 1 <= m.forward.far_field_terms(traj, band["k_max"]) <= limit
    assert _run("synth", "--config", tmp_path / "past" / "config.json",
                "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert field in err and f"bound of {cli.MAX_FAR_FIELD_BYTES} bytes" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CLI contract: every input ends in exit code 0, 2 or 3
# ---------------------------------------------------------------------------

# small runs of each trajectory variant, with every optional section set
_FUZZ_CONFIGS = {
    "line": {"trajectory": {"variant": "line", "speed": 1.0, "angle": PI / 2,
                            "offset": [0.0, 0.0], "interval": [1.0, 3.0]},
             "band": {"k_max": 3 * PI, "count": 6},
             "directions": {"angles": [PI / 2, 0.0]},
             "mode": "rigorous",
             "grid": {"bounds": [[-2, 2], [0, 4]], "resolution": [9, 9]},
             "noise": {"delta": 0.01, "seed": 3},
             "threshold": 3500.0, "output_dir": "out"},
    "arc": {"trajectory": {"variant": "arc", "center": [0.0, 0.0],
                           "radius": 1.0, "phase": 0.5, "orientation": -1,
                           "interval": [0.0, 2.0]},
            "band": {"k_max": 3 * PI, "count": 6},
            "directions": {"count": 3},
            "grid": {"bounds": [[-2, 2], [-2, 2]], "resolution": [9, 9]}},
    "piecewise": {"trajectory": {"variant": "piecewise",
                                 "times": [0.0, 1.0, 2.0],
                                 "points": [[0.0, 0.0], [1.0, 1.0],
                                            [2.0, 0.0]]},
                  "band": {"k_max": 3 * PI, "count": 6},
                  "directions": {"angles": [0.0]},
                  "grid": {"bounds": [[-1, 3], [-1, 2]],
                           "resolution": [9, 9]}},
    "line3d": {"trajectory": {"variant": "line", "speed": 1.0,
                              "axis": [0.0, 0.0, 1.0],
                              "offset": [0.0, 0.0, 0.0],
                              "interval": [0.0, 1.0]},
               "band": {"k_max": 3 * PI, "count": 6},
               "directions": {"angles": [[0.4, 0.8]]},
               "grid": {"bounds": [[-2, 2]] * 3, "resolution": [5, 5, 5],
                        "slices": [{"axis": 0, "offset": 0.0}]}},
}

_DROP, _FRACTION, _NEGATE = "drop key", "add 0.5", "negate"
_MUTATIONS = [_DROP, _FRACTION, _NEGATE, "x", [1.0], {}, None, True,
              math.nan, math.inf, -math.inf, 0.5, 1e9, 1e300, 10 ** 400]


def _config_paths(node, path=()):
    """The key path of every value inside a config, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _config_paths(value, path + (key,))


@st.composite
def _mutated_configs(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_CONFIGS)))
    cfg = json.loads(json.dumps(_FUZZ_CONFIGS[name]))
    *where, key = draw(st.sampled_from(list(_config_paths(cfg))))
    parent = cfg
    for k in where:
        parent = parent[k]
    how = draw(st.sampled_from(_MUTATIONS))
    old = parent[key]
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    if how is _DROP:
        del parent[key]
    elif how is _FRACTION:
        parent[key] = old + 0.5 if number else 0.5
    elif how is _NEGATE:
        parent[key] = -old if number else -7
    else:
        parent[key] = how
    return name, cfg


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    """farfield_<j>.csv of each unmutated fuzz config, by config name."""
    root = tmp_path_factory.mktemp("fuzz_data")
    for name, cfg in _FUZZ_CONFIGS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert _run("synth", "--config", path, "--out", root / name) == 0
    return root


def _assert_contract(root: Path, *argv):
    """main(argv) exits 0, 2 or 3; a failure says why and writes nothing
    under `root`."""
    before = sorted(root.rglob("*"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = _run(*argv)
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().strip()
        assert sorted(root.rglob("*")) == before
    return code


def _corrupt(path: Path, how) -> None:
    """Delete `path` (how None), overwrite it with bytes or text, or map
    its lines through `how`."""
    if how is None:
        path.unlink()
    elif isinstance(how, bytes):
        path.write_bytes(how)
    elif isinstance(how, str):
        path.write_text(how)
    else:
        rows = path.read_text().splitlines()
        path.write_text("\n".join(how(rows)) + "\n")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_mutated_configs(),
       command=st.sampled_from(["classify", "synth", "image"]))
def test_cli_contract_on_mutated_configs(fuzz_data, case, command):
    # a dropped key, a wrong type, a non-finite, fractional, negative or
    # huge number anywhere in the config; image reads the data of the
    # unmutated config
    name, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "config.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", path, "--out", root / "out"]
        if command == "image":
            argv += ["--data", fuzz_data / name]
        _assert_contract(root, *argv)


_CORRUPTIONS = {
    "missing": None,
    "empty": "",
    "header only": "k,re,im\n",
    "row dropped": lambda rows: rows[:-1],
    "row repeated": lambda rows: rows + rows[-1:],
    "column dropped": lambda rows: [r.rsplit(",", 1)[0] for r in rows],
    "column added": lambda rows: [r + ",0" for r in rows],
    "nan": lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",nan"]
    + rows[3:],
    "overflow": lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",1e999"]
    + rows[3:],
    "huge": lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",1e300"]
    + rows[3:],
    "text": lambda rows: rows[:2] + ["x,y,z"] + rows[3:],
    "wrong k": lambda rows: rows[:1] + ["9" + rows[1]] + rows[2:],
    "not utf-8": b"\xff\xfe\x00k,re,im\n",
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_FUZZ_CONFIGS)),
       corruption=st.sampled_from(sorted(_CORRUPTIONS)), j=st.integers(1, 3))
def test_cli_contract_on_corrupt_data(fuzz_data, name, corruption, j):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data"
        shutil.copytree(fuzz_data / name, data)
        count = len(list(data.glob("farfield_[0-9].csv")))
        _corrupt(data / f"farfield_{min(j, count)}.csv",
                 _CORRUPTIONS[corruption])
        _assert_contract(root, "image", "--config", fuzz_data / f"{name}.json",
                         "--data", data, "--out", root / "out")
