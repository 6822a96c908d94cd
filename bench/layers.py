"""Traced run: workload overhead plus per-layer numbers for every module.

`traced_run` runs passes of the workload for --seconds, alternating
untraced passes and passes with the span recorder installed; the ratio of
their best passes (each operation's fastest run, summed) is
`trace.overhead_pct`.  It then runs `probe`, a fixed
set of calls into each msimg layer on the shipped arc.json problem (201^2
lattice, 6 directions, N = 18) and seeded orbits, with the recorder still
installed; the per-layer metrics are read off the probe's spans.  The
probe's sizes are fixed, so its numbers compare across workloads and
commits.  All spans, the workload's included, are written to
trace-<workload>-<seed>.json in the output directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import workloads as wlmod
from msimg import cli, forward, indicator, spectral, trajectory
from spans import Recorder, descendants, self_time

IMPORT_REPEATS = 3
PROBE_DIRECTIONS = 30       # classify/strip/hull calls per orbit variant
PROBE_DIVISIONS = 5         # division_points calls per orbit variant
PROBE_POINTS = 200          # indicator_single / indicator_multi calls
PROBE_REPEATS = 5           # spectral and theta_domain repeats


def _counters():
    def far_field(rec, args, out):
        rec.count("forward.far_field_value_calls")

    def picard(rec, args, out):
        rec.count("indicator.picard_calls")
        rec.count("indicator.picard_exp_count", args[0].n * len(args[2]))

    def dfilter(rec, args, out):
        rec.count("indicator.directions_evaluated", len(args[0]))
        rec.count("indicator.directions_kept", len(out))

    return {"forward.far_field_value": far_field,
            "indicator.picard_sums_grid": picard,
            "indicator.direction_filter": dfilter}


def traced_run(wl, args, tally, tmp):
    rec = Recorder(f"{wl.name}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    counters = _counters()
    plain, traced = wlmod.Measure(), wlmod.Measure()
    # untraced and traced passes alternate, so both see the same machine
    # phases; a new pair starts only if one as long as the last still fits
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            wl.one_pass(plain, tally)
            rec.install(counters)
            try:
                with rec.span(f"workload.{wl.name}"):
                    wl.one_pass(traced, tally, rec)
            finally:
                rec.uninstall()
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
        rec.install(counters)
        try:
            with rec.span("probe"):
                metrics = probe(rec, tally, tmp, args.seed)
        finally:
            rec.uninstall()
    finally:
        rec.dump(os.path.join(args.out, f"trace-{wl.name}-{args.seed}.json"))
    overhead = 100.0 * (wlmod.Measure.best(traced.ops)
                        / wlmod.Measure.best(plain.ops) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["indicator.oracle_max_rel_err"] = (tally.max_rel_err, "ratio")
    samples = {"untraced_passes": len(plain.passes),
               "traced_passes": len(traced.passes),
               "spans": len(rec.spans)}
    return metrics, samples


# ---------------------------------------------------------------------------
# Span queries
# ---------------------------------------------------------------------------

def _under(rec, root, name):
    return [s for s in descendants(rec.spans, root) if s.name == name]


def _median_ms(spans, scale=1e3):
    return statistics.median(s.duration for s in spans) * scale


def _subtree_counts(rec, root) -> dict:
    total: dict = {}
    for s in [root, *descendants(rec.spans, root)]:
        for k, v in (s.counts or {}).items():
            total[k] = total.get(k, 0) + v
    return total


def _children(rec, span):
    return [s for s in rec.spans if s.parent == span.id]


# ---------------------------------------------------------------------------
# Probe
# ---------------------------------------------------------------------------

def import_times() -> dict:
    """Import time of msimg, scipy.linalg and scipy.ndimage, each in a
    fresh interpreter (median of IMPORT_REPEATS)."""
    out = {}
    for metric, module in (("msimg.import_s", "msimg"),
                           ("msimg.import_scipy_linalg_s", "scipy.linalg"),
                           ("msimg.import_scipy_ndimage_s", "scipy.ndimage")):
        code = ("import time; t = time.perf_counter(); import " + module
                + "; print(time.perf_counter() - t)")
        vals = []
        for _ in range(IMPORT_REPEATS):
            r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, timeout=60, check=True)
            vals.append(float(r.stdout.strip().splitlines()[-1]))
        out[metric] = (statistics.median(vals), "s")
    return out


def probe(rec, tally, tmp, seed) -> dict:
    m = import_times()
    rng = np.random.default_rng(seed)

    # -- cli: the four commands on arc.json in process, then image on two
    #    threads; output checks as in cli_pipeline
    arc_path = wlmod.CONFIGS / "arc.json"
    c = cli.load_config(arc_path)
    planes = [(c.grid, "")]
    out1 = os.path.join(tmp, "probe_cli")
    out2 = os.path.join(tmp, "probe_cli_threads2")
    os.makedirs(out1)
    os.makedirs(out2)
    fields: dict = {}
    with rec.span("probe.cli") as root:
        for kind, argv in wlmod.cli_commands(arc_path, c, Path(out1), fields):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            tally.record(oracles.check_cli_output(
                kind, c, planes, Path(out1), code, buf.getvalue(), fields,
                tally), f"probe cli {kind}")
        t2_fields: dict = {}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["image", "--config", str(arc_path), "--data", out1,
                             "--out", out2, "--threads", "2"])
        tally.record(oracles.check_cli_output(
            "image", c, planes, Path(out2), code, buf.getvalue(), t2_fields,
            tally), "probe cli image --threads 2")
    cmd = {}
    for s in descendants(rec.spans, root):
        if s.name.startswith("cli.cmd_"):
            cmd.setdefault(s.name, []).append(s)
    image1, image2 = cmd["cli.cmd_image"]
    synth, compare = cmd["cli.cmd_synth"][0], cmd["cli.cmd_compare"][0]
    m["cli.load_config_ms"] = (_median_ms(_under(rec, root, "cli.load_config")), "ms")
    m["cli.cmd_synth_s"] = (synth.duration, "s")
    m["cli.cmd_classify_s"] = (cmd["cli.cmd_classify"][0].duration, "s")
    m["cli.cmd_image_s"] = (image1.duration, "s")
    m["cli.cmd_compare_s"] = (compare.duration, "s")
    m["cli.cmd_image_self_s"] = (self_time(image1, _children(rec, image1)), "s")
    m["cli.image_threads2_s"] = (image2.duration, "s")

    writes = _under(rec, image1, "imaging.write_field_csv")
    csv_bytes = sum(os.path.getsize(os.path.join(out1, f))
                    for f in os.listdir(out1)
                    if f.startswith("field_") and f.endswith(".csv"))
    m["imaging.write_field_csv_ms"] = (_median_ms(writes), "ms")
    m["imaging.field_csv_bytes"] = (csv_bytes, "bytes")
    m["imaging.field_csv_mb_per_s"] = (
        csv_bytes / 1e6 / sum(s.duration for s in writes), "MB/s")
    m["imaging.write_pgm_ms"] = (_median_ms(_under(rec, image1, "imaging.write_pgm")), "ms")
    m["imaging.read_field_csv_ms"] = (
        _median_ms(_under(rec, compare, "imaging.read_field_csv")), "ms")
    m["imaging.contrast_metric_ms"] = (
        _median_ms(_under(rec, compare, "imaging.contrast_metric")), "ms")
    m["imaging.mask_strip_ms"] = (_median_ms(_under(rec, compare, "imaging.mask_strip")), "ms")
    m["imaging.grid_points_ms"] = (_median_ms(_under(rec, root, "imaging.grid_points")), "ms")
    m["forward.write_farfield_csv_ms"] = (
        _median_ms(_under(rec, synth, "forward.write_farfield_csv")), "ms")
    m["forward.read_farfield_csv_ms"] = (
        _median_ms(_under(rec, image1, "forward.read_farfield_csv")), "ms")
    m["forward.far_field_value_calls"] = (
        _subtree_counts(rec, synth)["forward.far_field_value_calls"], "count")

    # -- forward and spectral on the arc.json directions
    dirs, traj, band = c.directions, c.trajectory, c.band
    with rec.span("probe.forward") as root:
        samples = []
        for _ in range(PROBE_REPEATS):
            samples = [forward.sample_band(traj, d, band) for d in dirs]
            for j, s in enumerate(samples):
                forward.add_noise(s, forward.NoiseSpec(0.01, seed + j))
    m["forward.sample_band_ms"] = (_median_ms(_under(rec, root, "forward.sample_band")), "ms")
    m["forward.add_noise_ms"] = (_median_ms(_under(rec, root, "forward.add_noise")), "ms")
    spectra = {}
    for mode in ("rigorous", "paper"):
        with rec.span(f"probe.spectral.{mode}") as root:
            for _ in range(PROBE_REPEATS):
                ops = [spectral.build_operator(s) for s in samples]
                spectra[mode] = [spectral.f_sharp_spectrum(op, mode) for op in ops]
        m[f"spectral.f_sharp_spectrum_us.{mode}"] = (
            _median_ms(_under(rec, root, "spectral.f_sharp_spectrum"), 1e6), "us")
        if mode == "rigorous":
            m["spectral.build_operator_us"] = (
                _median_ms(_under(rec, root, "spectral.build_operator"), 1e6), "us")

    # -- indicator: grid kernel per direction, then the filtered field
    pts = c.grid.points()
    sub = rng.choice(len(pts), wlmod.ORACLE_POINTS, replace=False)
    iv = traj.interval
    spec = spectra["rigorous"]
    with rec.span("probe.picard") as root:
        grids = []
        for s, d in zip(spec, dirs):
            grids.append(indicator.picard_sums_grid(s, d, pts, iv, band))
            want = oracles.textbook_picard(s, d.vec, pts[sub], iv, band)
            tally.record(bool(tally.rel(np.max(np.abs(grids[-1][sub] - want) / want))
                              <= oracles.PICARD_RTOL), "probe picard_sums_grid")
        values, kept = indicator.filtered_field_values(spec, dirs, pts, iv, band)
        tally.record(oracles.picard_values_ok(
            values[sub] if values is not None else None, kept, spec,
            [d.vec for d in dirs], pts[sub], iv, band,
            indicator.DEFAULT_THRESHOLD, tally), "probe filtered_field_values")
    kernel = _under(rec, root, "indicator.picard_sums_grid")
    counts = _subtree_counts(rec, root)
    per_call = counts["indicator.picard_exp_count"] / counts["indicator.picard_calls"]
    m["indicator.picard_sums_grid_ms"] = (_median_ms(kernel), "ms")
    m["indicator.picard_ns_per_point"] = (_median_ms(kernel, 1e9) / len(pts), "ns")
    m["indicator.picard_exp_count"] = (per_call, "count")
    # computed, not measured: the four complex128 (N, P) arrays the kernel
    # materialises (phase argument, exp, amplitude-scaled entries, V^H phi)
    m["indicator.picard_bytes_computed"] = (4 * 16 * per_call, "bytes")
    m["indicator.filtered_field_values_s"] = (
        _under(rec, root, "indicator.filtered_field_values")[0].duration, "s")
    m["indicator.kept_ratio"] = (counts["indicator.directions_kept"]
                                 / counts["indicator.directions_evaluated"], "ratio")

    # -- indicator: single points
    lo, hi = np.array(c.grid.bounds).T
    with rec.span("probe.points") as root:
        for i in range(PROBE_POINTS):
            y = rng.uniform(lo, hi)
            j = i % len(dirs)
            got = indicator.indicator_single(spec[j], dirs[j], y, iv, band)
            want = oracles.textbook_picard(spec[j], dirs[j].vec, y[None, :], iv, band)[0]
            tally.record(oracles.scalar_ok(got, 1.0 / want, tally), "probe indicator_single")
            got = indicator.indicator_multi(spec, dirs, y, iv, band)
            want = sum(oracles.textbook_picard(s, d.vec, y[None, :], iv, band)[0]
                       for s, d in zip(spec, dirs))
            tally.record(oracles.scalar_ok(got, 1.0 / want, tally), "probe indicator_multi")
        for _ in range(PROBE_POINTS):
            indicator.direction_filter(grids, indicator.DEFAULT_THRESHOLD)
    for name in ("indicator_single", "indicator_multi", "direction_filter"):
        m[f"indicator.{name}_us"] = (
            _median_ms(_under(rec, root, f"indicator.{name}"), 1e6), "us")

    # -- trajectory: every query kind on every orbit variant
    table = wlmod.orbit_table()
    for v in wlmod.VARIANTS:
        orbit = table[v][0]
        with rec.span(f"probe.trajectory.{v}") as root:
            for _ in range(PROBE_DIRECTIONS):
                d = wlmod.draw_classifiable(rng, orbit)
                tally.record(trajectory.classify(orbit, d)
                             == oracles.expected_class(orbit, d), f"probe classify {v}")
                tally.record(oracles.strip_ok(orbit, d, trajectory.strip(orbit, d)),
                             f"probe strip {v}")
                tally.record(oracles.hull_ok(orbit, d, trajectory.projection_hull(orbit, d)),
                             f"probe projection_hull {v}")
            for _ in range(PROBE_DIVISIONS):
                d = wlmod.draw_direction(rng, orbit.dim)
                tally.record(oracles.division_points_ok(
                    orbit, d, trajectory.division_points(orbit, d)),
                    f"probe division_points {v}")
        for name, unit, scale in (("classify", "us", 1e6), ("strip", "us", 1e6),
                                  ("projection_hull", "us", 1e6),
                                  ("division_points", "ms", 1e3)):
            m[f"trajectory.{name}_{unit}.{v}"] = (
                _median_ms(_under(rec, root, f"trajectory.{name}"), scale), unit)
    with rec.span("probe.theta_domain") as root:
        for _ in range(PROBE_REPEATS):
            dom = trajectory.theta_domain(traj, dirs)
            n_obs = sum(bool(oracles.expected_class(traj, d)) for d in dirs)
            tally.record(len(dom.strips) == n_obs, "probe theta_domain")
    m["trajectory.theta_domain_ms"] = (
        _median_ms(_under(rec, root, "trajectory.theta_domain")), "ms")
    return m
