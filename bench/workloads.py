"""Workload bodies of the msimg benchmark, run in a child process by run.py.

Usage: workloads.py --workload W --seed S --seconds T --trace 0|1 --out DIR
       [--setup-only]

Prints one JSON object as its last stdout line.  `first_op` is the
CLOCK_MONOTONIC time at which set-up ended and the first timed operation
began; run.py subtracts the spawn time from it to get set-up time.

Each workload is a closed loop with one client: the next operation starts
only after the previous one and its output check have finished.  Timings
cover the operation alone, never its check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracles
from msimg import cli, forward, imaging, indicator, spectral, trajectory
from msimg.trajectory import Direction, Sampled

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CONFIGS = ROOT / "configs"

# grid_sweep: lattice points per axis and directions per orbit set.  At
# 601^2 each (N, P) complex intermediate of the Picard kernel is ~104 MB;
# 4 directions keep a pass near 8 s, so a run holds two or three passes.
SWEEP_RES = 601
SWEEP_DIRS = 4
# point_queries: precomputed spectra per orbit for the indicator queries.
QUERY_DIRS = 6
QUERY_OPS = ("classify", "strip", "projection_hull", "division_points",
             "indicator_single", "indicator_multi")
VARIANTS = ("line", "arc", "piecewise", "sampled", "line3d")
# Picard-sum oracle: lattice points checked per grid evaluation.
ORACLE_POINTS = 64
CMD_TIMEOUT = 120


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Shared inputs
# ---------------------------------------------------------------------------

def orbit_table():
    """Orbit, 2D/3D lattice bounds and band per variant.

    line, arc, piecewise and line3d come from the shipped configs; the
    sampled orbit is a 41-row table of a smooth planar curve.
    """
    table = {}
    for variant, name in (("line", "line_fast"), ("arc", "arc"),
                          ("piecewise", "piecewise"), ("line3d", "line3d")):
        c = cli.load_config(CONFIGS / f"{name}.json")
        table[variant] = (c.trajectory, c.grid.bounds, c.band)
    ts = np.linspace(0.0, 2.0, 41)
    pts = np.stack([1.2 * np.cos(1.3 * ts), 0.8 * np.sin(2.1 * ts) + 0.3 * ts],
                   axis=1)
    table["sampled"] = (Sampled(ts, pts), ((-2.0, 2.0), (-2.0, 2.0)),
                        forward.FrequencyBand(3.0 * math.pi, 18))
    return table


def draw_direction(rng, dim: int):
    if dim == 2:
        return Direction.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))
    return Direction.from_angles(float(math.acos(rng.uniform(-1.0, 1.0))),
                                 float(rng.uniform(0.0, 2.0 * math.pi)))


def draw_classifiable(rng, traj):
    """A direction whose expected class is decided (not on an edge)."""
    while True:
        d = draw_direction(rng, traj.dim)
        if oracles.expected_class(traj, d) is not None:
            return d


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(seed, tmp) and one_pass(measure, tally, rec)
# over its fixed work list; `rec` is the Recorder of a traced run.
# ---------------------------------------------------------------------------

class Measure:
    """Operation latencies per work-list entry, grouped into passes.

    An entry's key names the same operation in every pass (a config and
    command, an orbit set, a variant and query kind); the inputs behind it
    may differ from pass to pass.
    """

    def __init__(self):
        self.ops: dict[str, list[float]] = {}    # latencies per entry
        self.image: dict[str, list[float]] = {}  # indicator-evaluation part
        self.short: list[float] = []             # latencies of short ops
        self.passes: list[float] = []            # wall time of each pass
        self.cur_pass = 0.0

    def op(self, key: str, dt: float, image_dt: float | None = None,
           short: bool = True):
        """Record one operation of `dt` s, `image_dt` s of it spent
        evaluating indicator fields."""
        self.ops.setdefault(key, []).append(dt)
        if image_dt is not None:
            self.image.setdefault(key, []).append(image_dt)
        if short:
            self.short.append(dt)
        self.cur_pass += dt

    def end_pass(self):
        self.passes.append(self.cur_pass)
        self.cur_pass = 0.0

    @staticmethod
    def best(times: dict) -> float:
        """A pass made of each entry's fastest run: the sum over entries
        of their minimum latency."""
        return sum(min(v) for v in times.values())


class CliPipeline:
    """synth -> classify -> image -> compare as `python -m msimg.cli`
    child processes, one at a time, over every config in configs/."""

    name = "cli_pipeline"

    def setup(self, seed, tmp):
        self.tmp = Path(tmp)
        self.configs = []
        for path in sorted(CONFIGS.glob("*.json")):
            c = cli.load_config(path)
            if c.grid.dim == 2:
                planes = [(c.grid, "")]
            else:
                planes = [(imaging.slice_grid(c.grid, s)[0], f"_slice{i}")
                          for i, s in enumerate(c.slices, start=1)]
            self.configs.append((path, c, planes))
        self.env = dict(os.environ, MSIMG_SEED=str(seed))

    def _run(self, key, argv, rec, measure, kind):
        if rec is None:
            cmd = [sys.executable, "-m", "msimg.cli", *argv]
        else:
            trace_out = self.tmp / "cmd_trace.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                   str(trace_out), rec.run_id, *argv]
        with (rec.span(f"op.{key}") if rec else contextlib.nullcontext()) as op:
            t0 = time.perf_counter()
            r = subprocess.run(cmd, env=self.env, capture_output=True,
                               timeout=CMD_TIMEOUT, check=False)
            dt = time.perf_counter() - t0
        is_image = kind == "image"
        measure.op(key, dt, image_dt=dt if is_image else None,
                   short=not is_image)
        if rec is not None:
            with open(trace_out, encoding="utf-8") as f:
                rec.extend(json.load(f), parent=op)
        return r

    def one_pass(self, measure, tally, rec=None):
        for path, c, planes in self.configs:
            out = self.tmp / path.stem
            out.mkdir(exist_ok=True)
            fields = {}
            for kind, argv in cli_commands(path, c, out, fields):
                r = self._run(f"{path.stem}.{kind}", argv, rec, measure,
                              kind)
                ok = oracles.check_cli_output(
                    kind, c, planes, out, r.returncode, r.stdout.decode(),
                    fields, tally)
                tally.record(ok, f"{path.stem}: {kind}")
                if not ok:
                    break
            shutil.rmtree(out)
        measure.end_pass()


def cli_commands(path, c, out, fields):
    """(kind, argv) of synth -> classify -> image -> compare for a config.

    Generated lazily: the compare field depends on what `image` wrote
    (`fields`, filled by check_cli_output).  compare scores a field on the
    config grid and `image` writes only 2D slices of a 3D grid, so 3D
    configs stop after image.
    """
    cfg, o = str(path), str(out)
    yield "synth", ["synth", "--config", cfg, "--out", o]
    yield "classify", ["classify", "--config", cfg, "--out", o]
    yield "image", ["image", "--config", cfg, "--data", o, "--out", o]
    if c.dim == 2:
        key = "multi" if "multi" in fields else "1"
        yield "compare", ["compare", "--config", cfg, "--field",
                          str(out / f"field_{key}.csv"),
                          "--out", str(out / "compare.json")]


class GridSweep:
    """Seeded direction sets through synthesis, F# eigensystems and the
    filtered multi-direction indicator on a fine lattice, in process."""

    name = "grid_sweep"
    # (orbit, mode); paper mode runs on one orbit only
    PLAN = (("line", "rigorous"), ("arc", "rigorous"), ("piecewise", "rigorous"),
            ("line3d", "rigorous"), ("arc", "paper"))

    def setup(self, seed, tmp):
        self.rng = np.random.default_rng(seed)
        self.orbits = orbit_table()
        self.points = {}
        for variant in {v for v, _ in self.PLAN}:
            traj, bounds, band = self.orbits[variant]
            a = np.linspace(bounds[0][0], bounds[0][1], SWEEP_RES)
            b = np.linspace(bounds[1][0], bounds[1][1], SWEEP_RES)
            g1, g2 = np.meshgrid(a, b, indexing="ij")
            cols = [g1.ravel(), g2.ravel()]
            if traj.dim == 3:   # the x1 = 0 plane of the 3D lattice
                cols = [np.zeros(g1.size), *cols]
            self.points[variant] = np.stack(cols, axis=1)

    def one_op(self, variant, mode, measure, tally):
        traj, _, band = self.orbits[variant]
        dirs = [draw_direction(self.rng, traj.dim) for _ in range(SWEEP_DIRS)]
        pts = self.points[variant]
        sub = self.rng.choice(len(pts), ORACLE_POINTS, replace=False)
        t0 = time.perf_counter()
        samples = [forward.sample_band(traj, d, band) for d in dirs]
        spectra = [spectral.f_sharp_spectrum(spectral.build_operator(s), mode)
                   for s in samples]
        t1 = time.perf_counter()
        values, kept = indicator.filtered_field_values(
            spectra, dirs, pts, traj.interval, band)
        t2 = time.perf_counter()
        measure.op(f"{variant}.{mode}", t2 - t0, image_dt=t2 - t1)
        ok = True
        if variant == "line":
            ok = all(oracles.farfield_line_ok(s, traj, tally) for s in samples)
        ok = ok and oracles.picard_values_ok(
            None if values is None else values[sub], kept, spectra,
            [d.vec for d in dirs], pts[sub], traj.interval, band,
            indicator.DEFAULT_THRESHOLD, tally)
        tally.record(ok, f"grid_sweep {variant}/{mode}")

    def one_pass(self, measure, tally, rec=None):
        for variant, mode in self.PLAN:
            if rec is None:
                self.one_op(variant, mode, measure, tally)
            else:
                with rec.span(f"op.{variant}.{mode}"):
                    self.one_op(variant, mode, measure, tally)
        measure.end_pass()

    def info(self, measure) -> dict:
        points = SWEEP_DIRS * sum(len(self.points[v]) for v, _ in self.PLAN)
        return {"sweep_points_per_s": points / Measure.best(measure.image)}


class PointQueries:
    """A seeded stream of single-direction / single-point library calls
    over every orbit variant, in process."""

    name = "point_queries"

    def setup(self, seed, tmp):
        self.rng = np.random.default_rng(seed)
        self.orbits = orbit_table()
        self.spectra = {}
        for v in VARIANTS:
            traj, _, band = self.orbits[v]
            dirs = [draw_direction(self.rng, traj.dim) for _ in range(QUERY_DIRS)]
            self.spectra[v] = (dirs, [spectral.f_sharp_spectrum(
                spectral.build_operator(forward.sample_band(traj, d, band)))
                for d in dirs])
        self.plan = [(v, op) for v in VARIANTS for op in QUERY_OPS]

    def query(self, variant, op, measure, tally):
        traj, bounds, band = self.orbits[variant]
        rng = self.rng
        if op.startswith("indicator"):
            dirs, spectra = self.spectra[variant]
            y = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            j = int(rng.integers(len(dirs)))
            t0 = time.perf_counter()
            if op == "indicator_single":
                got = indicator.indicator_single(spectra[j], dirs[j], y,
                                                 traj.interval, band)
            else:
                got = indicator.indicator_multi(spectra, dirs, y,
                                                traj.interval, band)
            dt = time.perf_counter() - t0
            use = [j] if op == "indicator_single" else range(len(dirs))
            want = 1.0 / sum(oracles.textbook_picard(
                spectra[i], dirs[i].vec, y[None, :], traj.interval, band)[0]
                for i in use)
            ok = oracles.scalar_ok(got, want, tally)
            measure.op(f"{variant}.{op}", dt, image_dt=dt)
        else:
            d = (draw_classifiable(rng, traj) if op in ("classify", "strip")
                 else draw_direction(rng, traj.dim))
            fn = getattr(trajectory, op)
            t0 = time.perf_counter()
            got = fn(traj, d)
            dt = time.perf_counter() - t0
            if op == "classify":
                ok = got == oracles.expected_class(traj, d)
            elif op == "strip":
                ok = oracles.strip_ok(traj, d, got)
            elif op == "projection_hull":
                ok = oracles.hull_ok(traj, d, got)
            else:
                ok = oracles.division_points_ok(traj, d, got)
            measure.op(f"{variant}.{op}", dt)
        tally.record(ok, f"point_queries {variant}/{op}")

    def one_pass(self, measure, tally, rec=None):
        for i in self.rng.permutation(len(self.plan)):
            variant, op = self.plan[i]
            if rec is None:
                self.query(variant, op, measure, tally)
            else:
                with rec.span(f"op.{variant}.{op}"):
                    self.query(variant, op, measure, tally)
        measure.end_pass()

    def info(self, measure) -> dict:
        return {"queries_per_s": len(measure.short) / sum(measure.passes)}


WORKLOADS = {w.name: w for w in (CliPipeline, GridSweep, PointQueries)}


def run_passes(wl, seconds, measure, tally, rec=None):
    """Whole passes for about `seconds`: another pass starts only if one as
    long as the last still fits, and at least one pass runs."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.one_pass(measure, tally, rec)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def end_to_end(measure: Measure) -> dict:
    """Gated metrics.  Interference from other tenants of the machine only
    ever slows an operation down, and comes in phases of seconds to
    minutes, so each operation's fastest run varies least from run to run;
    a pass and its indicator part are summed from those."""
    return {
        "pass_best_s": (Measure.best(measure.ops), "s"),
        "image_best_s": (Measure.best(measure.image), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def latency_info(wl, measure) -> dict:
    """Ungated figures, too noisy on a shared machine to gate on: the
    fastest whole pass, latency percentiles of the short operations, and
    workload rates."""
    pct = statistics.quantiles(measure.short, n=100, method="inclusive")
    info = {"pass_min_s": min(measure.passes)}
    info.update({f"op_p{q}_ms": 1e3 * pct[q - 1] for q in (50, 90, 99)})
    info.update(passes=len(measure.passes), ops=len(measure.short))
    if hasattr(wl, "info"):
        info.update(wl.info(measure))
    return info


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # SIGTERM from run.py unwinds normally: a running CLI child is killed
    # and waited for by subprocess.run, and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        wl = WORKLOADS[args.workload]()
        wl.setup(args.seed, tmp)
        first_op = monotonic()
        if args.setup_only:
            print(json.dumps({"first_op": first_op}))
            return 0
        tally = oracles.Tally()
        result = {"first_op": first_op}
        if not args.trace:
            measure = Measure()
            run_passes(wl, args.seconds, measure, tally)
            metrics = end_to_end(measure)
            samples = latency_info(wl, measure)
        else:
            import layers
            metrics, samples = layers.traced_run(wl, args, tally, tmp)
        rejected, controls, problems = oracles.negative_controls(tmp)
        result.update({
            "attempted": tally.attempted, "failed": tally.failed,
            "messages": tally.messages + problems,
            "negative_controls": {"rejected": rejected, "run": controls},
            "correct": tally.failed == 0 and not problems,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "samples": samples,
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
