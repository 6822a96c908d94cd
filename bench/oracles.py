"""Output checks for every benchmarked operation, computed independently.

None of these depend on the workload seed: each one compares an output with
a closed form, an exact evaluation or a textbook formula the benchmark
computes itself.  `negative_controls` feeds each check one deliberately
perturbed output and confirms that the check rejects it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from msimg import cli, forward, imaging, indicator, spectral, trajectory
from msimg.trajectory import Arc, Direction, Line, PiecewiseLinear

TWO_PI = 2.0 * math.pi
# Relative tolerance of the Picard and far-field comparisons.
PICARD_RTOL = 1e-6
FARFIELD_RTOL = 1e-8
GEOM_TOL = 1e-9
# Directions closer than this to an observability edge are not drawn.
EDGE_MARGIN = 1e-6


class Tally:
    """Attempted/failed operation counts plus the worst relative deviation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def rel(self, err: float) -> float:
        self.max_rel_err = max(self.max_rel_err, float(err))
        return err


# ---------------------------------------------------------------------------
# Far field and Picard sums
# ---------------------------------------------------------------------------

def farfield_line_ok(samples, line: Line, tally: Tally) -> bool:
    """`sample_band` on a 2D line against the analytic line far field."""
    band = samples.band
    ks = (np.arange(1, band.n + 1) - 0.5) * (band.k_max / band.n)
    want = np.array([forward.far_field_line_closed_form(
        line.speed, line.angle, line.offset, samples.direction,
        line.interval, k) for k in ks])
    err = tally.rel(np.max(np.abs(samples.values - want))
                    / np.max(np.abs(want)))
    return bool(err <= FARFIELD_RTOL)


def textbook_picard(spectrum, dvec, points, interval, band) -> np.ndarray:
    """sum_n |<phi(y), psi_n>|^2 / lambda_n from the exponential-difference
    form of the test vector, with the relative eigenvalue floor."""
    n = band.n
    tau = np.arange(1, n + 1) * (band.k_max / n)
    T = interval.t_max - interval.t_min
    amp = (1j / (T * tau)) * (np.exp(-1j * tau * interval.t_max)
                              - np.exp(-1j * tau * interval.t_min))
    proj = np.asarray(points, dtype=float) @ np.asarray(dvec, dtype=float)
    phi = amp[:, None] * np.exp(-1j * np.outer(tau, proj))     # (N, P)
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    top = max(float(lam.max()), 0.0)
    floor = 1e-14 * top if top > 0 else np.finfo(float).tiny
    lam = np.maximum(lam, floor)
    V = np.asarray(spectrum.eigenvectors)
    total = np.zeros(len(proj))
    for j in range(n):
        coef = np.conj(V[:, j]) @ phi
        total += np.abs(coef) ** 2 / lam[j]
    return total


def picard_values_ok(values, kept, spectra, dvecs, points, interval, band,
                     threshold, tally: Tally) -> bool:
    """Combined-field values at sample points against textbook sums.

    Dropped directions must also exceed the threshold at every sample point
    (their minimum over the whole lattice does).
    """
    sums = [textbook_picard(s, d, points, interval, band)
            for s, d in zip(spectra, dvecs)]
    for j in range(len(spectra)):
        if j not in kept and not np.all(sums[j] > threshold):
            return False
    if not kept:
        return values is None
    want = 1.0 / np.sum([sums[j] for j in kept], axis=0)
    err = tally.rel(np.max(np.abs(np.asarray(values) - want) / want))
    return bool(err <= PICARD_RTOL)


def scalar_ok(got: float, want: float, tally: Tally) -> bool:
    return bool(tally.rel(abs(got - want) / abs(want)) <= PICARD_RTOL)


# ---------------------------------------------------------------------------
# Observability geometry
# ---------------------------------------------------------------------------

def _angle_dist(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def lemma_set(traj):
    """Closed-form observable angle set for 2D lines and unit CCW arcs."""
    if isinstance(traj, Line) and traj.dim == 2:
        return trajectory.observable_set_line(traj.speed, traj.angle)
    if isinstance(traj, Arc) and traj.radius == 1.0 and traj.orientation == 1:
        return trajectory.observable_set_arc(traj.interval)
    return None


def exact_h_range(traj, dvec, with_time: bool = True):
    """Range of t + x.a(t) (or of x.a(t)) for orbits that are affine in t
    on each piece, from the endpoint and vertex values."""
    if isinstance(traj, PiecewiseLinear):
        ts, ps = traj.times, traj.points
    else:
        ts = np.array([traj.interval.t_min, traj.interval.t_max])
        ps = traj.positions(ts)
    vals = ps @ dvec + (ts if with_time else 0.0)
    return float(vals.min()), float(vals.max())


def dense_projection_range(traj, dvec, n: int = 200_001):
    ts = np.linspace(traj.interval.t_min, traj.interval.t_max, n)
    vals = traj.positions(ts) @ dvec
    return float(vals.min()), float(vals.max())


def expected_class(traj, d: Direction):
    """Observable or not, or None when the direction sits within
    EDGE_MARGIN of the boundary (callers draw another one)."""
    sets = lemma_set(traj)
    if sets is not None:
        if any(_angle_dist(d.theta, edge) < EDGE_MARGIN
               for iv in sets for edge in iv):
            return None
        return trajectory.angle_in_set(sets, d.theta)
    lo, hi = exact_h_range(traj, d.vec)
    width, T = hi - lo, traj.interval.duration
    if abs(width - T) < EDGE_MARGIN:
        return None
    return width >= T


def hull_ok(traj, d: Direction, hull) -> bool:
    lo, hi = hull
    if isinstance(traj, Arc):
        dlo, dhi = dense_projection_range(traj, d.vec)
        # dense samples lie inside the hull and miss its ends by < 1e-9
        return (lo <= dlo + GEOM_TOL and hi >= dhi - GEOM_TOL
                and dlo - lo < 1e-8 and hi - dhi < 1e-8)
    elo, ehi = exact_h_range(traj, d.vec, with_time=False)
    return abs(lo - elo) <= GEOM_TOL and abs(hi - ehi) <= GEOM_TOL


def strip_ok(traj, d: Direction, s) -> bool:
    """Strip inside the projection hull; exact bounds for affine pieces."""
    if s.empty:
        return expected_class(traj, d) is not True
    if isinstance(traj, Arc):
        hlo, hhi = dense_projection_range(traj, d.vec)
        return (expected_class(traj, d) is not False
                and s.lo >= hlo - GEOM_TOL and s.hi <= hhi + GEOM_TOL)
    hlo, hhi = exact_h_range(traj, d.vec, with_time=False)
    xlo, xhi = exact_h_range(traj, d.vec)
    iv = traj.interval
    return (s.lo >= hlo - GEOM_TOL and s.hi <= hhi + GEOM_TOL
            and abs(s.lo - (xlo - iv.t_min)) <= GEOM_TOL
            and abs(s.hi - (xhi - iv.t_max)) <= GEOM_TOL)


def expected_division_points(traj, d: Direction) -> list[float]:
    """Interior sign changes of h' = 1 + x.a'(t).

    Lines have constant h'; a unit-radius arc has h' = 1 - sin(u) >= 0,
    whose zeros are tangential and not division points; a polyline's h'
    is constant on each segment, so sign changes sit at vertices.
    """
    if not isinstance(traj, PiecewiseLinear):
        return []
    v = np.diff(traj.points, axis=0) / np.diff(traj.times)[:, None]
    s = 1.0 + v @ d.vec
    sign = np.where(s > 1e-10, 1, np.where(s < -1e-10, -1, 0))
    return [float(traj.times[i + 1]) for i in range(len(s) - 1)
            if sign[i] != sign[i + 1]]


def division_points_ok(traj, d: Direction, got) -> bool:
    want = expected_division_points(traj, d)
    return len(got) == len(want) and all(
        abs(a - b) <= 1e-8 for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def field_csv_ok(path, grid) -> tuple[bool, np.ndarray | None]:
    """Field CSV readable against its grid, with finite nonnegative values."""
    try:
        fld = imaging.read_field_csv(path, grid)
    except (ValueError, OSError):
        return False, None
    v = fld.values
    return bool(np.all(np.isfinite(v)) and np.all(v >= 0.0)), v


def pgm_ok(path, shape) -> bool:
    """Plain P2 header of the grid's size, maxval 255, pixels in 0..255."""
    with open(path, encoding="ascii") as f:
        tokens = f.read().split()
    if len(tokens) < 4 or tokens[0] != "P2":
        return False
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        pix = np.array(tokens[4:], dtype=np.int64)
    except ValueError:
        return False
    return ((w, h) == (shape[0], shape[1]) and maxval == 255
            and pix.size == w * h and pix.min() >= 0 and pix.max() <= 255)


def compare_report_ok(report: dict, config, values) -> bool:
    """`compare` output against an independent recomputation.

    Per direction: observability agrees with the expected class (edge
    directions are not judged) and argmax_in_mask agrees with the argmax of
    the field and the reported strip bounds; the strip-intersection entry
    likewise.
    """
    pts = config.grid.points()
    argmax = int(np.argmax(values))
    entries = report["directions"]
    if len(entries) != len(config.directions):
        return False
    inside = np.ones(len(pts), dtype=bool)
    n_obs = n_edge = 0
    for e, d in zip(entries, config.directions):
        want = expected_class(config.trajectory, d)
        if want is None:
            n_edge += 1
        elif e["observable"] != want:
            return False
        if not e["observable"]:
            continue
        n_obs += 1
        p = pts @ d.vec
        mask = (p >= e["strip_lo"]) & (p <= e["strip_hi"])
        inside &= mask
        if mask.any() and not mask.all():
            if e.get("argmax_in_mask") is not bool(mask[argmax]):
                return False
        elif "argmax_in_mask" in e:
            return False
    dom = report["theta_domain"]
    if dom is None:
        return n_obs == 0
    # a direction on an observability edge may pass classify's tolerance
    # while its strip is numerically empty (hi < lo by rounding); it then
    # counts as a strip and empties the intersection
    extra = dom["n_strips"] - n_obs
    if not 0 <= extra <= n_edge:
        return False
    if extra:
        inside[:] = False
    if inside.any() and not inside.all():
        return dom.get("argmax_in_mask") is bool(inside[argmax])
    return "argmax_in_mask" not in dom


def check_cli_output(kind, c, planes, out, returncode, stdout, fields,
                     tally: Tally) -> bool:
    """Oracle for one CLI command's exit code and files.

    `planes` lists (2D grid, file tag) of every field plane `image` writes;
    `image` fills `fields` with the values it read, which `compare` needs.
    """
    if returncode != 0:
        return False
    if kind == "synth":
        if not (isinstance(c.trajectory, Line) and c.dim == 2):
            return all((out / f"farfield_{j}.csv").exists()
                       for j in range(1, len(c.directions) + 1))
        suffix = "_clean" if c.noise.delta > 0 else ""
        return all(farfield_line_ok(forward.read_farfield_csv(
            out / f"farfield_{j}{suffix}.csv", d, c.band), c.trajectory, tally)
            for j, d in enumerate(c.directions, start=1))
    if kind == "classify":
        with open(out / "classify.csv", encoding="utf-8") as f:
            rows = f.read().splitlines()[1:]
        if len(rows) != len(c.directions):
            return False
        for row, d in zip(rows, c.directions):
            want = expected_class(c.trajectory, d)
            if want is not None and (row.split(",")[7] == "observable") != want:
                return False
        return True
    if kind == "image":
        tags = [str(j) for j in range(1, len(c.directions) + 1)]
        if (out / f"field_multi{planes[0][1]}.csv").exists():
            tags.append("multi")
        elif "kept 0 of" not in stdout:
            return False
        for tag in tags:
            for grid, ptag in planes:
                stem = out / f"field_{tag}{ptag}"
                good, vals = field_csv_ok(f"{stem}.csv", grid)
                if not (good and pgm_ok(f"{stem}.pgm", grid.shape)):
                    return False
                fields[f"{tag}{ptag}"] = vals
        return True
    key = "multi" if "multi" in fields else "1"
    with open(out / "compare.json", encoding="utf-8") as f:
        return compare_report_ok(json.load(f), c, fields[key])


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------

def _edit_lines(path, edit) -> None:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines(True)
    edit(lines)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def negative_controls(tmp_dir) -> tuple[int, int, list[str]]:
    """Run each oracle on a correct output and on a perturbed copy.

    Returns (perturbed outputs rejected, controls run, problems); a
    problem is a correct output rejected or a perturbed one accepted.
    The controls count in a Tally of their own, so the error rate a run
    reports covers workload operations only; any problem here makes the
    run incorrect.
    """
    problems: list[str] = []
    tally = Tally()
    runs = 0

    def control(name, good, bad):
        nonlocal runs
        runs += 1
        if not good():
            problems.append(f"{name}: correct output rejected")
        before = tally.failed
        tally.record(bad(), f"negative control {name}")
        if tally.failed == before:
            problems.append(f"{name}: perturbed output accepted")

    # -- library outputs
    band = forward.FrequencyBand(3.0 * math.pi, 18)
    line = Line(speed=1.0, angle=math.pi / 2, offset=[0.0, 0.0],
                interval=trajectory.TimeInterval(1.0, 3.0))
    arc = Arc(center=np.zeros(2), interval=trajectory.TimeInterval(0.0, math.pi))
    poly = PiecewiseLinear(np.array([0.0, 1.0, 2.0]),
                           np.array([[3.0, 3.0], [2.0, 2.0], [3.0, 1.0]]))
    d = Direction.from_angle(2.0)
    samples = forward.sample_band(line, d, band)
    control("farfield",
            lambda: farfield_line_ok(samples, line, tally),
            lambda: farfield_line_ok(
                forward.FarFieldSamples(d, band, samples.values * (1 + 1e-6)),
                line, tally))

    spec = spectral.f_sharp_spectrum(spectral.build_operator(samples))
    pts = np.array([[0.1, 1.5], [0.0, 2.2], [-0.4, 0.3]])
    vals, kept = indicator.filtered_field_values(
        [spec], [d], pts, line.interval, band)
    control("picard",
            lambda: picard_values_ok(vals, kept, [spec], [d.vec], pts,
                                     line.interval, band, 3.5e3, tally),
            lambda: picard_values_ok(vals * (1 + 1e-4), kept, [spec], [d.vec],
                                     pts, line.interval, band, 3.5e3, tally))

    hull = trajectory.projection_hull(arc, d)
    control("projection_hull", lambda: hull_ok(arc, d, hull),
            lambda: hull_ok(arc, d, (hull[0] + 1e-6, hull[1])))
    dp = Direction.from_angle(4.0)
    s = trajectory.strip(poly, dp)
    control("strip", lambda: strip_ok(poly, dp, s),
            lambda: strip_ok(poly, dp, trajectory.Strip(dp, s.lo, s.hi + 1e-3)))
    div = trajectory.division_points(poly, dp)
    control("division_points", lambda: division_points_ok(poly, dp, div),
            lambda: division_points_ok(poly, dp, div + [1.5]))

    # -- CLI outputs of a small line problem, written in process; each
    #    perturbed copy goes through check_cli_output like a workload's
    config = cli.parse_config({
        "trajectory": {"variant": "line", "speed": 1.0, "angle": math.pi / 2,
                       "interval": [1.0, 3.0], "offset": [0.0, 0.0]},
        "band": {"k_max": 3.0 * math.pi, "count": 18},
        "directions": {"count": 4},
        "grid": {"bounds": [[-2, 2], [-2, 2]], "resolution": [21, 21]}})
    planes = [(config.grid, "")]
    good = Path(tmp_dir) / "nc_cli"
    good.mkdir()

    def run_cmd(fn, *args) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            fn(config, *args)
        return buf.getvalue()

    stdout = {"synth": run_cmd(cli.cmd_synth, good),
              "classify": run_cmd(cli.cmd_classify, good),
              "image": run_cmd(cli.cmd_image, good, good)}
    fields: dict = {}
    check_cli_output("image", config, planes, good, 0, stdout["image"],
                     fields, tally)
    run_cmd(cli.cmd_compare, good / "field_multi.csv", good / "compare.json")

    def cli_control(name, kind, edit):
        bad = Path(tmp_dir) / f"nc_{name}"
        shutil.copytree(good, bad)
        edit(bad)
        control(f"cli {name}",
                lambda: check_cli_output(kind, config, planes, good, 0,
                                         stdout.get(kind, ""), dict(fields),
                                         tally),
                lambda: check_cli_output(kind, config, planes, bad, 0,
                                         stdout.get(kind, ""), dict(fields),
                                         tally))

    def scale_farfield(out):
        d1 = config.directions[0]
        ff = forward.read_farfield_csv(out / "farfield_1.csv", d1, config.band)
        forward.write_farfield_csv(out / "farfield_1.csv", forward.FarFieldSamples(
            d1, config.band, ff.values * (1 + 1e-6)))

    def flip_class(lines):   # of the first direction not on an edge
        i = 1 + next(j for j, dj in enumerate(config.directions)
                     if expected_class(config.trajectory, dj) is not None)
        cols = lines[i].rstrip("\n").split(",")
        cols[7] = "non-observable" if cols[7] == "observable" else "observable"
        lines[i] = ",".join(cols) + "\n"

    def shift_x1(lines):
        x1, rest = lines[5].split(",", 1)
        lines[5] = f"{float(x1) + 0.05!r},{rest}"

    def pixel_256(lines):   # lines 0-2 are the header
        lines[3] = "256" + lines[3][lines[3].index(" "):]

    def compare_other_field(out):
        # the report of a field whose maximum sits where the good one's
        # minimum is: its argmax_in_mask flags disagree with the good field
        fld = imaging.read_field_csv(out / "field_multi.csv", config.grid)
        inverted = out / "field_inverted.csv"
        imaging.write_field_csv(inverted, imaging.ScalarField(
            config.grid, fld.values.max() - fld.values))
        run_cmd(cli.cmd_compare, inverted, out / "compare.json")

    cli_control("synth", "synth", scale_farfield)
    cli_control("classify", "classify",
                lambda out: _edit_lines(out / "classify.csv", flip_class))
    cli_control("field_csv", "image",
                lambda out: _edit_lines(out / "field_1.csv", shift_x1))
    cli_control("pgm", "image",
                lambda out: _edit_lines(out / "field_1.pgm", pixel_256))
    cli_control("no_combined_field", "image",
                lambda out: (out / "field_multi.csv").unlink())
    cli_control("compare", "compare", compare_other_field)
    return tally.failed, runs, problems
