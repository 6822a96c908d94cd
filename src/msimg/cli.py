"""Configuration-driven command line front end.

Subcommands: synth (write far-field CSVs), classify (direction report),
image (indicator fields + PGM heatmaps from data files), compare (metrics
of a field against the analytic strip/intersection oracles).  Exit codes:
0 success, 2 validation/config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import forward, imaging, indicator, spectral, trajectory as traj_mod
from .forward import FrequencyBand, NoiseSpec, QuadratureError
from .imaging import ScalarField, SearchGrid, SliceSpec
from .spectral import DiagonalizationError, MODE_PAPER, MODE_RIGOROUS
from .trajectory import (Arc, Direction, Line, PiecewiseLinear, Sampled,
                         TimeInterval, angle_in_set)

TWO_PI = 2.0 * math.pi

# Largest |sinc(tau_n T / 2)| taken as zero: at dk T = 2 pi m the rounded
# weights are ~1e-17, not 0, and W comes out ~1e17 everywhere.
WEIGHT_FLOOR = 1e-12

# Largest problems a config may ask for, in bytes: the N x N complex
# operator of band.count = N (N <= 2048), and the (size, dim) float lattice
# of grid.resolution (2896^2 or 177^3 points).  The shipped configs need at
# most 18^2 and 81^3.  Past these a run would end in a MemoryError.
MAX_OPERATOR_BYTES = 2 ** 26
MAX_LATTICE_BYTES = 2 ** 27


class ValidationError(ValueError):
    """Configuration or input files are inconsistent."""


class ConfigError(ValidationError):
    """Configuration file could not be parsed."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ExperimentConfig:
    """Parsed experiment description; `raw` is the normalized JSON dict."""

    raw: dict
    trajectory: traj_mod.Trajectory
    band: FrequencyBand
    directions: list
    mode: str
    grid: SearchGrid
    slices: list
    noise: NoiseSpec
    threshold: float
    output_dir: str

    @property
    def interval(self) -> TimeInterval:
        return self.trajectory.interval

    @property
    def dim(self) -> int:
        return self.trajectory.dim

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"


def _build_trajectory(spec: dict) -> traj_mod.Trajectory:
    try:
        variant = spec["variant"]
        if variant in ("line", "arc"):
            interval = TimeInterval(*_pair(spec["interval"],
                                           "trajectory.interval"))
        if variant == "line":
            speed = _number(spec["speed"], "trajectory.speed")
            offset = spec.get("offset")
            if offset is not None:
                offset = _vector(offset, "trajectory.offset")
            if "angle" in spec:
                return Line(speed=speed,
                            angle=_number(spec["angle"], "trajectory.angle"),
                            offset=offset, interval=interval)
            return Line(speed=speed,
                        axis=_vector(spec["axis"], "trajectory.axis"),
                        offset=offset, interval=interval)
        if variant == "arc":
            return Arc(center=_vector(spec["center"], "trajectory.center"),
                       radius=_number(spec.get("radius", 1.0),
                                      "trajectory.radius"),
                       phase=_number(spec.get("phase", 0.0),
                                     "trajectory.phase"),
                       orientation=spec.get("orientation", 1),
                       interval=interval)
        if variant in ("piecewise", "sampled"):
            cls = PiecewiseLinear if variant == "piecewise" else Sampled
            return cls(_vector(spec["times"], "trajectory.times"),
                       _vector(spec["points"], "trajectory.points"))
    except KeyError as e:
        raise ValidationError(f"trajectory spec is missing field {e}") from e
    raise ValidationError(f"unknown trajectory variant {spec.get('variant')!r}")


def _build_directions(spec: dict, dim: int) -> list:
    if "count" in spec:
        if dim != 2:
            raise ValidationError("direction count shorthand is 2D only")
        m = _integral(spec["count"], "directions.count")
        if m < 1:
            raise ValidationError("direction count must be positive")
        return [Direction.from_angle((j - 1) * TWO_PI / m)
                for j in range(1, m + 1)]
    angles = spec.get("angles")
    if not isinstance(angles, list) or not angles:
        raise ValidationError(
            "directions need either 'count' or a nonempty 'angles' list")
    if dim == 2:
        return [Direction.from_angle(_number(a, "directions.angles entry"))
                for a in angles]
    return [Direction.from_angles(*_pair(a, "directions.angles entry"))
            for a in angles]


def _number(value, name: str) -> float:
    """A real config number: "3", [3] and true are errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None


def _integral(value, name: str) -> int:
    """An integer-valued config number: 18.7 is an error, not 18."""
    if not _number(value, name).is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _vector(value, name: str) -> np.ndarray:
    """A config list of numbers, or of such lists (trajectory points)."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers, got "
                              f"{value!r}")
    items = [_vector(v, name) if isinstance(v, list) else _number(v, name)
             for v in value]
    try:
        return np.asarray(items, dtype=float)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{name} must be a rectangular list of "
                              f"numbers") from None


def _slice(spec) -> SliceSpec:
    """A grid.slices entry: {"axis": integer, "offset": number}."""
    if not isinstance(spec, dict):
        raise ValidationError(f"grid.slices entry must be an object, got "
                              f"{spec!r}")
    for key in ("axis", "offset"):
        if key not in spec:
            raise ValidationError(
                f"grid.slices entry is missing field {key!r}")
    return SliceSpec(_integral(spec["axis"], "grid.slices axis"),
                     _number(spec["offset"], "grid.slices offset"))


def _pair(value, name: str) -> list[float]:
    """A two-number config list such as [lo, hi]."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{name} must be a pair of numbers, got "
                              f"{value!r}")
    return [_number(v, name) for v in value]


def _section(raw: dict, key: str) -> dict:
    """A config section that must be a JSON object."""
    if key not in raw:
        raise ValidationError(f"config is missing section {key!r}")
    if not isinstance(raw[key], dict):
        raise ValidationError(f"config section {key!r} must be an object, "
                              f"got {raw[key]!r}")
    return raw[key]


def _required(raw: dict, section: str, key: str):
    try:
        return raw[section][key]
    except KeyError:
        raise ValidationError(
            f"config is missing field {section}.{key}") from None


def _check_size(name: str, nbytes: int, bound: int, what: str) -> None:
    """Refuse a config field whose arrays would exceed `bound` bytes."""
    if nbytes > bound:
        raise ValidationError(f"{name}: the {what} needs {nbytes} bytes, "
                              f"above the bound of {bound} bytes")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict, fill defaults, and build typed components."""
    if not isinstance(raw, dict):
        raise ValidationError(f"config must be a JSON object, got "
                              f"{type(raw).__name__}")
    raw = dict(raw)
    for key in ("trajectory", "band", "directions", "grid"):
        _section(raw, key)
    raw.setdefault("mode", MODE_RIGOROUS)
    raw.setdefault("noise", {})
    noise = _section(raw, "noise")
    raw["noise"] = {"delta": _number(noise.get("delta", 0.0), "noise.delta"),
                    "seed": _integral(noise.get("seed", 0), "noise.seed")}
    raw.setdefault("threshold", indicator.DEFAULT_THRESHOLD)
    raw.setdefault("output_dir", "out")

    traj = _build_trajectory(raw["trajectory"])
    band = FrequencyBand(_number(_required(raw, "band", "k_max"),
                                 "band.k_max"),
                         _integral(_required(raw, "band", "count"),
                                   "band.count"))
    _check_size("band.count", 16 * band.n ** 2, MAX_OPERATOR_BYTES,
                f"{band.n} x {band.n} complex operator")
    if not np.any(np.abs(forward.band_weights(traj.interval, band))
                  > WEIGHT_FLOOR):
        raise ValidationError(
            f"every test-vector weight sinc(tau_n T / 2) vanishes: "
            f"dk * T = {band.dk * traj.interval.duration:.6g} is a "
            f"multiple of 2*pi")
    directions = _build_directions(raw["directions"], traj.dim)
    if raw["mode"] not in (MODE_RIGOROUS, MODE_PAPER):
        raise ValidationError(f"unknown mode {raw['mode']!r}")

    bounds = _required(raw, "grid", "bounds")
    resolution = _required(raw, "grid", "resolution")
    if not isinstance(bounds, list) or not isinstance(resolution, list):
        raise ValidationError(
            "grid.bounds and grid.resolution must be per-axis lists")
    grid = imaging.make_grid([_pair(b, "grid.bounds entry") for b in bounds],
                             [_integral(r, "grid.resolution entry")
                              for r in resolution])
    _check_size("grid.resolution", 8 * grid.dim * math.prod(grid.resolution),
                MAX_LATTICE_BYTES, f"{grid.dim}D lattice of {grid.resolution}")
    if grid.dim != traj.dim:
        raise ValidationError(
            f"grid is {grid.dim}D but trajectory is {traj.dim}D")
    slices = raw["grid"].get("slices", [])
    if not isinstance(slices, list):
        raise ValidationError(f"grid.slices must be a list, got {slices!r}")
    slices = [_slice(s) for s in slices]
    if slices and grid.dim != 3:
        raise ValidationError("slices are only meaningful for 3D grids")
    if grid.dim == 3 and not slices:
        raise ValidationError("3D imaging needs at least one slice plane")

    noise = NoiseSpec(raw["noise"]["delta"], raw["noise"]["seed"])
    threshold = _number(raw["threshold"], "threshold")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValidationError(
            f"threshold must be finite and >= 0, got {raw['threshold']!r}")
    return ExperimentConfig(raw=raw, trajectory=traj, band=band,
                            directions=directions, mode=raw["mode"],
                            grid=grid, slices=slices, noise=noise,
                            threshold=threshold,
                            output_dir=raw["output_dir"])


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _out_dir(config: ExperimentConfig, override) -> Path:
    out = Path(override) if override else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _progress(j: int, total: int, label: str) -> None:
    print(f"[{j}/{total}] {label}", file=sys.stderr)


def _direction_label(d: Direction) -> str:
    if d.phi is not None:
        return f"theta={d.theta:.6g} phi={d.phi:.6g}"
    if d.theta is not None:
        return f"theta={d.theta:.6g}"
    return np.array2string(d.vec, precision=4)


def _load_spectra(config: ExperimentConfig, data_dir: Path, mode: str):
    spectra = []
    for j, d in enumerate(config.directions, start=1):
        path = data_dir / f"farfield_{j}.csv"
        if not path.exists():
            raise ValidationError(f"missing data file {path}")
        samples = forward.read_farfield_csv(path, d, config.band)
        spectra.append(spectral.f_sharp_spectrum(
            spectral.build_operator(samples), mode))
    return spectra


def _chunked_sums(spectrum, direction, points, interval, band, threads):
    work = lambda c: indicator.picard_sums_grid(spectrum, direction, c,
                                                interval, band)
    if threads <= 1:
        return work(points)
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs
    # split at multiples of the kernel's block so every point goes through
    # the arithmetic of the serial call and the bytes match
    step = indicator.POINT_CHUNK * -(-len(points)
                                     // (threads * indicator.POINT_CHUNK))
    parts = [points[i:i + step] for i in range(0, len(points), step)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(work, parts)))


def _warn_aliasing(directions, planes, band) -> None:
    """Warn for each direction whose lattice extent along x_hat reaches
    the indicator's period 2 pi / dk, past which the strip repeats."""
    period = TWO_PI / band.dk
    for j, d in enumerate(directions, start=1):
        extent = 0.0
        for g2, pts, _ in planes:
            # a linear function peaks at the corners of each lattice plane
            r2 = g2.resolution[1]
            corners = pts[[0, r2 - 1, -r2, -1]] @ d.vec
            extent = max(extent, float(np.ptp(corners)))
        if extent >= period:
            print(f"warning: direction {j} ({_direction_label(d)}): the "
                  f"lattice spans {extent:.6g} along x_hat, at least the "
                  f"indicator period 2*pi/dk = {period:.6g}; the strip may "
                  f"alias", file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(config: ExperimentConfig, out_dir) -> int:
    """Write farfield_<j>.csv per direction (plus *_clean.csv when noisy)."""
    out = _out_dir(config, out_dir)
    seed = config.noise.seed
    env_seed = os.environ.get("MSIMG_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    total = len(config.directions)
    for j, d in enumerate(config.directions, start=1):
        _progress(j, total, f"synthesizing {_direction_label(d)}")
        samples = forward.sample_band(config.trajectory, d, config.band)
        if config.noise.delta > 0.0:
            forward.write_farfield_csv(out / f"farfield_{j}_clean.csv", samples)
            # independent per-direction stream, deterministic in (seed, j)
            noisy = forward.add_noise(
                samples, NoiseSpec(config.noise.delta, seed + j))
            forward.write_farfield_csv(out / f"farfield_{j}.csv", noisy)
        else:
            forward.write_farfield_csv(out / f"farfield_{j}.csv", samples)
    print(f"wrote {total} far-field file(s) to {out}")
    return 0


def _lemma_verdict(config: ExperimentConfig, d: Direction) -> str:
    """Closed-form observability verdict when one of the lemmas applies."""
    t = config.trajectory
    if d.theta is None or d.phi is not None:
        return ""
    if isinstance(t, Line) and t.dim == 2:
        if t.speed <= 0:
            return ""
        intervals = traj_mod.observable_set_line(t.speed, t.angle)
        return "observable" if angle_in_set(intervals, d.theta) else "non-observable"
    if isinstance(t, Arc) and t.radius == 1.0 and t.orientation == 1 \
            and t.interval.duration < TWO_PI:
        # the lemma's set is for phase 0; phase phi rotates the arc by phi
        intervals = traj_mod.observable_set_arc(t.interval)
        return ("observable" if angle_in_set(intervals, d.theta - t.phase)
                else "non-observable")
    return ""


def cmd_classify(config: ExperimentConfig, out_dir) -> int:
    """Observability report per direction: CSV plus a console table."""
    out = _out_dir(config, out_dir)
    rows = []
    for j, d in enumerate(config.directions, start=1):
        rep = traj_mod.xi_extrema(config.trajectory, d)
        rows.append({
            "index": j,
            "theta": d.theta if d.theta is not None else float("nan"),
            "phi": d.phi if d.phi is not None else float("nan"),
            "xi_min": rep.xi_min,
            "xi_max": rep.xi_max,
            "width": rep.width,
            "duration": rep.duration,
            "class": "observable" if rep.observable else "non-observable",
            "lemma": _lemma_verdict(config, d),
        })
    header = ["index", "theta", "phi", "xi_min", "xi_max", "width",
              "duration", "class", "lemma"]
    with open(out / "classify.csv", "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for r in rows:
            f.write(",".join(
                f"{r[h]:.17g}" if isinstance(r[h], float) else str(r[h])
                for h in header) + "\n")
    fmt = "{:>5} {:>10} {:>10} {:>12} {:>12} {:>10} {:>9} {:>15} {:>15}"
    print(fmt.format(*header))
    for r in rows:
        print(fmt.format(r["index"], f"{r['theta']:.6g}", f"{r['phi']:.6g}",
                         f"{r['xi_min']:.6g}", f"{r['xi_max']:.6g}",
                         f"{r['width']:.6g}", f"{r['duration']:.6g}",
                         r["class"], r["lemma"] or "-"))
    return 0


def cmd_image(config: ExperimentConfig, data_dir, out_dir, mode=None,
              threads: int = 1) -> int:
    """Per-direction and truncated multi-direction indicator fields."""
    out = _out_dir(config, out_dir)
    data = Path(data_dir) if data_dir else Path(config.output_dir)
    mode = mode or config.mode
    spectra = _load_spectra(config, data, mode)
    directions = config.directions
    interval, band = config.interval, config.band
    total = len(directions)

    if config.grid.dim == 2:
        planes = [(config.grid, config.grid.points(), "")]
    else:
        planes = []
        for i, spec in enumerate(config.slices, start=1):
            g2, pts3, _ = imaging.slice_grid(config.grid, spec)
            planes.append((g2, pts3, f"_slice{i}"))
    _warn_aliasing(directions, planes, band)

    all_sums = [[] for _ in directions]
    for j, (spec_j, d) in enumerate(zip(spectra, directions), start=1):
        _progress(j, total, f"imaging {_direction_label(d)}")
        for g2, pts, tag in planes:
            sums = _chunked_sums(spec_j, d, pts, interval, band, threads)
            all_sums[j - 1].append(sums)
            fld = ScalarField(g2, indicator.indicator_values(sums))
            imaging.write_field_csv(out / f"field_{j}{tag}.csv", fld)
            imaging.write_pgm(out / f"field_{j}{tag}.pgm", fld)

    # one filter decision and one combined field over all planes together
    values, kept = indicator.combine_directions(
        [np.concatenate(s) for s in all_sums], config.threshold)
    dropped = [j + 1 for j in range(total) if j not in kept]
    if values is None:
        print("warning: the filter dropped every direction; no combined field",
              file=sys.stderr)
        print(f"kept 0 of {total} directions; dropped {total}")
        return 0
    ends = np.cumsum([g2.size for g2, _, _ in planes])[:-1]
    for (g2, _, tag), vals in zip(planes, np.split(values, ends)):
        fld = ScalarField(g2, vals)
        imaging.write_field_csv(out / f"field_multi{tag}.csv", fld)
        imaging.write_pgm(out / f"field_multi{tag}.pgm", fld)
    print(f"kept {len(kept)} of {total} directions; dropped {len(dropped)}"
          + (f" {dropped}" if dropped else ""))
    return 0


def cmd_compare(config: ExperimentConfig, field_path, out_file,
                margin: float = 0.25) -> int:
    """Metrics of a field CSV against the analytic strip/intersection masks."""
    if not Path(field_path).is_file():
        raise ValidationError(f"missing field file {field_path}")
    fld = imaging.read_field_csv(field_path, config.grid)
    argmax = int(np.argmax(fld.values))
    report = {"directions": [], "theta_domain": None}
    for j, d in enumerate(config.directions, start=1):
        s = traj_mod.strip(config.trajectory, d)
        entry = {"index": j, "observable": not s.empty}
        if s.empty:
            entry["strip_empty"] = True
        else:
            entry["strip_lo"] = s.lo
            entry["strip_hi"] = s.hi
            mask = imaging.mask_strip(config.grid, s)
            if mask.any() and not mask.all():
                entry.update(imaging.contrast_metric(fld, mask, margin))
                entry["argmax_in_mask"] = bool(mask[argmax])
        report["directions"].append(entry)
    dom = traj_mod.theta_domain(config.trajectory, config.directions)
    if not dom.empty:
        mask = imaging.mask_theta(config.grid, dom)
        entry = {"n_strips": len(dom.strips)}
        if mask.any() and not mask.all():
            entry.update(imaging.contrast_metric(fld, mask, margin))
            entry["argmax_in_mask"] = bool(mask[argmax])
        report["theta_domain"] = entry
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_file:
        Path(out_file).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="msimg",
        description="Trajectory imaging from multi-frequency far-field data")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("synth", help="synthesize far-field data files")
    common(sp)
    sp = sub.add_parser("classify", help="report observable directions")
    common(sp)
    sp = sub.add_parser("image", help="compute indicator fields")
    common(sp)
    sp.add_argument("--data", default=None,
                    help="directory with farfield_<j>.csv (default: config output_dir)")
    sp.add_argument("--mode", choices=[MODE_RIGOROUS, MODE_PAPER], default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp = sub.add_parser("compare", help="compare a field against the oracles")
    sp.add_argument("--config", required=True)
    sp.add_argument("--field", required=True, help="field CSV to score")
    sp.add_argument("--out", default=None, help="metrics JSON file (default: stdout)")
    sp.add_argument("--margin", type=float, default=0.25)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "synth":
            return cmd_synth(config, args.out)
        if args.command == "classify":
            return cmd_classify(config, args.out)
        if args.command == "image":
            return cmd_image(config, args.data, args.out,
                             mode=args.mode, threads=args.threads)
        if args.command == "compare":
            return cmd_compare(config, args.field, args.out, args.margin)
        raise AssertionError("unreachable")
    except (QuadratureError, DiagonalizationError, np.linalg.LinAlgError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
