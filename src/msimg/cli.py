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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import forward, imaging, indicator, spectral, trajectory as traj_mod
from .forward import FrequencyBand, NoiseSpec
from .imaging import ScalarField, SearchGrid, SliceSpec
from .spectral import DiagonalizationError, MODE_PAPER, MODE_RIGOROUS
from .trajectory import (TWO_PI, Arc, Direction, Line, PiecewiseLinear,
                         TimeInterval, angle_in_set)

# Largest |sinc(tau_n T / 2)| taken as zero: at dk T = 2 pi m the rounded
# weights are ~1e-17, not 0, and W comes out ~1e17 everywhere.
WEIGHT_FLOOR = 1e-12

# Largest problems a config may ask for, in bytes: the N x N complex
# operator of band.count = N (N <= 2048), and the (size, dim) float lattice
# of grid.resolution (2896^2 or 177^3 points), which also bounds the
# directions.count fields of a 2D lattice.  The shipped configs need at
# most 18^2 and 81^3.  Past these a run would end in a MemoryError.
MAX_OPERATOR_BYTES = 2 ** 26
MAX_LATTICE_BYTES = 2 ** 27
# The far field's complex (count, terms) arrays: terms are the segments of
# a polyline or line, or the Jacobi-Anger terms of an arc (91 shipped).
MAX_FAR_FIELD_BYTES = 2 ** 26
# Largest rounding eps k_max max|h| of the far field's phases k h(t): it
# is accurate to 1e-10 only while they are.
MAX_PHASE_ERROR = 1e-10


class ValidationError(ValueError):
    """Configuration or input files are inconsistent."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ExperimentConfig:
    """Parsed experiment description."""

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
    def dim(self) -> int:
        return self.trajectory.dim


def _field(spec: dict, name: str, check, default=...):
    """Config field `name` of the object `spec`, checked by `check(value,
    name)`; its key is the last word of `name`, after a "." or " ".  A field
    that is absent or the default itself (null where the default is None)
    is the default; without a default it is an error."""
    value = spec.get(name.replace(" ", ".").rpartition(".")[2], default)
    if value is ...:
        raise ValidationError(f"config is missing field {name!r}")
    return value if value is default else check(value, name)


def _json_type(kind, what: str):
    """The check that a config field is a JSON value of type `kind`."""
    def check(value, name: str):
        if not isinstance(value, kind):
            raise ValidationError(f"config field {name!r} must be {what}, "
                                  f"got {value!r}")
        return value
    return check


_object = _json_type(dict, "an object")
_list = _json_type(list, "a list")
_string = _json_type(str, "a string")


def _number(value, name: str) -> float:
    """A finite real config number: "3", [3], true, NaN, 1e400 are errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        # a 400-digit integer is cut short
        raise ValidationError(f"config field {name!r} must be a finite "
                              f"number, got {value!r:.40}")
    return float(value)


def _integral(value, name: str) -> int:
    """An integer-valued config number: 18.7 is an error, not 18."""
    if not _number(value, name).is_integer():
        raise ValidationError(f"config field {name!r} must be an integer, "
                              f"got {value!r}")
    return int(value)


def _vector(value, name: str) -> np.ndarray:
    """A config list of numbers, or of such lists (trajectory points)."""
    items = [_vector(v, name) if isinstance(v, list) else _number(v, name)
             for v in _list(value, name)]
    try:
        return np.asarray(items, dtype=float)
    except ValueError:  # ragged nesting
        raise ValidationError(f"config field {name!r} must be a rectangular "
                              f"list of numbers") from None


def _pair(value, name: str) -> list[float]:
    """A two-number config list such as [lo, hi]."""
    if len(_list(value, name)) != 2:
        raise ValidationError(f"config field {name!r} must be a pair of "
                              f"numbers, got {value!r}")
    return [_number(v, name) for v in value]


def _check_size(name: str, nbytes, bound: int, what: str) -> None:
    """Refuse a config field whose arrays would exceed `bound` bytes."""
    if nbytes > bound:
        raise ValidationError(f"{name}: the {what} needs {nbytes:.6g} bytes, "
                              f"above the bound of {bound} bytes")


def _build_trajectory(spec: dict) -> traj_mod.Trajectory:
    variant = _field(spec, "trajectory.variant", _string)
    if variant in ("line", "arc"):
        interval = TimeInterval(*_field(spec, "trajectory.interval", _pair))
    if variant == "line":
        speed = _field(spec, "trajectory.speed", _number)
        offset = _field(spec, "trajectory.offset", _vector, None)
        if "angle" in spec:
            return Line(speed=speed,
                        angle=_field(spec, "trajectory.angle", _number),
                        offset=offset, interval=interval)
        return Line(speed=speed, axis=_field(spec, "trajectory.axis", _vector),
                    offset=offset, interval=interval)
    if variant == "arc":
        return Arc(center=_field(spec, "trajectory.center", _vector),
                   radius=_field(spec, "trajectory.radius", _number, 1.0),
                   phase=_field(spec, "trajectory.phase", _number, 0.0),
                   orientation=_field(spec, "trajectory.orientation",
                                      _integral, 1),
                   interval=interval)
    if variant in ("piecewise", "sampled"):
        return PiecewiseLinear(_field(spec, "trajectory.times", _vector),
                               _field(spec, "trajectory.points", _vector))
    raise ValidationError(f"unknown trajectory variant {variant!r}")


def _build_directions(spec: dict, grid: SearchGrid) -> list:
    if "count" in spec:
        if grid.dim != 2:
            raise ValidationError("direction count shorthand is 2D only")
        m = _field(spec, "directions.count", _integral)
        if m < 1:
            raise ValidationError("direction count must be positive")
        _check_size("directions.count", 8 * m * grid.size, MAX_LATTICE_BYTES,
                    f"set of {m} indicator fields on {grid.size} points")
        return [Direction.from_angle((j - 1) * TWO_PI / m)
                for j in range(1, m + 1)]
    angles = _field(spec, "directions.angles", _list, [])
    if not angles:
        raise ValidationError(
            "directions need either 'count' or a nonempty 'angles' list")
    if grid.dim == 2:
        return [Direction.from_angle(_number(a, "directions.angles entry"))
                for a in angles]
    return [Direction.from_angles(*_pair(a, "directions.angles entry"))
            for a in angles]


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict and build its typed components."""
    if not isinstance(raw, dict):
        raise ValidationError(f"config must be a JSON object, got "
                              f"{type(raw).__name__}")
    traj = _build_trajectory(_field(raw, "trajectory", _object))
    spec = _field(raw, "band", _object)
    band = FrequencyBand(_field(spec, "band.k_max", _number),
                         _field(spec, "band.count", _integral))
    _check_size("band.count", 16 * band.n ** 2, MAX_OPERATOR_BYTES,
                f"{band.n} x {band.n} complex operator")
    # |h(t)| <= t_max + max |a(t)|, the orbit's reach: |center| + radius on
    # an arc, the largest vertex norm on a polyline (np.max keeps a NaN that
    # Python max skips), by math.hypot, which warns nothing on a huge orbit
    reach = (math.hypot(*traj.center.tolist()) + traj.radius
             if isinstance(traj, Arc) else
             float(np.max([math.hypot(*p) for p in traj.points.tolist()])))
    bound = traj.interval.t_max + reach
    if not math.isfinite(bound):
        raise ValidationError("band.k_max: the orbit's positions overflow, "
                              "so its far-field phases k h(t) have no bound")
    error = np.finfo(float).eps * band.k_max * bound
    if not error <= MAX_PHASE_ERROR:
        raise ValidationError(
            f"band.k_max: far-field phases k h(t) up to {band.k_max:.6g} * "
            f"{bound:.6g} round by {error:.3g}, above {MAX_PHASE_ERROR:g}")
    terms = forward.far_field_terms(traj, band.k_max)
    _check_size("band.k_max" if isinstance(traj, Arc) else "trajectory.points",
                16 * band.n * terms, MAX_FAR_FIELD_BYTES,
                f"far field of {terms} terms at each of {band.n} wavenumbers")
    if not np.any(np.abs(forward.band_weights(traj.interval, band))
                  > WEIGHT_FLOOR):
        raise ValidationError(
            f"every test-vector weight sinc(tau_n T / 2) vanishes: "
            f"dk * T = {band.dk * traj.interval.duration:.6g} is a "
            f"multiple of 2*pi")

    spec = _field(raw, "grid", _object)
    grid = imaging.make_grid(
        [_pair(b, "grid.bounds entry")
         for b in _field(spec, "grid.bounds", _list)],
        [_integral(r, "grid.resolution entry")
         for r in _field(spec, "grid.resolution", _list)])
    _check_size("grid.resolution", 8 * grid.dim * grid.size,
                MAX_LATTICE_BYTES, f"{grid.dim}D lattice of {grid.resolution}")
    if grid.dim != traj.dim:
        raise ValidationError(
            f"grid is {grid.dim}D but trajectory is {traj.dim}D")
    slices = []
    for entry in _field(spec, "grid.slices", _list, []):
        entry = _object(entry, "grid.slices entry")
        slices.append(SliceSpec(_field(entry, "grid.slices axis", _integral),
                                _field(entry, "grid.slices offset", _number)))
    if bool(slices) != (grid.dim == 3):
        raise ValidationError("grid.slices: a 3D grid is imaged on one or "
                              "more slice planes, a 2D grid on none")
    for spec in slices:
        try:
            spec.check(grid)
        except ValueError as e:
            raise ValidationError(f"grid.slices: {e}") from None

    directions = _build_directions(_field(raw, "directions", _object), grid)
    mode = _field(raw, "mode", _string, MODE_RIGOROUS)
    if mode not in (MODE_RIGOROUS, MODE_PAPER):
        raise ValidationError(f"unknown mode {mode!r}")
    spec = _field(raw, "noise", _object, {})
    noise = NoiseSpec(_field(spec, "noise.delta", _number, 0.0),
                      _field(spec, "noise.seed", _integral, 0))
    threshold = _field(raw, "threshold", _number,
                       indicator.DEFAULT_THRESHOLD)
    if threshold < 0.0:
        raise ValidationError(f"config field 'threshold' must be >= 0, got "
                              f"{threshold!r}")
    output_dir = _field(raw, "output_dir", _string, "out")
    if not output_dir:
        raise ValidationError("config field 'output_dir' must not be empty")
    return ExperimentConfig(
        trajectory=traj, band=band, directions=directions, mode=mode,
        grid=grid, slices=slices, noise=noise, threshold=threshold,
        output_dir=output_dir)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
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
    """theta (and phi in 3D) of a direction built by from_angle(s)."""
    if d.phi is not None:
        return f"theta={d.theta:.6g} phi={d.phi:.6g}"
    return f"theta={d.theta:.6g}"


def _load_spectra(config: ExperimentConfig, data_dir: Path):
    spectra = []
    for j, d in enumerate(config.directions, start=1):
        path = data_dir / f"farfield_{j}.csv"
        if not path.exists():
            raise ValidationError(f"missing data file {path}")
        samples = forward.read_farfield_csv(path, d, config.band)
        spectra.append(spectral.f_sharp_spectrum(
            spectral.build_operator(samples), config.mode))
    return spectra


def _warn_aliasing(directions, planes, band) -> None:
    """Warn for each direction whose lattice extent along x_hat reaches
    the indicator's period 2 pi / dk, past which the strip repeats."""
    period = TWO_PI / band.dk
    for j, d in enumerate(directions, start=1):
        extent = max(float(np.ptp(pts @ d.vec)) for _, pts, _ in planes)
        if extent >= period:
            print(f"warning: direction {j} ({_direction_label(d)}): the "
                  f"lattice spans {extent:.6g} along x_hat, at least the "
                  f"indicator period 2*pi/dk = {period:.6g}; the strip may "
                  f"alias", file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(config: ExperimentConfig, out_dir) -> int:
    """Write farfield_<j>.csv per direction (plus *_clean.csv when noisy);
    a run that fails writes none."""
    noise, seed = config.noise, os.environ.get("MSIMG_SEED")
    if seed is not None:
        try:
            noise = replace(noise, seed=int(seed))
        except ValueError as e:
            raise ValidationError(f"MSIMG_SEED={seed!r}: {e}") from None
    total = len(config.directions)
    files = {}
    for j, d in enumerate(config.directions, start=1):
        _progress(j, total, f"synthesizing {_direction_label(d)}")
        samples = forward.sample_band(config.trajectory, d, config.band)
        if noise.delta > 0.0:
            files[f"farfield_{j}_clean.csv"] = samples
            # independent per-direction stream, deterministic in (seed, j)
            samples = forward.add_noise(
                samples, replace(noise, seed=noise.seed + j))
        files[f"farfield_{j}.csv"] = samples
    out = _out_dir(config, out_dir)
    for name, samples in files.items():
        forward.write_farfield_csv(out / name, samples)
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
    header = ["index", "theta", "phi", "xi_min", "xi_max", "width",
              "duration", "class", "lemma"]
    rows = []
    for j, d in enumerate(config.directions, start=1):
        rep = traj_mod.xi_extrema(config.trajectory, d)
        rows.append([j, d.theta if d.theta is not None else math.nan,
                     d.phi if d.phi is not None else math.nan,
                     rep.xi_min, rep.xi_max, rep.width, rep.duration,
                     "observable" if rep.observable else "non-observable",
                     _lemma_verdict(config, d)])
    out = _out_dir(config, out_dir)
    with open(out / "classify.csv", "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for r in rows:
            f.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                             for c in r) + "\n")
    fmt = "{:>5} {:>10} {:>10} {:>12} {:>12} {:>10} {:>9} {:>15} {:>15}"
    print(fmt.format(*header))
    for r in rows:  # an empty lemma prints as "-"
        print(fmt.format(*(f"{c:.6g}" if isinstance(c, float) else c or "-"
                           for c in r)))
    return 0


def cmd_image(config: ExperimentConfig, data_dir, out_dir) -> int:
    """Per-direction and truncated multi-direction indicator fields; every
    field is computed and checked for PGM output before the output
    directory is made, so a run that fails writes none."""
    data = Path(data_dir) if data_dir else Path(config.output_dir)
    spectra = _load_spectra(config, data)
    directions = config.directions
    interval, band = config.trajectory.interval, config.band
    total = len(directions)

    if config.grid.dim == 2:
        planes = [(config.grid, config.grid.points(), "")]
    else:
        planes = []
        for i, spec in enumerate(config.slices, start=1):
            g2, pts3, snapped = imaging.slice_grid(config.grid, spec)
            if abs(snapped - spec.offset) > 1e-12:
                print(f"warning: slice offset {spec.offset} snapped to "
                      f"lattice plane {snapped} (slice {i})", file=sys.stderr)
            planes.append((g2, pts3, f"_slice{i}"))
    _warn_aliasing(directions, planes, band)

    # each direction's sums over all planes, drawn from one lattice_sums
    # per plane in lockstep
    draws = [indicator.lattice_sums(spectra, directions, pts, interval, band)
             for _, pts, _ in planes]
    sums = []
    for j, d in enumerate(directions, start=1):
        _progress(j, total, f"imaging {_direction_label(d)}")
        sums.append(np.concatenate([next(draw) for draw in draws]))
    # one filter decision and one combined field over all planes together;
    # after it the sums are inverted in place
    multi, kept = indicator.combine_directions(sums, config.threshold)
    fields = {f"field_{j}": indicator.indicator_values(s)
              for j, s in enumerate(sums, start=1)}
    if multi is None:
        print("warning: the filter dropped every direction; no combined field",
              file=sys.stderr)
    else:
        fields["field_multi"] = multi
    for name, values in fields.items():
        imaging.check_pgm_values(name, values)

    out = _out_dir(config, out_dir)
    ends = np.cumsum([g2.size for g2, _, _ in planes])[:-1]
    for name, values in fields.items():
        for (g2, _, tag), vals in zip(planes, np.split(values, ends)):
            fld = ScalarField(g2, vals)
            imaging.write_field_csv(out / f"{name}{tag}.csv", fld)
            imaging.write_pgm(out / f"{name}{tag}.pgm", fld)
    dropped = [j + 1 for j in range(total) if j not in kept]
    print(f"kept {len(kept)} of {total} directions; dropped {len(dropped)}"
          + (f" {dropped}" if kept and dropped else ""))
    return 0


def _score(fld: ScalarField, mask: np.ndarray, argmax: int) -> dict:
    """contrast_metric and argmax_in_mask of a mask that is neither empty
    nor full, with a non-finite metric as None (JSON null); {} otherwise."""
    if not mask.any() or mask.all():
        return {}
    entry = {k: v if math.isfinite(v) else None
             for k, v in imaging.contrast_metric(fld, mask).items()}
    entry["argmax_in_mask"] = bool(mask[argmax])
    return entry


def cmd_compare(config: ExperimentConfig, field_path, out_file) -> int:
    """Metrics of a field CSV against each direction's strip mask and the
    Theta-domain built from the same strips, each mask by mask_strip."""
    if config.grid.dim != 2:
        raise ValidationError("compare scores 2D grids only; the slice "
                              "fields of a 3D grid are not scored")
    if not Path(field_path).is_file():
        raise ValidationError(f"missing field file {field_path}")
    fld = imaging.read_field_csv(field_path, config.grid)
    argmax = int(np.argmax(fld.values))
    strips = [traj_mod.strip(config.trajectory, d) for d in config.directions]
    entries = []
    for j, s in enumerate(strips, start=1):
        entry = {"index": j, "observable": not s.empty}
        if s.empty:
            entry["strip_empty"] = True
        else:
            entry.update(strip_lo=s.lo, strip_hi=s.hi, **_score(
                fld, imaging.mask_strip(config.grid, s), argmax))
        entries.append(entry)
    domain = traj_mod.ThetaDomain(tuple(strips))
    report = {"directions": entries, "theta_domain": None}
    if domain.strips:
        report["theta_domain"] = {"n_strips": len(domain.strips), **_score(
            fld, imaging.mask_strip(config.grid, domain), argmax)}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
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
    sp.add_argument("--threads", type=int, default=None,
                    help="ignored: image runs on one thread")
    sp = sub.add_parser("compare", help="compare a field against the oracles")
    sp.add_argument("--config", required=True)
    sp.add_argument("--field", required=True, help="field CSV to score")
    sp.add_argument("--out", default=None, help="metrics JSON file (default: stdout)")
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
            if args.threads is not None:
                print("warning: --threads is ignored; image runs on one "
                      "thread", file=sys.stderr)
            return cmd_image(config, args.data, args.out)
        return cmd_compare(config, args.field, args.out)
    except (DiagonalizationError, np.linalg.LinAlgError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # ValidationError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
