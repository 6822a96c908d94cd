"""Orbit representations and observability analysis for moving point sources.

A moving point source is described by an orbit a(t) on an emission interval
[t_min, t_max].  For an observation direction x_hat the retarded-phase
function

    h(t) = t + x_hat . a(t)

controls what multi-frequency far-field data measured along x_hat can
reveal.  The range [xi_min, xi_max] of h over the interval decides whether
the direction is *observable* (range width >= interval duration) and, when
it is, yields the recoverable strip

    { y : xi_min - t_min <= x_hat . y <= xi_max - t_max },

a subset of the smallest slab containing the orbit and perpendicular to
x_hat.  Intersecting the strips of several observable directions gives a
convex bounding domain of the orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute tolerance on (xi_max - xi_min) - T when deciding observability;
# boundary equality counts as observable.
CLASSIFICATION_TOL = 1e-9

# |h'| below this is treated as zero when deciding where h' changes sign.
PLATEAU_TOL = 1e-10


@dataclass(frozen=True)
class TimeInterval:
    """Emission interval [t_min, t_max] of the source."""

    t_min: float
    t_max: float

    def __post_init__(self):
        if not (0.0 <= self.t_min < self.t_max):
            raise ValueError(
                f"need 0 <= t_min < t_max, got [{self.t_min}, {self.t_max}]")

    @property
    def duration(self) -> float:
        return self.t_max - self.t_min

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.t_min + self.t_max)


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit observation direction on the circle (2D) or sphere (3D)."""

    vec: np.ndarray
    theta: float | None = None
    phi: float | None = None

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if v.shape not in ((2,), (3,)):
            raise ValueError(f"direction must be a 2- or 3-vector, got shape {v.shape}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("direction vector is not unit length")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        """Planar direction (cos theta, sin theta)."""
        return cls(np.array([math.cos(theta), math.sin(theta)]), theta=theta)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "Direction":
        """Spherical direction (sin t cos p, sin t sin p, cos t)."""
        st = math.sin(theta)
        v = np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])
        return cls(v, theta=theta, phi=phi)

    def __repr__(self):
        return f"Direction({np.array2string(self.vec, precision=6)})"


# ---------------------------------------------------------------------------
# Orbit variants
# ---------------------------------------------------------------------------

class Trajectory:
    """Base orbit type: positions over a TimeInterval."""

    interval: TimeInterval
    dim: int

    def positions(self, ts: np.ndarray) -> np.ndarray:
        """Positions at an array of times, shape (len(ts), dim)."""
        raise NotImplementedError

    def speed_bound(self) -> float:
        """Upper bound on |a'(t)| over the interval."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Line(Trajectory):
    """Uniform straight-line motion offset + speed*t*unit.

    2D lines are built from a heading angle, 3D lines from a unit axis.
    It holds read-only copies of its axis and offset, so the endpoint
    positions it keeps (`vertices`) stay its own.
    """

    speed: float
    interval: TimeInterval
    angle: float | None = None
    axis: np.ndarray | None = None
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be nonnegative")
        if (self.angle is None) == (self.axis is None):
            raise ValueError("give exactly one of angle (2D) or axis (3D)")
        if self.angle is not None:
            unit = np.array([math.cos(self.angle), math.sin(self.angle)])
        else:
            unit = np.array(self.axis, dtype=float)
            if unit.shape != (3,):
                raise ValueError("axis must be a 3-vector")
            n = np.linalg.norm(unit)
            if abs(n - 1.0) > 1e-12:
                raise ValueError("axis must be a unit vector")
        off = (np.zeros(unit.shape[0]) if self.offset is None
               else np.array(self.offset, dtype=float))
        if off.shape != unit.shape:
            raise ValueError("offset dimension does not match direction")
        unit.flags.writeable = off.flags.writeable = False
        object.__setattr__(self, "axis", unit if self.angle is None else None)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "_unit", unit)

    @property
    def dim(self) -> int:
        return self._unit.shape[0]

    @property
    def unit(self) -> np.ndarray:
        return self._unit

    def positions(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self.offset[None, :] + self.speed * ts[:, None] * self._unit[None, :]

    @functools.cached_property
    def vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """Times [t_min, t_max] and the positions there, shape (2, dim),
        between which the line is affine; computed once, read-only."""
        iv = self.interval
        ts = np.array([iv.t_min, iv.t_max])
        ps = self.positions(ts)
        ts.flags.writeable = ps.flags.writeable = False
        return ts, ps

    def speed_bound(self):
        return self.speed


@dataclass(frozen=True, eq=False)
class Arc(Trajectory):
    """Circular motion center + radius*(cos(s*t + phase), sin(s*t + phase)).

    `orientation` s = +1 traverses counterclockwise, -1 clockwise; phase
    shifts the starting angle.  2D only; unit angular rate, so |a'| = radius.
    It holds a read-only copy of its center.
    """

    center: np.ndarray
    interval: TimeInterval
    radius: float = 1.0
    phase: float = 0.0
    orientation: int = 1

    def __post_init__(self):
        c = np.array(self.center, dtype=float)
        if c.shape != (2,):
            raise ValueError("arc center must be a 2-vector")
        c.flags.writeable = False
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "center", c)

    dim = 2

    def positions(self, ts):
        ts = np.asarray(ts, dtype=float)
        u = self.orientation * ts + self.phase
        out = np.empty((len(ts), 2))
        np.cos(u, out=out[:, 0])
        np.sin(u, out=out[:, 1])
        out *= self.radius
        out += self.center
        return out

    def speed_bound(self):
        return self.radius


@dataclass(frozen=True, eq=False)
class PiecewiseLinear(Trajectory):
    """Polyline orbit through (time, point) breakpoints, linear in between.

    It holds read-only copies of the times and points it is given, so the
    velocities and speed bound it derives from them once stay theirs.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        # C order: points.dot in _range_of then rounds as on the C-ordered
        # array positions() returns
        ts = np.array(self.times, dtype=float)
        ps = np.array(self.points, dtype=float, order="C")
        if ts.ndim != 1 or len(ts) < 2:
            raise ValueError("need at least two breakpoints")
        steps = np.diff(ts)
        if np.any(steps <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if ps.shape[0] != len(ts) or ps.ndim != 2 or ps.shape[1] not in (2, 3):
            raise ValueError("points must be (n, 2) or (n, 3) matching times")
        vel = np.diff(ps, axis=0) / steps[:, None]
        ts.flags.writeable = ps.flags.writeable = vel.flags.writeable = False
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "points", ps)
        object.__setattr__(self, "interval", TimeInterval(ts[0], ts[-1]))
        object.__setattr__(self, "_velocities", vel)
        object.__setattr__(self, "_speed_bound", float(np.max(
            np.linalg.norm(vel, axis=1))))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def positions(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), self.dim))
        for d in range(self.dim):
            out[:, d] = np.interp(ts, self.times, self.points[:, d])
        return out

    def velocities(self) -> np.ndarray:
        """Velocity on each segment [times[i], times[i+1]], shape (n-1, dim),
        computed once; the array is read-only."""
        return self._velocities

    @property
    def vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and points between which the orbit is affine."""
        return self.times, self.points

    def speed_bound(self):
        return self._speed_bound


class Sampled(PiecewiseLinear):
    """Orbit given by a dense (time, point) table, linearly interpolated."""


# ---------------------------------------------------------------------------
# Retarded phase h
# ---------------------------------------------------------------------------

def _check_dims(traj: Trajectory, direction: Direction):
    if traj.dim != direction.dim:
        raise ValueError(f"trajectory is {traj.dim}D but direction is {direction.dim}D")


def h_values(traj: Trajectory, direction: Direction, ts: np.ndarray) -> np.ndarray:
    """Vectorized h over an array of times."""
    _check_dims(traj, direction)
    ts = np.asarray(ts, dtype=float)
    return ts + traj.positions(ts) @ direction.vec


# ---------------------------------------------------------------------------
# Critical times: division points of h', extrema of h and of the projection
# ---------------------------------------------------------------------------

def _sign3(x: float) -> int:
    if x > PLATEAU_TOL:
        return 1
    if x < -PLATEAU_TOL:
        return -1
    return 0


def _arc_critical_times(traj: Arc, direction: Direction, c: float):
    """Closed-form interior roots of c + d/dt x_hat . a(t), c in {0, 1}.

    With the phase argument u(t) = s*t + phase - theta, d/dt x_hat . a =
    -s*r*sin(u), so the roots lie where sin(u) = s*c/r: the turning times
    of h for c = 1 (real only for r >= 1), of the projection for c = 0.
    They are t = s*(u0 + 2 pi n + theta - phase) for the two branches u0
    of the arcsine, tried once when they are the same float (c = r on a
    counterclockwise arc: pi - pi/2 == pi/2), so each t then comes once
    with the bits it had from either branch.  With a = u0 + theta - phase,
    n runs from floor((t_min - a) / 2 pi) to ceil((t_max - a) / 2 pi) for
    s = +1, from -t_max and -t_min for s = -1: every n whose t lies in
    the interval, and at each end one whose t falls on or just outside
    it, so rounding in the bounds loses no root.  A strict check on each
    t keeps the interior roots, in the order of the branches and of
    increasing n.
    """
    if traj.radius < c:
        return []
    theta = math.atan2(direction.vec[1], direction.vec[0])
    s = traj.orientation
    iv = traj.interval
    lo, hi = (iv.t_min, iv.t_max) if s == 1 else (-iv.t_max, -iv.t_min)
    base = math.asin(s * c / traj.radius)
    other = math.pi - base
    out = []
    for u0 in ((base,) if other == base else (base, other)):
        a = u0 + theta - traj.phase
        for n in range(math.floor((lo - a) / TWO_PI),
                       math.ceil((hi - a) / TWO_PI) + 1):
            t = s * (u0 + TWO_PI * n + theta - traj.phase)
            if iv.t_min < t < iv.t_max:
                out.append(t)
    return out


def division_points(traj: Trajectory, direction: Direction) -> list[float]:
    """Interior times where h' changes sign or a zero plateau starts/ends.

    Exact for every orbit variant.  h' is constant on a Line, so there are
    none.  On a polyline h' = 1 + x_hat . v is constant on each segment of
    velocity v (PiecewiseLinear.velocities), and a vertex is a division
    point when the signs of h' on its two sides differ, a zero plateau
    (|h'| <= PLATEAU_TOL) next to a nonzero slope included.  On an Arc,
    h' = 1 - s*r*sin(u) has its interior roots at sin(u) = s/r; they are
    sign changes once h' dips below -PLATEAU_TOL, i.e. for
    r > 1 + PLATEAU_TOL, while at r = 1 h' only touches zero tangentially
    and nothing is reported.
    """
    _check_dims(traj, direction)
    if isinstance(traj, Line):
        return []
    if isinstance(traj, Arc):
        if _sign3(1.0 - traj.radius) >= 0:
            return []
        return sorted(_arc_critical_times(traj, direction, 1.0))
    slopes = 1.0 + traj.velocities().dot(direction.vec)
    signs = [_sign3(s) for s in slopes.tolist()]
    return [float(traj.times[i]) for i in range(1, len(signs))
            if signs[i - 1] != signs[i]]


def _range_of(traj: Trajectory, direction: Direction, c: float):
    """Exact range of c*t + x_hat . a(t) over the interval, c in {0, 1}:
    of h for c = 1, of the projection x_hat . a for c = 0.

    The function is read only where it can turn.  A Line, PiecewiseLinear
    or Sampled orbit is affine between its vertices (`vertices`: a Line's
    two endpoints, built once), so its range is that of the vertex values
    `points @ x_hat` (plus `times` for h), one matrix-vector product.  An
    Arc is read at its endpoints and the closed-form turning times of
    _arc_critical_times, all in one positions(ts) @ x_hat: BLAS may round
    a row differently in a product with another row count.  The values
    are reduced by Python min and max, cheaper than numpy's reductions on
    so few values.
    """
    _check_dims(traj, direction)
    # ndarray.dot: the same product as @, with less call overhead
    if isinstance(traj, Arc):
        iv = traj.interval
        ts = np.array([iv.t_min, iv.t_max,
                       *_arc_critical_times(traj, direction, c)])
        proj = traj.positions(ts).dot(direction.vec)
    else:
        ts, ps = traj.vertices
        proj = ps.dot(direction.vec)
    vals = (ts + proj if c else proj).tolist()
    return min(vals), max(vals)


@dataclass(frozen=True)
class ObservabilityReport:
    """Range of h over the interval and the resulting classification."""

    xi_min: float
    xi_max: float
    duration: float
    observable: bool

    @property
    def width(self) -> float:
        return self.xi_max - self.xi_min


def xi_extrema(traj: Trajectory, direction: Direction) -> ObservabilityReport:
    """Minimum and maximum of h(t) = t + x_hat . a(t) over the interval.

    Exact for every orbit variant: h is evaluated at the endpoints and at
    the interior times where it can turn, i.e. nowhere for a Line (affine
    h), at the vertices of a polyline (piecewise affine h), and at the
    closed-form roots of h' for an Arc.
    """
    lo, hi = _range_of(traj, direction, 1.0)
    T = traj.interval.duration
    return ObservabilityReport(lo, hi, T, hi - lo >= T - CLASSIFICATION_TOL)


def classify(traj: Trajectory, direction: Direction) -> bool:
    """Observable: xi_max - xi_min >= T - CLASSIFICATION_TOL."""
    return xi_extrema(traj, direction).observable


def projection_hull(traj: Trajectory, direction: Direction) -> tuple[float, float]:
    """Range [inf, sup] of x_hat . a(t): the smallest slab holding the orbit."""
    return _range_of(traj, direction, 0.0)


# ---------------------------------------------------------------------------
# Strips and their intersection
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Strip:
    """Constraint lo <= x_hat . y <= hi; empty when hi < lo."""

    direction: Direction
    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.hi < self.lo

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        if self.empty:
            return np.zeros(len(points), dtype=bool)
        p = np.asarray(points, dtype=float) @ self.direction.vec
        return (p >= self.lo) & (p <= self.hi)


def strip(traj: Trajectory, direction: Direction) -> Strip:
    """Recoverable strip [xi_min - t_min, xi_max - t_max] along x_hat.

    Empty (hi < lo) exactly when the direction is non-observable; callers
    in multi-direction pipelines skip empty strips silently.  A direction
    observable only within CLASSIFICATION_TOL (width == T) gets the
    degenerate strip lo == hi, a hyperplane, even where rounding puts the
    raw bounds the wrong way round.
    """
    rep = xi_extrema(traj, direction)
    lo = rep.xi_min - traj.interval.t_min
    hi = rep.xi_max - traj.interval.t_max
    if rep.observable and hi < lo:
        lo = hi = 0.5 * (lo + hi)
    return Strip(direction, lo, hi)


@dataclass(frozen=True)
class ThetaDomain:
    """Intersection of the strips of the observable directions used."""

    strips: tuple

    @property
    def empty(self) -> bool:
        return len(self.strips) == 0

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.empty:
            return np.zeros(len(points), dtype=bool)
        out = np.ones(len(points), dtype=bool)
        for s in self.strips:
            out &= s.contains_many(points)
        return out


def theta_domain(traj: Trajectory, directions) -> ThetaDomain:
    """Strip intersection over the observable members of `directions`."""
    if not directions:
        raise ValueError("need at least one direction")
    strips = (strip(traj, d) for d in directions)
    return ThetaDomain(tuple(s for s in strips if not s.empty))


# ---------------------------------------------------------------------------
# Closed-form observable sets (line and unit-rate arc)
# ---------------------------------------------------------------------------

def _canonical_intervals(raw: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Reduce angle intervals mod 2 pi, splitting wraparounds in two."""
    out = []
    for lo, hi in raw:
        if hi - lo >= TWO_PI:
            out.append((0.0, TWO_PI))
            continue
        lo = lo % TWO_PI
        hi = hi % TWO_PI
        if hi == 0.0:
            hi = TWO_PI
        if lo <= hi:
            out.append((lo, hi))
        else:
            out.append((0.0, hi))
            out.append((lo, TWO_PI))
    return sorted(out)


def observable_set_line(speed: float, angle: float) -> list[tuple[float, float]]:
    """Observable heading angles for straight motion speed*t*(cos a, sin a).

    Always contains [angle - pi/2, angle + pi/2]; for speed > 2 a second
    band [angle + arccos(-2/speed), angle + 2 pi - arccos(-2/speed)] opens
    up.  Intervals are canonical in [0, 2 pi) with wraparounds split.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    raw = [(angle - math.pi / 2, angle + math.pi / 2)]
    if speed > 2:
        gap = math.acos(-2.0 / speed)
        raw.append((angle + gap, angle + TWO_PI - gap))
    return _canonical_intervals(raw)


def observable_set_arc(interval: TimeInterval) -> list[tuple[float, float]]:
    """Observable angles for a unit-radius counterclockwise arc.

    Valid for durations below a full turn; the observable band is the
    half-circle starting at the mean arc parameter.
    """
    if interval.duration >= TWO_PI:
        raise ValueError("closed form requires duration < 2 pi")
    mid = 0.5 * (interval.t_min + interval.t_max)
    return _canonical_intervals([(mid, mid + math.pi)])


def angle_in_set(intervals: list[tuple[float, float]], theta: float) -> bool:
    """Membership of theta modulo 2 pi in a canonical interval list."""
    th = theta % TWO_PI
    for lo, hi in intervals:
        if lo <= th <= hi:
            return True
        # endpoints touching the wrap seam
        if th + TWO_PI <= hi or th - TWO_PI >= lo:
            return True
    return False
