"""Interpolating range of c*t + x_hat . a(t), the reference the vertex
reading of `trajectory._range_of` is tested against: every orbit is
evaluated through `positions` (`np.interp` on a polyline) at the endpoints
and at the interior times where the function can turn, and reduced with
numpy.  An Arc's turning times come from a wide enumeration of both
arcsine branches, not from `trajectory._arc_critical_times`."""

from __future__ import annotations

import math

import numpy as np

from msimg.trajectory import (TWO_PI, Arc, Direction, Line, Trajectory,
                              _check_dims, h_values)

# Periods enumerated on each side of n = 0: every turning time with
# |t| + |theta - phase| below about 1,200 is found.
ARC_PERIODS = 200


def arc_critical_times(traj: Arc, direction: Direction,
                       c: float) -> list[float]:
    """Interior roots of c + d/dt x_hat . a(t) on an Arc, by brute force:
    t = s*(u0 + 2 pi n + theta - phase) for each distinct branch u0 of
    asin(s*c/r) (pi - u0 equals u0 at c = r on a counterclockwise arc)
    and every |n| <= ARC_PERIODS, kept when strictly inside the
    interval."""
    if traj.radius < c:
        return []
    theta = math.atan2(direction.vec[1], direction.vec[0])
    s, iv = traj.orientation, traj.interval
    base = math.asin(s * c / traj.radius)
    ts = (s * (u0 + TWO_PI * n + theta - traj.phase)
          for u0 in dict.fromkeys((base, math.pi - base))
          for n in range(-ARC_PERIODS, ARC_PERIODS + 1))
    return [t for t in ts if iv.t_min < t < iv.t_max]


def critical_times(traj: Trajectory, direction: Direction,
                   c: float) -> list[float]:
    """Interior times where c*t + x_hat . a(t) can have an extremum.

    It is affine on a Line (none), affine between the vertices of a
    polyline (its interior times) and sinusoidal, with closed-form turning
    points, on an Arc.
    """
    if isinstance(traj, Arc):
        return arc_critical_times(traj, direction, c)
    return [] if isinstance(traj, Line) else traj.times[1:-1].tolist()


def range_of(traj: Trajectory, direction: Direction, c: float):
    """Exact range of c*t + x_hat . a(t) over the interval, c in {0, 1}:
    of h for c = 1, of the projection x_hat . a for c = 0."""
    _check_dims(traj, direction)
    iv = traj.interval
    ts = np.array([iv.t_min, iv.t_max, *critical_times(traj, direction, c)])
    vals = (h_values(traj, direction, ts) if c
            else traj.positions(ts) @ direction.vec)
    return float(np.min(vals)), float(np.max(vals))
