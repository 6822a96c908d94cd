"""Interpolating range of c*t + x_hat . a(t), the reference the vertex
reading of `trajectory._range_of` is tested against: every orbit is
evaluated through `positions` (`np.interp` on a polyline) at the endpoints
and at the interior times where the function can turn, and reduced with
numpy."""

from __future__ import annotations

import numpy as np

from msimg.trajectory import (Arc, Direction, Trajectory, _arc_critical_times,
                              _check_dims, h_values)


def critical_times(traj: Trajectory, direction: Direction,
                   c: float) -> list[float]:
    """Interior times where c*t + x_hat . a(t) can have an extremum.

    It is affine on a Line (no breakpoints), affine between the vertices
    of a polyline and sinusoidal, with closed-form turning points, on an
    Arc.
    """
    if isinstance(traj, Arc):
        return _arc_critical_times(traj, direction, c)
    return [float(b) for b in traj.breakpoints()]


def range_of(traj: Trajectory, direction: Direction, c: float):
    """Exact range of c*t + x_hat . a(t) over the interval, c in {0, 1}:
    of h for c = 1, of the projection x_hat . a for c = 0."""
    _check_dims(traj, direction)
    iv = traj.interval
    ts = np.array([iv.t_min, iv.t_max, *critical_times(traj, direction, c)])
    vals = (h_values(traj, direction, ts) if c
            else traj.positions(ts) @ direction.vec)
    return float(np.min(vals)), float(np.max(vals))
