"""Adaptive Gauss-Legendre far-field quadrature, the reference the closed
forms of `forward.far_field_value` are tested against: one `np.linspace`
of panel edges, one exponential and one sum per smooth piece of the
orbit, with the panels halved until two levels agree within QUAD_TOL."""

from __future__ import annotations

import functools
import math

import numpy as np

from msimg.trajectory import (Direction, PiecewiseLinear, Trajectory,
                              h_values)

QUAD_TOL = 1e-10
GL_ORDER = 20
MAX_REFINE = 6   # panel doublings before the quadrature gives up


@functools.cache
def gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GL_ORDER-point rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(GL_ORDER)


def phase_integral(traj: Trajectory, direction: Direction, k: float,
                   refine: int = 0) -> complex:
    """Gauss-Legendre panel evaluation of the far-field integral.

    Panels are split at the vertices of a polyline; within each smooth
    piece the panel count keeps at least GL_ORDER nodes per phase
    oscillation, and `refine` doublings shrink the panels further.
    """
    iv = traj.interval
    rate = abs(k) * (1.0 + traj.speed_bound()) / (2.0 * math.pi)  # osc per unit time
    bounds = (traj.times.tolist() if isinstance(traj, PiecewiseLinear)
              else [iv.t_min, iv.t_max])
    gl_nodes, gl_weights = gauss_legendre()
    total = 0.0 + 0.0j
    for a, b in zip(bounds[:-1], bounds[1:]):
        panels = max(1, int(math.ceil(rate * (b - a)))) << refine
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mids = 0.5 * (edges[1:] + edges[:-1])
        ts = (mids[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
        phases = h_values(traj, direction, ts)
        w = (half[:, None] * gl_weights[None, :]).ravel()
        total += np.sum(w * np.exp(-1j * k * phases))
    return complex(total)


def far_field_value(traj: Trajectory, direction: Direction,
                    k: float) -> complex:
    """Far-field value at a real wavenumber k to QUAD_TOL: the panels are
    doubled until two levels agree."""
    prev = phase_integral(traj, direction, k, refine=0)
    for refine in range(1, MAX_REFINE + 1):
        cur = phase_integral(traj, direction, k, refine=refine)
        if abs(cur - prev) < QUAD_TOL:
            return cur
        prev = cur
    raise AssertionError(f"quadrature did not converge; residual "
                         f"{abs(cur - prev):.3e}")
