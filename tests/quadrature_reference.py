"""Piece-by-piece far-field quadrature, the reference the one-pass
`forward._phase_integral` is tested against: one `np.linspace` of panel
edges, one exponential and one sum per smooth piece of the orbit."""

from __future__ import annotations

import math

import numpy as np

from msimg.forward import _gauss_legendre
from msimg.trajectory import Direction, Trajectory, h_values


def phase_integral(traj: Trajectory, direction: Direction, k: float,
                   refine: int = 0) -> complex:
    """Gauss-Legendre panel evaluation of the far-field integral.

    Panels are split at velocity breakpoints; within each smooth piece the
    panel count keeps at least GL_ORDER nodes per phase oscillation, and
    `refine` doublings shrink the panels further.
    """
    iv = traj.interval
    rate = abs(k) * (1.0 + traj.speed_bound()) / (2.0 * math.pi)  # osc per unit time
    bounds = [iv.t_min, *traj.breakpoints().tolist(), iv.t_max]
    gl_nodes, gl_weights = _gauss_legendre()
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
