"""Multi-frequency far-field synthesis for a moving point source.

The far-field value at direction x_hat and wavenumber k is the oscillatory
integral of the retarded phase over the emission interval,

    w(x_hat, k) = integral_{t_min}^{t_max} exp(-i k (x_hat . a(t) + t)) dt,

computed by composite Gauss-Legendre panels whose count tracks the
oscillation number k * (1 + max|a'|) * T.  Negative wavenumbers follow from
conjugate symmetry w(x_hat, -k) = conj(w(x_hat, k)) of real time signals.

The positive band (0, k_max] is discretized at midpoints
k_n = (n - 1/2) dk, dk = k_max / N; these samples feed the spectral module.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .trajectory import Direction, TimeInterval, Trajectory, h_values

QUAD_TOL = 1e-10
GL_ORDER = 20


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GL_ORDER-point rule on [-1, 1], computed
    on first use: importing numpy.polynomial slows every CLI start-up."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(GL_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class QuadratureError(RuntimeError):
    """Oscillatory quadrature failed to reach tolerance."""

    def __init__(self, residual: float):
        super().__init__(f"quadrature did not converge; residual {residual:.3e}")
        self.residual = residual


@dataclass(frozen=True)
class FrequencyBand:
    """Positive wavenumber band (0, k_max] sampled at N midpoints."""

    k_max: float
    n: int

    def __post_init__(self):
        if not 0 < self.k_max < math.inf:
            raise ValueError(f"k_max must be positive and finite, got "
                             f"{self.k_max!r}")
        if self.n < 1:
            raise ValueError("need at least one frequency sample")

    @property
    def dk(self) -> float:
        return self.k_max / self.n

    def midpoints(self) -> np.ndarray:
        """Sample wavenumbers k_n = (n - 1/2) dk, n = 1..N."""
        return (np.arange(1, self.n + 1) - 0.5) * self.dk

    def nodes(self) -> np.ndarray:
        """Output grid tau_n = n dk where test vectors are evaluated."""
        return np.arange(1, self.n + 1) * self.dk


def probe_entries(projections: np.ndarray, interval: TimeInterval,
                  band: FrequencyBand) -> np.ndarray:
    """Range-test vector entries on the band nodes, shape (N, P).

    sinc(tau_n T / 2) e^{-i tau_n (t_mid + p)} for each value p = x_hat . y
    of `projections`; the indicator module builds its test vectors here.
    """
    tau = band.nodes()
    T = interval.duration
    amp = np.sinc(tau * T / 2.0 / np.pi)  # sin(x)/x, exact 1 at tau = 0
    phase = np.exp(-1j * tau[:, None]
                   * (interval.midpoint + projections[None, :]))
    return amp[:, None] * phase


def band_weights(interval: TimeInterval, band: FrequencyBand) -> np.ndarray:
    """Point-independent test-vector weights, shape (N,).

    sinc(tau_n T / 2) e^{-i tau_n t_mid}; they all vanish exactly when
    dk T is a multiple of 2 pi, and every test vector with them.
    """
    # the test vector at x_hat . y = 0
    return probe_entries(np.zeros(1), interval, band)[:, 0]


@dataclass(frozen=True, eq=False)
class FarFieldSamples:
    """Far-field values at the band midpoints for one direction."""

    direction: Direction
    band: FrequencyBand
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.band.n,):
            raise ValueError(f"expected {self.band.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("far-field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative Gaussian noise level and generator seed."""

    delta: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"noise delta must be finite and >= 0, got "
                             f"{self.delta!r}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be >= 0, got {self.seed!r}")


# ---------------------------------------------------------------------------
# Oscillatory quadrature
# ---------------------------------------------------------------------------

def _phase_integral(traj: Trajectory, direction: Direction, k: float,
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


def far_field_value(traj: Trajectory, direction: Direction, k: float,
                    tol: float = QUAD_TOL) -> complex:
    """Far-field value at wavenumber k (any real k, including 0) to `tol`."""
    prev = _phase_integral(traj, direction, k, refine=0)
    for refine in range(1, 7):
        cur = _phase_integral(traj, direction, k, refine=refine)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureError(abs(cur - prev))


def far_field_line_closed_form(speed: float, angle: float, offset,
                               direction: Direction, interval: TimeInterval,
                               k: float) -> complex:
    """Analytic far field of planar straight motion; test oracle only.

    With beta = 1 + speed * cos(theta - angle) the integral reduces to
    T * sinc(k beta T / 2) * exp(-i k beta t_mid) * exp(-i k x_hat . offset),
    which covers the k*beta -> 0 limit without branching.
    """
    offset = np.asarray(offset, dtype=float)
    theta = math.atan2(direction.vec[1], direction.vec[0])
    beta = 1.0 + speed * math.cos(theta - angle)
    T = interval.duration
    arg = k * beta * T / 2.0
    sinc = np.sinc(arg / np.pi)  # sin(x)/x
    phase = -k * (beta * interval.midpoint + float(direction.vec @ offset))
    return complex(T * sinc * np.exp(1j * phase))


def sample_band(traj: Trajectory, direction: Direction,
                band: FrequencyBand) -> FarFieldSamples:
    """Far-field samples at every band midpoint."""
    vals = np.array([far_field_value(traj, direction, k)
                     for k in band.midpoints()])
    return FarFieldSamples(direction, band, vals)


def add_noise(samples: FarFieldSamples, noise: NoiseSpec) -> FarFieldSamples:
    """Multiplicative Gaussian perturbation of real and imaginary parts.

    Each sample w becomes Re(w)(1 + delta g1) + i Im(w)(1 + delta g2) with
    independent standard normal g1, g2 clamped to [-1, 1]: row n of one
    (N, 2) draw from a generator seeded by the spec, the same stream as N
    draws of two.  delta = 0 returns the input values bit-exactly.
    """
    if noise.delta == 0.0:
        return samples
    w = samples.values
    g = np.clip(np.random.default_rng(noise.seed).standard_normal(
        (len(w), 2)), -1.0, 1.0)
    # (1j * Im) * factor keeps the bits of a per-sample loop; 1j * (Im *
    # factor) turns some +0.0 real parts into -0.0 (delta > 1, Re w = 0)
    out = w.real * (1.0 + noise.delta * g[:, 0]) \
        + 1j * w.imag * (1.0 + noise.delta * g[:, 1])
    return replace(samples, values=out)


# ---------------------------------------------------------------------------
# Far-field CSV interface: header k,re,im, one row per midpoint
# ---------------------------------------------------------------------------

def write_farfield_csv(path, samples: FarFieldSamples) -> None:
    ks = samples.band.midpoints()
    with open(path, "w", encoding="utf-8") as f:
        f.write("k,re,im\n")
        for k, w in zip(ks, samples.values):
            f.write(f"{k:.17g},{w.real:.17g},{w.imag:.17g}\n")


def load_csv(path) -> np.ndarray:
    """The numbers of a comma-separated file after its header line, 2D.

    A file with no data rows gives an empty array for the caller's shape
    check to refuse, without numpy's warning that it held no data.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_farfield_csv(path, direction: Direction,
                      band: FrequencyBand) -> FarFieldSamples:
    """Load samples; the file's frequency grid must match `band`."""
    data = load_csv(path)
    if data.shape != (band.n, 3) or not np.allclose(
            data[:, 0], band.midpoints(), atol=1e-9):
        raise ValueError(f"{path}: expected {band.n} rows k,re,im on the "
                         f"frequency grid of the band")
    vals = np.empty(band.n, dtype=complex)  # re + 1j * im drops -0.0 parts
    vals.real, vals.imag = data[:, 1], data[:, 2]
    return FarFieldSamples(direction, band, vals)
