"""Multi-frequency far-field synthesis for a moving point source.

The far-field value at direction x_hat and wavenumber k is the integral
of the retarded phase h(t) = t + x_hat . a(t) over the emission interval,

    w(x_hat, k) = integral_{t_min}^{t_max} exp(-i k h(t)) dt,

in closed form on every orbit: a sum of sinc terms over the segments where
h is affine (Line, PiecewiseLinear, Sampled), and a Jacobi-Anger series of
the same sinc terms on an Arc (Abramowitz and Stegun, ch. 9).  Negative
wavenumbers follow from conjugate symmetry w(x_hat, -k) = conj(w(x_hat, k))
of real time signals.  The adaptive quadrature they replaced is the tests'
reference (tests/quadrature_reference.py).

The positive band (0, k_max] is discretized at midpoints
k_n = (n - 1/2) dk, dk = k_max / N; these samples feed the spectral module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .trajectory import (TWO_PI, Arc, Direction, TimeInterval, Trajectory,
                         _check_dims)


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


def band_weights(interval: TimeInterval, band: FrequencyBand) -> np.ndarray:
    """Point-independent test-vector weights, shape (N,).

    sinc(tau_n T / 2) e^{-i tau_n t_mid}; they all vanish exactly when
    dk T is a multiple of 2 pi, and every test vector with them.
    """
    tau = band.nodes()
    return np.sinc(tau * interval.duration / 2.0 / np.pi) \
        * np.exp(-1j * tau * interval.midpoint)  # sinc(x/pi) = sin(x)/x


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
# Closed-form far field
# ---------------------------------------------------------------------------

def far_field_terms(traj: Trajectory, k_max: float) -> int:
    """Terms per wavenumber the closed form sums for |k| <= k_max: one per
    segment of an affine orbit, and on an Arc the 2 n + 1 Jacobi-Anger
    orders |n| <= kr + 11 (kr)^(1/3) + 12, kr = k_max r.  J_n(kr) decays
    within O((kr)^(1/3)) orders past n = kr, and the |J_n(kr)| past that
    sum to below 1e-17 (checked against scipy for kr <= 3e4)."""
    if isinstance(traj, Arc):
        kr = k_max * traj.radius
        return 2 * math.ceil(kr + 11.0 * kr ** (1.0 / 3.0) + 12.0) + 1
    return len(traj.vertices[0]) - 1


def _bessel_j(order: int, z: np.ndarray) -> np.ndarray:
    """J_0(z), ..., J_order(z) at each z in [0, kr], shape
    (order + 1, len(z)), for the order far_field_terms keeps at kr.

    Miller's backward recurrence J_{n-1} = (2n / z) J_n - J_{n+1} from
    J_{order+1} = 0, run on the ratios q_n = J_n / J_{n-1} =
    z / (2n - z q_{n+1}), which never approach overflow and are 0 at
    z = 0; J_n / J_0 = q_1 ... q_n is normalised by J_0 + 2 (J_2 + J_4 +
    ...) = 1 (Abramowitz and Stegun 9.1.27, 9.1.46).
    """
    q = np.ones((order + 2, len(z)))
    q[order + 1] = 0.0
    for n in range(order, 0, -1):
        np.divide(z, 2.0 * n - z * q[n + 1], out=q[n])
    ratios = np.cumprod(q[:-1], axis=0)  # J_n / J_0
    return ratios / (1.0 + 2.0 * ratios[2::2].sum(axis=0))


def _affine_far_field(traj: Trajectory, direction: Direction,
                      ks: np.ndarray) -> np.ndarray:
    """Sum over the segments of L sinc(k dh / 2) exp(-i k m) for each k:
    L the segment's duration, dh the rise of h over it and m its value at
    the midpoint, h read at the vertices as _range_of reads it."""
    ts, ps = traj.vertices
    hs = ts + ps.dot(direction.vec)
    rise, mid = hs[1:] - hs[:-1], 0.5 * (hs[1:] + hs[:-1])
    sinc = np.sinc(np.outer(ks, rise / TWO_PI))  # np.sinc(x) = sin(pi x)/(pi x)
    return (sinc * np.exp(-1j * np.outer(ks, mid))) @ (ts[1:] - ts[:-1])


def _arc_far_field(traj: Arc, direction: Direction,
                   ks: np.ndarray) -> np.ndarray:
    """Jacobi-Anger series of an Arc's far field for each k >= 0.

    With u = s t + phase - theta, exp(-i k r cos u) = sum_n (-i)^n J_n(k r)
    exp(i n u) makes w = T exp(-i k x_hat . c) sum_n J_|n|(k r) z_n
    sinc(d T / 2) exp(i d t_mid), d = n s - k, where z_n folds (-i)^n,
    e^{i n (phase - theta)} and J_-n = (-1)^n J_n, over far_field_terms.
    The z_n are running products, so no angle n theta is rounded, and
    d t_mid is taken whole, as the terms that matter have n s near k.
    """
    iv, s = traj.interval, traj.orientation
    order = far_field_terms(traj, float(ks.max(initial=0.0))) // 2
    n = np.arange(-order, order + 1)
    bessel = _bessel_j(order, ks * traj.radius)[np.abs(n)].T  # (K, terms)
    d = np.subtract.outer(s * n, ks).T
    terms = bessel * np.sinc(d * (iv.duration / TWO_PI)) \
        * np.exp(1j * iv.midpoint * d)
    x1, x2 = direction.vec.tolist()
    turn = -1j * complex(math.cos(traj.phase), math.sin(traj.phase)) \
        * complex(x1, -x2) / math.hypot(x1, x2)  # -i e^{i (phase - theta)}
    z = np.concatenate([np.cumprod(np.full(order, -turn.conjugate()))[::-1],
                        [1.0], np.cumprod(np.full(order, turn))])
    return iv.duration * np.exp(-1j * ks * direction.vec.dot(traj.center)) \
        * (terms @ z)


def far_field_value(traj: Trajectory, direction: Direction, k):
    """Far-field value at a real wavenumber k, 0 included, as a complex; at
    an array of them, as a complex array of the same shape.

    Closed form on every orbit variant (module docstring), accurate to
    1e-10 and to the rounding of the phases k h(t).  A negative k gets the
    exact conjugate of the value at |k|.
    """
    _check_dims(traj, direction)
    ks = np.asarray(k, dtype=float)
    closed = _arc_far_field if isinstance(traj, Arc) else _affine_far_field
    w = closed(traj, direction, np.abs(ks.ravel()))
    w = np.where(ks.ravel() < 0, w.conj(), w).reshape(ks.shape)
    return complex(w) if w.ndim == 0 else w


def far_field_line_closed_form(speed: float, angle: float, offset,
                               direction: Direction, interval: TimeInterval,
                               k: float) -> complex:
    """Analytic far field of planar straight motion, from the line's speed
    and heading: the oracle the benchmark and the tests check
    `sample_band` against, kept apart from the segment sum it checks.

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
    """Far-field samples at every band midpoint, in one far_field_value
    call."""
    return FarFieldSamples(direction, band, far_field_value(
        traj, direction, band.midpoints()))


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

_HEADER = b"k,re,im\n"


def _k_texts(band: FrequencyBand) -> list[bytes]:
    """`.17g,` text of each band midpoint: a far-field CSV row's k cell."""
    return [f"{k:.17g},".encode() for k in band.midpoints().tolist()]


def write_farfield_csv(path, samples: FarFieldSamples) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER)
        for k, w in zip(_k_texts(samples.band), samples.values.tolist()):
            f.write(k + f"{w.real:.17g},{w.imag:.17g}\n".encode())


def read_farfield_csv(path, direction: Direction,
                      band: FrequencyBand) -> FarFieldSamples:
    """Samples on `band` as write_farfield_csv writes them.

    The header line must be the writer's, and row n must start with the
    `_k_texts` of k_n, byte for byte, and hold two numbers after it, re
    and im.
    """
    ks = _k_texts(band)
    with open(path, "rb") as f:
        if f.readline() != _HEADER:
            raise ValueError(f"{path}: the header line is not k,re,im")
        rows = f.readlines()
    if len(rows) != band.n or not all(map(bytes.startswith, rows, ks)):
        raise ValueError(f"{path}: expected {band.n} rows k,re,im on the "
                         f"frequency grid of the band")
    vals = np.empty(band.n, dtype=complex)  # re + 1j * im drops -0.0 parts
    for n, (k, row) in enumerate(zip(ks, rows)):
        try:
            vals.real[n], vals.imag[n] = map(float, row[len(k):].split(b","))
        except ValueError:
            raise ValueError(f"{path}: row {n + 2} does not hold two numbers "
                             "re,im after k") from None
    return FarFieldSamples(direction, band, vals)
