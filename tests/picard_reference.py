"""Term-by-term Picard series, the reference the folded kernel is tested
against: the test vector of a probe point from its defining entries, and
the series sum over the eigenpairs one term at a time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from msimg.forward import FrequencyBand
from msimg.spectral import Spectrum
from msimg.trajectory import Direction, TimeInterval


def probe_entries(projections: np.ndarray, interval: TimeInterval,
                  band: FrequencyBand) -> np.ndarray:
    """Range-test vector entries on the band nodes, shape (N, P).

    sinc(tau_n T / 2) e^{-i tau_n (t_mid + p)} for each value p = x_hat . y
    of `projections`.
    """
    tau = band.nodes()
    T = interval.duration
    amp = np.sinc(tau * T / 2.0 / np.pi)  # sin(x)/x, exact 1 at tau = 0
    phase = np.exp(-1j * tau[:, None]
                   * (interval.midpoint + projections[None, :]))
    return amp[:, None] * phase


@dataclass(frozen=True, eq=False)
class PicardResult:
    """Total Picard sum and the per-eigenpair contributions."""

    total: float
    terms: np.ndarray


def test_vector(direction: Direction, y, interval: TimeInterval,
                band: FrequencyBand) -> np.ndarray:
    """Entries phi_n(y), shape (N,); they depend on y only through x_hat . y."""
    proj = np.array([float(direction.vec @ np.asarray(y, dtype=float))])
    return probe_entries(proj, interval, band)[:, 0]


def picard_sum(spectrum: Spectrum, phi: np.ndarray) -> PicardResult:
    """Series terms |<phi, psi_n>|^2 / lambda_n with floored eigenvalues.

    The inner product is conjugate-linear in the second argument:
    <u, v> = sum_m u_m conj(v_m).
    """
    coef = spectrum.eigenvectors.conj().T @ np.asarray(phi)
    terms = np.abs(coef) ** 2 / spectrum.floored_eigenvalues()
    return PicardResult(float(np.sum(terms)), terms)
