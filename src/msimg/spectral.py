"""Discrete far-field operator and its positive spectral surrogate.

The banded far-field data generate a frequency-convolution operator whose
midpoint discretization is the N x N complex Toeplitz matrix

    F[n, m] = w((n - m + 1/2) dk) * dk,

with negative arguments supplied by conjugate symmetry.  Range tests need
the positive operator F# = |Re F| + |Im F| built by spectral calculus on
the Hermitian parts (mode "rigorous").  Mode "paper" instead diagonalizes
F itself and sets lambda_n = |Re l_n| + |Im l_n| while keeping F's
eigenvectors; the two agree when F is normal, which the Toeplitz F need
not be, so both are provided and may be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import FarFieldSamples, FrequencyBand, band_weights
from .trajectory import TimeInterval

MODE_RIGOROUS = "rigorous"
MODE_PAPER = "paper"

# Relative floor applied to eigenvalues before they divide Picard terms.
EIGENVALUE_FLOOR = 1e-14


class DiagonalizationError(RuntimeError):
    """Eigen decomposition unavailable or numerically defective."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) and matching eigenvectors of F#.

    In rigorous mode the eigenvalues are the nonnegative spectrum of the
    Hermitian F# and the eigenvector columns are orthonormal.  In paper
    mode the vectors are the unit-norm eigenvectors of F itself and need
    not be orthogonal.

    The spectrum holds read-only copies of the arrays it is given, so the
    folded Picard operators it keeps stay valid for its whole life.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mode: str
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues))
        object.__setattr__(self, "eigenvectors",
                           _read_only(self.eigenvectors))

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def floored_eigenvalues(self) -> np.ndarray:
        """Eigenvalues floored at EIGENVALUE_FLOOR * lambda_max."""
        lam_max = float(np.max(self.eigenvalues, initial=0.0))
        floor = EIGENVALUE_FLOOR * lam_max
        if floor <= 0.0:
            floor = np.finfo(float).tiny
        return np.maximum(self.eigenvalues, floor)

    def picard_operator(self, interval: TimeInterval,
                        band: FrequencyBand) -> np.ndarray:
        """R, the real (2N, 2h) folded Picard operator, h = ceil(N / 2).

        It folds G = diag(lambda^{-1/2}) V^H diag(w) (lambda the floored
        eigenvalues, V the eigenvectors, w the test-vector weights
        band_weights(interval, band)) over its conjugate phase pairs; odd
        N first gets a zero column N + 1.  Columns n = h + j and
        h + 1 - j of G meet the conjugate phases w_j and conj(w_j), so
        G_hi w_j + G_lo conj(w_j) = (G_hi + G_lo) Re w_j
        + i (G_hi - G_lo) Im w_j.  Column 2j - 2 of M holds G_hi + G_lo
        and column 2j - 1 holds i (G_hi - G_lo), and R = [Re M; Im M].
        R is built on the first call with a value-equal (interval, band)
        and kept, read-only, with the spectrum.
        """
        key = (interval, band)
        R = self._operators.get(key)
        if R is None:
            G = (self.eigenvectors.conj().T * band_weights(interval, band)
                 / np.sqrt(self.floored_eigenvalues())[:, None])
            h = (G.shape[1] + 1) // 2
            G = np.pad(G, ((0, 0), (0, 2 * h - G.shape[1])))
            hi, lo = G[:, h:], G[:, h - 1::-1]
            M = np.stack((hi + lo, 1j * (hi - lo)), axis=2).reshape(len(G), -1)
            R = np.vstack((M.real, M.imag))
            R.flags.writeable = False
            self._operators[key] = R
        return R


def _read_only(a) -> np.ndarray:
    """A read-only copy of an array."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def build_operator(samples: FarFieldSamples) -> np.ndarray:
    """The N x N complex Toeplitz matrix F of the band samples.

    Column m of the first row holds conj(w(k_{m-1})); row n of the first
    column holds w(k_n); all diagonals are constant by construction.
    """
    w = samples.values
    dk = samples.band.dk
    first_col = w * dk
    first_row = np.concatenate(([w[0]], np.conj(w[:-1]))) * dk
    # F[i, j] = first_col[i - j] for i >= j and first_row[j - i] otherwise
    n = len(w)
    diagonals = np.concatenate((first_row[:0:-1], first_col))
    return diagonals[n - 1 + np.subtract.outer(np.arange(n), np.arange(n))]


def hermitian_parts(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian matrices (Re F, Im F) with F = Re F + i Im F exactly."""
    F = np.asarray(F)
    Fh = F.conj().T
    return 0.5 * (F + Fh), (F - Fh) / 2j


def hermitian_abs(H: np.ndarray) -> np.ndarray:
    """Spectral absolute value Q |L| Q* of a Hermitian matrix."""
    H = np.asarray(H)
    if np.max(np.abs(H - H.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise ValueError("matrix is not Hermitian")
    lam, Q = np.linalg.eigh(H)
    A = (Q * np.abs(lam)) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the first significant component of each column real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        i = int(np.argmax(mags > 1e-12 * top))
        ph = col[i] / abs(col[i])
        out[:, j] = col * np.conj(ph)
    return out


def f_sharp_spectrum(F: np.ndarray, mode: str = MODE_RIGOROUS) -> Spectrum:
    """Eigensystem of the positive operator of the matrix F in `mode`.

    "rigorous": Hermitian eigensystem of |Re F| + |Im F|.
    "paper": eigensystem of F with lambda_n = |Re l_n| + |Im l_n|; raises
    DiagonalizationError when the eigenvector basis of F is numerically
    defective.
    """
    if mode == MODE_RIGOROUS:
        re, im = hermitian_parts(F)
        f_sharp = hermitian_abs(re) + hermitian_abs(im)
        lam, vecs = np.linalg.eigh(f_sharp)
    elif mode == MODE_PAPER:
        lam_c, vecs = np.linalg.eig(F)
        if np.linalg.cond(vecs) > 1e12:
            raise DiagonalizationError(
                "paper mode: eigenvector basis of the operator matrix is "
                "numerically defective")
        vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
        lam = np.abs(lam_c.real) + np.abs(lam_c.imag)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    order = np.argsort(-lam, kind="stable")
    return Spectrum(lam[order], _fix_phases(vecs[:, order]), mode)

