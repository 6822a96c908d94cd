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

import math
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
        """F, a real (2h, 2h) operator with ||F u|| = ||R u||, h = ceil(N / 2).

        R is the real (2N, 2h) fold of G = diag(lambda^{-1/2}) V^H diag(w)
        (lambda the floored eigenvalues, V the eigenvectors, w the
        test-vector weights band_weights(interval, band)) over its conjugate
        phase pairs (_fold_conjugate_pairs).  R has rank at most 2h, and
        F = _norm_factor(R) is its triangular QR factor with the pivot
        order folded back into the columns, so callers pass the same u.
        The factorization sorts R's rows by decreasing norm and pivots its
        columns, because the rows span the ~7 decades of lambda^{-1/2}.
        F takes N^2 multiply-adds per vector u where R takes 2 N^2.  F is
        built on the first call with a value-equal (interval, band) and
        kept, read-only, with the spectrum; R is not kept.  The cache is
        keyed by the four numbers F depends on, whose tuple hashes in C,
        not by the dataclasses, whose generated __hash__ runs in Python.
        """
        key = (interval.t_min, interval.t_max, band.k_max, band.n)
        F = self._operators.get(key)
        if F is None:
            G = (self.eigenvectors.conj().T * band_weights(interval, band)
                 / np.sqrt(self.floored_eigenvalues())[:, None])
            F = _norm_factor(_fold_conjugate_pairs(G))
            F.flags.writeable = False
            self._operators[key] = F
        return F


def _fold_conjugate_pairs(G: np.ndarray) -> np.ndarray:
    """R, the real (2N, 2h) fold of a complex (N, N) G, h = ceil(N / 2).

    Odd N first gets a zero column N + 1.  Columns n = h + j and
    h + 1 - j of G meet the conjugate phases w_j and conj(w_j), so
    G_hi w_j + G_lo conj(w_j) = (G_hi + G_lo) Re w_j
    + i (G_hi - G_lo) Im w_j.  Column 2j - 2 of M holds G_hi + G_lo and
    column 2j - 1 holds i (G_hi - G_lo), and R = [Re M; Im M], so that
    ||G z|| = ||R u|| for u = (Re w_1, Im w_1, ..., Re w_h, Im w_h).
    """
    h = (G.shape[1] + 1) // 2
    G = np.pad(G, ((0, 0), (0, 2 * h - G.shape[1])))
    hi, lo = G[:, h:], G[:, h - 1::-1]
    M = np.stack((hi + lo, 1j * (hi - lo)), axis=2).reshape(len(G), -1)
    return np.vstack((M.real, M.imag))


def _norm_factor(A: np.ndarray) -> np.ndarray:
    """F = T P^T, (n, n), with ||F u|| = ||A u|| for a real (m, n) A, m >= n.

    T is the triangular factor of a Householder QR of A with its rows
    sorted by decreasing norm and its columns pivoted greedily (at step k
    the remaining column of largest norm comes first); P is the pivot
    permutation.  A Picard operator's rows are scaled by lambda^{-1/2}
    over ~7 decades, and Householder QR keeps each row's error relative to
    that row only with both the sorting and the pivoting (Powell and Reid
    1969; Cox and Higham, BIT 38 (1998)).  Without them a sum of ~1 inside
    a strip carries the rounding of rows ~10^7 larger: on graded folds the
    unsorted factor misses the row-wise bound of ||A u||^2 by 12x and the
    unpivoted one by 15x, and np.linalg.qr(A) (neither) puts a
    single-point sum 1.5x past its tolerance against the term-by-term
    series.  Sorted and pivoted, the error stays below 0.27 of the bound.
    """
    # the columns of A are the rows of C, so each step works on rows
    C = A[np.argsort(-np.einsum("ij,ij->i", A, A), kind="stable")].T.copy()
    n = len(C)
    order = list(range(n))
    for k in range(n):
        sq = np.einsum("ij,ij->i", C[k:, k:], C[k:, k:])
        p = k + int(sq.argmax())
        norm = math.sqrt(sq[p - k])
        if norm == 0.0:
            break
        v = C[p].copy()
        if p != k:
            C[p] = C[k]
            C[k] = v
            order[k], order[p] = order[p], order[k]
        v = v[k:]
        alpha = -math.copysign(norm, v[0])
        v[0] -= alpha
        C[k, k] = alpha
        # I - 2 v v^T / (v^T v) maps column k to (alpha, 0, ..., 0) and
        # the remaining columns by rank one; v^T v / 2 = -alpha v[0]
        rest = C[k + 1:, k:]
        rest -= (rest @ v / (-alpha * v[0]))[:, None] * v
    F = np.empty((n, n))
    F[:, order] = np.tril(C[:, :n]).T
    return F


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
    return Spectrum(lam[order], _fix_phases(vecs[:, order]))

