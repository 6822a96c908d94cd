import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import msimg as m
from msimg.spectral import EIGENVALUE_FLOOR


def _samples_from_values(values, band=None):
    values = np.asarray(values, dtype=complex)
    band = band or m.FrequencyBand(1.0, len(values))
    return m.FarFieldSamples(m.Direction.from_angle(0.0), band, values)


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

def test_build_operator_two_by_two():
    w1, w2 = 1.0 + 2.0j, -0.5 + 0.25j
    samples = _samples_from_values([w1, w2], m.FrequencyBand(2.0, 2))
    F = m.build_operator(samples)
    dk = 1.0
    assert_allclose(F, np.array([[w1, np.conj(w1)], [w2, w1]]) * dk,
                    atol=0)


def test_build_operator_exactly_toeplitz(vertical_line, default_band):
    samples = m.sample_band(vertical_line, m.Direction.from_angle(1.0),
                            default_band)
    F = m.build_operator(samples)
    n = F.shape[0]
    # every diagonal is constant bit-for-bit
    for d in range(-(n - 1), n):
        diag = np.diagonal(F, offset=d)
        assert np.all(diag == diag[0])
    assert F[2, 0] == F[3, 1]


def test_build_operator_zero_samples():
    F = m.build_operator(_samples_from_values(np.zeros(5)))
    assert np.all(F == 0)


# ---------------------------------------------------------------------------
# Hermitian parts and spectral absolute value
# ---------------------------------------------------------------------------

def test_hermitian_parts_scalar():
    re, im = m.spectral.hermitian_parts(np.array([[1j]]))
    assert_allclose(re, [[0.0]], atol=0)
    assert_allclose(im, [[1.0]], atol=0)


def test_hermitian_parts_random():
    rng = np.random.default_rng(5)
    F = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    re, im = m.spectral.hermitian_parts(F)
    assert np.max(np.abs(re - re.conj().T)) <= 1e-14
    assert np.max(np.abs(im - im.conj().T)) <= 1e-14
    assert_allclose(re + 1j * im, F, atol=1e-15)


def test_hermitian_parts_of_hermitian_input():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = A + A.conj().T
    re, im = m.spectral.hermitian_parts(H)
    assert np.max(np.abs(im)) <= 1e-14
    assert_allclose(re, H, atol=1e-14)


def test_hermitian_abs_diagonal():
    assert_allclose(m.spectral.hermitian_abs(np.diag([3.0, -2.0])),
                    np.diag([3.0, 2.0]), atol=1e-14)


def test_hermitian_abs_swap():
    got = m.spectral.hermitian_abs(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(got, np.eye(2), atol=1e-14)


def test_hermitian_abs_psd_fixed_point():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    P = A @ A.conj().T
    assert np.max(np.abs(m.spectral.hermitian_abs(P) - P)) \
        <= 1e-12 * np.max(np.abs(P))


def test_hermitian_abs_rejects_non_hermitian():
    with pytest.raises(ValueError):
        m.spectral.hermitian_abs(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# F# eigensystems
# ---------------------------------------------------------------------------

def test_spectrum_scalar_both_modes():
    F = np.array([[3.0 - 4.0j]])
    for mode in (m.MODE_RIGOROUS, m.MODE_PAPER):
        spec = m.f_sharp_spectrum(F, mode)
        assert spec.eigenvalues[0] == pytest.approx(7.0, abs=1e-14)
        assert_allclose(np.abs(spec.eigenvectors), [[1.0]], atol=1e-14)


def test_rigorous_positive_and_trace_identity():
    rng = np.random.default_rng(9)
    F = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    spec = m.f_sharp_spectrum(F)
    re, im = m.spectral.hermitian_parts(F)
    f_sharp = m.spectral.hermitian_abs(re) + m.spectral.hermitian_abs(im)
    assert np.all(spec.eigenvalues >= -1e-12 * spec.eigenvalues[0])
    assert np.sum(spec.eigenvalues) == pytest.approx(
        np.trace(f_sharp).real, abs=1e-10)
    # orthonormal eigenvectors
    V = spec.eigenvectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(6))) <= 1e-10


def test_rigorous_spectrum_regression(vertical_line, default_band):
    # frozen first computation for the slow vertical line viewed along x2
    samples = m.sample_band(vertical_line, m.Direction.from_angle(math.pi / 2),
                            default_band)
    spec = m.f_sharp_spectrum(m.build_operator(samples))
    assert spec.eigenvalues[0] == pytest.approx(4.42510697752, rel=1e-9)
    assert spec.eigenvalues[0] > 0
    assert spec.eigenvalues[-1] / spec.eigenvalues[0] < 1.0
    assert np.all(np.diff(spec.eigenvalues) <= 1e-15)


def test_paper_mode_defective_matrix_raises():
    F = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(m.DiagonalizationError, match="paper"):
        m.f_sharp_spectrum(F, m.MODE_PAPER)


def test_unknown_mode_rejected():
    F = np.array([[1.0]], dtype=complex)
    with pytest.raises(ValueError):
        m.f_sharp_spectrum(F, "fancy")


def test_static_source_rank_collapse(default_band):
    # a source that never moves: the operator matrix is numerically low rank
    static = m.PiecewiseLinear([1.0, 3.0], [(0.5, 0.25), (0.5, 0.25)])
    samples = m.sample_band(static, m.Direction.from_angle(0.7), default_band)
    sv = np.linalg.svd(m.build_operator(samples), compute_uv=False)
    n = default_band.n
    cutoff = math.ceil(n / 2)
    assert np.all(sv[cutoff:] < 1e-6 * sv[0])


def test_rigorous_scaling_covariance(vertical_line, default_band):
    samples = m.sample_band(vertical_line, m.Direction.from_angle(0.9),
                            default_band)
    c = 3.7
    scaled = m.FarFieldSamples(samples.direction, samples.band,
                               c * samples.values)
    s1 = m.f_sharp_spectrum(m.build_operator(samples))
    s2 = m.f_sharp_spectrum(m.build_operator(scaled))
    # eigh resolves eigenvalues to about eps * lambda_1 absolute, so the
    # 1e-10 ratio check is meaningful only for lambda >~ 1e-5 * lambda_1;
    # the rest of both spectra stays below that cut
    big = s1.eigenvalues > 1e-5 * s1.eigenvalues[0]
    assert big.sum() >= 6
    assert_allclose(s2.eigenvalues[big] / s1.eigenvalues[big], c, rtol=1e-10)
    assert np.all(s2.eigenvalues[~big] <= c * 1e-5 * s1.eigenvalues[0])
    overlaps = np.abs(np.sum(np.conj(s1.eigenvectors[:, big])
                             * s2.eigenvectors[:, big], axis=0))
    assert_allclose(overlaps, 1.0, atol=1e-8)


def test_eigenvector_phase_convention(vertical_line, default_band):
    samples = m.sample_band(vertical_line, m.Direction.from_angle(0.4),
                            default_band)
    spec = m.f_sharp_spectrum(m.build_operator(samples))
    for j in range(spec.n):
        col = spec.eigenvectors[:, j]
        i = int(np.argmax(np.abs(col) > 1e-12 * np.abs(col).max()))
        assert col[i].real > 0
        assert abs(col[i].imag) <= 1e-12 * abs(col[i])


def test_floored_eigenvalues(default_band):
    spec = m.Spectrum(np.array([2.0, 1e-20, 0.0]), np.eye(3, dtype=complex))
    floored = spec.floored_eigenvalues()
    assert floored[0] == 2.0
    assert np.all(floored[1:] == 2.0 * EIGENVALUE_FLOOR)
    zero = m.Spectrum(np.zeros(2), np.eye(2, dtype=complex))
    assert np.all(zero.floored_eigenvalues() > 0)


def test_spectrum_keeps_read_only_copies():
    lam = np.array([3.0, 1.0, 1e-20])
    vecs = np.eye(3, dtype=complex)
    spec = m.Spectrum(lam, vecs)
    for arr in (spec.eigenvalues, spec.eigenvectors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the caller's arrays stay writable, and writing them leaves the
    # spectrum and what is derived from it unchanged
    assert lam.flags.writeable and vecs.flags.writeable
    lam[:] = 7.0
    vecs[:] = 0.0
    assert np.array_equal(spec.eigenvalues, [3.0, 1.0, 1e-20])
    assert np.array_equal(spec.eigenvectors, np.eye(3))
    assert np.array_equal(spec.floored_eigenvalues(),
                          [3.0, 1.0, 3.0 * EIGENVALUE_FLOOR])


# ---------------------------------------------------------------------------
# The triangular factor of the folded Picard operator
# ---------------------------------------------------------------------------

def _graded_fold(n, seed, spread, annihilate):
    """The fold R of a complex (n, n) G with row scales 10^0 to 10^7 and
    entry magnitudes over `spread` decades, and a vector u on which the
    `annihilate` fraction of R's largest rows (at most all but one) nearly
    vanish, as the heavy rows of a Picard operator do inside a strip."""
    rng = np.random.default_rng(seed)
    exponents = rng.uniform(0.0, 7.0, n)
    exponents[0], exponents[-1] = 0.0, 7.0
    G = (10.0 ** exponents)[:, None] * 10.0 ** -rng.uniform(0, spread, (n, n)) \
        * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    R = m.spectral._fold_conjugate_pairs(G)
    cols = R.shape[1]
    k = int(annihilate * (cols - 1))
    u = rng.normal(size=cols)
    if k:
        heavy = R[np.argsort(-np.linalg.norm(R, axis=1))[:k]]
        u = np.linalg.svd(heavy)[2][k:].T @ rng.normal(size=cols - k)
    return R, u


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       spread=st.floats(0.0, 7.0), annihilate=st.floats(0.0, 1.0))
@example(n=1, seed=0, spread=0.0, annihilate=1.0)
@example(n=31, seed=1, spread=3.0, annihilate=1.0)
@example(n=6, seed=3819493866, spread=5.2, annihilate=0.94)
def test_norm_factor_rowwise_accurate(n, seed, spread, annihilate):
    R, u = _graded_fold(n, seed, spread, annihilate)
    cols = R.shape[1]
    assert R.shape == (2 * n, 2 * ((n + 1) // 2))  # odd n: a zero column
    F = m.spectral._norm_factor(R)
    assert F.shape == (cols, cols)

    # ||F u||^2 against a 40-digit ||R u||^2 of the same float R and u.
    # Householder QR with sorted rows and pivoted columns is the exact
    # factor of R + dR with ||dr_i|| <= c eps ||r_i|| (Cox and Higham
    # 1998), which moves the sum by at most sum_i 2 |r_i.u| e_i + e_i^2,
    # e_i = c eps ||r_i|| ||u||; c = 4 covers the product F u as well
    # (largest error seen over 400 such draws: 0.27 of this bound)
    with mpmath.workdps(40):
        rows = [mpmath.fdot(r.tolist(), u.tolist()) for r in R]
        exact = mpmath.fsum(x * x for x in rows)
        e = 4 * np.finfo(float).eps * np.linalg.norm(R, axis=1) \
            * np.linalg.norm(u)
        bound = sum(2 * abs(float(x)) * ei + ei * ei
                    for x, ei in zip(rows, e))
        c = F @ u
        assert abs(float(c @ c) - exact) <= bound

    # F = T P^T: column j of F is column pos(j) of the triangular T
    order = np.argsort([np.flatnonzero(F[:, j]).max() for j in range(cols)])
    T = F[:, order]
    A = R[np.argsort(-np.einsum("ij,ij->i", R, R), kind="stable")]
    T_ref, piv = scipy.linalg.qr(A, mode="r", pivoting=True)
    if not np.array_equal(order, piv):
        # a tie: the pair of an odd n's zero column has two columns of
        # equal norm, and rounding picks either one
        k = int(np.flatnonzero(order != piv)[0])
        assert abs(T[k, k]) == pytest.approx(abs(T_ref[k, k]), rel=1e-12)
        T_ref = scipy.linalg.qr(A[:, order], mode="r")
    T_ref = T_ref[:cols]
    scale = np.linalg.norm(T_ref, axis=1, keepdims=True)
    assert np.all(np.abs(np.abs(T) - np.abs(T_ref)) <= 1e-12 * scale)


def test_picard_operator_is_the_factor_of_the_fold(vertical_line,
                                                   default_band):
    samples = m.sample_band(vertical_line, m.Direction.from_angle(1.0),
                            default_band)
    spec = m.f_sharp_spectrum(m.build_operator(samples))
    iv = vertical_line.interval
    G = (spec.eigenvectors.conj().T * m.forward.band_weights(iv, default_band)
         / np.sqrt(spec.floored_eigenvalues())[:, None])
    F = spec.picard_operator(iv, default_band)
    want = m.spectral._norm_factor(m.spectral._fold_conjugate_pairs(G))
    assert F.shape == (18, 18) and np.array_equal(F, want)
