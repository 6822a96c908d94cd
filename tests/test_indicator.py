import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_max_ulp

import msimg as m
import picard_reference as ref

TWO_PI = 2 * math.pi
POINT_CHUNK = m.indicator.POINT_CHUNK


def _spectrum_for(traj, theta, band, mode=m.MODE_RIGOROUS):
    d = m.Direction.from_angle(theta)
    samples = m.sample_band(traj, d, band)
    return m.f_sharp_spectrum(m.build_operator(samples), mode), d


def _direct_entries(direction, y, interval, band):
    # reference evaluation straight from the defining expression
    tau = band.nodes()
    T = interval.duration
    proj = float(direction.vec @ np.asarray(y, dtype=float))
    return (1j / (T * tau)) * (np.exp(-1j * tau * interval.t_max)
                               - np.exp(-1j * tau * interval.t_min)) \
        * np.exp(-1j * tau * proj)


# ---------------------------------------------------------------------------
# Test vectors
# ---------------------------------------------------------------------------

def test_test_vector_first_entry(default_band):
    # orthogonal probe point, T = 2, tau_1 = pi/6
    interval = m.TimeInterval(1, 3)
    d = m.Direction.from_angle(0.0)
    phi = ref.test_vector(d, (0.0, 5.0), interval, default_band)
    tau1 = math.pi / 6
    want = (1j / (2 * tau1)) * (np.exp(-3j * tau1) - np.exp(-1j * tau1))
    assert phi[0] == pytest.approx(want, abs=1e-14)


def test_test_vector_matches_direct_formula(default_band):
    rng = np.random.default_rng(3)
    interval = m.TimeInterval(0.5, 2.75)
    for _ in range(25):
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        y = rng.uniform(-3, 3, 2)
        got = ref.test_vector(d, y, interval, default_band)
        assert_allclose(got, _direct_entries(d, y, interval, default_band),
                        atol=1e-13)


def test_test_vector_modulus_bounded(default_band):
    rng = np.random.default_rng(4)
    for _ in range(1000):
        interval = m.TimeInterval(float(rng.uniform(0.1, 1)),
                                  float(rng.uniform(1.5, 4)))
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        y = rng.uniform(-5, 5, 2)
        phi = ref.test_vector(d, y, interval, default_band)
        assert np.all(np.abs(phi) <= 1.0 + 1e-12)


def test_test_vector_small_node_limit():
    # the closed form has a removable singularity at tau = 0; entries stay
    # well defined and tend to 1 as the node frequency vanishes
    band = m.FrequencyBand(1e-12, 1)
    phi = ref.test_vector(m.Direction.from_angle(0.3), (0.4, -0.2),
                        m.TimeInterval(1, 3), band)
    assert phi[0] == pytest.approx(1.0, abs=1e-10)


def test_test_vector_hyperplane_shift_bit_identical(default_band):
    interval = m.TimeInterval(1, 3)
    d = m.Direction.from_angle(0.0)  # x_hat = (1, 0); (0, s) shifts are unseen
    a = ref.test_vector(d, (0.7, -1.0), interval, default_band)
    b = ref.test_vector(d, (0.7, 4.0), interval, default_band)
    assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 18, 72]), k_max=st.floats(1e-3, 100.0),
       t_min=st.floats(0.0, 20.0), duration=st.floats(1e-3, 20.0))
def test_band_weights_are_the_test_vector_at_zero(n, k_max, t_min, duration):
    # the weights are the reference entries at x_hat . y = 0, bit for bit
    iv = m.TimeInterval(t_min, t_min + duration)
    band = m.FrequencyBand(k_max, n)
    assert np.array_equal(m.forward.band_weights(iv, band),
                          ref.probe_entries(np.zeros(1), iv, band)[:, 0])


# ---------------------------------------------------------------------------
# Picard sums
# ---------------------------------------------------------------------------

def test_picard_sum_on_eigenvector(vertical_line, default_band):
    spec, _ = _spectrum_for(vertical_line, math.pi / 2, default_band)
    res = ref.picard_sum(spec, spec.eigenvectors[:, 0])
    assert res.total == pytest.approx(1.0 / spec.eigenvalues[0], rel=1e-12)
    assert res.terms[0] == pytest.approx(res.total, rel=1e-6)


def test_picard_sum_zero_vector(vertical_line, default_band):
    spec, _ = _spectrum_for(vertical_line, math.pi / 2, default_band)
    res = ref.picard_sum(spec, np.zeros(default_band.n, dtype=complex))
    assert res.total == 0.0
    assert np.all(res.terms == 0.0)


def test_picard_sum_scaling(vertical_line, default_band):
    d = m.Direction.from_angle(math.pi / 2)
    samples = m.sample_band(vertical_line, d, default_band)
    c = 2.5
    scaled = m.FarFieldSamples(d, default_band, c * samples.values)
    s1 = m.f_sharp_spectrum(m.build_operator(samples))
    s2 = m.f_sharp_spectrum(m.build_operator(scaled))
    phi = ref.test_vector(d, (0.0, 2.0), vertical_line.interval, default_band)
    r1 = ref.picard_sum(s1, phi)
    r2 = ref.picard_sum(s2, phi)
    # 1/c scaling is exact in exact arithmetic; in floats the eigenpairs
    # below the eigh noise floor do not reproduce, so pin the resolved part
    # tightly and the full sum at the level the noise terms permit
    stable = s1.eigenvalues > 1e-5 * s1.eigenvalues[0]
    assert r2.terms[stable].sum() == pytest.approx(
        r1.terms[stable].sum() / c, rel=1e-10)
    assert r2.total == pytest.approx(r1.total / c, rel=1e-3)


def test_picard_sum_invariant_under_degenerate_relabeling():
    # a spectrum with a three-fold eigenvalue: any unitary remix of the
    # degenerate eigenvectors leaves the series unchanged
    rng = np.random.default_rng(10)
    n = 6
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(A)
    lam = np.array([5.0, 5.0, 5.0, 2.0, 1.0, 0.5])
    spec1 = m.Spectrum(lam, Q)
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    U, _ = np.linalg.qr(B)
    Q2 = Q.copy()
    Q2[:, :3] = Q[:, :3] @ U
    spec2 = m.Spectrum(lam, Q2)
    for _ in range(10):
        phi = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert ref.picard_sum(spec1, phi).total == pytest.approx(
            ref.picard_sum(spec2, phi).total, rel=1e-8)


# ---------------------------------------------------------------------------
# Single-direction indicator
# ---------------------------------------------------------------------------

def test_indicator_inside_vs_outside(vertical_line, default_band):
    spec, d = _spectrum_for(vertical_line, math.pi / 2, default_band)
    iv = vertical_line.interval
    w_in = m.indicator_single(spec, d, (0.0, 2.0), iv, default_band)
    w_out = m.indicator_single(spec, d, (0.0, 0.25), iv, default_band)
    assert w_in >= 10 * w_out


def test_indicator_non_observable_suppressed(vertical_line, default_band):
    spec, d = _spectrum_for(vertical_line, 5 * math.pi / 4, default_band)
    grid = m.make_grid([(-2, 2), (0, 4)], (41, 41))
    sums = m.picard_sums_grid(spec, d, grid.points(), vertical_line.interval,
                              default_band)
    assert (1.0 / sums).max() <= 1e-3


def test_indicator_hyperplane_invariance(vertical_line, default_band):
    spec, d = _spectrum_for(vertical_line, 0.0, default_band)
    iv = vertical_line.interval
    a = m.indicator_single(spec, d, (0.5, -1.0), iv, default_band)
    b = m.indicator_single(spec, d, (0.5, 3.3), iv, default_band)
    assert a == b


def test_picard_sums_grid_matches_pointwise(vertical_line, default_band):
    spec, d = _spectrum_for(vertical_line, 1.0, default_band)
    iv = vertical_line.interval
    pts = np.array([[0.0, 2.0], [1.0, 1.0], [-1.5, 3.5]])
    grid_vals = m.picard_sums_grid(spec, d, pts, iv, default_band)
    for p, v in zip(pts, grid_vals):
        want = ref.picard_sum(spec,
                              ref.test_vector(d, p, iv, default_band)).total
        assert v == pytest.approx(want, rel=1e-9)


def _rounding_bound(spectrum, result, band, interval, proj):
    """First-order bound on how far two float64 evaluations of one Picard
    sum may differ: every test-vector entry carries a phase rounding of
    about eps (1 + k_max (|t_mid| + |x_hat . y|)), a coefficient c_n sums
    N entries (|dc_n| <= sqrt(N) times that), and dc_n moves the sum by
    2 |c_n| |dc_n| / lambda_n."""
    eps = np.finfo(float).eps
    delta = eps * math.sqrt(band.n) * (
        1.0 + band.k_max * (abs(interval.midpoint) + abs(proj)))
    lam = spectrum.floored_eigenvalues()
    return 2.0 * delta * float(np.sum(np.sqrt(result.terms / lam)))


@pytest.mark.parametrize("mode", [m.MODE_RIGOROUS, m.MODE_PAPER])
@pytest.mark.parametrize("n", [1, 2, 18, 72])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 2 * POINT_CHUNK + 37])
def test_picard_sums_grid_matches_picard_sum(vertical_line, n, mode, count):
    band = m.FrequencyBand(3 * math.pi, n)
    spec, d = _spectrum_for(vertical_line, 1.0, band, mode)
    iv = vertical_line.interval
    # x_hat . y sweeps [-50, 50]; the offset along the strip varies too
    s = np.linspace(-50.0, 50.0, count)
    normal = np.array([-d.vec[1], d.vec[0]])
    pts = s[:, None] * d.vec + np.sin(7 * s)[:, None] * normal
    got = m.picard_sums_grid(spec, d, pts, iv, band)
    assert got.shape == (count,)
    for g, p, proj in zip(got, pts, s):
        want = ref.picard_sum(spec, ref.test_vector(d, p, iv, band))
        # 1e-9 relative, except where the series is so ill-conditioned
        # (small sum, components on floored eigenvalues) that rounding
        # alone moves the reference further
        tol = max(1e-9 * want.total,
                  _rounding_bound(spec, want, band, iv, proj))
        assert abs(g - want.total) <= tol


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 72), k_max=st.floats(0.1, 60.0),
       proj=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
def test_picard_seed_matches_complex_exp(n, k_max, proj):
    # the grid kernel seeds w_1 = e^{-i dk p / 2} as the cosine and sine
    # of t = (-dk / 2) p; the complex exponential of -0.5j dk p it
    # replaces agrees within 1 ulp in each part
    dk = m.FrequencyBand(k_max, n).dk
    p = np.array(proj)
    t = (-0.5 * dk) * p
    want = np.exp(-0.5j * dk * p)
    assert_array_max_ulp(np.cos(t), want.real, 1)
    assert_array_max_ulp(np.sin(t), want.imag, 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 40),
       mode=st.sampled_from([m.MODE_RIGOROUS, m.MODE_PAPER]),
       theta=st.floats(0.0, 2 * math.pi),
       offsets=st.lists(st.tuples(st.floats(-30.0, 30.0),
                                  st.floats(-5.0, 5.0)),
                        min_size=1, max_size=4))
def test_folded_kernel_matches_picard_sum(n, mode, theta, offsets):
    # the fold pairs columns n and N + 1 - n of G (odd N through a zero
    # column); points move across the strip (x_hat . y) and along it
    band = m.FrequencyBand(3 * math.pi, n)
    spec, d = _spectrum_for(_LINE_2D, theta, band, mode)
    iv = _LINE_2D.interval
    normal = np.array([-d.vec[1], d.vec[0]])
    pts = np.array([a * d.vec + b * normal for a, b in offsets])
    got = m.picard_sums_grid(spec, d, pts, iv, band)
    for g, p in zip(got, pts):
        want = ref.picard_sum(spec, ref.test_vector(d, p, iv, band))
        bound = _rounding_bound(spec, want, band, iv, float(d.vec @ p))
        assert abs(g - want.total) <= max(1e-9 * want.total, bound)
        single = 1.0 / m.indicator_single(spec, d, p, iv, band)
        assert abs(single - want.total) <= max(1e-10 * want.total, bound)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(theta=st.floats(0.0, 2 * math.pi), proj=st.floats(-6.0, 6.0),
       normal=st.floats(-3.0, 3.0))
def test_picard_sums_grid_period(theta, proj, normal):
    # tau_n = n dk, so the series is periodic in x_hat . y with 2 pi / dk
    line = m.Line(1.0, angle=math.pi / 2, offset=(0, 0),
                  interval=m.TimeInterval(1, 3))
    band = m.FrequencyBand(3 * math.pi, 18)
    spec, d = _spectrum_for(line, theta, band)
    period = 2 * math.pi / band.dk
    y = proj * d.vec + normal * np.array([-d.vec[1], d.vec[0]])
    pts = np.array([y, y + period * d.vec])
    a, b = m.picard_sums_grid(spec, d, pts, line.interval, band)
    assert b == pytest.approx(a, rel=1e-9)


# ---------------------------------------------------------------------------
# Direction filtering and the combined indicator
# ---------------------------------------------------------------------------

def test_filter_infinite_threshold_keeps_all():
    sums = [np.array([1e9, 2e9]), np.array([0.5, 4.0])]
    assert m.direction_filter(sums, float("inf")) == [0, 1]


def test_combine_directions_reciprocal_of_kept_sum():
    # direction 1 exceeds the threshold everywhere; a zero sum maps to +inf
    sums = [np.array([0.0, 1.0, 3.0]), np.array([5e3, 6e3, 7e3]),
            np.array([0.0, 1.0, 1.0])]
    vals, kept = m.combine_directions(sums, 3.5e3)
    assert kept == [0, 2]
    assert np.array_equal(vals, [np.inf, 0.5, 0.25])


def test_combine_directions_bit_identical_to_stacked_sum():
    # adding the kept sums one by one into one array is the stacked axis-0
    # sum, bit for bit, so combined fields keep their bytes
    rng = np.random.default_rng(13)
    for k in range(1, 10):
        sums = [rng.uniform(0.0, 4.0, 1000) ** rng.uniform(1, 8)
                for _ in range(k)]
        sums[0][:3] = 0.0
        vals, kept = m.combine_directions(sums, np.inf)
        with np.errstate(divide="ignore"):
            want = 1.0 / np.sum(sums, axis=0)
        assert kept == list(range(k))
        assert np.array_equal(vals, want)


def test_filter_mixed_run(vertical_line, default_band):
    grid = m.make_grid([(-2, 2), (0, 4)], (41, 41))
    iv = vertical_line.interval
    sums = []
    for theta in (math.pi / 2, 5 * math.pi / 4):
        spec, d = _spectrum_for(vertical_line, theta, default_band)
        sums.append(m.picard_sums_grid(spec, d, grid.points(), iv,
                                       default_band))
    assert m.direction_filter(sums) == [0]


def test_filter_single_observable(vertical_line, default_band):
    grid = m.make_grid([(-2, 2), (0, 4)], (41, 41))
    spec, d = _spectrum_for(vertical_line, math.pi / 2, default_band)
    sums = m.picard_sums_grid(spec, d, grid.points(), vertical_line.interval,
                              default_band)
    assert m.direction_filter([sums]) == [0]


def test_multi_equals_single_for_one_direction(vertical_line, default_band):
    spec, d = _spectrum_for(vertical_line, math.pi / 2, default_band)
    iv = vertical_line.interval
    y = (0.3, 2.2)
    want = 1.0 / ref.picard_sum(spec,
                                ref.test_vector(d, y, iv, default_band)).total
    # the folded series and the term-by-term reference round differently:
    # here each sits within ~3e-11 (relative) of the exact sum
    assert m.indicator_single(spec, d, y, iv, default_band) == \
        pytest.approx(want, rel=1e-10)
    assert m.indicator_multi([spec], [d], y, iv, default_band) == \
        pytest.approx(want, rel=1e-10)


def test_multi_is_reciprocal_sum(vertical_line, default_band):
    iv = vertical_line.interval
    specs, dirs, sums = [], [], []
    y = (0.1, 2.0)
    for theta in (0.0, math.pi / 2):
        spec, d = _spectrum_for(vertical_line, theta, default_band)
        specs.append(spec)
        dirs.append(d)
        sums.append(ref.picard_sum(
            spec, ref.test_vector(d, y, iv, default_band)).total)
    got = m.indicator_multi(specs, dirs, y, iv, default_band)
    # the folded series against the term-by-term reference: each sits
    # within ~3e-11 (relative) of the exact sum at this point
    assert got == pytest.approx(1.0 / (sums[0] + sums[1]), rel=1e-10)


def test_multi_rejects_empty_direction_set(default_band):
    with pytest.raises(ValueError):
        m.indicator_multi([], [], (0.0, 0.0), m.TimeInterval(1, 3),
                          default_band)


def test_adding_direction_never_increases(vertical_line, default_band):
    iv = vertical_line.interval
    s1, d1 = _spectrum_for(vertical_line, math.pi / 2, default_band)
    s2, d2 = _spectrum_for(vertical_line, 0.0, default_band)
    rng = np.random.default_rng(12)
    for _ in range(25):
        y = rng.uniform(-2, 4, 2)
        w1 = m.indicator_multi([s1], [d1], y, iv, default_band)
        w12 = m.indicator_multi([s1, s2], [d1, d2], y, iv, default_band)
        assert w12 <= w1 + 1e-300


def test_multi_concentrates_on_segment(vertical_line, default_band):
    # two orthogonal views pin the vertical segment x1 = 0, 1 <= x2 <= 3
    iv = vertical_line.interval
    grid = m.make_grid([(-2, 2), (0, 4)], (81, 81))
    specs, dirs = [], []
    for theta in (0.0, math.pi / 2):
        spec, d = _spectrum_for(vertical_line, theta, default_band)
        specs.append(spec)
        dirs.append(d)
    vals, kept = m.filtered_field_values(specs, dirs, grid.points(), iv,
                                         default_band)
    assert kept == [0, 1]
    pts = grid.points()
    on_segment = (np.abs(pts[:, 0]) < 1e-12) & (pts[:, 1] >= 1) \
        & (pts[:, 1] <= 3)
    dist_x = np.abs(pts[:, 0])
    dist_y = np.maximum(np.maximum(1 - pts[:, 1], pts[:, 1] - 3), 0.0)
    far = np.hypot(dist_x, dist_y) > 0.25
    assert vals[on_segment].mean() >= 10 * vals[far].mean()


def test_filtered_field_all_dropped(vertical_line, default_band):
    spec, d = _spectrum_for(vertical_line, 5 * math.pi / 4, default_band)
    grid = m.make_grid([(-2, 2), (0, 4)], (21, 21))
    vals, kept = m.filtered_field_values([spec], [d], grid.points(),
                                         vertical_line.interval, default_band)
    assert vals is None and kept == []


def _six_directions(traj, band):
    # the first angle is non-observable for the vertical line, so the
    # filter drops the first direction at the default threshold
    thetas = [5 * math.pi / 4, math.pi / 2, 0.3, math.pi, 2.0, 4.0]
    return zip(*(_spectrum_for(traj, th, band) for th in thetas))


@pytest.mark.parametrize("threshold", [m.DEFAULT_THRESHOLD, np.inf, 0.0])
def test_filtered_field_equals_combined_directions(vertical_line,
                                                   default_band, threshold):
    # streaming the directions through the filter gives the bits of
    # combine_directions over every direction's grid sums
    spectra, dirs = _six_directions(vertical_line, default_band)
    pts = m.make_grid([(-2, 2), (0, 4)], (61, 71)).points()
    iv = vertical_line.interval
    sums = [m.picard_sums_grid(spec, d, pts, iv, default_band)
            for spec, d in zip(spectra, dirs)]
    want, want_kept = m.combine_directions(sums, threshold)
    got, kept = m.filtered_field_values(spectra, dirs, pts, iv, default_band,
                                        threshold)
    assert kept == want_kept
    if threshold == 0.0:
        assert got is None and want is None and kept == []
    else:
        assert kept[0] == (0 if threshold == np.inf else 1)
        assert got.tobytes() == want.tobytes()


def test_filtered_field_holds_one_direction_at_a_time(vertical_line,
                                                      default_band):
    # the running total and one direction's sums, plus the kernel's
    # per-block temporaries: six directions held at once would not fit
    spectra, dirs = _six_directions(vertical_line, default_band)
    pts = m.make_grid([(-2, 2), (0, 4)], (300, 300)).points()
    iv = vertical_line.interval
    h = spectra[0].picard_operator(iv, default_band).shape[1] // 2
    for spec in spectra[1:]:
        spec.picard_operator(iv, default_band)
    lattice = pts.shape[0] * 8
    chunk = 4 * h * POINT_CHUNK * 16
    tracemalloc.start()
    try:
        vals, kept = m.filtered_field_values(spectra, dirs, pts, iv,
                                             default_band, np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) == 6 and vals.shape == (pts.shape[0],)
    assert peak < 3 * lattice + chunk


def test_dichotomy_median_ratio(vertical_line, default_band):
    spec, d = _spectrum_for(vertical_line, math.pi / 2, default_band)
    grid = m.make_grid([(-2, 2), (0, 4)], (201, 201))
    sums = m.picard_sums_grid(spec, d, grid.points(), vertical_line.interval,
                              default_band)
    fld = m.ScalarField(grid, 1.0 / sums)
    mask = m.mask_strip(grid, m.strip(vertical_line, d))
    met = m.contrast_metric(fld, mask, margin=0.25)
    assert met["ratio"] >= 10


# ---------------------------------------------------------------------------
# Single-point indicators on the folded operator
# ---------------------------------------------------------------------------

_LINE_2D = m.Line(1.0, angle=math.pi / 2, offset=(0, 0),
                  interval=m.TimeInterval(1, 3))
_LINE_3D = m.Line(1.0, axis=(0, 0, 1), offset=(0, 0, 0),
                  interval=m.TimeInterval(0, 1))
_DIRECTIONS = {2: [m.Direction.from_angle(a) for a in (0.3, 1.0, 2.5)],
               3: [m.Direction.from_angles(a, b)
                   for a, b in ((0.4, 0.8), (1.2, 2.0), (2.6, 4.5))]}
_SPECTRA = {}


def _query_spectra(dim, n, mode):
    """Spectra of the 2D or 3D test line for three fixed directions."""
    key = (dim, n, mode)
    if key not in _SPECTRA:
        traj = _LINE_2D if dim == 2 else _LINE_3D
        band = m.FrequencyBand(3 * math.pi, n)
        _SPECTRA[key] = (traj, band, [
            m.f_sharp_spectrum(m.build_operator(m.sample_band(traj, d, band)),
                               mode) for d in _DIRECTIONS[dim]])
    return _SPECTRA[key]


def _reference_sum(spectra, directions, y, interval, band):
    """Term-by-term Picard sum over the directions and its rounding bound."""
    total = bound = 0.0
    for spec, d in zip(spectra, directions):
        want = ref.picard_sum(spec, ref.test_vector(d, y, interval, band))
        total += want.total
        bound += _rounding_bound(spec, want, band, interval, float(d.vec @ y))
    return total, max(1e-9 * total, bound)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), n=st.sampled_from([1, 2, 18, 72]),
       mode=st.sampled_from([m.MODE_RIGOROUS, m.MODE_PAPER]),
       y=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
       j=st.integers(0, 2))
def test_single_point_indicators_match_picard_sum(dim, n, mode, y, j):
    traj, band, spectra = _query_spectra(dim, n, mode)
    dirs, iv, y = _DIRECTIONS[dim], traj.interval, np.array(y[:dim])
    want, tol = _reference_sum(spectra[j:j + 1], dirs[j:j + 1], y, iv, band)
    got = m.indicator_single(spectra[j], dirs[j], y, iv, band)
    assert abs(1.0 / got - want) <= tol
    want, tol = _reference_sum(spectra, dirs, y, iv, band)
    got = m.indicator_multi(spectra, dirs, y, iv, band)
    assert abs(1.0 / got - want) <= tol


def test_single_point_indicators_follow_new_spectra():
    # a spectrum keeps what it derives; spectra dropped and rebuilt with
    # other values (their ids are reused) must not see their predecessors'
    rng = np.random.default_rng(21)
    band = m.FrequencyBand(3 * math.pi, 6)
    iv = m.TimeInterval(1, 3)
    d = m.Direction.from_angle(0.7)
    ids = set()
    reused = False
    for _ in range(30):
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6))
                            + 1j * rng.normal(size=(6, 6)))
        spec = m.Spectrum(np.sort(rng.uniform(1e-3, 10.0, 6))[::-1], Q)
        reused |= id(spec) in ids
        ids.add(id(spec))
        for y in rng.uniform(-3, 3, (3, 2)):
            want, tol = _reference_sum([spec], [d], y, iv, band)
            got = m.indicator_single(spec, d, y, iv, band)
            assert abs(1.0 / got - want) <= tol
            got = m.indicator_multi([spec, spec], [d, d], y, iv, band)
            assert abs(1.0 / got - 2 * want) <= 2 * tol
        del spec
    assert reused


def test_folded_operator_kept_per_interval_and_band(vertical_line,
                                                    default_band,
                                                    monkeypatch):
    spec, d = _spectrum_for(vertical_line, 1.0, default_band)
    iv = vertical_line.interval
    a = spec.picard_operator(iv, default_band)
    assert not a.flags.writeable

    # value-equal (interval, band) find the same array; nothing is rebuilt
    def refuse(*args):
        raise AssertionError("weights recomputed")

    monkeypatch.setattr(m.spectral, "band_weights", refuse)
    b = spec.picard_operator(m.TimeInterval(1.0, 3.0),
                             m.FrequencyBand(3 * math.pi, 18))
    assert b is a
    monkeypatch.undo()
    c = spec.picard_operator(m.TimeInterval(1, 2.5), default_band)
    assert c is not a and not np.array_equal(c, a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), n=st.sampled_from([1, 2, 18, 72]),
       mode=st.sampled_from([m.MODE_RIGOROUS, m.MODE_PAPER]),
       y=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
       order=st.permutations(range(3)))
def test_multi_any_direction_order_matches_picard_sum(dim, n, mode, y, order):
    traj, band, spectra = _query_spectra(dim, n, mode)
    iv, y = traj.interval, np.array(y[:dim])
    base = m.indicator_multi(spectra, _DIRECTIONS[dim], y, iv, band)
    spectra = [spectra[j] for j in order]
    dirs = [_DIRECTIONS[dim][j] for j in order]
    got = m.indicator_multi(spectra, dirs, y, iv, band)
    # any order sums the term-by-term series within _reference_sum's
    # first-order rounding bound, a multiple of eps
    want, tol = _reference_sum(spectra, dirs, y, iv, band)
    assert abs(1.0 / got - want) <= tol
    # a direction's series keeps its bits in any position, so two orders
    # differ only in adding the D = 3 series: D - 1 roundings of eps / 2
    # (relative) each way, and one more in each reciprocal, D eps in all
    assert abs(got - base) <= len(dirs) * np.finfo(float).eps * base


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), n=st.sampled_from([1, 2, 18, 72]),
       mode=st.sampled_from([m.MODE_RIGOROUS, m.MODE_PAPER]),
       y=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
       j=st.integers(0, 2))
def test_single_is_multi_of_one_direction(dim, n, mode, y, j):
    traj, band, spectra = _query_spectra(dim, n, mode)
    d, iv, y = _DIRECTIONS[dim][j], traj.interval, np.array(y[:dim])
    assert m.indicator_single(spectra[j], d, y, iv, band) \
        == m.indicator_multi([spectra[j]], [d], y, iv, band)


def test_phase_rates_kept_per_band():
    band = m.FrequencyBand(3 * math.pi, 7)
    rates = m.indicator._phase_rates(band)
    assert rates is m.indicator._phase_rates(m.FrequencyBand(3 * math.pi, 7))
    assert not rates.flags.writeable
    # w_j = e^{rate_j x_hat . y}, j = 1..ceil(N / 2), rate_j = -i dk (j - 1/2)
    assert_allclose(rates, -1j * band.dk * (np.arange(1, 5) - 0.5),
                    rtol=0, atol=0)


def test_cache_hits_hash_no_interval_or_band(monkeypatch):
    # the operator and phase-rate caches are keyed by the numbers in the
    # interval and band, so a hit neither hashes nor compares either
    traj, band, spectra = _query_spectra(2, 18, m.MODE_RIGOROUS)
    dirs, iv = _DIRECTIONS[2], traj.interval
    y = np.array([0.4, 1.7])
    single = m.indicator_single(spectra[1], dirs[1], y, iv, band)
    multi = m.indicator_multi(spectra, dirs, y, iv, band)

    def refuse(*args):
        raise AssertionError("interval or band hashed or compared")

    for cls in (m.TimeInterval, m.FrequencyBand):
        monkeypatch.setattr(cls, "__hash__", refuse)
        monkeypatch.setattr(cls, "__eq__", refuse)
    equal = m.TimeInterval(iv.t_min, iv.t_max), m.FrequencyBand(band.k_max,
                                                                band.n)
    for args in ((iv, band), equal):
        assert m.indicator_single(spectra[1], dirs[1], y, *args) == single
        assert m.indicator_multi(spectra, dirs, y, *args) == multi


@pytest.mark.parametrize("change", ["t_min", "t_max", "k_max", "n"])
def test_cache_keys_hold_each_number(monkeypatch, change):
    # a new t_min, t_max, k_max or n builds a new operator, and a new
    # k_max or n new phase rates; stub weights let any band fit
    spec = m.Spectrum(np.array([2.0, 1.0]), np.eye(2))
    built = []

    def weights(interval, band):
        built.append((interval, band))
        return np.ones(2)

    monkeypatch.setattr(m.spectral, "band_weights", weights)
    iv = m.TimeInterval(1.0, 3.0)
    band = m.FrequencyBand(3 * math.pi, 18)
    a = spec.picard_operator(iv, band)
    rates = m.indicator._phase_rates(band)
    value = {"t_min": 0.5, "t_max": 2.5, "k_max": math.pi, "n": 17}[change]
    if change.startswith("t_"):
        iv = dataclasses.replace(iv, **{change: value})
    else:
        band = dataclasses.replace(band, **{change: value})
    b = spec.picard_operator(iv, band)
    assert b is not a and len(built) == 2
    assert spec.picard_operator(iv, band) is b and len(built) == 2
    assert (m.indicator._phase_rates(band) is rates) == change.startswith("t_")


@pytest.mark.parametrize("entry", ["multi, more directions",
                                   "multi, more spectra", "lattice_sums",
                                   "filtered_field_values"])
def test_unequal_spectra_and_directions_are_refused(monkeypatch, entry):
    # zip would drop the unpaired directions or spectra; the refusal
    # names both counts and comes before any operator is built
    traj, band, spectra = _query_spectra(2, 18, m.MODE_RIGOROUS)
    dirs, iv = _DIRECTIONS[2], traj.interval
    pts = m.make_grid([(-2, 2), (0, 4)], (5, 5)).points()

    def refuse(*args):
        raise AssertionError("operator built")

    monkeypatch.setattr(m.Spectrum, "picard_operator", refuse)
    y = pts[0]
    counts, call = {
        "multi, more directions": ((2, 3), lambda: m.indicator_multi(
            spectra[:2], dirs, y, iv, band)),
        "multi, more spectra": ((3, 1), lambda: m.indicator_multi(
            spectra, dirs[:1], y, iv, band)),
        # a generator: the refusal comes at its first draw
        "lattice_sums": ((2, 3), m.indicator.lattice_sums(
            spectra[:2], dirs, pts, iv, band).__next__),
        "filtered_field_values": ((3, 2), lambda: m.filtered_field_values(
            spectra, dirs[:2], pts, iv, band)),
    }[entry]
    with pytest.raises(ValueError,
                       match="%d spectra for %d directions" % counts):
        call()


# ---------------------------------------------------------------------------
# The grid kernel on lattice rows
# ---------------------------------------------------------------------------

def _assert_grid_matches_picard_sum(spec, d, pts, iv, band):
    got = m.picard_sums_grid(spec, d, pts, iv, band)
    assert got.shape == (len(pts),)
    for g, p in zip(got, pts):
        want = ref.picard_sum(spec, ref.test_vector(d, p, iv, band))
        bound = _rounding_bound(spec, want, band, iv, float(d.vec @ p))
        assert abs(g - want.total) <= max(1e-9 * want.total, bound)


@pytest.mark.parametrize("indexing", ["ij", "xy"])
@pytest.mark.parametrize("mode", [m.MODE_RIGOROUS, m.MODE_PAPER])
@pytest.mark.parametrize("n", [1, 2, 17, 18, 72])
def test_picard_sums_grid_lattice_matches_picard_sum(n, mode, indexing):
    # 37 rows of 61 points: more than POINT_CHUNK points, so the rows come
    # in two blocks; "xy" order makes the first coordinate the fast one
    traj, band, spectra = _query_spectra(2, n, mode)
    a, b = np.linspace(-6.0, 6.0, 37), np.linspace(-4.0, 8.0, 61)
    if indexing == "xy":
        a, b = b, a
    mesh = np.meshgrid(a, b, indexing=indexing)
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    assert len(pts) > POINT_CHUNK
    assert m.indicator._lattice_rows(pts)[0] == 37
    _assert_grid_matches_picard_sum(spectra[1], _DIRECTIONS[2][1], pts,
                                    traj.interval, band)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_picard_sums_grid_slice_plane_matches_picard_sum(axis):
    # a slice plane holds one constant coordinate and is a lattice of the
    # two others, whichever axis it fixes
    traj, band, spectra = _query_spectra(3, 18, m.MODE_RIGOROUS)
    grid3 = m.make_grid([(-2, 2), (-3, 1), (-1, 4)], (13, 17, 19))
    grid2, pts, _ = m.slice_grid(grid3, m.SliceSpec(axis, 0.3))
    assert m.indicator._lattice_rows(pts)[0] == grid2.resolution[0]
    for spec, d in zip(spectra, _DIRECTIONS[3]):
        _assert_grid_matches_picard_sum(spec, d, pts, traj.interval, band)


@pytest.mark.parametrize("case", ["fast moved", "slow moved", "cut mid-row",
                                  "shuffled"])
def test_picard_sums_grid_broken_lattice_is_scattered(case):
    # one point off the lattice, a lattice cut mid-row, or its points in
    # another order, is read as one row; the moved point sits inside the
    # lattice, past the first row (which gives the column phases) and the
    # first column (the row phases)
    traj, band, spectra = _query_spectra(2, 18, m.MODE_RIGOROUS)
    pts = m.make_grid([(-2, 2), (0, 4)], (9, 11)).points()
    assert m.indicator._lattice_rows(pts)[0] == 9
    if case == "cut mid-row":
        pts = pts[:-3]
    elif case == "shuffled":
        # the first two points differ in every coordinate, so the search
        # for a row length has no coordinate to watch
        pts = pts[np.random.default_rng(0).permutation(len(pts))]
        assert (pts[1] != pts[0]).all()
    else:
        pts[4 * 11 + 6, 1 if case == "fast moved" else 0] += 0.37
    _assert_grid_matches_picard_sum(spectra[1], _DIRECTIONS[2][1], pts,
                                    traj.interval, band)
    assert m.indicator._lattice_rows(pts)[0] == 1


def test_lattice_test_runs_once_per_call(monkeypatch, vertical_line,
                                         default_band):
    # filtered_field_values tests the lattice once for all its directions
    calls = []
    lattice_rows = m.indicator._lattice_rows

    def counting(points):
        calls.append(len(points))
        return lattice_rows(points)

    monkeypatch.setattr(m.indicator, "_lattice_rows", counting)
    spectra, dirs = _six_directions(vertical_line, default_band)
    pts = m.make_grid([(-2, 2), (0, 4)], (21, 23)).points()
    iv = vertical_line.interval
    _, kept = m.filtered_field_values(spectra, dirs, pts, iv, default_band,
                                      np.inf)
    assert len(kept) == 6 and calls == [len(pts)]
    m.picard_sums_grid(spectra[1], dirs[1], pts, iv, default_band)
    assert calls == [len(pts)] * 2


@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_points_are_lattices(dim):
    # points built as bench/workloads.py's grid_sweep builds them (the 3D
    # orbit on its x1 = 0 plane) are read as whole rows, not as one row
    a, b = np.linspace(-1.5, 2.5, 61), np.linspace(-0.5, 3.5, 61)
    g1, g2 = np.meshgrid(a, b, indexing="ij")
    cols = [g1.ravel(), g2.ravel()]
    if dim == 3:
        cols = [np.zeros(g1.size), *cols]
    assert m.indicator._lattice_rows(np.stack(cols, axis=1))[0] == 61


@pytest.mark.parametrize("threshold", [m.DEFAULT_THRESHOLD, np.inf])
def test_filtered_field_equals_combined_directions_3d(threshold):
    # the 3D twin of test_filtered_field_equals_combined_directions, on a
    # slice plane of more than POINT_CHUNK points
    traj, band, spectra = _query_spectra(3, 18, m.MODE_RIGOROUS)
    grid3 = m.make_grid([(-2, 2), (-3, 1), (-1, 4)], (41, 17, 61))
    _, pts, _ = m.slice_grid(grid3, m.SliceSpec(1, 0.5))
    assert len(pts) > POINT_CHUNK
    assert m.indicator._lattice_rows(pts)[0] == 41
    dirs, iv = _DIRECTIONS[3], traj.interval
    sums = [m.picard_sums_grid(spec, d, pts, iv, band)
            for spec, d in zip(spectra, dirs)]
    want, want_kept = m.combine_directions(sums, threshold)
    got, kept = m.filtered_field_values(spectra, dirs, pts, iv, band,
                                        threshold)
    assert kept == want_kept and kept
    assert got.tobytes() == want.tobytes()
