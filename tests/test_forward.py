import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import msimg as m
import quadrature_reference as qref
from msimg.forward import _phase_integral

TWO_PI = 2 * math.pi


def _random_line(rng):
    t0 = float(rng.uniform(0.1, 1.0))
    return m.Line(float(rng.uniform(0.1, 3.0)),
                  angle=float(rng.uniform(0, TWO_PI)),
                  offset=rng.uniform(-2, 2, 2),
                  interval=m.TimeInterval(t0, t0 + float(rng.uniform(0.5, 3.0))))


# ---------------------------------------------------------------------------
# Band
# ---------------------------------------------------------------------------

def test_band_grids(default_band):
    assert default_band.dk == pytest.approx(math.pi / 6, abs=1e-15)
    ks = default_band.midpoints()
    assert len(ks) == 18
    assert_allclose(ks, (np.arange(1, 19) - 0.5) * math.pi / 6, atol=1e-14)
    assert_allclose(default_band.nodes(), np.arange(1, 19) * math.pi / 6,
                    atol=1e-14)
    assert np.all(ks > 0) and np.all(ks < default_band.k_max)


def test_band_validation():
    with pytest.raises(ValueError):
        m.FrequencyBand(-1.0, 4)
    with pytest.raises(ValueError):
        m.FrequencyBand(1.0, 0)


# ---------------------------------------------------------------------------
# Far-field values
# ---------------------------------------------------------------------------

def test_zero_wavenumber_gives_duration(vertical_line, upper_arc, broken_line):
    d = m.Direction.from_angle(0.3)
    for traj in (vertical_line, upper_arc, broken_line):
        got = m.far_field_value(traj, d, 0.0)
        assert got == pytest.approx(traj.interval.duration, abs=1e-12)


def test_closed_form_zero_at_resonant_wavenumber(vertical_line):
    # beta = 1 for the side view, so k = pi integrates two full periods
    d = m.Direction.from_angle(0.0)
    got = m.far_field_line_closed_form(1.0, math.pi / 2, (0, 0), d,
                                       vertical_line.interval, math.pi)
    assert abs(got) < 1e-14
    assert m.far_field_line_closed_form(1.0, math.pi / 2, (0, 0), d,
                                        vertical_line.interval, 0.0) \
        == pytest.approx(2.0, abs=1e-14)


def test_closed_form_stationary_phase_limit():
    # beta = 1 + c cos(theta - alpha) = 0: the integrand stops oscillating
    # and the value degenerates to T times the offset phase
    interval = m.TimeInterval(1, 3)
    offset = np.array([0.7, -0.4])
    d = m.Direction.from_angle(math.pi)  # theta - alpha = pi, c = 1
    for k in (0.8, 2.5, -1.9):
        want = interval.duration * np.exp(-1j * k * float(d.vec @ offset))
        got = m.far_field_line_closed_form(1.0, 0.0, offset, d, interval, k)
        assert abs(got - want) < 1e-13
        traj = m.Line(1.0, angle=0.0, offset=offset, interval=interval)
        assert abs(m.far_field_value(traj, d, k) - want) < 1e-10


def test_quadrature_matches_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(100):
        traj = _random_line(rng)
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        k = float(rng.uniform(-4 * math.pi, 4 * math.pi))
        got = m.far_field_value(traj, d, k)
        want = m.far_field_line_closed_form(traj.speed, traj.angle,
                                            traj.offset, d, traj.interval, k)
        assert abs(got - want) < 1e-8


def test_conjugate_symmetry():
    rng = np.random.default_rng(29)
    for _ in range(50):
        traj = _random_line(rng)
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        k = float(rng.uniform(0.01, 4 * math.pi))
        assert abs(m.far_field_value(traj, d, -k)
                   - np.conj(m.far_field_value(traj, d, k))) < 1e-10


def test_modulus_bounded_by_duration():
    rng = np.random.default_rng(31)
    for _ in range(50):
        traj = _random_line(rng)
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        k = float(rng.uniform(-4 * math.pi, 4 * math.pi))
        assert abs(m.far_field_value(traj, d, k)) \
            <= traj.interval.duration + 1e-10


def test_quadrature_panel_halving_converged(vertical_line, default_band):
    d = m.Direction.from_angle(1.1)
    for k in default_band.midpoints():
        a = _phase_integral(vertical_line, d, float(k), refine=3)
        b = _phase_integral(vertical_line, d, float(k), refine=4)
        assert abs(a - b) < 1e-8


def _random_direction(rng, dim):
    v = rng.normal(size=dim)
    return m.Direction(v / np.linalg.norm(v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), vertices=st.integers(2, 60),
       seed=st.integers(0, 2 ** 32 - 1), k=st.floats(-40.0, 40.0),
       refine=st.integers(0, 2))
def test_one_pass_quadrature_matches_piecewise_reference(dim, vertices, seed,
                                                        k, refine):
    # the same nodes and weights as the piece-by-piece loop, summed in one
    # np.sum instead of one per piece; the weights are positive and sum to
    # T.  The 4 eps T tolerance is measured, not derived: the worst of
    # 3,000 seeded cases differed by 1.03 eps T (a worst-case bound grows
    # with the number of pieces).  With one piece (two vertices) the
    # nodes, the sum and so the bits are the same
    rng = np.random.default_rng(seed)
    times = float(rng.uniform(0.0, 2.0)) \
        + np.cumsum(rng.uniform(0.02, 0.5, vertices))
    traj = m.PiecewiseLinear(times, rng.uniform(-1.5, 1.5, (vertices, dim)))
    d = _random_direction(rng, dim)
    # each piece's panel edges are np.linspace's, bit for bit
    rate = abs(k) * (1.0 + traj.speed_bound()) / (2.0 * math.pi)
    edges, start = m.forward._panel_edges(traj, rate, refine), 0
    for a, b in zip(times[:-1], times[1:]):
        n = max(1, math.ceil(rate * (b - a))) << refine
        assert np.array_equal(edges[start:start + n + 1],
                              np.linspace(a, b, n + 1))
        start += n
    assert start + 1 == len(edges)
    got = _phase_integral(traj, d, k, refine)
    want = qref.phase_integral(traj, d, k, refine)
    if vertices == 2:
        assert got == want
    else:
        assert abs(got - want) <= 4 * np.finfo(float).eps \
            * traj.interval.duration


@settings(max_examples=100, deadline=None, derandomize=True)
@given(variant=st.sampled_from(["line2d", "line3d", "arc"]),
       seed=st.integers(0, 2 ** 32 - 1), k=st.floats(-40.0, 40.0),
       refine=st.integers(0, 2))
def test_one_pass_quadrature_bit_equal_on_smooth_orbits(variant, seed, k,
                                                       refine):
    rng = np.random.default_rng(seed)
    t0 = float(rng.uniform(0.0, 2.0))
    iv = m.TimeInterval(t0, t0 + float(rng.uniform(0.1, 4.0)))
    if variant == "arc":
        traj = m.Arc(center=rng.uniform(-2, 2, 2), interval=iv,
                     radius=float(rng.uniform(0.2, 3.0)),
                     phase=float(rng.uniform(0, TWO_PI)),
                     orientation=int(rng.choice([1, -1])))
    elif variant == "line2d":
        traj = m.Line(float(rng.uniform(0, 5)), interval=iv,
                      angle=float(rng.uniform(0, TWO_PI)),
                      offset=rng.uniform(-2, 2, 2))
    else:
        traj = m.Line(float(rng.uniform(0, 5)), interval=iv,
                      axis=_random_direction(rng, 3).vec,
                      offset=rng.uniform(-2, 2, 3))
    d = _random_direction(rng, traj.dim)
    assert _phase_integral(traj, d, k, refine) \
        == qref.phase_integral(traj, d, k, refine)


def test_quadrature_batches_bound_the_nodes(monkeypatch):
    # a 7,000-vertex polyline at the deepest refinement: every h_values
    # call holds at most one batch of nodes, and the batched sum stays
    # within 4 eps T of the piece-by-piece loop
    ts = np.linspace(0.0, 2.0, 7000)
    traj = m.PiecewiseLinear(ts, np.stack([np.cos(ts), np.sin(ts)], axis=1))
    d = m.Direction.from_angle(0.7)
    sizes, h_values = [], m.forward.h_values

    def recording(traj, direction, nodes):
        sizes.append(len(nodes))
        return h_values(traj, direction, nodes)

    monkeypatch.setattr(m.forward, "h_values", recording)
    got = _phase_integral(traj, d, 30.0, m.forward.MAX_REFINE)
    assert len(sizes) > 1
    assert max(sizes) == m.forward.PANEL_BATCH * m.forward.GL_ORDER
    want = qref.phase_integral(traj, d, 30.0, m.forward.MAX_REFINE)
    assert abs(got - want) <= 4 * np.finfo(float).eps * 2.0


@pytest.mark.parametrize("batch", [1, 3, 64])
def test_quadrature_batch_size_only_reorders_the_sum(monkeypatch, batch):
    # batch edges fall inside pieces and between them; the panels and
    # nodes are the same, so only the order of summation moves
    rng = np.random.default_rng(batch)
    times = np.cumsum(rng.uniform(0.02, 0.5, 12))
    traj = m.PiecewiseLinear(times, rng.uniform(-1.5, 1.5, (12, 2)))
    d = m.Direction.from_angle(2.1)
    want = qref.phase_integral(traj, d, 17.0, 1)
    monkeypatch.setattr(m.forward, "PANEL_BATCH", batch)
    got = _phase_integral(traj, d, 17.0, 1)
    assert abs(got - want) <= 4 * np.finfo(float).eps \
        * traj.interval.duration


def test_translation_covariance():
    rng = np.random.default_rng(37)
    arc = m.Arc(center=(0.3, -0.2), radius=1.5,
                interval=m.TimeInterval(0.5, 2.0))
    for _ in range(20):
        v = rng.uniform(-2, 2, 2)
        shifted = m.Arc(center=arc.center + v, radius=1.5,
                        interval=arc.interval)
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        k = float(rng.uniform(-3 * math.pi, 3 * math.pi))
        w0 = m.far_field_value(arc, d, k)
        w1 = m.far_field_value(shifted, d, k)
        assert abs(w1 - w0 * np.exp(-1j * k * float(d.vec @ v))) < 1e-8


# ---------------------------------------------------------------------------
# Band sampling
# ---------------------------------------------------------------------------

def test_sample_band_default(vertical_line, default_band):
    d = m.Direction.from_angle(math.pi / 2)
    samples = m.sample_band(vertical_line, d, default_band)
    assert len(samples.values) == 18
    for n in (0, 7, 17):
        k = (n + 0.5) * default_band.dk
        assert samples.values[n] == pytest.approx(
            m.far_field_value(vertical_line, d, k), abs=1e-12)


def test_sample_band_single_frequency(vertical_line):
    band = m.FrequencyBand(3 * math.pi, 1)
    samples = m.sample_band(vertical_line, m.Direction.from_angle(0.2), band)
    assert len(samples.values) == 1
    assert band.midpoints()[0] == pytest.approx(band.k_max / 2, abs=1e-15)


def test_sample_band_matches_closed_form(vertical_line, default_band):
    d = m.Direction.from_angle(math.pi / 3)
    samples = m.sample_band(vertical_line, d, default_band)
    for k, w in zip(default_band.midpoints(), samples.values):
        want = m.far_field_line_closed_form(1.0, math.pi / 2, (0, 0), d,
                                            vertical_line.interval, float(k))
        assert abs(w - want) < 1e-8


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_noise_zero_level_is_identity(vertical_line, default_band):
    samples = m.sample_band(vertical_line, m.Direction.from_angle(0.5),
                            default_band)
    noisy = m.add_noise(samples, m.NoiseSpec(0.0, 42))
    assert np.array_equal(noisy.values, samples.values)


def test_noise_deterministic(vertical_line, default_band):
    samples = m.sample_band(vertical_line, m.Direction.from_angle(0.5),
                            default_band)
    a = m.add_noise(samples, m.NoiseSpec(0.01, 1234))
    b = m.add_noise(samples, m.NoiseSpec(0.01, 1234))
    assert np.array_equal(a.values, b.values)
    c = m.add_noise(samples, m.NoiseSpec(0.01, 1235))
    assert not np.array_equal(a.values, c.values)


def test_noise_perturbation_bound():
    # clamped draws never move a sample beyond delta * (|Re| + |Im|)
    rng = np.random.default_rng(41)
    n = 10_000
    band = m.FrequencyBand(1.0, n)
    vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    samples = m.FarFieldSamples(m.Direction.from_angle(0.0), band, vals)
    delta = 0.05
    noisy = m.add_noise(samples, m.NoiseSpec(delta, 99))
    bound = delta * (np.abs(vals.real) + np.abs(vals.imag))
    diff = np.abs(noisy.values - vals)
    assert np.all(diff <= bound + 1e-15)
    assert diff.mean() <= bound.mean()


def _add_noise_per_sample(values, delta, seed):
    """add_noise as a loop drawing two normals per sample."""
    rng = np.random.default_rng(seed)
    out = np.empty_like(values)
    for i, w in enumerate(values):
        g1, g2 = np.clip(rng.standard_normal(2), -1.0, 1.0)
        out[i] = w.real * (1.0 + delta * g1) \
            + 1j * w.imag * (1.0 + delta * g2)
    return out


_parts = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parts=st.lists(st.tuples(_parts, _parts), min_size=1, max_size=40),
       delta=st.floats(min_value=1e-6, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_noise_matches_per_sample_loop_bitwise(parts, delta, seed):
    # one (n, 2) draw reads the stream n draws of 2 read; -0.0 and
    # magnitudes near 1e300 included, factors 1 + delta g of either sign
    vals = np.array([complex(re, im) for re, im in parts])
    samples = m.FarFieldSamples(m.Direction.from_angle(0.0),
                                m.FrequencyBand(1.0, len(vals)), vals)
    got = m.add_noise(samples, m.NoiseSpec(delta, seed)).values
    want = _add_noise_per_sample(vals, delta, seed)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_noise_rejects_negative_level():
    with pytest.raises(ValueError):
        m.NoiseSpec(-0.1, 0)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_farfield_csv_roundtrip(tmp_path, vertical_line, default_band):
    d = m.Direction.from_angle(2.0)
    samples = m.sample_band(vertical_line, d, default_band)
    path = tmp_path / "ff.csv"
    m.write_farfield_csv(path, samples)
    header = path.read_text().splitlines()[0]
    assert header == "k,re,im"
    back = m.read_farfield_csv(path, d, default_band)
    assert np.array_equal(back.values, samples.values)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parts=st.lists(st.tuples(_finite, _finite), min_size=1, max_size=30),
       extremes=st.lists(st.sampled_from(
           [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300]),
           min_size=2, max_size=2))
def test_farfield_csv_roundtrip_bit_exact(tmp_path_factory, parts, extremes):
    # `.17g` text and loadtxt give back every finite double bit for bit:
    # -0.0, subnormals and magnitudes near 1e300 included
    vals = np.array([complex(*extremes)]
                    + [complex(re, im) for re, im in parts])
    band = m.FrequencyBand(3 * math.pi, len(vals))
    d = m.Direction.from_angle(0.5)
    path = tmp_path_factory.mktemp("ff") / "ff.csv"
    m.write_farfield_csv(path, m.FarFieldSamples(d, band, vals))
    back = m.read_farfield_csv(path, d, band).values
    assert np.array_equal(back.view(np.uint64), vals.view(np.uint64))


def _k_respelled(spell):
    """Edit of a far-field file's lines: the first row's k written as
    spell(k)."""
    def edit(lines):
        k, rest = lines[1].split(",", 1)
        assert spell(float(k)) != k
        return [lines[0], f"{spell(float(k))},{rest}", *lines[2:]]
    return edit


@pytest.mark.parametrize("edit, n", [
    pytest.param(lambda lines: lines, 9, id="wrong band"),
    pytest.param(_k_respelled(lambda k: f"{np.nextafter(k, 4.0):.17g}"), 18,
                 id="k one ulp off"),
    pytest.param(_k_respelled(lambda k: f"{k:.12g}"), 18, id="k 12 digits"),
    pytest.param(_k_respelled(repr), 18, id="k shortest repr"),
    pytest.param(lambda lines: lines + [""], 18, id="trailing blank line"),
    pytest.param(lambda lines: lines[:1] + ["# comment"] + lines[1:], 18,
                 id="comment line"),
])
def test_farfield_csv_band_mismatch(tmp_path, vertical_line, default_band,
                                    edit, n):
    # the reader takes the writer's k text of its own band and nothing else
    d = m.Direction.from_angle(2.0)
    path = tmp_path / "ff.csv"
    m.write_farfield_csv(path, m.sample_band(vertical_line, d, default_band))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError):
        m.read_farfield_csv(path, d, m.FrequencyBand(3 * math.pi, n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k_max=st.floats(1e-6, 1e6), n=st.integers(1, 64), data=st.data())
def test_farfield_csv_refuses_k_one_ulp_off(tmp_path_factory, k_max, n,
                                            data):
    band = m.FrequencyBand(k_max, n)
    d = m.Direction.from_angle(0.5)
    path = tmp_path_factory.mktemp("ff") / "ff.csv"
    m.write_farfield_csv(path, m.FarFieldSamples(d, band, np.ones(n)))
    m.read_farfield_csv(path, d, band)
    row = data.draw(st.integers(1, n))
    toward = data.draw(st.sampled_from([-math.inf, math.inf]))
    lines = path.read_text().splitlines()
    k, rest = lines[row].split(",", 1)
    lines[row] = f"{np.nextafter(float(k), toward):.17g},{rest}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        m.read_farfield_csv(path, d, band)
