"""End-to-end acceptance checks for the imaging pipeline.

One test per criterion; run with `pytest tests/test_acceptance.py -v` to get
a pass/fail line for each.  Every tolerance is pinned here, not configured.
"""

import json
import math

import numpy as np
import pytest
import scipy.ndimage as ndi

import msimg as m
from msimg import cli
from msimg.trajectory import angle_in_set

from conftest import edge_allowance, half_max_spill

PI = math.pi
TWO_PI = 2 * PI


@pytest.fixture(scope="module")
def band():
    return m.FrequencyBand(3 * PI, 18)


@pytest.fixture(scope="module")
def slow_line():
    return m.Line(1.0, angle=PI / 2, offset=(0, 0),
                  interval=m.TimeInterval(1, 3))


@pytest.fixture(scope="module")
def slow_grid():
    return m.make_grid([(-2, 2), (0, 4)], (201, 201))


def _spectrum(traj, direction, band, mode=m.MODE_RIGOROUS):
    samples = m.sample_band(traj, direction, band)
    return m.f_sharp_spectrum(m.build_operator(samples), mode)


def _field_values(traj, direction, grid, band, mode=m.MODE_RIGOROUS):
    spec = _spectrum(traj, direction, band, mode)
    sums = m.picard_sums_grid(spec, direction, grid.points(), traj.interval,
                              band)
    return 1.0 / sums


# ---------------------------------------------------------------------------
# 1. Analytic strip anchor
# ---------------------------------------------------------------------------

def test_c01_strip_and_hull_anchor():
    arc = m.Arc(center=(0, 0), radius=2 * math.sqrt(2), orientation=-1,
                interval=m.TimeInterval(PI / 4, 3 * PI / 4))
    d = m.Direction.from_angle(0.0)
    s = m.strip(arc, d)
    assert abs(s.lo - (PI / 2 - 2)) <= 1e-12
    assert abs(s.hi - (2 - PI / 2)) <= 1e-12
    lo, hi = m.projection_hull(arc, d)
    assert abs(lo + 2) <= 1e-12 and abs(hi - 2) <= 1e-12
    print(f"criterion 1: strip [{s.lo:.12f}, {s.hi:.12f}], hull [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# 2. Observability sweeps against the closed forms
# ---------------------------------------------------------------------------

def _sweep_2d(traj, expected, boundaries, n=3600):
    mismatches = []
    for i in range(n):
        th = i * TWO_PI / n
        if any(abs((th - b + PI) % TWO_PI - PI) < 1e-6 for b in boundaries):
            continue
        if m.classify(traj, m.Direction.from_angle(th)) != expected(th):
            mismatches.append(th)
    return mismatches


def test_c02_observability_sweeps():
    # straight motion at speeds 1 and 4
    for speed, alpha, interval in ((1.0, PI / 2, (1, 3)), (4.0, PI / 4, (1, 2))):
        traj = m.Line(speed, angle=alpha, offset=(0, 0),
                      interval=m.TimeInterval(*interval))
        oset = m.observable_set_line(speed, alpha)
        bounds = [b for lo, hi in oset for b in (lo, hi)]
        bad = _sweep_2d(traj, lambda th: angle_in_set(oset, th), bounds)
        assert bad == [], f"speed {speed}: disagreements at {bad[:5]}"

    # unit arcs over the first and second half turns
    for t0, t1, center in ((0.0, PI, (0, 0)), (PI, TWO_PI, (1, 2))):
        arc = m.Arc(center=center, interval=m.TimeInterval(t0, t1))
        oset = m.observable_set_arc(arc.interval)
        bounds = [b for lo, hi in oset for b in (lo, hi)]
        bad = _sweep_2d(arc, lambda th: angle_in_set(oset, th), bounds)
        assert bad == [], f"arc [{t0},{t1}]: disagreements at {bad[:5]}"

    # broken line: observable exactly on {0} union [pi, 2 pi]
    pw = m.PiecewiseLinear([0, 1, 2], [(3, 3), (2, 2), (3, 1)])
    bad = _sweep_2d(pw, lambda th: (th % TWO_PI == 0.0) or PI <= th % TWO_PI,
                    boundaries=[0.0, PI])
    assert bad == [], f"broken line: disagreements at {bad[:5]}"

    # vertical 3D line: observable exactly when cos(theta) >= 0
    line3 = m.Line(1.0, axis=(0, 0, 1), offset=(0, 0, 0),
                   interval=m.TimeInterval(0, 1))
    bad3 = []
    for phi in (0.0, PI / 4, PI / 2, PI, 5 * PI / 4):
        for i in range(3600):
            th = i * PI / 3600
            if abs(th - PI / 2) < 1e-6:
                continue
            got = m.classify(line3, m.Direction.from_angles(th, phi))
            if got != (math.cos(th) >= 0):
                bad3.append((th, phi))
    assert bad3 == [], f"3D line: disagreements at {bad3[:5]}"
    print("criterion 2: all observability sweeps agree with the closed forms")


# ---------------------------------------------------------------------------
# 3. Forward oracle
# ---------------------------------------------------------------------------

def test_c03_forward_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        t0 = float(rng.uniform(0.1, 1.0))
        traj = m.Line(float(rng.uniform(0.1, 3.0)),
                      angle=float(rng.uniform(0, TWO_PI)),
                      offset=rng.uniform(-2, 2, 2),
                      interval=m.TimeInterval(t0, t0 + float(rng.uniform(0.5, 3.0))))
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        k = float(rng.uniform(-4 * PI, 4 * PI))
        got = m.far_field_value(traj, d, k)
        want = m.far_field_line_closed_form(traj.speed, traj.angle,
                                            traj.offset, d, traj.interval, k)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-8

    worst_sym = 0.0
    for _ in range(50):
        t0 = float(rng.uniform(0.1, 1.0))
        traj = m.Arc(center=rng.uniform(-1, 1, 2),
                     radius=float(rng.uniform(0.5, 2.5)),
                     interval=m.TimeInterval(t0, t0 + float(rng.uniform(0.5, 2.0))))
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        k = float(rng.uniform(0.01, 4 * PI))
        worst_sym = max(worst_sym, abs(
            m.far_field_value(traj, d, -k)
            - np.conj(m.far_field_value(traj, d, k))))
    assert worst_sym <= 1e-10
    print(f"criterion 3: oracle gap {worst:.2e}, symmetry gap {worst_sym:.2e}")


# ---------------------------------------------------------------------------
# 4. Operator structure
# ---------------------------------------------------------------------------

def test_c04_operator_structure(slow_line, band):
    for theta in (0.0, PI / 2, 5 * PI / 4):
        d = m.Direction.from_angle(theta)
        samples = m.sample_band(slow_line, d, band)
        F = m.build_operator(samples)
        n = F.shape[0]
        for off in range(-(n - 1), n):
            diag = np.diagonal(F, offset=off)
            assert np.all(diag == diag[0]), "Toeplitz structure broken"
        re, im = m.hermitian_parts(F)
        f_sharp = m.hermitian_abs(re) + m.hermitian_abs(im)
        assert np.max(np.abs(f_sharp - f_sharp.conj().T)) <= 1e-14
        lam = np.linalg.eigvalsh(f_sharp)
        assert lam.min() >= -1e-12 * lam.max()
    print("criterion 4: matrices exactly Toeplitz, F# Hermitian PSD")


# ---------------------------------------------------------------------------
# 5. Dichotomy contrast
# ---------------------------------------------------------------------------

def test_c05_dichotomy_contrast(slow_line, slow_grid, band):
    d = m.Direction.from_angle(PI / 2)
    vals = _field_values(slow_line, d, slow_grid, band)
    fld = m.ScalarField(slow_grid, vals)
    mask = m.mask_strip(slow_grid, m.strip(slow_line, d))
    met = m.contrast_metric(fld, mask, margin=0.25)
    print(f"criterion 5: inside/outside median ratio {met['ratio']:.4g}")
    assert met["ratio"] >= 10


# ---------------------------------------------------------------------------
# 6. Non-observable suppression
# ---------------------------------------------------------------------------

def test_c06_non_observable_suppression(slow_line, slow_grid, band):
    d = m.Direction.from_angle(5 * PI / 4)
    vals = _field_values(slow_line, d, slow_grid, band)
    print(f"criterion 6: 2D non-observable max W = {vals.max():.3e}")
    assert vals.max() <= 1e-3

    line3 = m.Line(1.0, axis=(0, 0, 1), offset=(0, 0, 0),
                   interval=m.TimeInterval(0, 1))
    grid3 = m.make_grid([(-2, 2)] * 3, (81, 81, 81))
    slices = [m.SliceSpec(0, 0.0), m.SliceSpec(2, -2.0)]
    obs = m.Direction.from_angles(PI / 8, PI / 2)
    non = m.Direction.from_angles(6 * PI / 8, 5 * PI / 4)
    maxima = {}
    for tag, d3 in (("obs", obs), ("non", non)):
        spec = _spectrum(line3, d3, band)
        tops = []
        for sl in slices:
            _, pts3, _ = m.imaging.slice_grid(grid3, sl)
            sums = m.picard_sums_grid(spec, d3, pts3, line3.interval, band)
            tops.append((1.0 / sums).max())
        maxima[tag] = max(tops)
    print(f"criterion 6: 3D slice maxima obs {maxima['obs']:.3e}, "
          f"non {maxima['non']:.3e}")
    assert maxima["non"] <= 1e-2 * maxima["obs"]


# ---------------------------------------------------------------------------
# 7. Strip narrowing for a supersonic source seen against the motion
# ---------------------------------------------------------------------------

def test_c07_narrowed_strip_width(band):
    fast = m.Line(4.0, angle=PI / 4, offset=(0, 0),
                  interval=m.TimeInterval(1, 2))
    d = m.Direction.from_angle(9 * PI / 8)
    grid = m.make_grid([(-2, 5), (-2, 5)], (201, 201))
    vals = _field_values(fast, d, grid, band)
    proj = grid.points() @ d.vec
    half = vals >= 0.5 * vals.max()
    width = float(proj[half].max() - proj[half].min())
    s = m.strip(fast, d)
    hull = m.projection_hull(fast, d)
    hull_width = hull[1] - hull[0]
    below, above = half_max_spill(proj, half, s.lo, s.hi)
    allow = edge_allowance(band)
    print(f"criterion 7: half-max width {width:.4f}, strip {s.hi - s.lo:.4f}, "
          f"hull {hull_width:.4f}, spill {below:.4f} / {above:.4f} per edge, "
          f"allowance {allow:.4f}")
    assert width < hull_width
    assert not (m.mask_strip(grid, s) & ~half).any(), \
        "some cells of the analytic strip fall below half-maximum"
    assert max(below, above) <= allow, (
        f"half-max region reaches {below:.4f} below and {above:.4f} above "
        f"the analytic strip, over the per-edge allowance {allow:.4f}")


# ---------------------------------------------------------------------------
# 8. Strip intersection from two orthogonal views
# ---------------------------------------------------------------------------

def test_c08_intersection_domain(slow_line, slow_grid, band):
    dirs = [m.Direction.from_angle(0.0), m.Direction.from_angle(PI / 2)]
    spectra = [_spectrum(slow_line, d, band) for d in dirs]
    pts = slow_grid.points()
    vals, kept = m.filtered_field_values(spectra, dirs, pts,
                                         slow_line.interval, band)
    assert kept == [0, 1]
    domain = m.theta_domain(slow_line, dirs)
    mask = domain.contains_many(pts)
    half = vals >= 0.5 * vals.max()
    assert not (mask & ~half).any(), \
        "some cells of the analytic intersection fall below half-maximum"
    allow = edge_allowance(band)
    reach = np.ceil(allow / slow_grid.spacing()).astype(int)
    dilated = ndi.binary_dilation(mask.reshape(slow_grid.shape),
                                  structure=np.ones(tuple(2 * reach + 1),
                                                    bool)).ravel()
    stray = int((half & ~dilated).sum())
    spills = [half_max_spill(pts @ s.direction.vec, half, s.lo, s.hi)
              for s in domain.strips]
    edges = ", ".join(f"{lo:.4f} / {hi:.4f}" for lo, hi in spills)
    print(f"criterion 8: {int(half.sum())} half-max cells, {stray} outside "
          f"the intersection dilated by {reach.tolist()} cells; spill per "
          f"edge {edges}, allowance {allow:.4f}")
    assert stray == 0, (
        f"{stray} half-max cells lie outside the intersection dilated by "
        f"{reach.tolist()} cells; spill per strip edge {edges}, over the "
        f"per-edge allowance {allow:.4f}")


# ---------------------------------------------------------------------------
# 9. Direction filter
# ---------------------------------------------------------------------------

def test_c09_direction_filter(slow_line, slow_grid, band):
    dirs = [m.Direction.from_angle(PI / 2), m.Direction.from_angle(5 * PI / 4)]
    sums = []
    for d in dirs:
        spec = _spectrum(slow_line, d, band)
        sums.append(m.picard_sums_grid(spec, d, slow_grid.points(),
                                       slow_line.interval, band))
    kept = m.direction_filter(sums, threshold=3.5e3)
    print(f"criterion 9: filter minima {[float(s.min()) for s in sums]}, "
          f"kept {kept}")
    assert kept == [0]


# ---------------------------------------------------------------------------
# 10. Mode comparison
# ---------------------------------------------------------------------------

def test_c10_mode_comparison(slow_line, slow_grid, band):
    d_obs = m.Direction.from_angle(PI / 2)
    d_non = m.Direction.from_angle(5 * PI / 4)
    mask = m.mask_strip(slow_grid, m.strip(slow_line, d_obs))
    fields = {}
    for mode in (m.MODE_RIGOROUS, m.MODE_PAPER):
        vals = _field_values(slow_line, d_obs, slow_grid, band, mode)
        met = m.contrast_metric(m.ScalarField(slow_grid, vals), mask, 0.25)
        assert met["ratio"] >= 10, f"{mode}: contrast {met['ratio']}"
        non = _field_values(slow_line, d_non, slow_grid, band, mode)
        assert non.max() <= 1e-3, f"{mode}: suppression {non.max()}"
        fields[mode] = vals
    # the two constructions need not agree pointwise; report, do not bound
    a, b = fields[m.MODE_RIGOROUS], fields[m.MODE_PAPER]
    rel = np.abs(a - b) / a.max()
    print(f"criterion 10: both modes pass; per-point disagreement "
          f"median {np.median(rel):.3g}, max {rel.max():.3g} "
          f"(relative to the rigorous peak)")


# ---------------------------------------------------------------------------
# 11. Noise smoke test
# ---------------------------------------------------------------------------

def test_c11_noise_smoke(slow_line, slow_grid, band):
    dirs = [m.Direction.from_angle(j * TWO_PI / 4) for j in range(4)]
    spectra = []
    for j, d in enumerate(dirs, start=1):
        samples = m.sample_band(slow_line, d, band)
        noisy = m.add_noise(samples, m.NoiseSpec(0.01, j))
        spectra.append(m.f_sharp_spectrum(m.build_operator(noisy)))
    vals, kept = m.filtered_field_values(spectra, dirs, slow_grid.points(),
                                         slow_line.interval, band)
    assert kept, "noise run dropped every direction"
    assert np.all(np.isfinite(vals))
    argmax = slow_grid.points()[int(np.argmax(vals))]
    gap = math.hypot(argmax[0],
                     max(0.0, 1 - argmax[1], argmax[1] - 3))
    print(f"criterion 11: kept {kept}, argmax {argmax}, "
          f"distance to the true segment {gap:.3f}")
    assert gap <= 0.5


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------

def test_c12_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("MSIMG_SEED", raising=False)
    config = {
        "trajectory": {"variant": "line", "speed": 1.0, "angle": PI / 2,
                       "offset": [0.0, 0.0], "interval": [1.0, 3.0]},
        "band": {"k_max": 3 * PI, "count": 18},
        "directions": {"count": 4},
        "mode": "rigorous",
        "grid": {"bounds": [[-2, 2], [0, 4]], "resolution": [201, 201]},
        "noise": {"delta": 0.01, "seed": 777},
        "threshold": 3.5e3,
        "output_dir": str(tmp_path / "unused"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = {}
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}"
        img = tmp_path / f"img_{run}"
        assert cli.main(["synth", "--config", str(cfg_path),
                         "--out", str(data)]) == 0
        assert cli.main(["image", "--config", str(cfg_path),
                         "--data", str(data), "--out", str(img)]) == 0
        outputs[run] = {p.name: p.read_bytes()
                        for d in (data, img) for p in sorted(d.iterdir())}
    assert outputs["a"].keys() == outputs["b"].keys()
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], \
            f"{name} differs between identical runs"
    print(f"criterion 12: {len(outputs['a'])} output files byte-identical "
          f"across repeated runs")
