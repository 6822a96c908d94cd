import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import ndimage

import msimg as m
from msimg import imaging
from msimg.imaging import _within_margin

from conftest import edge_allowance, half_max_spill


def _constant_field(grid, value=1.0):
    return m.ScalarField(grid, np.full(grid.size, value))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_make_grid_standard():
    grid = m.make_grid([(-2, 2), (0, 4)], (201, 201))
    assert grid.size == 40401
    assert_allclose(grid.spacing(), [0.02, 0.02], atol=1e-15)
    pts = grid.points()
    assert pts.shape == (40401, 2)
    assert_allclose(pts[0], [-2.0, 0.0], atol=0)
    assert_allclose(pts[1], [-2.0, 0.02], atol=1e-12)  # last axis fastest
    assert_allclose(pts[-1], [2.0, 4.0], atol=0)


def test_make_grid_corners():
    grid = m.make_grid([(0, 1), (0, 2)], (2, 2))
    assert_allclose(grid.points(),
                    [[0, 0], [0, 2], [1, 0], [1, 2]], atol=0)


def test_make_grid_3d_count():
    grid = m.make_grid([(-2, 2)] * 3, (81, 81, 81))
    assert grid.size == 81 ** 3


def test_grid_size_past_int64():
    # the count is exact where an int64 product wraps to 0; nothing of
    # that size is allocated
    assert m.make_grid([(0, 1)] * 3, [2 ** 22] * 3).size == 2 ** 66
    assert m.make_grid([(0, 1)] * 2, [2 ** 32] * 2).size == 2 ** 64


def test_make_grid_validation():
    with pytest.raises(ValueError):
        m.make_grid([(2, 2), (0, 1)], (10, 10))
    with pytest.raises(ValueError):
        m.make_grid([(0, 1), (0, 1)], (10, 1))


# ---------------------------------------------------------------------------
# Slice planes
# ---------------------------------------------------------------------------

def test_slice_field_constant():
    grid3 = m.make_grid([(-1, 1)] * 3, (5, 5, 5))
    grid2, pts3, snapped = m.slice_grid(grid3, m.SliceSpec(0, 0.0))
    assert grid2.dim == 2
    assert snapped == 0.0
    assert np.all(pts3[:, 0] == 0.0)


def test_slice_field_snaps_offset():
    grid3 = m.make_grid([(-1, 1)] * 3, (5, 5, 5))
    _, pts3, snapped = m.slice_grid(grid3, m.SliceSpec(2, 0.1))
    assert snapped == pytest.approx(0.0)
    assert np.all(pts3[:, 2] == snapped)


def test_slice_field_offset_out_of_bounds():
    grid3 = m.make_grid([(-1, 1)] * 3, (5, 5, 5))
    with pytest.raises(ValueError):
        m.slice_grid(grid3, m.SliceSpec(1, 2.0))


def test_slice_uses_plane_coordinates():
    grid3 = m.make_grid([(-1, 1)] * 3, (5, 5, 5))
    grid2, pts3, _ = m.slice_grid(grid3, m.SliceSpec(1, -1.0))
    pts2 = grid2.points()
    assert_allclose(pts3, np.stack([pts2[:, 0], np.full(grid2.size, -1.0),
                                    pts2[:, 1]], axis=1), atol=0)


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def test_mask_strip_wide_arc(wide_clockwise_arc):
    grid = m.make_grid([(-3, 3), (-3, 3)], (101, 101))
    s = m.strip(wide_clockwise_arc, m.Direction.from_angle(0.0))
    mask = m.mask_strip(grid, s)
    want = np.abs(grid.points()[:, 0]) <= 2 - math.pi / 2
    assert np.array_equal(mask, want)


def test_mask_empty_strip(broken_line):
    grid = m.make_grid([(0, 4), (0, 4)], (11, 11))
    s = m.strip(broken_line, m.Direction.from_angle(math.pi / 2))
    assert s.empty
    assert not m.mask_strip(grid, s).any()


# ---------------------------------------------------------------------------
# Contrast metrics and normalization
# ---------------------------------------------------------------------------

def test_contrast_metric_indicator_like():
    grid = m.make_grid([(0, 1), (0, 1)], (21, 21))
    mask = grid.points()[:, 0] <= 0.5
    vals = np.where(mask, 1.0, 1e-9)
    met = m.contrast_metric(m.ScalarField(grid, vals), mask, margin=0.1)
    assert met["ratio"] == pytest.approx(1e9, rel=1e-12)


def test_contrast_metric_constant_field():
    grid = m.make_grid([(0, 1), (0, 1)], (21, 21))
    mask = grid.points()[:, 0] <= 0.3
    met = m.contrast_metric(_constant_field(grid), mask, margin=0.05)
    assert met["ratio"] == pytest.approx(1.0)


def test_contrast_metric_margin_excludes_shoulder():
    grid = m.make_grid([(0, 1), (0, 1)], (101, 101))
    x = grid.points()[:, 0]
    mask = x <= 0.5
    # bright shoulder just outside the mask must not poison the statistic
    vals = np.where(mask, 1.0, np.where(x <= 0.55, 0.9, 1e-6))
    met_tight = m.contrast_metric(m.ScalarField(grid, vals), mask, margin=0.1)
    assert met_tight["outside_median"] == pytest.approx(1e-6, rel=1e-9)


def test_contrast_metric_errors():
    grid = m.make_grid([(0, 1), (0, 1)], (11, 11))
    fld = _constant_field(grid)
    with pytest.raises(ValueError):
        m.contrast_metric(fld, np.zeros(grid.size, dtype=bool))
    with pytest.raises(ValueError):
        m.contrast_metric(fld, np.ones(grid.size, dtype=bool))
    almost_full = np.ones(grid.size, dtype=bool)
    almost_full[0] = False
    with pytest.raises(ValueError):
        m.contrast_metric(fld, almost_full, margin=5.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.sampled_from([2, 3]))
def test_within_margin_matches_distance_transform(data, dim):
    # the numpy margin set against scipy's exact EDT on random masks;
    # "axis" and "lattice" margins equal a lattice distance exactly (ties),
    # which density 0 (one mask point, at the corner) puts on the boundary
    shape = tuple(data.draw(st.lists(st.integers(2, 24 if dim == 2 else 9),
                                     min_size=dim, max_size=dim)))
    spacing = np.array(data.draw(st.lists(
        st.sampled_from([0.02, 0.05, 0.1, 1 / 3])
        | st.floats(0.01, 1.0), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    mask = rng.random(shape) < density
    mask.flat[0] = True
    kind = data.draw(st.sampled_from(["free", "axis", "lattice"]))
    if kind == "free":
        margin = data.draw(st.floats(0.0, 2.0))
    elif kind == "axis":
        margin = data.draw(st.integers(0, 12)) * spacing[
            data.draw(st.integers(0, dim - 1))]
    else:
        steps = data.draw(st.lists(st.integers(0, 6), min_size=dim,
                                   max_size=dim))
        lengths = np.array(steps) * spacing
        margin = float(np.sqrt(np.add.reduce(lengths * lengths)))
    want = ndimage.distance_transform_edt(~mask, sampling=spacing) <= margin
    assert np.array_equal(_within_margin(mask, spacing, margin), want)


def test_within_margin_keeps_tie_at_half_on_fine_strip():
    # 0.5 / 0.02 rounds down to 24.999999999999996, yet 25 cells of 0.02
    # are exactly 0.5 away: a reach of margin // h would drop that column
    grid = m.make_grid([(-2, 2), (-2, 2)], (201, 201))
    strip = (np.abs(grid.points()[:, 0]) <= 0.5).reshape(grid.shape)
    near = _within_margin(strip, grid.spacing(), 0.5)
    want = ndimage.distance_transform_edt(~strip, sampling=grid.spacing())
    assert np.array_equal(near, want <= 0.5)
    assert np.array_equal(np.flatnonzero(near[:, 0]), np.arange(50, 151))


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def test_field_csv_roundtrip(tmp_path):
    grid = m.make_grid([(-1, 1), (0, 2)], (9, 7))
    rng = np.random.default_rng(2)
    fld = m.ScalarField(grid, rng.uniform(0, 1, grid.size))
    path = tmp_path / "f.csv"
    m.write_field_csv(path, fld)
    assert path.read_text().splitlines()[0] == "x1,x2,w"
    back = m.read_field_csv(path, grid)
    assert np.array_equal(back.values, fld.values)


def test_field_csv_grid_mismatch(tmp_path):
    grid = m.make_grid([(-1, 1), (0, 2)], (9, 7))
    fld = _constant_field(grid)
    path = tmp_path / "f.csv"
    m.write_field_csv(path, fld)
    with pytest.raises(ValueError):
        m.read_field_csv(path, m.make_grid([(-1, 1), (0, 2)], (7, 9)))


def test_field_csv_coordinates_byte_for_byte(tmp_path):
    # the coordinate texts are the writer's .17g texts, so a coordinate
    # that only rounds to the lattice point, or an extra column, is refused
    grid = m.make_grid([(-1, 1), (0, 2)], (9, 7))
    path = tmp_path / "f.csv"
    m.write_field_csv(path, _constant_field(grid))
    good = path.read_text().splitlines()
    assert good[2].startswith("-1,0.33333333333333331,")
    for row in ("-1,0.3333333333333333,1", "-1.0,0.33333333333333331,1",
                "-1,0.33333333333333331,1,1", "-1,0.33333333333333331,"):
        path.write_text("\n".join(good[:2] + [row] + good[3:]) + "\n")
        with pytest.raises(ValueError, match="f.csv"):
            m.read_field_csv(path, grid)
    path.write_text("\n".join(good) + "\n")
    assert np.array_equal(m.read_field_csv(path, grid).values,
                          np.ones(grid.size))


def _write_csv_per_row(path, grid, values, fmt):
    """The per-row writer the lattice-line writer replaced, as reference."""
    cols = [f"x{i + 1}" for i in range(grid.dim)]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(cols) + ",w\n")
        for p, v in zip(grid.points(), values):
            f.write(",".join(f"{c:.17g}" for c in p) + "," + fmt(v) + "\n")


_AWKWARD_VALUES = [np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300,
                   -2.5, 1.0 / 3.0, 123456789.0, 0.1, -7e-12]


@pytest.mark.parametrize("bounds, resolution", [
    ([(-1, 5), (-2, 2)], (7, 13)),
    ([(-2, 2), (0, 4)], (201, 3)),
    ([(-1, 5), (-2, 2), (0, 4)], (4, 5, 6)),
    ([(-0.3, 0.7), (-1, 5), (1e-3, 2e-3)], (2, 3, 11)),
])
def test_field_csv_bytes_match_per_row_writer(tmp_path, bounds, resolution):
    grid = m.make_grid(bounds, resolution)
    rng = np.random.default_rng(5)
    vals = rng.choice(_AWKWARD_VALUES, grid.size) * rng.uniform(0.5, 2, grid.size)
    vals[:len(_AWKWARD_VALUES)] = _AWKWARD_VALUES
    m.write_field_csv(tmp_path / "new.csv", m.ScalarField(grid, vals))
    _write_csv_per_row(tmp_path / "ref.csv", grid, vals, lambda v: f"{v:.17g}")
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()

    mask = rng.uniform(size=grid.size) < 0.4
    m.write_field_csv(tmp_path / "mask.csv",
                      m.ScalarField(grid, mask.astype(float)))
    _write_csv_per_row(tmp_path / "mask_ref.csv", grid,
                       mask.astype(int), str)
    assert (tmp_path / "mask.csv").read_bytes() == \
        (tmp_path / "mask_ref.csv").read_bytes()


def test_mask_csv_bytes(tmp_path):
    grid2 = m.make_grid([(0, 1), (-1, 1)], (2, 3))
    mask2 = np.array([True, False, True, False, False, True])
    m.write_field_csv(tmp_path / "m2.csv",
                      m.ScalarField(grid2, mask2.astype(float)))
    assert (tmp_path / "m2.csv").read_text() == (
        "x1,x2,w\n"
        "0,-1,1\n0,0,0\n0,1,1\n"
        "1,-1,0\n1,0,0\n1,1,1\n")
    grid3 = m.make_grid([(0, 1), (0, 1), (-0.5, 0.5)], (2, 2, 2))
    mask3 = np.arange(8) % 3 == 0
    m.write_field_csv(tmp_path / "m3.csv",
                      m.ScalarField(grid3, mask3.astype(float)))
    assert (tmp_path / "m3.csv").read_text() == (
        "x1,x2,x3,w\n"
        "0,0,-0.5,1\n0,0,0.5,0\n0,1,-0.5,0\n0,1,0.5,1\n"
        "1,0,-0.5,0\n1,0,0.5,0\n1,1,-0.5,1\n1,1,0.5,0\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.sampled_from([2, 3]))
def test_field_csv_roundtrip_property(tmp_path_factory, data, dim):
    bounds, resolution = [], []
    for _ in range(dim):
        lo = data.draw(st.floats(-50, 50))
        hi = lo + data.draw(st.floats(1e-3, 50))
        bounds.append((lo, hi))
        resolution.append(data.draw(st.integers(2, 6)))
    grid = m.make_grid(bounds, resolution)
    vals = np.array(data.draw(st.lists(
        st.floats(allow_nan=False), min_size=grid.size, max_size=grid.size)))
    path = tmp_path_factory.mktemp("rt") / "f.csv"
    m.write_field_csv(path, m.ScalarField(grid, vals))
    back = m.read_field_csv(path, grid).values
    assert np.array_equal(back, vals)
    assert np.array_equal(np.signbit(back), np.signbit(vals))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       block=st.sampled_from([1, 7, imaging.FIELD_BLOCK]))
def test_field_csv_bytes_property(tmp_path_factory, data, dim, block):
    # any float, both signs, subnormals and +-inf, against the row-by-row
    # `.17g` writer; small blocks split the field into many writes
    bounds = []
    for _ in range(dim):
        lo = data.draw(st.floats(-1e6, 1e6))
        bounds.append((lo, lo + data.draw(st.floats(1e-6, 1e6))))
    grid = m.make_grid(bounds, [data.draw(st.integers(2, 5))
                                for _ in range(dim)])
    vals = np.array(data.draw(st.lists(
        st.floats(allow_nan=False), min_size=grid.size, max_size=grid.size)))
    d = tmp_path_factory.mktemp("g17")
    with mock.patch.object(imaging, "FIELD_BLOCK", block):
        m.write_field_csv(d / "new.csv", m.ScalarField(grid, vals))
    _write_csv_per_row(d / "ref.csv", grid, vals, lambda v: f"{v:.17g}")
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


# value, its `.17g` text, and why it is awkward
_PINNED_G17 = [
    (1125899906842624.25, "1125899906842624.2"),     # half-even tie
    (1e23, "9.9999999999999992e+22"),                # log10 says 23, E is 22
    (0.0001, "0.0001"),                              # fixed at E = -4
    (9.999999999999999e-05, "9.9999999999999991e-05"),   # scientific at -5
    (1e16, "10000000000000000"),                     # fixed at E = 16
    (1e17, "1e+17"),                                 # scientific at 17
    (5e-324, "4.9406564584124654e-324"),             # smallest subnormal
    (2.2250738585072014e-308, "2.2250738585072014e-308"),  # smallest normal
    (1.7976931348623157e308, "1.7976931348623157e+308"),   # largest
    (0.0, "0"), (-0.0, "-0"), (np.inf, "inf"), (-np.inf, "-inf"),
    (-0.1, "-0.10000000000000001"),
]


def test_field_csv_pinned_values(tmp_path):
    vals = np.array([v for v, _ in _PINNED_G17])
    grid = m.make_grid([(0, 1), (0, 1)], (2, len(vals) // 2))
    m.write_field_csv(tmp_path / "f.csv", m.ScalarField(grid, vals))
    rows = (tmp_path / "f.csv").read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == [t for _, t in _PINNED_G17]


def _awkward_sample(name, rng):
    if name == "bit_patterns":
        v = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
        return v[~np.isnan(v)]
    if name == "powers_of_ten":
        p = 10.0 ** np.arange(-323, 309)
        return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                               -p])
    if name == "quarters":   # 16 integer digits and .25 or .75: 17-digit ties
        return rng.integers(0, 2 ** 62, 20000).astype(float) / 4
    return np.ldexp(rng.uniform(0.5, 1, 20000),      # every binary exponent
                    rng.integers(-1074, 1024, 20000))


@pytest.mark.parametrize("name", ["bit_patterns", "powers_of_ten",
                                  "quarters", "binary_exponents"])
def test_field_csv_bytes_on_awkward_samples(tmp_path, name):
    vals = _awkward_sample(name, np.random.default_rng(8))
    vals = vals[:len(vals) // 4 * 4]
    grid = m.make_grid([(-1, 1), (0, 3)], (len(vals) // 4, 4))
    m.write_field_csv(tmp_path / "new.csv", m.ScalarField(grid, vals))
    _write_csv_per_row(tmp_path / "ref.csv", grid, vals, lambda v: f"{v:.17g}")
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_field_csv_memory_bounded_by_one_line(tmp_path):
    # the whole 601^2 body would be ~22 MB of text; one lattice line of
    # text plus its floats is well under a megabyte
    grid = m.make_grid([(-2, 2), (0, 4)], (601, 601))
    fld = m.ScalarField(grid, np.random.default_rng(3).uniform(0, 1, grid.size))
    path = tmp_path / "f.csv"
    tracemalloc.start()
    try:
        m.write_field_csv(path, fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    body = path.stat().st_size
    assert body > 20e6
    assert peak < body / 20, f"peak {peak} B against a {body} B body"


def test_scalar_field_rejects_nan_accepts_inf():
    grid = m.make_grid([(0, 1), (0, 1)], (2, 2))
    with pytest.raises(ValueError, match="NaN"):
        m.ScalarField(grid, np.array([1.0, np.nan, 0.0, 2.0]))
    fld = m.ScalarField(grid, np.array([np.inf, -np.inf, 0.0, 2.0]))
    assert np.isinf(fld.values[:2]).all()


def test_pgm_format(tmp_path):
    grid = m.make_grid([(0, 1), (0, 1)], (3, 2))
    # values: v(x1, x2) = 2 x1 + x2 -> max at (1, 1)
    fld = m.ScalarField(grid, np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0]))
    path = tmp_path / "f.pgm"
    m.write_pgm(path, fld)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "3 2"  # width = x1 count, height = x2 count
    assert lines[2] == "255"
    # top row is the largest x2
    assert lines[3].split() == ["85", "170", "255"]
    assert lines[4].split() == ["0", "85", "170"]


def test_pgm_rejects_3d(tmp_path):
    grid = m.make_grid([(0, 1)] * 3, (3, 3, 3))
    fld = m.ScalarField(grid, np.zeros(grid.size))
    with pytest.raises(ValueError):
        m.write_pgm(tmp_path / "f.pgm", fld)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_pgm_rejects_non_finite(tmp_path, bad):
    grid = m.make_grid([(0, 1), (0, 1)], (3, 2))
    fld = m.ScalarField(grid, np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0]))
    fld.values[2] = bad  # the constructor refuses NaN; the array stays mutable
    with pytest.raises(ValueError, match="non-finite"):
        m.write_pgm(tmp_path / "f.pgm", fld)


def test_pgm_rejects_negative(tmp_path):
    grid = m.make_grid([(0, 1), (0, 1)], (3, 2))
    fld = m.ScalarField(grid, np.array([0.0, 1.0, -1e-3, 2.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="negative"):
        m.write_pgm(tmp_path / "f.pgm", fld)


# ---------------------------------------------------------------------------
# Field-vs-oracle invariants
# ---------------------------------------------------------------------------

def test_argmax_inside_strip_over_observable_sweep(vertical_line, default_band):
    # for every observable view of the slow vertical line the brightest
    # field cell sits inside the analytic strip (one-cell tolerance)
    grid = m.make_grid([(-2, 2), (0, 4)], (201, 201))
    pts = grid.points()
    cell = float(np.max(grid.spacing()))
    for j in range(13):
        theta = j * math.pi / 12
        d = m.Direction.from_angle(theta)
        assert m.classify(vertical_line, d)
        spec = m.f_sharp_spectrum(m.build_operator(
            m.sample_band(vertical_line, d, default_band)))
        sums = m.picard_sums_grid(spec, d, pts, vertical_line.interval,
                                  default_band)
        s = m.strip(vertical_line, d)
        p = float(pts[int(np.argmin(sums))] @ d.vec)
        slack = cell * float(np.abs(d.vec).sum())
        assert s.lo - slack <= p <= s.hi + slack, \
            f"theta={theta}: argmax projection {p} outside [{s.lo}, {s.hi}]"


def test_halfmax_band_width_wide_arc(wide_clockwise_arc, default_band):
    # the half-maximum region along x1 is the analytic strip
    # [pi/2 - 2, 2 - pi/2], not the projection hull [-2, 2]
    d = m.Direction.from_angle(0.0)
    grid = m.make_grid([(-3, 3), (-3, 3)], (201, 201))
    spec = m.f_sharp_spectrum(m.build_operator(
        m.sample_band(wide_clockwise_arc, d, default_band)))
    sums = m.picard_sums_grid(spec, d, grid.points(),
                              wide_clockwise_arc.interval, default_band)
    vals = 1.0 / sums
    x1 = grid.points()[:, 0]
    half = vals >= 0.5 * vals.max()
    lo, hi = math.pi / 2 - 2, 2 - math.pi / 2
    assert half[(x1 >= lo) & (x1 <= hi)].all(), \
        "some cells of the analytic strip fall below half-maximum"
    below, above = half_max_spill(x1, half, lo, hi)
    allow = edge_allowance(default_band)
    assert max(below, above) <= allow, (
        f"half-max region reaches {below:.4f} below and {above:.4f} above "
        f"the analytic strip, over the per-edge allowance {allow:.4f}")
