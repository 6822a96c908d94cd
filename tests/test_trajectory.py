import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import msimg as m
import range_reference as rref
from msimg.trajectory import PLATEAU_TOL, angle_in_set

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# Positions and velocities
# ---------------------------------------------------------------------------

def test_position_line(vertical_line):
    assert_allclose(vertical_line.positions([2.0]), [[0.0, 2.0]], atol=1e-15)


def test_position_arc():
    arc = m.Arc(center=(1, 2), interval=m.TimeInterval(math.pi, TWO_PI))
    assert_allclose(arc.positions([math.pi]), [[0.0, 2.0]], atol=1e-15)


def test_position_piecewise(broken_line):
    assert_allclose(broken_line.positions([1.0, 0.5]),
                    [[2.0, 2.0], [2.5, 2.5]], atol=1e-15)


def test_velocity_piecewise_sides(broken_line):
    # one velocity per segment: the left and right sides of the breakpoint
    assert_allclose(broken_line.velocities(), [[-1.0, -1.0], [1.0, -1.0]],
                    atol=1e-15)
    assert broken_line.vertices[0].tolist() == [0.0, 1.0, 2.0]


def test_speed_bound(vertical_line, fast_diagonal, wide_clockwise_arc,
                     broken_line):
    assert vertical_line.speed_bound() == 1.0
    assert fast_diagonal.speed_bound() == 4.0
    assert wide_clockwise_arc.speed_bound() == 2 * math.sqrt(2)
    # the largest segment speed; both segments of broken_line have sqrt 2
    assert broken_line.speed_bound() == pytest.approx(math.sqrt(2), abs=1e-15)
    sampled = m.Sampled([0.0, 1.0, 1.5, 3.0],
                        [(0, 0), (3, 4), (3, 4.5), (3, 4.5)])
    assert sampled.speed_bound() == pytest.approx(5.0, abs=1e-15)


def test_sampled_matches_table():
    ts = np.linspace(0.5, 2.5, 501)
    pts = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    traj = m.Sampled(ts, pts)
    mid = 0.5 * (ts[3] + ts[4])
    got = traj.positions([float(ts[17]), float(mid)])
    assert_allclose(got[0], pts[17], atol=1e-15)
    assert_allclose(got[1], 0.5 * (pts[3] + pts[4]), atol=1e-14)


# ---------------------------------------------------------------------------
# Retarded phase h
# ---------------------------------------------------------------------------

def test_h_vertical_line_side_view(vertical_line):
    # x_hat = (1, 0) is orthogonal to the motion: h(t) = t, h'(t) = 1
    d = m.Direction.from_angle(0.0)
    ts = np.array([1.0, 1.7, 2.9])
    assert_allclose(m.h_values(vertical_line, d, ts), ts, rtol=0, atol=1e-14)


@pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 2, 3 * math.pi / 4])
def test_h_derivative_axis_line_3d(axis_line_3d, theta):
    # h is affine on a line, so its difference quotient is h' = 1 + cos theta
    d = m.Direction.from_angles(theta, 0.7)
    expect = 1.0 + math.cos(theta)
    h = m.h_values(axis_line_3d, d, [0.25, 0.75])
    assert (h[1] - h[0]) / 0.5 == pytest.approx(expect, abs=1e-14)


# ---------------------------------------------------------------------------
# Division points of h'
# ---------------------------------------------------------------------------

def test_division_points_line_empty(vertical_line):
    assert m.division_points(vertical_line, m.Direction.from_angle(1.234)) == []


def test_division_points_tangential_zero(upper_arc):
    # h' = 1 - sin t touches zero at t = pi/2 without changing sign
    assert m.division_points(upper_arc, m.Direction.from_angle(0.0)) == []


def test_division_points_piecewise_same_slope(broken_line):
    # x_hat = (0, -1): h' = 2 on both pieces
    d = m.Direction.from_angle(3 * math.pi / 2)
    assert m.division_points(broken_line, d) == []


def test_division_points_breakpoint_sign_change(broken_line):
    # x_hat at pi/4: h' = 1 - sqrt2 < 0 then 1 > 0; jump at t = 1
    d = m.Direction.from_angle(math.pi / 4)
    assert_allclose(m.division_points(broken_line, d), [1.0], atol=1e-10)


def test_division_points_plateau_edge(broken_line):
    # x_hat = (1, 0): h' = 0 on (0, 1), then positive
    d = m.Direction.from_angle(0.0)
    assert_allclose(m.division_points(broken_line, d), [1.0], atol=1e-10)


def test_division_points_interior_sign_changes():
    # radius 2 sqrt2 arc over [0, pi]: h' = 1 - 2 sqrt2 sin t crosses zero twice
    arc = m.Arc(center=(0, 0), radius=2 * math.sqrt(2),
                interval=m.TimeInterval(0, math.pi))
    got = m.division_points(arc, m.Direction.from_angle(0.0))
    root = math.asin(1 / (2 * math.sqrt(2)))
    assert_allclose(got, [root, math.pi - root], atol=1e-9)
    # near-tangent: h' = 1 - r sin t dips to 1 - r = -1e-8 on a band only
    # ~3e-4 wide around pi/2, yet both crossings are sign changes
    r = 1 + 1e-8
    arc = m.Arc(center=(0, 0), radius=r, interval=m.TimeInterval(0, math.pi))
    got = m.division_points(arc, m.Direction.from_angle(0.0))
    root = math.asin(1 / r)
    assert_allclose(got, [root, math.pi - root], atol=1e-9)
    # clockwise: a(t) = 2 (-cos t, sin t) and x_hat = (-1, 0) give
    # h' = 1 - 2 sin t, zero at pi/6 and 5 pi/6
    arc = m.Arc(center=(0, 0), radius=2.0, phase=math.pi, orientation=-1,
                interval=m.TimeInterval(0, math.pi))
    got = m.division_points(arc, m.Direction.from_angle(math.pi))
    assert_allclose(got, [math.pi / 6, 5 * math.pi / 6], atol=1e-9)


# ---------------------------------------------------------------------------
# xi extrema and classification
# ---------------------------------------------------------------------------

def test_xi_extrema_vertical_line(vertical_line):
    # h(t) = 2t on [1, 3]
    rep = m.xi_extrema(vertical_line, m.Direction.from_angle(math.pi / 2))
    assert rep.xi_min == pytest.approx(2.0, abs=1e-12)
    assert rep.xi_max == pytest.approx(6.0, abs=1e-12)


def test_xi_extrema_wide_arc(wide_clockwise_arc):
    # h decreasing on the whole interval: extrema at the endpoints
    rep = m.xi_extrema(wide_clockwise_arc, m.Direction.from_angle(0.0))
    assert rep.xi_min == pytest.approx(3 * math.pi / 4 - 2, abs=1e-12)
    assert rep.xi_max == pytest.approx(math.pi / 4 + 2, abs=1e-12)


def test_xi_extrema_constant_h(broken_line):
    # straight-up view: h(t) == 3 on the whole interval
    rep = m.xi_extrema(broken_line, m.Direction.from_angle(math.pi / 2))
    assert rep.xi_min == pytest.approx(3.0, abs=1e-12)
    assert rep.xi_max == pytest.approx(3.0, abs=1e-12)
    assert not rep.observable


def test_classify_examples(vertical_line, broken_line, axis_line_3d):
    assert m.classify(vertical_line, m.Direction.from_angle(math.pi / 4))
    assert not m.classify(broken_line, m.Direction.from_angle(math.pi / 2))
    for phi in (0.0, 1.0, 4.0):
        assert not m.classify(axis_line_3d,
                              m.Direction.from_angles(3 * math.pi / 4, phi))


def test_classify_boundary_width_equals_duration(broken_line):
    # x_hat = (1, 0) gives h range exactly [3, 5]: width == T counts observable
    assert m.classify(broken_line, m.Direction.from_angle(0.0))


# ---------------------------------------------------------------------------
# Closed-form observable sets
# ---------------------------------------------------------------------------

def test_observable_set_line_slow():
    got = m.observable_set_line(1.0, math.pi / 2)
    assert_allclose(got, [(0.0, math.pi)], atol=1e-12)


def test_observable_set_line_fast():
    got = m.observable_set_line(4.0, math.pi / 4)
    expect = [(0.0, 3 * math.pi / 4),
              (11 * math.pi / 12, 19 * math.pi / 12),
              (7 * math.pi / 4, TWO_PI)]
    assert len(got) == 3
    assert_allclose(got, expect, atol=1e-12)


def test_observable_set_line_speed_two_degenerate():
    # the second band collapses to a point at speed 2: only the half circle
    got = m.observable_set_line(2.0, 0.0)
    assert_allclose(got, [(0.0, math.pi / 2), (3 * math.pi / 2, TWO_PI)],
                    atol=1e-12)
    # brute-force agreement with classify over 3600 angles (skip the set's
    # interval endpoints and the collapsed tangency angle at pi)
    traj = m.Line(2.0, angle=0.0, offset=(0, 0), interval=m.TimeInterval(1, 2))
    skip = [math.pi / 2, 3 * math.pi / 2, math.pi]
    for i in range(3600):
        th = i * TWO_PI / 3600
        if any(abs((th - b + math.pi) % TWO_PI - math.pi) < 1e-6 for b in skip):
            continue
        assert m.classify(traj, m.Direction.from_angle(th)) == \
            angle_in_set(got, th), f"disagrees at theta={th}"


def test_observable_set_line_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        m.observable_set_line(0.0, 0.0)


def test_observable_set_arc_intervals():
    got = m.observable_set_arc(m.TimeInterval(math.pi, TWO_PI))
    assert_allclose(got, [(0.0, math.pi / 2), (3 * math.pi / 2, TWO_PI)],
                    atol=1e-12)
    got = m.observable_set_arc(m.TimeInterval(1e-9, math.pi))
    lo = (1e-9 + math.pi) / 2
    assert_allclose(got, [(lo, lo + math.pi)], atol=1e-12)


def test_observable_set_arc_agrees_with_classify(upper_arc):
    # pi/4 lies outside the observable half circle [pi/2, 3pi/2]
    got = m.observable_set_arc(upper_arc.interval)
    d = m.Direction.from_angle(math.pi / 4)
    assert not angle_in_set(got, math.pi / 4)
    assert not m.classify(upper_arc, d)


def test_observable_set_arc_rejects_full_turn():
    with pytest.raises(ValueError):
        m.observable_set_arc(m.TimeInterval(0.0, TWO_PI))


def _lemma_disagreements(traj, intervals, start):
    # classify against the closed-form set on a 256-angle sweep, skipping
    # angles within 1e-6 rad of a set endpoint
    ends = [e for iv in intervals for e in iv]
    bad = []
    for i in range(256):
        th = start + i * TWO_PI / 256
        if any(abs((th - e + math.pi) % TWO_PI - math.pi) < 1e-6 for e in ends):
            continue
        if m.classify(traj, m.Direction.from_angle(th)) != \
                angle_in_set(intervals, th):
            bad.append(th)
    return bad


@settings(max_examples=100, deadline=None, derandomize=True)
@given(speed=st.floats(0.05, 10.0), heading=st.floats(-10.0, 10.0),
       t_min=st.floats(0.0, 5.0), duration=st.floats(0.5, 5.0),
       offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       start=st.floats(0.0, TWO_PI / 256))
def test_observable_set_line_agrees_with_classify_property(
        speed, heading, t_min, duration, offset, start):
    # at speed 2 the second band collapses to the tangency angle, which the
    # tolerance CLASSIFICATION_TOL counts as observable; stay clear of it
    assume(abs(speed - 2.0) > 1e-3)
    traj = m.Line(speed, angle=heading, offset=offset,
                  interval=m.TimeInterval(t_min, t_min + duration))
    intervals = m.observable_set_line(speed, heading)
    assert _lemma_disagreements(traj, intervals, start) == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(t_min=st.floats(0.0, 10.0), duration=st.floats(0.01, TWO_PI - 0.01),
       center=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       start=st.floats(0.0, TWO_PI / 256))
def test_observable_set_arc_agrees_with_classify_property(
        t_min, duration, center, start):
    interval = m.TimeInterval(t_min, t_min + duration)
    assume(interval.duration < TWO_PI)
    arc = m.Arc(center=center, interval=interval)
    intervals = m.observable_set_arc(interval)
    assert _lemma_disagreements(arc, intervals, start) == []


# ---------------------------------------------------------------------------
# Strips, hulls, and the strip intersection
# ---------------------------------------------------------------------------

def test_strip_wide_arc(wide_clockwise_arc):
    s = m.strip(wide_clockwise_arc, m.Direction.from_angle(0.0))
    assert s.lo == pytest.approx(math.pi / 2 - 2, abs=1e-12)
    assert s.hi == pytest.approx(2 - math.pi / 2, abs=1e-12)
    assert not s.empty


def test_strip_vertical_line(vertical_line):
    s = m.strip(vertical_line, m.Direction.from_angle(math.pi / 2))
    assert (s.lo, s.hi) == (pytest.approx(1.0, abs=1e-12),
                            pytest.approx(3.0, abs=1e-12))
    # side view degenerates to the hyperplane x1 = 0
    s0 = m.strip(vertical_line, m.Direction.from_angle(0.0))
    assert (s0.lo, s0.hi) == (pytest.approx(0.0, abs=1e-12),
                              pytest.approx(0.0, abs=1e-12))
    assert not s0.empty


def test_strip_degenerate_on_observability_edge(fast_diagonal):
    # line_fast.json's direction 11 pi/12: h(t) = -t on [1, 2], width == T
    # up to rounding; classify accepts it, so the strip is the hyperplane
    # x_hat . y = -3, not empty
    d = m.Direction.from_angle(11 * math.pi / 12)
    assert m.classify(fast_diagonal, d)
    s = m.strip(fast_diagonal, d)
    assert not s.empty
    assert s.lo == s.hi == pytest.approx(-3.0, abs=1e-12)
    assert len(m.theta_domain(fast_diagonal, [d]).strips) == 1


def test_strip_empty_for_non_observable(broken_line):
    s = m.strip(broken_line, m.Direction.from_angle(math.pi / 2))
    assert s.empty
    assert not s.contains_many([(2.0, 2.0)]).any()


def test_projection_hull(wide_clockwise_arc, vertical_line, upper_arc):
    assert_allclose(m.projection_hull(wide_clockwise_arc,
                                      m.Direction.from_angle(0.0)),
                    (-2.0, 2.0), atol=1e-12)
    assert_allclose(m.projection_hull(vertical_line,
                                      m.Direction.from_angle(math.pi / 2)),
                    (1.0, 3.0), atol=1e-12)
    assert_allclose(m.projection_hull(upper_arc,
                                      m.Direction.from_angle(math.pi / 2)),
                    (0.0, 1.0), atol=1e-12)


def test_theta_domain_membership(vertical_line):
    dirs = [m.Direction.from_angle(0.0), m.Direction.from_angle(math.pi / 2)]
    dom = m.theta_domain(vertical_line, dirs)
    assert len(dom.strips) == 2
    assert list(dom.contains_many([(0.0, 2.0), (1.0, 2.0)])) == [True, False]


def test_theta_domain_single_direction(vertical_line):
    d = m.Direction.from_angle(math.pi / 2)
    dom = m.theta_domain(vertical_line, [d])
    s = m.strip(vertical_line, d)
    pts = np.array([[0.0, 0.5], [0.0, 2.0], [1.5, 2.9], [0.0, 3.5]])
    assert_allclose(dom.contains_many(pts), s.contains_many(pts))


def test_theta_domain_all_non_observable(broken_line):
    dom = m.theta_domain(broken_line, [m.Direction.from_angle(math.pi / 4)])
    assert dom.empty
    assert not dom.contains_many([(2.5, 2.5)]).any()


def test_theta_domain_requires_directions(vertical_line):
    with pytest.raises(ValueError):
        m.theta_domain(vertical_line, [])


# ---------------------------------------------------------------------------
# Module invariants
# ---------------------------------------------------------------------------

def _random_trajectory(rng):
    kind = rng.integers(0, 3)
    t0 = float(rng.uniform(0.1, 1.0))
    T = float(rng.uniform(0.5, 2.5))
    if kind == 0:
        return m.Line(float(rng.uniform(0.2, 4.0)),
                      angle=float(rng.uniform(0, TWO_PI)),
                      offset=rng.uniform(-2, 2, 2),
                      interval=m.TimeInterval(t0, t0 + T))
    if kind == 1:
        return m.Arc(center=rng.uniform(-2, 2, 2),
                     radius=float(rng.uniform(0.3, 3.0)),
                     phase=float(rng.uniform(0, TWO_PI)),
                     orientation=int(rng.choice([-1, 1])),
                     interval=m.TimeInterval(t0, t0 + T))
    n = int(rng.integers(3, 7))
    times = np.sort(rng.uniform(t0, t0 + T, n))
    times[0], times[-1] = t0, t0 + T
    times = np.unique(times)
    return m.PiecewiseLinear(times, rng.uniform(-2, 2, (len(times), 2)))


def test_xi_range_contains_endpoint_values():
    rng = np.random.default_rng(7)
    for _ in range(50):
        traj = _random_trajectory(rng)
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        rep = m.xi_extrema(traj, d)
        iv = traj.interval
        ends = m.h_values(traj, d, np.array([iv.t_min, iv.t_max]))
        assert rep.xi_min <= min(ends) + 1e-9
        assert rep.xi_max >= max(ends) - 1e-9


def test_strip_equals_hull_when_h_increasing():
    # slow line: h' = 1 + cos(theta - alpha) > 0 strictly inside the
    # observable half circle, where strip and hull must coincide
    rng = np.random.default_rng(11)
    for _ in range(100):
        alpha = float(rng.uniform(0, TWO_PI))
        traj = m.Line(1.0, angle=alpha, offset=rng.uniform(-1, 1, 2),
                      interval=m.TimeInterval(0.5, 2.5))
        theta = alpha + float(rng.uniform(-math.pi / 2 + 1e-3,
                                          math.pi / 2 - 1e-3))
        d = m.Direction.from_angle(theta)
        s = m.strip(traj, d)
        lo, hi = m.projection_hull(traj, d)
        assert abs(s.lo - lo) < 1e-9 and abs(s.hi - hi) < 1e-9


def test_strip_contained_in_hull():
    rng = np.random.default_rng(13)
    checked = 0
    trials = 0
    while checked < 1000 and trials < 10000:
        trials += 1
        traj = _random_trajectory(rng)
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        s = m.strip(traj, d)
        if s.empty:
            continue
        lo, hi = m.projection_hull(traj, d)
        assert s.lo >= lo - 1e-9 and s.hi <= hi + 1e-9
        checked += 1
    assert checked == 1000


def test_direction_constructors_unit_norm():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d2 = m.Direction.from_angle(float(rng.uniform(-10, 10)))
        d3 = m.Direction.from_angles(float(rng.uniform(0, math.pi)),
                                     float(rng.uniform(0, TWO_PI)))
        for d in (d2, d3):
            assert abs(np.linalg.norm(d.vec) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        m.Direction(np.array([0.5, 0.5]))


def test_projection_hull_reversal_invariant():
    rng = np.random.default_rng(19)
    for _ in range(30):
        traj = _random_trajectory(rng)
        d = m.Direction.from_angle(float(rng.uniform(0, TWO_PI)))
        iv = traj.interval
        if isinstance(traj, m.Line):
            span = traj.speed * (iv.t_min + iv.t_max)
            rev = m.Line(traj.speed, angle=traj.angle + math.pi,
                         offset=traj.offset + span * traj.unit, interval=iv)
        elif isinstance(traj, m.Arc):
            rev = m.Arc(center=traj.center, radius=traj.radius,
                        phase=traj.phase + traj.orientation * (iv.t_min + iv.t_max),
                        orientation=-traj.orientation, interval=iv)
        else:
            rev = m.PiecewiseLinear((iv.t_min + iv.t_max - traj.times)[::-1],
                                    traj.points[::-1])
        assert_allclose(m.projection_hull(rev, d), m.projection_hull(traj, d),
                        atol=1e-9)


def test_sampled_arc_close_to_analytic(wide_clockwise_arc):
    ts = np.linspace(wide_clockwise_arc.interval.t_min,
                     wide_clockwise_arc.interval.t_max, 2001)
    table = m.Sampled(ts, wide_clockwise_arc.positions(ts))
    d = m.Direction.from_angle(0.0)
    s_exact = m.strip(wide_clockwise_arc, d)
    s_table = m.strip(table, d)
    assert s_table.lo == pytest.approx(s_exact.lo, abs=1e-6)
    assert s_table.hi == pytest.approx(s_exact.hi, abs=1e-6)


def test_time_interval_validation():
    with pytest.raises(ValueError):
        m.TimeInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        m.TimeInterval(-0.5, 1.0)


# ---------------------------------------------------------------------------
# Closed-form ranges against dense sampling (property tests)
# ---------------------------------------------------------------------------

DENSE_SAMPLES = 100_001


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _vectors(dim, bound=3.0):
    return st.lists(_floats(-bound, bound), min_size=dim,
                    max_size=dim).map(np.array)


@st.composite
def _orbit_and_direction(draw, kinds=("line", "line3d", "arc", "piecewise",
                                      "sampled")):
    """A random Line (2D/3D), Arc or polyline with a matching direction."""
    kind = draw(st.sampled_from(kinds))
    t0 = draw(_floats(0.0, 2.0))
    iv = m.TimeInterval(t0, t0 + draw(_floats(0.05, 8.0)))
    if kind == "line":
        dim = 2
        traj = m.Line(draw(_floats(0.0, 5.0)), angle=draw(_floats(0.0, TWO_PI)),
                      offset=draw(_vectors(2)), interval=iv)
    elif kind == "line3d":
        dim = 3
        axis = draw(_vectors(3, 1.0))
        assume(np.linalg.norm(axis) > 0.1)
        traj = m.Line(draw(_floats(0.0, 5.0)), axis=axis / np.linalg.norm(axis),
                      offset=draw(_vectors(3)), interval=iv)
    elif kind == "arc":
        dim = 2
        traj = m.Arc(center=draw(_vectors(2)), radius=draw(_floats(0.05, 5.0)),
                     phase=draw(_floats(0.0, TWO_PI)),
                     orientation=draw(st.sampled_from([-1, 1])), interval=iv)
    else:
        dim = draw(st.sampled_from([2, 3]))
        gaps = draw(st.lists(_floats(0.05, 2.0), min_size=1, max_size=7))
        times = t0 + np.concatenate(([0.0], np.cumsum(gaps)))
        points = draw(st.lists(_vectors(dim), min_size=len(times),
                               max_size=len(times)))
        cls = m.Sampled if kind == "sampled" else m.PiecewiseLinear
        traj = cls(times, np.array(points))
    if dim == 2:
        d = m.Direction.from_angle(draw(_floats(0.0, TWO_PI)))
    else:
        d = m.Direction.from_angles(draw(_floats(0.0, math.pi)),
                                    draw(_floats(0.0, TWO_PI)))
    return traj, d


def _dense_range(traj, d, with_time_term):
    """Range over a dense sample holding the endpoints and every vertex,
    and how far it may fall inside the true range."""
    iv = traj.interval
    ts = np.linspace(iv.t_min, iv.t_max, DENSE_SAMPLES)
    slack = 0.0
    if isinstance(traj, m.PiecewiseLinear):
        ts = np.union1d(ts, traj.times)
    elif isinstance(traj, m.Arc):
        # an interior extremum lies within dt/2 of a sample and |h''| <= r
        slack = traj.radius * (ts[1] - ts[0]) ** 2 / 8
    vals = traj.positions(ts) @ d.vec + (ts if with_time_term else 0.0)
    return float(vals.min()), float(vals.max()), slack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_orbit_and_direction())
def test_ranges_match_dense_sampling(case):
    traj, d = case
    rep = m.xi_extrema(traj, d)
    hull = m.projection_hull(traj, d)
    for (lo, hi), with_time_term in (((rep.xi_min, rep.xi_max), True),
                                     (hull, False)):
        dlo, dhi, slack = _dense_range(traj, d, with_time_term)
        assert dlo - slack - 1e-9 <= lo <= dlo + 1e-9
        assert dhi - 1e-9 <= hi <= dhi + slack + 1e-9
    s = m.strip(traj, d)
    assert s.empty == (not rep.observable)
    if not s.empty:
        assert hull[0] - 1e-9 <= s.lo and s.hi <= hull[1] + 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_orbit_and_direction(kinds=("piecewise", "sampled")))
def test_polyline_division_points_are_slope_sign_flips(case):
    traj, d = case
    slopes = 1.0 + (np.diff(traj.points, axis=0)
                    / np.diff(traj.times)[:, None]) @ d.vec
    signs = np.where(slopes > PLATEAU_TOL, 1,
                     np.where(slopes < -PLATEAU_TOL, -1, 0))
    flips = [float(traj.times[i + 1]) for i in range(len(slopes) - 1)
             if signs[i] != signs[i + 1]]
    assert m.division_points(traj, d) == flips


@st.composite
def _polyline_and_direction(draw):
    """A 2D or 3D polyline of 2-60 vertices and a matching direction.

    Coordinates and time steps are either general floats or small
    integers, so that ties between vertex values (and signed zeros) occur;
    the points come in C or Fortran order.
    """
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 60))
    if draw(st.booleans()):
        coord, gap = _floats(-3.0, 3.0), _floats(0.05, 2.0)
    else:
        coord, gap = st.integers(-2, 2).map(float), st.integers(1, 3).map(float)
    times = draw(_floats(0.0, 2.0)) + np.concatenate(
        ([0.0], np.cumsum(draw(st.lists(gap, min_size=n - 1,
                                        max_size=n - 1)))))
    points = np.array(draw(st.lists(st.lists(coord, min_size=dim,
                                             max_size=dim),
                                    min_size=n, max_size=n)))
    if draw(st.booleans()):
        points = np.asfortranarray(points)
    cls = draw(st.sampled_from([m.PiecewiseLinear, m.Sampled]))
    if dim == 2:
        d = m.Direction.from_angle(draw(st.one_of(
            _floats(0.0, TWO_PI), st.sampled_from([0.0, math.pi / 2,
                                                   math.pi, math.pi / 4]))))
    else:
        d = m.Direction.from_angles(draw(_floats(0.0, math.pi)),
                                    draw(_floats(0.0, TWO_PI)))
    return cls(times, points), d


@st.composite
def _line_and_direction(draw):
    """A 2D Line from a heading angle or a 3D one from a unit axis, speed
    0 included, with a random offset, and a matching direction."""
    t0 = draw(_floats(0.0, 2.0))
    iv = m.TimeInterval(t0, t0 + draw(_floats(0.05, 8.0)))
    speed = draw(st.one_of(st.just(0.0), _floats(0.0, 5.0)))
    if draw(st.booleans()):
        traj = m.Line(speed, angle=draw(_floats(-TWO_PI, TWO_PI)),
                      offset=draw(_vectors(2)), interval=iv)
        d = m.Direction.from_angle(draw(_floats(0.0, TWO_PI)))
    else:
        axis = draw(_vectors(3, 1.0))
        assume(np.linalg.norm(axis) > 0.1)
        traj = m.Line(speed, axis=axis / np.linalg.norm(axis),
                      offset=draw(_vectors(3)), interval=iv)
        d = m.Direction.from_angles(draw(_floats(0.0, math.pi)),
                                    draw(_floats(0.0, TWO_PI)))
    return traj, d


@st.composite
def _arc_and_direction(draw, reach=10.0):
    """An Arc of either orientation, of radius exactly 1 or random, over up
    to 3 pi (past a full turn), and a direction.  Start times lie in
    [0, reach] and phases in [-reach, reach]."""
    t0 = draw(_floats(0.0, reach))
    iv = m.TimeInterval(t0, t0 + draw(_floats(0.01, 3 * math.pi)))
    traj = m.Arc(center=draw(_vectors(2)),
                 radius=draw(st.one_of(st.just(1.0), _floats(0.05, 5.0))),
                 phase=draw(_floats(-reach, reach)),
                 orientation=draw(st.sampled_from([-1, 1])), interval=iv)
    return traj, m.Direction.from_angle(draw(_floats(-math.pi, math.pi)))


def _bits(*values):
    """Exact text of each float, the sign of a zero included."""
    return [float(v).hex() for v in values]


def _range_queries(traj, d):
    rep = m.xi_extrema(traj, d)
    s = m.strip(traj, d)
    return (_bits(rep.xi_min, rep.xi_max, rep.duration), rep.observable,
            m.classify(traj, d), _bits(s.lo, s.hi),
            _bits(*m.projection_hull(traj, d)))


def _assert_ranges_equal_reference(traj, d):
    got = _range_queries(traj, d)
    with mock.patch.object(m.trajectory, "_range_of", rref.range_of):
        want = _range_queries(traj, d)
    assert got == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_polyline_and_direction())
def test_vertex_ranges_equal_interpolating_reference(case):
    # a polyline's range is read at its vertices; the interpolating path
    # it replaced gives the same bits for every query built on the range
    _assert_ranges_equal_reference(*case)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(_line_and_direction(), _arc_and_direction(),
                 _arc_and_direction(reach=500.0)))
def test_line_and_arc_ranges_equal_interpolating_reference(case):
    # a Line's range is read at its cached endpoints, an Arc's at its
    # endpoints and narrow-window turning times, hundreds of periods out
    # included; the reference's positions give the same bits
    _assert_ranges_equal_reference(*case)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(_arc_and_direction(), _arc_and_direction(reach=500.0)),
       st.sampled_from([0.0, 1.0]))
def test_arc_critical_times_match_brute_force(case, c):
    # the exact window of n finds the same interior roots, each as often
    # and with the same bits, as the wide enumeration of every distinct
    # branch, hundreds of periods out included
    traj, d = case
    got = m.trajectory._arc_critical_times(traj, d, c)
    assert sorted(got) == sorted(rref.arc_critical_times(traj, d, c))


def test_line_and_arc_hold_read_only_copies():
    # a Line keeps its endpoint times and positions (vertices) once,
    # read-only; editing a Line's offset or axis, or an Arc's center, as
    # the caller holds it after a range query must leave them and the
    # positions as they were
    iv = m.TimeInterval(1.0, 3.0)
    d2, d3 = m.Direction.from_angle(0.3), m.Direction.from_angles(1.0, 0.4)
    off2, off3, axis = np.array([1.0, -1.0]), np.zeros(3), np.array([0.0, 0.6, 0.8])
    line2 = m.Line(2.0, angle=0.5, offset=off2, interval=iv)
    line3 = m.Line(1.5, axis=axis, offset=off3, interval=iv)
    center = np.array([0.5, 0.25])
    arc = m.Arc(center=center, interval=iv, radius=1.5)
    cases = [(line2, d2), (line3, d3), (arc, d2)]

    def state():
        return [(m.projection_hull(t, d), t.positions([1.0, 2.0, 3.0]).tolist(),
                 t.vertices[1].tolist() if t is not arc else None)
                for t, d in cases]

    before = state()
    off2[:], off3[:], axis[:], center[:] = 9.0, 9.0, (1.0, 0.0, 0.0), 9.0
    assert state() == before
    for t in (line2, line3):
        ts, ps = t.vertices
        assert t.vertices is t.vertices and ts.tolist() == [1.0, 3.0]
        assert ps.tolist() == t.positions([1.0, 3.0]).tolist()
        for a in (ts, ps):
            with pytest.raises(ValueError):
                a[0] = 0.0
    for a in (line2.offset, line3.offset, line3.axis, line3.unit, arc.center):
        assert not a.flags.writeable


def test_polyline_holds_read_only_copies():
    # velocities and speed bound are derived once; editing the caller's
    # arrays afterwards must not leave them or the vertices stale
    times, points = np.array([0.0, 1.0, 2.0]), np.array([[3.0, 3], [2, 2],
                                                         [3, 1]])
    traj = m.PiecewiseLinear(times, points)
    v = traj.velocities()
    assert v is traj.velocities()
    assert_allclose(v, [[-1.0, -1.0], [1.0, -1.0]], rtol=0, atol=0)
    times[2], points[2] = 5.0, (10.0, 0.0)
    assert traj.times[2] == 2.0 and traj.points[2].tolist() == [3.0, 1.0]
    assert m.projection_hull(traj, m.Direction.from_angle(0.0)) == (2.0, 3.0)
    for a in (traj.times, traj.points, v, *traj.vertices):
        assert not a.flags.writeable
