"""Picard-series indicator functions over the operator eigensystem.

A probe point y enters through the discretized test vector on the output
grid tau_n = n dk,

    phi_n(y) = (i / (T tau_n)) (e^{-i tau_n t_max} - e^{-i tau_n t_min})
               * e^{-i tau_n x_hat . y},

equivalently sinc(tau_n T / 2) e^{-i tau_n (t_mid + x_hat . y)}.  The Picard
series sum_n |<phi, psi_n>|^2 / lambda_n stays bounded exactly when y lies
in the recoverable strip of an observable direction; its reciprocal W is
the plotted indicator.  For several directions the per-direction series
are summed, after dropping directions whose series minimum over the search
grid exceeds a threshold (those behave as non-observable).

Because tau_n = n dk, phi(y) is a geometric sequence in z = e^{-i dk x_hat.y}
once the point-independent weights sinc(tau_n T / 2) e^{-i tau_n t_mid} are
split off, and the series is ||G (z, z^2, ..., z^N)||^2 with
G = diag(lambda^{-1/2}) V^H diag(weights).  Multiplying the vector by the
unit phase z^{-(N+1)/2} leaves the norm alone and turns the powers into
the conjugate pairs w_j, conj(w_j) with w_j = z^{j - 1/2}, j = 1..h,
h = N / 2; odd N gets one zero column of G, which adds exactly 0, and
h = (N + 1) / 2.  So the series is ||R u||^2 with the real vector
u = (Re w_1, Im w_1, ..., Re w_h, Im w_h) and a real (2N, 2h) fold R of G.
R has rank at most 2h, and Spectrum.picard_operator keeps, once per
spectrum, interval and band, a (2h, 2h) factor F with ||F u|| = ||R u||:
the triangular factor of a Householder QR of R with rows sorted by
decreasing norm and columns pivoted, the pivot order folded back into
F's columns.  Every indicator evaluates ||F u||^2, N^2 multiply-adds per
point where R takes 2 N^2 and the complex G 4 N^2.  On a lattice the
grid kernel rotates F once per row instead of building each point's u
(lattice_sums), so no lattice point takes a cosine, sine or complex
product of its own.  At a single point the u of every direction come
from one exponential of the directions' projections times the band's
phase rates.  The series is a trigonometric polynomial in
x_hat . y with period 2 pi / dk, so a search region wider than that along
x_hat sees the strip repeated (aliased).
On a grid every indicator value is W = 1 / S of the summed series S,
taken in place by `indicator_values`.  The term-by-term series the folded
form is tested against lives with the tests (tests/picard_reference.py).
"""

from __future__ import annotations

import numpy as np

from .forward import FrequencyBand
from .spectral import Spectrum
from .trajectory import Direction, TimeInterval

# Default cutoff on min-over-grid Picard sums beyond which a direction is
# treated as non-observable and removed from multi-direction indicators.
DEFAULT_THRESHOLD = 3.5e3

# Points per block of the grid kernel: a block holds whole lattice rows,
# or one chunk of this many columns of a longer row, so the kernel's
# working set stays a few (2h, POINT_CHUNK) arrays whatever the number of
# points.
POINT_CHUNK = 2048


def picard_sums_grid(spectrum: Spectrum, direction: Direction,
                     points: np.ndarray, interval: TimeInterval,
                     band: FrequencyBand) -> np.ndarray:
    """Picard sums over many probe points, shape (P,): lattice_sums' one
    draw, periodic in x_hat . y with period 2 pi / dk."""
    return next(lattice_sums([spectrum], [direction], points, interval,
                             band))


def lattice_sums(spectra, directions, points: np.ndarray,
                 interval: TimeInterval, band: FrequencyBand):
    """Yields each direction's Picard sums over `points`, shape (P,).

    Evaluates ||F u||^2 with each spectrum's Picard operator F
    (Spectrum.picard_operator) and u = (Re w_j, Im w_j)_{j=1..h},
    w_j = e^{-i (j - 1/2) dk x_hat . y}.  The lattice test _lattice_rows
    runs once, at the first draw: `points` are the rows of a row-major
    lattice when they are one, and one row otherwise.  On the lattice
    x_hat . y = alpha_r + beta_c over rows r and columns c, so
    w_j = w_j(alpha_r) w_j(beta_c), and multiplying by w_j(alpha_r)
    rotates F's column pairs j: each row gets its own rotated F_r, and one
    phase matrix U = u(beta) serves every row.  A block of rows is one
    product of the stacked F_r with U followed by column sums of squares.
    One row has every coordinate fast, so alpha = 0: phases of 1 keep F's
    bits, up to the sign of zeros.  Once the next draw begins the
    generator holds no reference to the array it yielded.  Unequal
    numbers of spectra and directions raise ValueError at the first draw.
    """
    _check_pairs(spectra, directions)
    points = np.asarray(points, dtype=float)
    rows, fast = _lattice_rows(points)
    cols = len(points) // rows
    for spectrum, direction in zip(spectra, directions):
        F = spectrum.picard_operator(interval, band)
        h = F.shape[1] // 2
        # max: an empty array is one row of no columns
        alpha = points[::max(cols, 1)] @ np.where(fast, 0.0, direction.vec)
        beta_vec = np.where(fast, direction.vec, 0.0)
        # column pairs (2j, 2j + 1) as complex columns: times
        # conj(w_j(alpha)) they are the pair rotated by alpha
        pairs = F.view(complex)
        # whole rows per block; their operators, (2h, 2h) each, stay
        # within POINT_CHUNK rows of 2h as well
        per_block = max(1, POINT_CHUNK // max(cols, 2 * h))
        sums = np.empty(len(points))
        grid = sums.reshape(rows, cols)
        for a0 in range(0, rows, POINT_CHUNK):
            A = _phases(alpha[a0:a0 + POINT_CHUNK], band.dk, h)
            spin = np.ascontiguousarray(A.T).view(complex).conj()[:, None]
            for c0 in range(0, cols, POINT_CHUNK):
                U = _phases(points[c0:min(c0 + POINT_CHUNK, cols)] @ beta_vec,
                            band.dk, h)
                m = U.shape[1]
                for r0 in range(0, min(rows - a0, POINT_CHUNK), per_block):
                    block = (pairs * spin[r0:r0 + per_block]).view(float)
                    c = (block.reshape(-1, 2 * h) @ U).reshape(
                        len(block), 2 * h, m)
                    np.einsum("rkc,rkc->rc", c, c, out=grid[
                        a0 + r0:a0 + r0 + len(block), c0:c0 + m])
        yield sums
        del sums, grid


def _check_pairs(spectra, directions) -> None:
    """Refuse spectra and directions that do not pair one to one, which
    zip would silently truncate."""
    if len(spectra) != len(directions):
        raise ValueError(f"{len(spectra)} spectra for {len(directions)} "
                         "directions: each direction needs one spectrum")


def _lattice_rows(points: np.ndarray):
    """(rows, fast): `points` as `rows` whole rows of a row-major lattice.

    The fast coordinates are those where points[1] differs from points[0].
    `points` is a lattice of rows of length L when every row's fast
    coordinates repeat the first row's bit for bit and its other
    coordinates are constant along the row; L is where the first row's
    other coordinates first change.  Anything else (scattered points,
    fewer than 4, a lattice cut mid-row, no slow coordinate) is one row
    whose coordinates are all fast.  Compares each coordinate once as a
    (rows, L) view, without copying `points`.
    """
    n = len(points)
    one_row = 1, np.ones(points.shape[1], dtype=bool)
    if n < 4:
        return one_row
    fast = points[1] != points[0]
    slow = np.flatnonzero(~fast)
    # searched over doubling prefixes, so this costs O(L), not O(n)
    cols = span = 0
    while not cols and span < n:
        span = min(2 * span + 64, n)
        moved = (points[:span, slow] != points[0, slow]).any(axis=1)
        cols = int(moved.argmax())
    if not cols or n % cols:
        return one_row
    rows = n // cols
    for k in range(points.shape[1]):
        coord = points[:, k].reshape(rows, cols)
        if not (coord == (coord[:1] if fast[k] else coord[:, :1])).all():
            return one_row
    return rows, fast


def _phases(proj: np.ndarray, dk: float, h: int) -> np.ndarray:
    """u = (Re w_1, Im w_1, ..., Re w_h, Im w_h) of every projection p,
    w_j = e^{-i (j - 1/2) dk p}, as a real (2h, len(proj)) array: one
    cosine and sine seed w_1, then running products with w_1^2."""
    W = np.empty((h, len(proj)), dtype=complex)
    t = (-0.5 * dk) * proj  # w_1 = e^{i t}, cheaper as cos, sin
    np.cos(t, out=W[0].real)
    np.sin(t, out=W[0].imag)
    step = W[0] * W[0]
    for j in range(1, h):
        np.multiply(W[j - 1], step, out=W[j])
    U = np.empty((h, 2, len(proj)))
    U[:, 0], U[:, 1] = W.real, W.imag
    return U.reshape(2 * h, len(proj))


def indicator_single(spectrum: Spectrum, direction: Direction, y,
                     interval: TimeInterval, band: FrequencyBand) -> float:
    """Single-direction indicator W(y), the reciprocal Picard sum."""
    return indicator_multi([spectrum], [direction], y, interval, band)


def direction_filter(grid_sums, threshold: float = DEFAULT_THRESHOLD) -> list[int]:
    """Indices of directions kept by the min-over-grid truncation rule.

    `grid_sums` holds one Picard-sum array per direction, all evaluated on
    the shared search grid; direction j is dropped iff min(grid_sums[j])
    exceeds the threshold.
    """
    return [j for j, sums in enumerate(grid_sums)
            if float(np.min(sums)) <= threshold]


def indicator_multi(spectra, directions, y, interval: TimeInterval,
                    band: FrequencyBand) -> float:
    """Multi-direction indicator: reciprocal of the summed Picard series.

    Callers filter non-observable directions first (see direction_filter);
    passing an empty direction set is an error.  Each direction's series
    is ||F u||^2, one real matrix-vector product with the spectrum's
    Picard operator F on u = (Re w_j, Im w_j), the real view of
    w_j = e^{-i (j - 1/2) dk x_hat . y}.  The projections x_hat . y of all
    directions come from one matrix-vector product, and all their w_j
    from one exponential of their outer product with the band's rates
    (_phase_rates); the series are added in direction order.  Unequal
    numbers of spectra and directions raise ValueError.
    """
    if len(directions) == 0:
        raise ValueError("no directions left to combine")
    _check_pairs(spectra, directions)
    y = np.asarray(y, dtype=float)
    # ndarray.dot: less call overhead than @ on arrays this small
    proj = np.array([d.vec for d in directions]).dot(y)
    U = np.exp(proj[:, None] * _phase_rates(band)).view(float)
    total = 0.0
    for spec, u in zip(spectra, U):
        c = spec.picard_operator(interval, band).dot(u)
        total += float(c.dot(c))
    return 1.0 / total if total > 0.0 else float("inf")


# _phase_rates' arrays keyed by (k_max, n): a tuple of numbers hashes in C
_RATES: dict = {}


def _phase_rates(band: FrequencyBand) -> np.ndarray:
    """Rates (-i dk)(j - 1/2), j = 1..ceil(N / 2), of the test-vector
    phases w_j = e^{rate_j x_hat . y}; built once per band, read-only."""
    key = (band.k_max, band.n)
    rates = _RATES.get(key)
    if rates is None:
        rates = (-1j * band.dk) * np.arange(0.5, (band.n + 1) // 2)
        rates.flags.writeable = False
        _RATES[key] = rates
    return rates


def indicator_values(sums: np.ndarray) -> np.ndarray:
    """Indicator W = 1 / S of an owned float array of Picard sums S, in
    place; +inf where S = 0."""
    zero = ~(sums > 0.0)
    with np.errstate(divide="ignore"):
        np.divide(1.0, sums, out=sums)
    sums[zero] = np.inf
    return sums


def combine_directions(grid_sums, threshold: float = DEFAULT_THRESHOLD):
    """Truncated multi-direction indicator from per-direction grid sums.

    `grid_sums` yields one Picard-sum array per direction over the whole
    search grid; a list or a generator.  Returns (values, kept_indices);
    `values` is the reciprocal of the summed series of the kept
    directions, or None when the filter drops every direction.  Each
    direction is tested by direction_filter as it comes, and the kept
    sums are added in kept order into one new array (a copy of the first
    kept), which indicator_values then inverts; the arrays given are left
    as they are.  A direction's sums are released before the next are
    drawn, so from a generator at most one direction's sums are held
    beside the total.
    """
    # no enumerate: the result tuple it reuses would keep the last sums
    # alive while the next are built
    total, kept, j = None, [], 0
    for sums in grid_sums:
        if direction_filter([sums], threshold):
            kept.append(j)
            if total is None:
                total = np.array(sums, dtype=float)
            else:
                total += sums
        del sums
        j += 1
    return (None if total is None else indicator_values(total)), kept


def filtered_field_values(spectra, directions, points: np.ndarray,
                          interval: TimeInterval, band: FrequencyBand,
                          threshold: float = DEFAULT_THRESHOLD):
    """Grid values of the truncated multi-direction indicator.

    Returns (values, kept_indices); `values` is None when every direction
    is dropped by the filter.  combine_directions draws the directions'
    sums from one lattice_sums, so the lattice is tested once per call and
    at most one direction's sums are held beside the running total.
    Unequal numbers of spectra and directions raise ValueError.
    """
    return combine_directions(
        lattice_sums(spectra, directions, points, interval, band), threshold)
