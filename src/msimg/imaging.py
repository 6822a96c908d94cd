"""Search grids, indicator fields, analytic masks, and contrast metrics."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SearchGrid:
    """Uniform rectangular lattice, endpoints included on every axis."""

    bounds: tuple
    resolution: tuple

    def __post_init__(self):
        if len(self.bounds) not in (2, 3) or len(self.bounds) != len(self.resolution):
            raise ValueError("bounds/resolution must describe 2 or 3 axes")
        for axis, ((lo, hi), r) in enumerate(zip(self.bounds, self.resolution)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis {axis} bounds [{lo}, {hi}] must be "
                                 f"finite")
            if not isinstance(r, numbers.Integral):
                raise ValueError(f"axis {axis} resolution must be an "
                                 f"integer, got {r!r}")
            if not lo < hi:
                raise ValueError(f"degenerate axis bounds [{lo}, {hi}]")
            if r < 2:
                raise ValueError("resolution must be at least 2 per axis")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def shape(self) -> tuple:
        return tuple(self.resolution)

    @property
    def size(self) -> int:
        return math.prod(self.resolution)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, r)
                for (lo, hi), r in zip(self.bounds, self.resolution)]

    def spacing(self) -> np.ndarray:
        return np.array([(hi - lo) / (r - 1)
                         for (lo, hi), r in zip(self.bounds, self.resolution)])

    def points(self) -> np.ndarray:
        """Row-major lattice points, shape (size, dim); last axis fastest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(eq=False)
class ScalarField:
    """Values over a 2D SearchGrid in row-major order."""

    grid: SearchGrid
    values: np.ndarray

    def __post_init__(self):
        if self.grid.dim != 2:
            raise ValueError("a field is a 2D lattice; a 3D grid is imaged "
                             "on slice planes")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} values, got {v.shape}")
        if np.isnan(v).any():
            # +-inf is a legitimate reciprocal of a zero Picard sum; NaN is not
            raise ValueError("field values contain NaN")
        self.values = v


@dataclass(frozen=True)
class SliceSpec:
    """Axis-aligned plane: fix `axis` at `offset`."""

    axis: int
    offset: float

    def check(self, grid3: SearchGrid) -> None:
        """Raise ValueError unless the plane cuts the 3D grid."""
        if grid3.dim != 3:
            raise ValueError("slicing needs a 3D grid")
        if not 0 <= self.axis < 3:
            raise ValueError(f"slice axis {self.axis} is not 0, 1 or 2")
        lo, hi = grid3.bounds[self.axis]
        if not lo <= self.offset <= hi:
            raise ValueError(f"slice offset {self.offset} outside [{lo}, {hi}]")


def make_grid(bounds, resolution) -> SearchGrid:
    """Uniform lattice over per-axis [lo, hi] with the given point counts."""
    return SearchGrid(tuple(tuple(b) for b in bounds), tuple(resolution))


def slice_grid(grid3: SearchGrid, spec: SliceSpec):
    """2D grid of the remaining axes plus the 3D points on the slice plane.

    An off-lattice offset is snapped to the nearest lattice plane; returns
    (grid2, points3, snapped_offset).
    """
    spec.check(grid3)
    axis_vals = grid3.axes()[spec.axis]
    idx = int(np.argmin(np.abs(axis_vals - spec.offset)))
    snapped = float(axis_vals[idx])
    keep = [a for a in range(3) if a != spec.axis]
    grid2 = make_grid([grid3.bounds[a] for a in keep],
                      [grid3.resolution[a] for a in keep])
    pts2 = grid2.points()
    pts3 = np.empty((grid2.size, 3))
    pts3[:, keep[0]] = pts2[:, 0]
    pts3[:, keep[1]] = pts2[:, 1]
    pts3[:, spec.axis] = snapped
    return grid2, pts3, snapped


def mask_strip(grid: SearchGrid, region) -> np.ndarray:
    """Boolean membership of each lattice point in `region`, a
    trajectory.Strip or trajectory.ThetaDomain."""
    return region.contains_many(grid.points())


def _within_margin(mask: np.ndarray, spacing, margin: float) -> np.ndarray:
    """Lattice points with a `mask` point at most `margin` away.

    The same set as scipy's `distance_transform_edt(~mask, sampling=
    spacing) <= margin`, with the distance computed as it does: the square
    root of the sum, in axis order, of (offset * spacing)**2.  For one
    row offset o the reachable column offsets form a range |j| <= J, so a
    cumulative-sum window ORs them in one step.
    """
    (n_rows, n_cols), (h_row, h_col) = mask.shape, spacing
    reach = min(int(margin / h_row) + 1, n_rows - 1)
    counts = np.zeros((n_rows, n_cols + 1), dtype=np.int64)
    np.cumsum(mask, axis=1, out=counts[:, 1:])
    idx = np.arange(n_cols)
    col = np.arange(min(int(margin / h_col) + 1, n_cols - 1) + 1) * h_col
    col_sq = col * col
    near = np.zeros(mask.shape, dtype=bool)
    for o in range(-reach, reach + 1):
        row_sq = (o * h_row) * (o * h_row)
        J = int(np.count_nonzero(np.sqrt(row_sq + col_sq) <= margin)) - 1
        if J < 0:
            continue
        window = (counts[:, np.minimum(idx + J, n_cols - 1) + 1]
                  > counts[:, np.maximum(idx - J, 0)])
        near[max(0, -o):n_rows - max(0, o)] |= \
            window[max(0, o):n_rows - max(0, -o)]
    return near


# Default distance from a mask within which outside points are not scored,
# in the grid's length unit; `msimg compare` always scores with it.
DEFAULT_MARGIN = 0.25


def contrast_metric(fld: ScalarField, mask: np.ndarray) -> dict:
    """Inside/outside medians of a field against a boolean mask.

    Outside points within DEFAULT_MARGIN of the mask (Euclidean distance
    over the lattice) are excluded, so the indicator's smooth shoulder at
    the strip boundary does not dilute the outside statistic.  When no
    outside point is left, the outside median and the ratio are NaN.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any() or mask.all():
        raise ValueError("mask must be nonempty and non-full")
    outside = ~_within_margin(mask.reshape(fld.grid.shape),
                              fld.grid.spacing(), DEFAULT_MARGIN).ravel()
    inside_median = _median(fld.values[mask])
    if not outside.any():
        outside_median = ratio = math.nan
    else:
        outside_median = _median(fld.values[outside])
        ratio = (inside_median / outside_median if outside_median > 0
                 else math.inf)
    return {"inside_median": inside_median,
            "outside_median": outside_median,
            "ratio": ratio}


def _median(a: np.ndarray) -> float:
    """np.median of a nonempty float array that holds no NaN, bit for bit.

    The same partition as np.median's, then its arithmetic: the middle
    value, or (a + b) / 2 of the middle two, each summed from +0.0 as
    numpy's mean sums (so -0.0 reads 0.0).  np.median's NaN check imports
    numpy.ma, about 10 ms of every compare process; a field holds no NaN
    (ScalarField refuses it).
    """
    mid = len(a) // 2
    if len(a) % 2:
        return 0.0 + float(np.partition(a, [mid, -1])[mid])
    part = np.partition(a, [mid - 1, mid, -1])
    return (0.0 + float(part[mid - 1]) + float(part[mid])) / 2


# ---------------------------------------------------------------------------
# CSV (field x1,x2,w and far-field k,re,im) and text PGM heatmaps
# ---------------------------------------------------------------------------

# Values per block of the field writer, rounded to whole lattice lines (at
# least one).  With the byte matrix and the kernel's temporaries a block
# takes about 0.3 kB per value.
FIELD_BLOCK = 2048


_FIELD_HEADER = b"x1,x2,w\n"


def _cell_texts(values: np.ndarray) -> list[bytes]:
    """`.17g,` text of each value: the leading cells of a CSV row."""
    return [f"{v:.17g},".encode() for v in values.tolist()]


def _axis_cells(axis: np.ndarray) -> np.ndarray:
    """`_cell_texts` of an axis, left-aligned and NUL-padded."""
    texts = _cell_texts(axis)
    w = max(map(len, texts))
    return np.frombuffer(b"".join(t.ljust(w, b"\0") for t in texts),
                         np.uint8).reshape(len(texts), w)


def _complex(tail: bytes) -> complex:
    """The re,im cells of a far-field row; complex(re, im) keeps -0.0."""
    re, im = tail.split(b",")
    return complex(float(re), float(im))


def _read_rows(path, header: bytes, prefixes, out: np.ndarray) -> None:
    """Fill `out` from the CSV at `path`, one row at a time.

    Line 1 must be `header`.  Row r must start with the r-th of `prefixes`
    byte for byte and end in one number (real `out`) or two, re,im
    (complex `out`), the only cells parsed; there are len(out) rows.  A
    real value may be +-inf, the reciprocal of a zero Picard sum, but not
    NaN; re and im must be finite.  Every refusal is a ValueError naming
    the file and its 1-based line.
    """
    farfield = out.dtype.kind == "c"
    parse = _complex if farfield else float
    r = -1
    with open(path, "rb") as f:
        if f.readline() != header:
            raise ValueError(f"{path}, line 1: the header line is not "
                             f"{header.decode().strip()}")
        for r, (prefix, row) in enumerate(zip(prefixes, f)):
            if not row.startswith(prefix):
                raise ValueError(f"{path}, line {r + 2}: the row does not "
                                 f"start with {prefix.decode()!r}")
            try:
                out[r] = parse(row[len(prefix):])
            except ValueError:
                names = header.decode().split(",", prefix.count(b","))[-1]
                raise ValueError(f"{path}, line {r + 2}: expected numbers "
                                 f"{names.strip()} after "
                                 f"{prefix.decode()!r}") from None
        if r + 1 < len(out) or f.readline():
            raise ValueError(f"{path}, line {r + 3}: expected exactly "
                             f"{len(out)} rows after the header line")
    bad = ~np.isfinite(out) if farfield else np.isnan(out)
    if bad.any():
        raise ValueError(f"{path}, line {int(bad.argmax()) + 2}: " + (
            "re,im must be finite" if farfield else "the value w is NaN"))


def write_field_csv(path, fld: ScalarField) -> None:
    """Row-major `x1,x2,w` rows, every number as `.17g`.

    Whole lattice lines of about FIELD_BLOCK values go out per write.  Each
    row is laid out in a byte matrix: the axis texts, then the cells of the
    value's `.17g` text from `_g17.cells`; unused cells hold NUL and one
    `translate` per block drops them.  Memory stays bounded by the block
    (or by one lattice line, when that is longer).
    """
    from . import _g17   # here, so that commands writing no field skip it

    lead, last = [_axis_cells(a) for a in fld.grid.axes()]
    (_, w_lead), (n_last, w_last) = lead.shape, last.shape
    width = w_lead + w_last + _g17.CELLS
    lines = max(1, FIELD_BLOCK // n_last)
    raw = bytearray(lines * n_last * width)
    buf = np.frombuffer(raw, np.uint8).reshape(lines, n_last, width)
    buf[:, :, w_lead:w_lead + w_last] = last
    rows = buf.reshape(lines * n_last, width)[:, w_lead + w_last:]
    values = fld.values.reshape(-1, n_last)
    with open(path, "wb") as f:
        f.write(_FIELD_HEADER)
        for start in range(0, len(values), lines):
            k = min(lines, len(values) - start)
            buf[:k, :, :w_lead] = lead[start:start + k, None]
            _g17.cells(values[start:start + k].ravel(), rows[:k * n_last])
            block = raw if k == lines else raw[:k * n_last * width]
            f.write(block.translate(None, b"\0"))


def read_field_csv(path, grid: SearchGrid) -> ScalarField:
    """A field CSV of `grid` as write_field_csv writes it: `_read_rows`
    holds row r to the `_cell_texts` of lattice point r.  A grid that is
    not 2D is refused before the file is opened."""
    fld = ScalarField(grid, np.zeros(grid.size))
    _read_rows(path, _FIELD_HEADER, map(b"".join, itertools.product(
        *map(_cell_texts, grid.axes()))), fld.values)
    return fld


# The 4-byte cell of a PGM pixel of level v, " v" NUL-padded, read as one
# uint32; cell 256 ends a row
_PGM_CELLS = np.frombuffer(b"".join(f" {v}".encode().ljust(4, b"\0")
                                    for v in range(256)) + b"\n\0\0\0",
                           np.uint32)


def check_pgm_values(name, values: np.ndarray) -> None:
    """Raise ValueError, naming `name`, unless every value is finite and
    nonnegative, as a PGM heatmap needs."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name}: field has non-finite values; a PGM "
                         "needs finite ones")
    if np.any(values < 0):
        raise ValueError(f"{name}: field has negative values; a PGM "
                         "needs nonnegative ones")


def write_pgm(path, fld: ScalarField) -> None:
    """8-bit max-normalized P2 heatmap; x1 left-right, x2 bottom-top.

    The image is laid out as a matrix of 4-byte cells: each row holds the
    `_PGM_CELLS` of its levels, then the row end.  The row's first byte
    (the space before its first level) and the cells' padding are NUL, and
    one `translate` drops them.
    """
    check_pgm_values(path, fld.values)
    top = float(np.max(fld.values))
    scale = 255.0 / top if top > 0 else 0.0
    img = np.rint(fld.values.reshape(fld.grid.shape) * scale).astype(np.uint8)
    rows = img.T[::-1]  # img is [i1, i2]; top row = largest x2
    height, width = rows.shape
    cells = np.empty((height, width + 1), np.uint32)
    np.take(_PGM_CELLS, rows, out=cells[:, :-1])
    cells[:, -1] = _PGM_CELLS[256]
    cells.view(np.uint8)[:, 0] = 0
    with open(path, "wb") as f:
        f.write(f"P2\n{width} {height}\n255\n".encode())
        f.write(cells.tobytes().translate(None, b"\0"))
