"""Search grids, indicator fields, analytic masks, and contrast metrics."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .trajectory import Strip


@dataclass(frozen=True, eq=False)
class SearchGrid:
    """Uniform rectangular lattice, endpoints included on every axis."""

    bounds: tuple
    resolution: tuple

    def __post_init__(self):
        if len(self.bounds) not in (2, 3) or len(self.bounds) != len(self.resolution):
            raise ValueError("bounds/resolution must describe 2 or 3 axes")
        for (lo, hi), r in zip(self.bounds, self.resolution):
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
    """Values over a SearchGrid in row-major order."""

    grid: SearchGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} values, got {v.shape}")
        if np.isnan(v).any():
            # +-inf is a legitimate reciprocal of a zero Picard sum; NaN is not
            raise ValueError("field values contain NaN")
        self.values = v

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


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


def mask_strip(grid: SearchGrid, s: Strip) -> np.ndarray:
    """Boolean membership of each lattice point in the strip."""
    return s.contains_many(grid.points())


def _within_margin(mask: np.ndarray, spacing, margin: float) -> np.ndarray:
    """Lattice points with a `mask` point at most `margin` away.

    The same set as scipy's `distance_transform_edt(~mask, sampling=
    spacing) <= margin`, with the distance computed as it does: the square
    root of the sum, in axis order, of (offset * spacing)**2.  For one
    offset along the leading axes the reachable last-axis offsets form a
    range |j| <= J, so a cumulative-sum window ORs them in one step.
    """
    shape, n_last = mask.shape, mask.shape[-1]
    reach = [min(int(margin / h) + 1, n - 1) for h, n in zip(spacing, shape)]
    counts = np.zeros(shape[:-1] + (n_last + 1,), dtype=np.int64)
    np.cumsum(mask, axis=-1, out=counts[..., 1:])
    idx = np.arange(n_last)
    last = np.arange(reach[-1] + 1) * spacing[-1]
    last_sq = last * last
    near = np.zeros(shape, dtype=bool)
    for off in itertools.product(*(range(-r, r + 1) for r in reach[:-1])):
        lead_sq = 0.0
        for o, h in zip(off, spacing):
            lead_sq += (o * h) * (o * h)
        J = int(np.count_nonzero(np.sqrt(lead_sq + last_sq) <= margin)) - 1
        if J < 0:
            continue
        window = (counts[..., np.minimum(idx + J, n_last - 1) + 1]
                  > counts[..., np.maximum(idx - J, 0)])
        dst = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, shape))
        src = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, shape))
        near[dst] |= window[src]
    return near


def contrast_metric(fld: ScalarField, mask: np.ndarray,
                    margin: float = 0.25) -> dict:
    """Inside/outside medians of a field against a boolean mask.

    Outside points within `margin` of the mask (Euclidean distance over
    the lattice) are excluded, so the indicator's smooth shoulder at the
    strip boundary does not dilute the outside statistic.
    """
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be finite and >= 0, got {margin!r}")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any() or mask.all():
        raise ValueError("mask must be nonempty and non-full")
    outside = ~_within_margin(mask.reshape(fld.grid.shape),
                              fld.grid.spacing(), margin).ravel()
    if not outside.any():
        raise ValueError("no outside points remain after margin exclusion")
    inside_median = float(np.median(fld.values[mask]))
    outside_median = float(np.median(fld.values[outside]))
    ratio = inside_median / outside_median if outside_median > 0 else float("inf")
    return {"inside_median": inside_median,
            "outside_median": outside_median,
            "ratio": ratio}


# ---------------------------------------------------------------------------
# Field CSV (x1,x2[,x3],w row-major) and text PGM heatmaps
# ---------------------------------------------------------------------------

# Values per block of the field writer, rounded to whole lattice lines (at
# least one).  With the byte matrix and the kernel's temporaries a block
# takes about 0.3 kB per value.
FIELD_BLOCK = 2048


def _axis_texts(axis: np.ndarray) -> list[bytes]:
    """`.17g,` text of each axis value: a field CSV row's coordinate cells."""
    return [f"{c:.17g},".encode() for c in axis.tolist()]


def _axis_cells(axis: np.ndarray) -> np.ndarray:
    """`_axis_texts` of an axis, left-aligned and NUL-padded."""
    texts = _axis_texts(axis)
    w = max(map(len, texts))
    return np.frombuffer(b"".join(t.ljust(w, b"\0") for t in texts),
                         np.uint8).reshape(len(texts), w)


def write_field_csv(path, fld: ScalarField) -> None:
    """Row-major `x1,x2[,x3],w` rows, every number as `.17g`.

    Whole lattice lines of about FIELD_BLOCK values go out per write.  Each
    row is laid out in a byte matrix: the axis texts, then the cells of the
    value's `.17g` text from `_g17.cells`; unused cells hold NUL and one
    `translate` per block drops them.  Memory stays bounded by the block
    (or by one lattice line, when that is longer).
    """
    from . import _g17   # here, so that commands writing no field skip it

    grid = fld.grid
    *lead, last = [_axis_cells(a) for a in grid.axes()]
    n_last, w_last = last.shape
    w_lead = sum(c.shape[1] for c in lead)
    width = w_lead + w_last + _g17.CELLS
    lines = max(1, FIELD_BLOCK // n_last)
    raw = bytearray(lines * n_last * width)
    buf = np.frombuffer(raw, np.uint8).reshape(lines, n_last, width)
    buf[:, :, w_lead:w_lead + w_last] = last
    rows = buf.reshape(lines * n_last, width)[:, w_lead + w_last:]
    values = fld.values.reshape(-1, n_last)
    with open(path, "wb") as f:
        f.write(("".join(f"x{i + 1}," for i in range(grid.dim))
                 + "w\n").encode())
        for start in range(0, len(values), lines):
            k = min(lines, len(values) - start)
            idx = np.unravel_index(np.arange(start, start + k),
                                   grid.shape[:-1])
            buf[:k, :, :w_lead] = np.concatenate(
                [c[i] for c, i in zip(lead, idx)], axis=1)[:, None, :]
            _g17.cells(values[start:start + k].ravel(), rows[:k * n_last])
            block = raw if k == lines else raw[:k * n_last * width]
            f.write(block.translate(None, b"\0"))


def read_field_csv(path, grid: SearchGrid) -> ScalarField:
    """A field CSV of `grid` as write_field_csv writes it.

    After the header line, row r must start with the `_axis_texts` of
    lattice point r, byte for byte, and hold one value after them; only
    the values are parsed.  Rows are read one at a time.
    """
    values = np.empty(grid.size)
    r = -1
    with open(path, "rb") as f:
        f.readline()
        points = map(b"".join, itertools.product(*map(_axis_texts,
                                                       grid.axes())))
        for r, (coords, row) in enumerate(zip(points, f)):
            if not row.startswith(coords):
                raise ValueError(f"{path}: lattice points do not match the "
                                 "grid")
            try:
                values[r] = float(row[len(coords):])
            except ValueError:
                raise ValueError(f"{path}: a field value is not a number") \
                    from None
        if r + 1 != grid.size or f.readline():
            raise ValueError(f"{path}: field shape does not match the grid")
    return ScalarField(grid, values)


_PGM_LEVELS = [str(v) for v in range(256)]


def write_pgm(path, fld: ScalarField) -> None:
    """8-bit max-normalized P2 heatmap; x1 left-right, x2 bottom-top."""
    if fld.grid.dim != 2:
        raise ValueError("PGM output is 2D only")
    if not np.all(np.isfinite(fld.values)):
        raise ValueError(f"{path}: field has non-finite values; a PGM "
                         "needs finite ones")
    if np.any(fld.values < 0):
        raise ValueError(f"{path}: field has negative values; a PGM "
                         "needs nonnegative ones")
    top = float(np.max(fld.values))
    scale = 255.0 / top if top > 0 else 0.0
    img = np.rint(fld.reshaped() * scale).astype(int)  # [i1, i2]
    rows = img.T[::-1]  # top row = largest x2
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"P2\n{rows.shape[1]} {rows.shape[0]}\n255\n")
        for row in rows.tolist():
            f.write(" ".join([_PGM_LEVELS[v] for v in row]) + "\n")
