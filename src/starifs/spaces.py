"""Finite metric spaces, uniform grids, level grids, and Hausdorff distances.

Compact metric spaces are discretized to finite point clouds; every
continuum statement downstream is tested up to the documented grid
slack.  A user-supplied ``FiniteMetricSpace`` carries its full distance
matrix.  Generated grids (``grid_1d``, ``grid_2d``) are matrix-free:
they hold their axes and coordinates, O(n) memory, and build the dense
``dist`` only when something reads it.

Each kind of space answers ``distance_to(mask)``, the distance from
every point to a point set, which is all the level sweep of
``measures.hypograph_hausdorff`` needs: nearest-index scans on a 1-D
grid; on a 2-D grid a row pass, then an exact column pass over squared
distances (the separable distance transform of Felzenszwalb &
Huttenlocher, "Distance Transforms of Sampled Functions", 2012); and a
chunked masked row-min on a dense space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PreconditionError

_TRIANGLE_EXHAUSTIVE_LIMIT = 512
_TRIANGLE_SAMPLES = 10_000
# rows of a dense matrix scanned at once by ``distance_to``
_DENSE_ROW_BLOCK = 256

# values within this distance of a level line are treated as on it
GRID_SNAP_EPS = 1e-9


class FiniteMetricSpace:
    """A finite point set with a full distance matrix.

    Points are identified by their index 0..n-1.  ``coords`` is optional
    (affine maps and snapping need it).  ``spacing`` is the snap
    diameter: the distance within which any point of the hull has a
    point of the space, here the largest nearest-neighbour distance.
    ``dist`` and ``coords`` are copied, so the caller's arrays stay writable.
    """

    def __init__(self, dist, coords=None, validate=True):
        dist = np.array(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise DomainError("distance matrix must be square")
        self.n = dist.shape[0]
        if self.n < 1:
            raise DomainError("a space needs at least one point")
        self.dist = dist
        self.dist.flags.writeable = False
        self.coords = None
        if coords is not None:
            self.coords = np.array(coords, dtype=float).reshape(self.n, -1)
            self.coords.flags.writeable = False
        self.diameter = float(dist.max())
        off = dist + np.diag(np.full(self.n, np.inf))
        self.spacing = float(off.min(axis=1).max()) if self.n > 1 else None
        if validate:
            self._check_metric()

    def _check_metric(self):
        d = self.dist
        if not np.all(np.isfinite(d)):
            raise DomainError("distances must be finite")
        if np.any(np.diagonal(d) != 0.0):
            raise DomainError("distance of a point to itself must be 0")
        if not np.array_equal(d, d.T):
            raise DomainError("distance matrix must be symmetric")
        off = d[~np.eye(self.n, dtype=bool)]
        if off.size and np.any(off <= 0.0):
            raise DomainError("distinct points must be at positive distance")
        tol = 1e-12 * max(1.0, self.diameter)
        if self.n <= _TRIANGLE_EXHAUSTIVE_LIMIT:
            for k in range(self.n):
                if np.any(d > d[:, k, None] + d[None, k, :] + tol):
                    raise DomainError("triangle inequality violated")
        else:
            rng = np.random.default_rng(0)
            i, j, k = rng.integers(0, self.n, size=(3, _TRIANGLE_SAMPLES))
            if np.any(d[i, j] > d[i, k] + d[k, j] + tol):
                raise DomainError("triangle inequality violated (sampled)")

    def distance_to(self, mask):
        """Distance from every point to the nonempty set {y : mask[y]}.

        A masked row-min over the matrix, ``_DENSE_ROW_BLOCK`` rows at a time.
        """
        out = np.empty(self.n)
        for start in range(0, self.n, _DENSE_ROW_BLOCK):
            block = self.dist[start : start + _DENSE_ROW_BLOCK, mask]
            out[start : start + _DENSE_ROW_BLOCK] = block.min(axis=1)
        return out

    def snap(self, pts):
        """Indices of the nearest points by coordinates; ties go to the lowest index.

        ``pts`` is (k, d) coordinates, matched by an argmin scan.
        """
        pts = _as_points(pts)
        if self.coords is None:
            raise DomainError("snapping requires coordinates")
        out = np.empty(len(pts), dtype=np.int64)
        for start in range(0, len(pts), 1024):
            chunk = pts[start : start + 1024]
            d2 = ((chunk[:, None, :] - self.coords[None, :, :]) ** 2).sum(axis=-1)
            out[start : start + 1024] = np.argmin(d2, axis=1)
        return out


class GridSpace(FiniteMetricSpace):
    """A uniform Euclidean lattice held matrix-free.

    ``axes`` lists (lo, hi, count) per coordinate, x first; points are
    row-major (index = iy * nx + ix).  Finite bounds, a positive step on
    each axis and strictly increasing axis coordinates make the
    Euclidean distance a metric on the lattice by construction, so only
    these O(n) facts are checked.  ``dist`` is built on first use and
    cached; distances, the diameter and snapping are otherwise computed
    from the axes and equal what the dense matrix would give, bit for bit.
    """

    def __init__(self, axes, spacing):
        coords_per_axis = []
        # ((lo, step, count, stride), ...) per coordinate, for snapping
        grid_axes = []
        stride = 1
        for lo, hi, count in axes:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError("grid bounds must be finite")
            step = (hi - lo) / (count - 1) if count >= 2 else 0.0
            if not 0.0 < step < math.inf:
                raise DomainError("grid axes need a positive finite step")
            coord = np.linspace(lo, hi, count)
            if np.any(np.diff(coord) <= 0.0):
                raise DomainError("grid points must be distinct")
            coord.flags.writeable = False
            coords_per_axis.append(coord)
            grid_axes.append((lo, step, count, stride))
            stride *= count
        self.axes = tuple(coords_per_axis)
        self._grid_axes = tuple(grid_axes)
        self.n = stride
        mesh = np.meshgrid(*self.axes)  # row-major: y varies along rows
        self.coords = np.column_stack([g.ravel() for g in mesh])
        self.coords.flags.writeable = False
        # the corner-to-corner distance, evaluated as the dense matrix would
        extent = [ax[-1] - ax[0] for ax in self.axes]
        if len(extent) == 1:
            self.diameter = float(extent[0])
        else:
            self.diameter = float(np.sqrt(sum(e * e for e in extent)))
        self.spacing = spacing

    @cached_property
    def dist(self):
        """The dense n x n distance matrix, built on first read (O(n^2) memory)."""
        d = _pairwise_euclidean(self.coords)
        d.flags.writeable = False
        return d

    def distance_to(self, mask):
        """Distance from every point to the nonempty set {y : mask[y]}.

        1-D: nearest member to the left and to the right by index scans.
        2-D: per row, the squared x-distance to the nearest member of
        that row; then, for row offsets d = 1, 2, ..., the squared
        y-distance to the rows d above and below plus their row value,
        until no farther row can beat the current worst point.  The
        square root comes last, so every value is the one the dense
        matrix holds for the nearest member.  Memory is O(n).
        """
        if len(self.axes) == 1:
            return _nearest_gap(self.axes[0], mask)
        xs, ys = self.axes
        grid = np.asarray(mask, dtype=bool).reshape(len(ys), len(xs))
        gx2 = _nearest_gap(xs, grid) ** 2
        best = gx2.copy()
        for d in range(1, len(ys)):
            gy2 = ((ys[d:] - ys[:-d]) ** 2)[:, None]
            # farther rows are at least this far from every point
            if gy2.min() >= best.max():
                break
            np.minimum(best[d:], gy2 + gx2[:-d], out=best[d:])
            np.minimum(best[:-d], gy2 + gx2[d:], out=best[:-d])
        return np.sqrt(best).ravel()

    def snap(self, pts):
        """Indices of the nearest grid points; ties go to the lowest index.

        Closed form per axis; exact half-way ties resolve to the lower
        index, and points outside the hull clip to its boundary.
        """
        pts = _as_points(pts)
        flat = np.zeros(len(pts), dtype=np.int64)
        for ax, (lo, step, count, stride) in enumerate(self._grid_axes):
            u = (pts[:, ax] - lo) / step
            idx = np.clip(np.ceil(u - 0.5), 0, count - 1).astype(np.int64)
            flat += idx * stride
        return flat


def _as_points(pts):
    pts = np.asarray(pts, dtype=float)
    return pts.reshape(1, -1) if pts.ndim == 1 else pts


def _nearest_gap(x, mask):
    """Distance along the sorted axis ``x`` to the nearest True of ``mask``.

    Works along the last axis of ``mask``; inf where a row has no True.
    """
    n = x.size
    idx = np.arange(n)
    left = np.maximum.accumulate(np.where(mask, idx, -1), axis=-1)
    right = np.minimum.accumulate(np.where(mask, idx, n)[..., ::-1], axis=-1)[..., ::-1]
    padded = np.concatenate(([-np.inf], x, [np.inf]))
    return np.minimum(x - padded[left + 1], padded[right + 1] - x)


def _pairwise_euclidean(coords, chunk=512):
    n = len(coords)
    if coords.shape[1] == 1:
        x = coords[:, 0]
        return np.abs(x[:, None] - x[None, :])
    d = np.empty((n, n), dtype=float)
    for start in range(0, n, chunk):
        diff = coords[start : start + chunk, None, :] - coords[None, :, :]
        d[start : start + chunk] = np.sqrt((diff**2).sum(axis=-1))
    return d


def grid_1d(n, a, b):
    """n equally spaced points on [a, b] with the Euclidean metric."""
    if n < 2:
        raise DomainError("grid_1d needs at least 2 points")
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("grid_1d needs finite bounds")
    if not a < b:
        raise DomainError("grid_1d needs a < b")
    return GridSpace([(a, b, n)], spacing=(b - a) / (n - 1))


def grid_2d(nx, ny, bounds):
    """nx * ny lattice points on a rectangle, row-major (index = iy*nx + ix).

    ``bounds`` is ((x0, x1), (y0, y1)).  The snap spacing is the cell
    diagonal, so any point of the rectangle is within spacing/2 of the
    lattice.
    """
    if nx < 2 or ny < 2:
        raise DomainError("grid_2d needs at least 2 points per axis")
    (x0, x1), (y0, y1) = bounds
    x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise DomainError("grid_2d needs finite bounds")
    if not (x0 < x1 and y0 < y1):
        raise DomainError("grid_2d needs a non-degenerate rectangle")
    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    return GridSpace([(x0, x1, nx), (y0, y1, ny)], spacing=float(np.hypot(hx, hy)))


def _as_index_array(space, pts, name):
    idx = np.asarray(pts, dtype=np.int64).ravel()
    if idx.size == 0:
        raise DomainError(f"{name} must be a nonempty point set")
    if np.any(idx < 0) or np.any(idx >= space.n):
        raise DomainError(f"{name} contains indices outside the space")
    return idx


def hausdorff(space, a_points, b_points):
    """Hausdorff distance between two nonempty finite point sets.

    The max of the two directed sup-inf distances, each read off the
    space's ``distance_to`` (matrix-free on generated grids).
    """
    a = _as_index_array(space, a_points, "A")
    b = _as_index_array(space, b_points, "B")

    def directed(src, dst):
        mask = np.zeros(space.n, dtype=bool)
        mask[dst] = True
        return space.distance_to(mask)[src].max()

    return float(max(directed(a, b), directed(b, a)))


def product_metric(space_x, space_y):
    """The sup-metric product of two finite spaces as a materialized space.

    Pairs (i, j) are indexed row-major: flat = i * |Y| + j.  Intended
    for small factors (the full |X||Y| x |X||Y| matrix is built).
    """
    dx, dy = space_x.dist, space_y.dist
    nx, ny = space_x.n, space_y.n
    d = np.maximum(
        dx[:, None, :, None], dy[None, :, None, :]
    ).reshape(nx * ny, nx * ny)
    return FiniteMetricSpace(d, validate=False)


def _pairs_hausdorff(space_x, space_y, a_pairs, b_pairs):
    """Hausdorff distance of two (x, y) index-pair sets under the sup metric."""
    ax, ay = a_pairs[:, 0], a_pairs[:, 1]
    bx, by = b_pairs[:, 0], b_pairs[:, 1]
    d = np.maximum(space_x.dist[np.ix_(ax, bx)], space_y.dist[np.ix_(ay, by)])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def projection_bound_check(space_x, space_y, a_pairs, b_pairs):
    """Check d_H(A, B) <= diam(X) for A, B in X x Y with equal Y-projections.

    Always true for valid inputs; exists as a verification surface.
    Unequal projections raise PreconditionError.
    """
    a = np.asarray(a_pairs, dtype=np.int64).reshape(-1, 2)
    b = np.asarray(b_pairs, dtype=np.int64).reshape(-1, 2)
    if a.size == 0 or b.size == 0:
        raise DomainError("A and B must be nonempty")
    if set(a[:, 1]) != set(b[:, 1]):
        raise PreconditionError("A and B must have equal Y-projections")
    return _pairs_hausdorff(space_x, space_y, a, b) <= space_x.diameter


@dataclass(frozen=True)
class LevelGrid:
    """The quantized unit segment {0, 1/m, ..., 1}."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise DomainError("level resolution must be >= 1")

    @property
    def levels(self):
        m = self.resolution
        return np.arange(m + 1) / m

    def floor_index(self, values):
        """Largest level index at or below each value (within GRID_SNAP_EPS)."""
        v = np.asarray(values, dtype=float)
        idx = np.floor(v * self.resolution + GRID_SNAP_EPS).astype(np.int64)
        return np.clip(idx, 0, self.resolution)

    def floor(self, values):
        return self.floor_index(values) / self.resolution
