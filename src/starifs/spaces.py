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
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

_TRIANGLE_EXHAUSTIVE_LIMIT = 512
_TRIANGLE_SAMPLES = 10_000
# rows of a dense matrix scanned at once by ``distance_to``
_DENSE_ROW_BLOCK = 256

# values within this distance of a level line are treated as on it
GRID_SNAP_EPS = 1e-9


def _integer(value, name, lo=0, space=None):
    """``value`` as a Python int: at least ``lo``, or a point index of ``space``.

    Integers of any kind are accepted; bools, floats and anything else
    without ``__index__`` raise DomainError, as does a value below
    ``lo`` or, when ``space`` is given, outside 0..n-1.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        noun = "an integer point index" if space is not None else "an integer"
        raise DomainError(f"{name} must be {noun}") from None
    if space is not None and not 0 <= value < space.n:
        raise DomainError(f"{name} outside the space")
    if value < lo:
        raise DomainError(f"{name} must be >= {lo}")
    return value


def _indices(values, name, space=None):
    """``values`` as an int64 array of the same shape: the array twin of ``_integer``.

    Integers and integral floats pass; bools, fractions, non-finite and
    non-numeric entries raise DomainError, and so, with ``space``, does an
    entry outside 0..n-1.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all() or np.any(arr % 1):
        raise DomainError(f"{name} must be finite integers")
    if space is not None and arr.size and (arr.min() < 0 or arr.max() >= space.n):
        raise DomainError(f"{name} outside the space")
    return arr.astype(np.int64)


class FiniteMetricSpace:
    """A finite point set with a full distance matrix.

    Points are identified by their index 0..n-1.  ``coords`` is optional
    (affine maps and snapping need it).  ``spacing`` is the snap
    diameter: the distance within which any point of the hull has a
    point of the space, here the largest nearest-neighbour distance; a
    space needs at least two points, as a grid does, so it is defined.
    ``dist`` and ``coords`` are copied, so the caller's arrays stay writable.
    """

    def __init__(self, dist, coords=None):
        dist = np.array(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise DomainError("distance matrix must be square")
        self.n = dist.shape[0]
        if self.n < 2:
            raise DomainError("a space needs at least two points")
        self.dist = dist
        self.dist.flags.writeable = False
        self.coords = None
        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.ndim == 1:
                coords = coords[:, None]
            if coords.ndim != 2 or coords.shape[0] != self.n or coords.shape[1] < 1:
                raise DomainError("coords must give one row per point")
            if not np.all(np.isfinite(coords)):
                raise DomainError("coords must be finite")
            coords.flags.writeable = False
            self.coords = coords
        self.diameter = float(dist.max())
        off = dist + np.diag(np.full(self.n, np.inf))
        self.spacing = float(off.min(axis=1).max())
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
        if np.any(off <= 0.0):
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
    row-major (index = iy * nx + ix).  Integer counts >= 2, finite
    bounds, a positive step on each axis and strictly increasing axis
    coordinates make the Euclidean distance a metric on the lattice by
    construction, so only these O(n) facts are checked.  ``spacing`` is
    the step in 1-D and the cell diagonal in 2-D.  ``dist`` is built on
    first use and cached; distances, the diameter and snapping are
    otherwise computed from the axes and equal the dense matrix's, bit
    for bit.
    """

    def __init__(self, axes):
        coords_per_axis = []
        # ((lo, step, count, stride), ...) per coordinate, for snapping
        grid_axes = []
        stride = 1
        for lo, hi, count in axes:
            count = _integer(count, "grid point count", 2)
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError("grid bounds must be finite")
            step = (hi - lo) / (count - 1)
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
        steps = [step for _, step, _, _ in grid_axes]
        self.spacing = steps[0] if len(steps) == 1 else float(np.hypot(*steps))

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
            # in place: the oracle snaps blocks of 2^14 points at a time
            u = pts[:, ax] - lo
            u /= step
            u -= 0.5
            np.ceil(u, out=u)
            np.clip(u, 0, count - 1, out=u)
            idx = u.astype(np.int64)
            idx *= stride
            flat += idx
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
    return GridSpace([(a, b, n)])


def grid_2d(nx, ny, bounds):
    """nx * ny lattice points on a rectangle, row-major (index = iy*nx + ix).

    ``bounds`` is ((x0, x1), (y0, y1)).  The snap spacing is the cell
    diagonal, so any point of the rectangle is within spacing/2 of the
    lattice.
    """
    (x0, x1), (y0, y1) = bounds
    return GridSpace([(x0, x1, nx), (y0, y1, ny)])


def hausdorff(space, a_points, b_points):
    """Hausdorff distance between two nonempty finite point sets.

    The max of the two directed sup-inf distances, each read off the
    space's ``distance_to`` (matrix-free on generated grids).
    """
    a = _indices(a_points, "point set A", space).ravel()
    b = _indices(b_points, "point set B", space).ravel()
    if a.size == 0 or b.size == 0:
        raise DomainError("point sets must be nonempty")

    def directed(src, dst):
        mask = np.zeros(space.n, dtype=bool)
        mask[dst] = True
        return space.distance_to(mask)[src].max()

    return float(max(directed(a, b), directed(b, a)))


def _pairs_hausdorff(space_x, space_y, a_pairs, b_pairs):
    """Hausdorff distance of two (x, y) index-pair sets under the sup metric."""
    ax, ay = a_pairs[:, 0], a_pairs[:, 1]
    bx, by = b_pairs[:, 0], b_pairs[:, 1]
    d = np.maximum(space_x.dist[np.ix_(ax, bx)], space_y.dist[np.ix_(ay, by)])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class LevelGrid:
    """The quantized unit segment {0, 1/m, ..., 1}."""

    resolution: int

    def __post_init__(self):
        m = _integer(self.resolution, "level resolution", 1)
        object.__setattr__(self, "resolution", m)

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
