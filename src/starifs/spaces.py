"""Finite metric spaces, uniform grids, level grids, and Hausdorff distances.

Compact metric spaces are discretized to finite point clouds; every
continuum statement downstream is tested up to the documented grid
slack.  A user-supplied ``FiniteMetricSpace`` carries its full distance
matrix.  Generated grids (``grid_1d``, ``grid_2d``) are matrix-free:
they hold their axes and coordinates, O(n) memory, and build the dense
``dist`` only when something reads it.

Each kind of space answers ``distance_to(mask, within)``, the distance
from every point to a point set, exact wherever it is below an optional
per-point cap, which is all the level sweep of
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
# rows scanned at once by the dense ``distance_to`` and ``snap`` and by
# the dense distance build
_DENSE_ROW_BLOCK = 256

# values within this distance of a level line are treated as on it
GRID_SNAP_EPS = 1e-9
# the largest level resolution m: float64 holds every integer up to 2**53,
# so each level index k in 0..m is exact in the level arithmetic
MAX_LEVEL_RESOLUTION = 2**53


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


def _distinct(values):
    """The sorted distinct values of an array, flattened.

    The sort-and-compare of ``np.unique``, which under numpy 2 also
    imports ``numpy.ma`` (about 10 ms) on its first call in a process.
    """
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _indices(values, name, space=None):
    """``values`` as an int64 array of the same shape: the array twin of ``_integer``.

    Integers and integral floats in the int64 range pass; bools, fractions,
    non-finite, out-of-range and non-numeric entries raise DomainError, and
    so, with ``space``, does an entry outside 0..n-1.
    """
    arr = np.asarray(values)
    if (
        arr.dtype.kind not in "iuf"
        or not np.isfinite(arr).all()
        or np.any(arr % 1)
        # checked before the cast, which would wrap or warn
        or (arr.size and not -(2**63) <= int(arr.min()) <= int(arr.max()) < 2**63)
    ):
        raise DomainError(f"{name} must be finite integers within int64")
    if space is not None and arr.size and (arr.min() < 0 or arr.max() >= space.n):
        raise DomainError(f"{name} outside the space")
    return arr.astype(np.int64)


def _unit_values(values, name, space=None):
    """``values`` as a float array with every entry in [0, 1], unclipped.

    NaN, infinite, out-of-range and non-numeric entries raise DomainError,
    as does, with ``space``, any shape but one value per point.
    """
    arr = np.asarray(values)
    if space is not None and arr.shape != (space.n,):
        raise DomainError(f"{name} must assign one value per point")
    if arr.dtype.kind not in "biuf" or not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError(f"{name} must be finite and lie in [0, 1]")
    return arr.astype(float, copy=False)


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

    def distance_to(self, mask, within=None):
        """Distance from every point to the nonempty set {y : mask[y]}.

        ``within`` is an optional cap, one value >= 0 per point: the
        distance is exact wherever it is below ``within[x]``, and any
        value >= ``within[x]`` elsewhere; None asks for it everywhere.
        A masked row-min over the matrix, ``_DENSE_ROW_BLOCK`` rows at a
        time, over only the rows with ``within > 0``; the others get 0.
        """
        out = np.zeros(self.n)
        rows = np.arange(self.n) if within is None else np.flatnonzero(within > 0)
        cols = np.flatnonzero(mask)
        for start in range(0, rows.size, _DENSE_ROW_BLOCK):
            block = rows[start : start + _DENSE_ROW_BLOCK]
            out[block] = self.dist[np.ix_(block, cols)].min(axis=1)
        return out

    def distances(self, rows, cols):
        """The block of the distance matrix at point indices ``rows`` x ``cols``."""
        return self.dist[np.ix_(rows, cols)]

    def snap(self, pts):
        """Indices of the nearest points by coordinates; ties go to the lowest index.

        ``pts`` is (k, d) coordinates, matched by an argmin scan,
        ``_DENSE_ROW_BLOCK`` points at a time.
        """
        pts = _as_points(pts)
        if self.coords is None:
            raise DomainError("snapping requires coordinates")
        out = np.empty(len(pts), dtype=np.int64)
        for start in range(0, len(pts), _DENSE_ROW_BLOCK):
            block = pts[start : start + _DENSE_ROW_BLOCK]
            d2 = ((block[:, None, :] - self.coords[None, :, :]) ** 2).sum(axis=-1)
            out[start : start + _DENSE_ROW_BLOCK] = np.argmin(d2, axis=1)
        return out


class GridSpace(FiniteMetricSpace):
    """A uniform Euclidean lattice held matrix-free.

    ``axes`` lists (lo, hi, count) for one or two coordinates, x first;
    points are row-major (index = iy * nx + ix).  The coordinate array
    (n x d floats) must fit numpy's largest array, which is checked
    before anything is allocated.  Integer counts >= 2, finite bounds, a
    positive step on each axis and strictly increasing axis coordinates
    make the Euclidean distance a metric on the lattice by construction,
    so only these O(n) facts are checked, and in 2-D that each squared
    step is a normal float and the squared extent is finite.  ``spacing`` is
    the step in 1-D and the cell diagonal in 2-D.  ``dist`` is built on
    first use and cached; distances, the diameter and snapping are
    otherwise computed from the axes and equal the dense matrix's, bit
    for bit.
    """

    def __init__(self, axes):
        axes = [(lo, hi, _integer(count, "grid point count", 2)) for lo, hi, count in axes]
        if len(axes) not in (1, 2):
            raise DomainError(f"a grid has one or two axes, not {len(axes)}")
        n = math.prod(count for _, _, count in axes)
        if n * len(axes) * 8 > np.iinfo(np.intp).max:
            raise DomainError("grid point count exceeds the largest array numpy can hold")
        coords_per_axis = []
        # ((lo, step, count, stride), ...) per coordinate, for snapping
        grid_axes = []
        stride = 1
        for lo, hi, count in axes:
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
        # the corner-to-corner distance, evaluated as the dense matrix would
        extent = [float(ax[-1] - ax[0]) for ax in coords_per_axis]
        steps = [step for _, step, _, _ in grid_axes]
        if len(extent) == 1:
            self.diameter, self.spacing = extent[0], steps[0]
        else:
            # distances square the gaps: plain float *, which neither raises nor warns
            squared = sum(e * e for e in extent)
            if min(s * s for s in steps) < np.finfo(float).tiny or not math.isfinite(squared):
                raise DomainError("2-D grid steps and extent must square to normal finite floats")
            self.diameter, self.spacing = math.sqrt(squared), float(np.hypot(*steps))
        self.axes = tuple(coords_per_axis)
        self._grid_axes = tuple(grid_axes)
        self.n = n
        mesh = np.meshgrid(*self.axes)  # row-major: y varies along rows
        self.coords = np.column_stack([g.ravel() for g in mesh])
        self.coords.flags.writeable = False

    @cached_property
    def dist(self):
        """The dense n x n distance matrix, built on first read (O(n^2) memory)."""
        d = _pairwise_euclidean(self.coords)
        d.flags.writeable = False
        return d

    def distance_to(self, mask, within=None):
        """Distance from every point to the nonempty set {y : mask[y]}.

        ``within`` is an optional cap, one value >= 0 per point: the
        distance is exact wherever it is below ``within[x]``, and any
        value >= ``within[x]`` elsewhere; None asks for it everywhere.
        1-D: nearest member to the left and to the right by index scans,
        exact everywhere.
        2-D: per row, the squared x-distance to the nearest member of
        that row; then, for row offsets d = 1, 2, ..., the squared
        y-distance to the rows d above and below plus their row value,
        until no farther row can beat min(current, within**2) at any
        point.  The square root comes last, so every exact value is the
        one the dense matrix holds for the nearest member.  A point cut
        off by its cap holds a squared value above fl(w * w), and
        sqrt(fl(w * w)) == w in binary64 unless w * w over- or
        underflows (then the cap is inf, or w is below the smallest
        nonzero distance), so its value is >= w.  The capped loop never
        takes more row steps than the uncapped one.  Memory is O(n).
        """
        if len(self.axes) == 1:
            return _nearest_gap(self.axes[0], mask)
        xs, ys = self.axes
        grid = np.asarray(mask, dtype=bool).reshape(len(ys), len(xs))
        gx2 = _nearest_gap(xs, grid) ** 2
        best = gx2.copy()
        cap2 = np.inf if within is None else np.square(within).reshape(grid.shape)
        for d in range(1, len(ys)):
            gy2 = ((ys[d:] - ys[:-d]) ** 2)[:, None]
            # farther rows are at least this far from every point
            if gy2.min() >= np.minimum(best, cap2).max():
                break
            np.minimum(best[d:], gy2 + gx2[:-d], out=best[d:])
            np.minimum(best[:-d], gy2 + gx2[d:], out=best[:-d])
        return np.sqrt(best).ravel()

    def distances(self, rows, cols):
        """The block of the distance matrix at point indices ``rows`` x ``cols``.

        Computed from the coordinates, bit for bit the entries of ``dist``,
        which is not built.
        """
        return _euclidean(self.coords[rows], self.coords[cols])

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


def _euclidean(a, b):
    """Distances between the coordinate rows of ``a`` and of ``b``.

    1-D: the absolute gap.  2-D: the squared gaps summed, the square
    root last.
    """
    if a.shape[1] == 1:
        return np.abs(a[:, 0, None] - b[None, :, 0])
    d = (a[:, 0, None] - b[None, :, 0]) ** 2
    d += (a[:, 1, None] - b[None, :, 1]) ** 2
    return np.sqrt(d, out=d)


def _pairwise_euclidean(coords):
    n = len(coords)
    d = np.empty((n, n), dtype=float)
    for start in range(0, n, _DENSE_ROW_BLOCK):
        rows = slice(start, start + _DENSE_ROW_BLOCK)
        d[rows] = _euclidean(coords[rows], coords)
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
    """The quantized unit segment {0, 1/m, ..., 1}, for 1 <= m <= 2**53."""

    resolution: int

    def __post_init__(self):
        m = _integer(self.resolution, "level resolution", 1)
        if m > MAX_LEVEL_RESOLUTION:
            raise DomainError(f"level resolution must be <= {MAX_LEVEL_RESOLUTION}")
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
