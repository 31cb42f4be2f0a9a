"""Uniform grids, level grids, and Hausdorff distances.

Compact metric spaces are discretized to uniform grids; every continuum
statement downstream is tested up to the documented grid slack.  A
``GridSpace`` (``grid_1d``, ``grid_2d``) is the package's one space.  It
is matrix-free: it holds its axes and coordinates, O(n) memory, and
builds the dense ``dist`` only when something reads it.  Its
coordinates, snap and ``spacing`` are what affine maps, snapping and
export read.

``GridSpace.distance_to(mask, within)`` is the distance from every point
x to the set {y : mask[y]}, inf if the set is empty.  ``within`` is an
optional cap, one value >= 0 per point: the result is exact wherever the
distance is below ``within[x]`` and any value >= ``within[x]`` elsewhere;
None asks for it everywhere.  That is all the level sweep of
``measures.hypograph_hausdorff`` needs.  A 1-D grid scans for the
nearest member on each side, exact everywhere, so only a 2-D grid reads
the cap: it takes, per row, the squared x-distance to the row's nearest
member, then a min over row offsets d = 1, 2, ... that stops once no
farther row can beat the current value or the cap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

# rows computed at once by a grid's ``dist`` build
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


def _splitmix64(seed, shape):
    """SplitMix64 words (Steele, Lea & Flood, OOPSLA 2014) for the counter 1..N.

    Word i is the finalizer of ``seed + i * 0x9E3779B97F4A7C15`` mod 2^64,
    in row-major order over ``shape``.  ``tnorms.axiom_report``, the one
    caller, takes doubles in [0, 1) as ``(z >> 11) * 2**-53``.  Unlike a
    ``numpy.random`` Generator, whose stream numpy may change between
    versions (NEP 19) and whose first import takes longer than the draws,
    the words depend on the seed alone.  uint64 array arithmetic wraps
    without a warning.
    """
    z = np.arange(1, math.prod(shape) + 1, dtype=np.uint64).reshape(shape)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


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


class GridSpace:
    """A uniform Euclidean lattice held matrix-free: the package's one
    space, with coordinates, a snap and a ``spacing``.

    ``axes`` lists (lo, hi, count) for one or two coordinates, x first;
    points are row-major (index = iy * nx + ix).  The coordinate array
    (n x d floats, column-major: each axis contiguous) must fit numpy's
    largest array, which is checked before anything is allocated.
    Integer counts >= 2, finite bounds, a positive step on each axis and
    strictly increasing axis coordinates make the Euclidean distance a
    metric on the lattice by construction, so only these O(n) facts are
    checked, and in 2-D that each squared step is a normal float and the
    squared extent is finite.  ``spacing`` is the step in 1-D and the
    cell diagonal in 2-D.  ``dist`` is built on first use and cached;
    distances and the diameter are otherwise computed from the axes and
    equal the dense matrix's, bit for bit.  Snapping is a closed form
    per axis.
    """

    def __init__(self, axes):
        axes = [(lo, hi, _integer(count, "grid point count", 2)) for lo, hi, count in axes]
        if len(axes) not in (1, 2):
            raise DomainError(f"a grid has one or two axes, not {len(axes)}")
        n = math.prod(count for _, _, count in axes)
        if n * len(axes) * 8 > np.iinfo(np.intp).max:
            raise DomainError("grid point count exceeds the largest array numpy can hold")
        coords_per_axis, steps = [], []
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
            steps.append(step)
        # the corner-to-corner distance, evaluated as the dense matrix would
        extent = [float(ax[-1] - ax[0]) for ax in coords_per_axis]
        if len(extent) == 1:
            self.diameter, self.spacing = extent[0], steps[0]
        else:
            # distances square the gaps: plain float *, which neither raises nor warns
            squared = sum(e * e for e in extent)
            if min(s * s for s in steps) < np.finfo(float).tiny or not math.isfinite(squared):
                raise DomainError("2-D grid steps and extent must square to normal finite floats")
            self.diameter, self.spacing = math.sqrt(squared), float(np.hypot(*steps))
        self.axes = tuple(coords_per_axis)
        self.n = n
        self.coords = _lattice(self.axes)
        self.coords.flags.writeable = False

    @cached_property
    def dist(self):
        """The dense n x n distance matrix, built on first read (O(n^2)
        memory) from ``distances``, ``_DENSE_ROW_BLOCK`` rows at a time."""
        d = np.empty((self.n, self.n))
        for start in range(0, self.n, _DENSE_ROW_BLOCK):
            rows = slice(start, start + _DENSE_ROW_BLOCK)
            d[rows] = self.distances(rows, slice(None))
        d.flags.writeable = False
        return d

    def distance_to(self, mask, within=None):
        """Distance from every point to the set {y : mask[y]}, under the
        ``within`` cap of the module docstring.

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

        ``pts`` (..., d) gives indices (...), by a closed form per axis;
        points outside the hull clip to its boundary.  DomainError unless
        ``pts`` is finite with the grid's dimension d as its last axis.
        """
        pts = np.asarray(pts, dtype=float)
        d = len(self.axes)
        if pts.ndim == 0 or pts.shape[-1] != d or not np.isfinite(pts).all():
            raise DomainError(f"points to snap must be finite with {d} coordinates each")
        flat = np.zeros(pts.shape[:-1], dtype=np.int64)
        # y first: index = iy * nx + ix
        for ax, axis in reversed(list(enumerate(self.axes))):
            # linspace returns both bounds exactly, so this is the step checked at build
            lo, count = axis[0], len(axis)
            step = (axis[-1] - lo) / (count - 1)
            # in place, on an array even for one point: the oracle snaps 2^14 at a time
            u = np.subtract(pts[..., ax], lo, out=np.empty(flat.shape))
            u /= step
            u -= 0.5
            np.ceil(u, out=u)
            np.clip(u, 0, count - 1, out=u)
            flat *= count
            flat += u.astype(np.int64)
        return flat


def _lattice(axes):
    """The row-major points on ``axes`` (x first, varying fastest), column-major (n, d)."""
    return np.vstack([g.ravel() for g in np.meshgrid(*axes)]).T


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
    grid's matrix-free ``distance_to``.
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
