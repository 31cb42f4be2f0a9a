import json

import numpy as np
import pytest

import starifs as si
from starifs.spaces import _pairs_hausdorff


@pytest.fixture
def unit_grid():
    return si.grid_1d(101, 0.0, 1.0)


def make_cantor(n=729, weights=(1.0, 0.5), family="product", parameter=1.0):
    """The two-map middle-thirds system on an n-point grid of [0, 1]."""
    space = si.grid_1d(n, 0.0, 1.0)
    tnorm = si.TNorm(family, parameter)
    maps = [
        si.ContractionMap.affine([[1.0 / 3.0]], [0.0]),
        si.ContractionMap.affine([[1.0 / 3.0]], [2.0 / 3.0]),
    ]
    return si.validate(si.IFSSystem(space, maps, list(weights), tnorm))


def make_sierpinski(n=64, family="minimum", weights=(1.0, 1.0, 1.0)):
    """Three half-scale corner maps on an n x n grid of the unit square."""
    space = si.grid_2d(n, n, ((0.0, 1.0), (0.0, 1.0)))
    tnorm = si.TNorm(family)
    half = [[0.5, 0.0], [0.0, 0.5]]
    maps = [
        si.ContractionMap.affine(half, [0.0, 0.0]),
        si.ContractionMap.affine(half, [0.5, 0.0]),
        si.ContractionMap.affine(half, [0.0, 0.5]),
    ]
    return si.validate(si.IFSSystem(space, maps, weights, tnorm))


def random_measure(space, tnorm, rng):
    density = rng.uniform(0.0, 1.0, space.n)
    density[rng.integers(0, space.n)] = 1.0
    return si.StarMeasure(space, density, tnorm)


@pytest.fixture
def cantor():
    return make_cantor()


ALL_TNORMS = [
    si.TNorm("minimum"),
    si.TNorm("product"),
    si.TNorm("lukasiewicz"),
    si.TNorm("hamacher", 0.0),
    si.TNorm("hamacher", 0.5),
    si.TNorm("hamacher", 1.0),
    si.TNorm("hamacher", 2.0),
]


def product_metric(space_x, space_y):
    """The sup-metric product of two finite spaces as a materialized space.

    Pairs (i, j) are indexed row-major: flat = i * |Y| + j.  For small
    factors: the full |X||Y| x |X||Y| matrix is built.
    """
    dx, dy = space_x.dist, space_y.dist
    nx, ny = space_x.n, space_y.n
    d = np.maximum(dx[:, None, :, None], dy[None, :, None, :]).reshape(nx * ny, nx * ny)
    return si.FiniteMetricSpace(d)


def projection_bound_check(space_x, space_y, a_pairs, b_pairs):
    """d_H(A, B) <= diam(X) for A, B in X x Y with equal Y-projections.

    Unequal projections raise PreconditionError.
    """
    a = np.asarray(a_pairs, dtype=np.int64).reshape(-1, 2)
    b = np.asarray(b_pairs, dtype=np.int64).reshape(-1, 2)
    if a.size == 0 or b.size == 0:
        raise si.DomainError("A and B must be nonempty")
    if set(a[:, 1]) != set(b[:, 1]):
        raise si.PreconditionError("A and B must have equal Y-projections")
    return _pairs_hausdorff(space_x, space_y, a, b) <= space_x.diameter


def level_floor(levels, values):
    """Each value rounded down to the level grid (within GRID_SNAP_EPS)."""
    return levels.floor_index(values) / levels.resolution


def hypograph_hausdorff_bruteforce(space, dens_a, dens_b, levels):
    """Member-level sup-inf evaluation of the quantized hypograph distance.

    Enumerates both quantized hypographs as (point, level) pairs in
    X x level line; quadratic in member counts, for small spaces only.
    """

    def members(density):
        sat = si.to_saturated(si.SubDensity(space, density, None), levels)
        return np.column_stack(sat.member_arrays())

    lv = levels.levels
    line = si.FiniteMetricSpace(np.abs(lv[:, None] - lv[None, :]))
    return _pairs_hausdorff(space, line, members(dens_a), members(dens_b))


def reference_csv(path, table):
    """The per-row CSV writer: one ``%d,%.17g,...`` format per row."""
    row_format = ",".join(["%d"] + ["%.17g"] * (len(table.columns) - 1)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.columns) + "\n")
        fh.writelines(row_format % tuple(row) for row in table.rows.tolist())


def reference_json(path, table):
    """``json.dump(indent=2)`` of the table, the index column as ints."""
    rows = table.rows.astype(object)
    rows[:, 0] = table.rows[:, 0].astype(np.int64).tolist()
    payload = {"columns": list(table.columns), "rows": rows.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def reference_pgm(path, table):
    """Plain P2 with the pixels joined 16 to a line."""
    width, height = table.grid_shape()
    values = np.floor(255 * table.density + 0.5).astype(np.int64).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        fh.writelines(
            " ".join(map(str, values[i : i + 16])) + "\n" for i in range(0, len(values), 16)
        )


REFERENCE_WRITERS = {"csv": reference_csv, "json": reference_json, "pgm": reference_pgm}
