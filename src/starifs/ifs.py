"""Iterated function systems and the fixed-point solver.

The system operator sends a measure A to the union over maps of
lambda_i * (image of A under f_i).  Its unique fixed point is the
invariant measure.  On a grid the operator is linear over the semiring
([0, 1], max, T), so the limit of the chain from the full seed (density
identically 1, which the chain descends from monotonically) is the
solution of an algebraic path problem: ``solve`` computes it exactly by
a path sweep and checks it against ``psi`` bit for bit.  The sweep's
raise d <- max(d, psi(d)) is semi-naive (``_closure``): ``psi`` is a max
of one term per point, so a point that did not rise last round sends
what the density already holds, and each round pushes only the points
that rose, with the naive raise's output and round count bit for bit.
Other seeds are iterated until a step returns its input bit for bit,
until c^n * diam(X) falls to the tolerance, or until the step budget is
spent.  That number is the paper's bound between two continuum orbits
in the hypograph Hausdorff metric, not a certified distance to a grid
fixed point.

On a grid ``psi`` is a sparse (max, T) matrix-vector product, and since
T(w, 0) = 0 only the density's support contributes: ``_psi_density``
follows the support alone, one scatter per step over every map
(``_scatter``) through the t-norm's float-monotone T(w, .).  ``solve``
iterates raw density arrays through it, the path sweep through the same
scatter, and each builds one measure at the end; the public ``psi``
checks its arguments and wraps the same kernel.

Affine map images are snapped to the nearest grid point (ties to the
lowest index).  Every affine image and composition, in the tables, the
hull check and the oracle, goes through ``_affine_images``, so a table
does not depend on the BLAS build or the batch; the tie rule applies to
that floating-point image.  Snapping moves an image by spacing/2 up to
rounding, h/(2(1-c)) accumulated: in exact arithmetic on the grid's
float coordinates an image can lie a few ulps beyond spacing/2 of its
snapped point (within spacing/2 * (1 + 2^-40) on the tested grids), and
a radius measured from the tables is still open.  The level grid
contributes 1/m per side.  These are the only systematic discretization
errors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CoverageError,
    DomainError,
    NotAContractionError,
    PreconditionError,
    ValidationError,
    WeightError,
)
from .measures import NORMALIZATION_TOL, StarMeasure, hypograph_hausdorff
from .spaces import GridSpace, LevelGrid, _indices, _integer, _unit_values

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
DEFAULT_LEVEL_RESOLUTION = 256
# how far past one spacing an affine map may send a grid point out of the hull
_HULL_SLACK = 1e-12
# pairs per block of a tabulated map's contraction ratio
_PAIR_BLOCK = 2**18


def _readonly(arr):
    arr.flags.writeable = False
    return arr


def _operator_norm(matrix):
    """The least double s with s^2 I - A^T A positive semidefinite, so
    s bounds |A x| / |x| for every x: LAPACK's SVD value, stepped by one
    ulp until the exact test holds and fails one ulp below.  A is 2 x 2,
    so with A^T A = [[p, q], [q, r]] the test is the 2 x 2 rule in
    Fractions: s^2 - p >= 0, s^2 - r >= 0 and (s^2 - p)(s^2 - r) >= q^2."""
    from fractions import Fraction  # imports decimal; only a non-diagonal matrix needs it

    (a, b), (c, d) = [[Fraction(v) for v in row] for row in matrix.tolist()]
    p, q, r = a * a + c * c, a * b + c * d, b * b + d * d

    def bounds(s):
        square = Fraction(s) ** 2
        return square >= p and square >= r and (square - p) * (square - r) >= q * q

    s = float(np.linalg.norm(matrix, 2))
    if not math.isfinite(s):
        return s
    while not bounds(s):
        s = math.nextafter(s, math.inf)
    while s > 0.0 and bounds(math.nextafter(s, 0.0)):
        s = math.nextafter(s, 0.0)
    return s


def _affine_images(coords, mats, trans):
    """Images of the points ``coords`` (n, d) under the maps x -> A x + t
    given by ``mats`` (w, d, d) and ``trans`` (w, d); returns (w, n, d).

    Image coordinate i is ``x_0 a_i0 + x_1 a_i1 + t_i``, one ufunc at a
    time in that order, so every point under every map gets the same
    formula whatever batch it is in, monotone in each coordinate.  This
    is the package's one affine arithmetic: a matrix product may fuse a
    product into an fma, and whether it does can vary by row with the
    BLAS build.  It is a view of a (w, d, n) array, each axis contiguous.
    """
    dim = coords.shape[1]
    out = np.empty((len(mats), dim, len(coords)))
    for i in range(dim):
        axis = out[:, i]
        np.multiply(mats[:, i, 0, None], coords[:, 0], out=axis)
        for j in range(1, dim):
            axis += mats[:, i, j, None] * coords[:, j]
        axis += trans[:, i, None]
    return out.swapaxes(1, 2)


def _targets(table, space):
    """A tabulated map's ``table`` checked on ``space``: one point index per point."""
    if table.shape != (space.n,):
        raise DomainError("tabulated map must assign one target per point")
    return _indices(table, "tabulated map targets", space)


def _pair_ratio(tbl, space):
    """max d(tbl[x], tbl[y]) / d(x, y) over the pairs x != y of ``space``,
    for a table ``_targets`` has checked, in row blocks of ``distances``."""
    points = np.arange(space.n)
    step = max(1, _PAIR_BLOCK // space.n)
    worst = 0.0
    for start in range(0, space.n, step):
        rows = points[start : start + step]
        num = space.distances(tbl[rows], tbl)
        den = space.distances(rows, points)
        # distinct points are at positive distance: only x == y is left out
        np.divide(num, den, out=num, where=den > 0.0)
        worst = max(worst, float(num.max()))
    return worst


@dataclass(frozen=True)
class ContractionMap:
    """A contraction of the space, affine on grid coordinates or tabulated.

    Affine maps act on a grid's one or two coordinates as x -> matrix x
    + translation, so the matrix is 1 x 1 or 2 x 2, and ``validate``
    snaps their ``_affine_images``; their contraction constant is the
    operator 2-norm of the matrix, rounded up to a double.  For a
    per-axis scaling (every off-diagonal entry zero, so every 1 x 1
    matrix) that is max |a_ii|, exact; any other matrix starts from
    LAPACK's SVD value, which can sit a few ulps either side of the true
    norm, and ``_operator_norm`` steps it to the least double that an
    exact rational test certifies, the same on any LAPACK build.
    Tabulated maps are point-to-point assignments, checked on the grid
    by ``_targets``; their constant is the exhaustive pairwise ratio
    max d(f(x), f(y)) / d(x, y) of ``_pair_ratio``, in row blocks of the
    grid's ``distances``, so the dense matrix is never built.
    """

    kind: str
    matrix: np.ndarray | None = None
    translation: np.ndarray | None = None
    table: np.ndarray | None = None

    @classmethod
    def affine(cls, matrix, translation):
        matrix = _readonly(np.atleast_2d(np.array(matrix, dtype=float)))
        translation = _readonly(np.array(translation, dtype=float).ravel())
        if matrix.shape != (translation.size,) * 2:
            raise DomainError("affine matrix and translation dimensions disagree")
        if translation.size > 2:
            raise DomainError("an affine map acts on a grid's one or two axes: 1x1 or 2x2 only")
        if not (np.isfinite(matrix).all() and np.isfinite(translation).all()):
            raise DomainError("affine matrix and translation entries must be finite")
        return cls(kind="affine", matrix=matrix, translation=translation)

    @classmethod
    def tabulated(cls, table):
        return cls(kind="tabulated", table=_readonly(_indices(table, "tabulated map entries")))

    def contraction_constant(self, space):
        if self.kind == "affine":
            diagonal = np.diagonal(self.matrix)
            if np.array_equal(self.matrix, np.diag(diagonal)):
                # a per-axis scaling (-0.0 compares equal to 0.0): exact, and no SVD
                return float(np.abs(diagonal).max())
            return _operator_norm(self.matrix)
        return _pair_ratio(_targets(self.table, space), space)


@dataclass(frozen=True)
class IFSSystem:
    """Contraction maps with weights and a t-norm over one space.

    The weight vector must attain 1 (its max is the normalization the
    operator preserves); it is held as a read-only copy, with a -0.0
    weight stored as +0.0, as a measure stores its density.  The derived
    ``c`` (the largest contraction constant of the maps) and ``tables``
    (the snapped maps, one read-only ``(k, n)`` int64 array, row i for
    map i) are None until validate() returns a copy carrying them;
    iterating a system without them raises PreconditionError.
    """

    space: object
    maps: tuple
    weights: np.ndarray
    tnorm: object
    c: float | None = field(default=None, init=False)
    tables: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        weights = np.array(self.weights, dtype=float).ravel() + 0.0
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def k(self):
        return len(self.maps)


def validate(system):
    """Check the system invariants; returns a validated frozen copy.

    The copy carries the system constant ``c`` and the tables, made here
    alone; the argument is left as it was.  Raises WeightError when
    max weight != 1, NotAContractionError when any constant reaches 1,
    CoverageError when an affine image leaves the grid hull by more
    than one spacing, DomainError when the space is not a ``GridSpace``
    or an affine map has another dimension than the grid.
    """
    space = system.space
    if not isinstance(space, GridSpace):
        raise DomainError("a system needs a grid space: build it with grid_1d or grid_2d")
    if system.k < 1:
        raise DomainError("a system needs at least one map")
    if system.weights.shape != (system.k,):
        raise DomainError("one weight per map is required")
    _unit_values(system.weights, "weights")
    max_w = float(system.weights.max())
    if max_w != 1.0:
        raise WeightError(f"weight error: max λ = {max_w!r}")

    # tabulated maps are checked once: the pair ratio and the tables read the same array
    tables = [None if m.kind == "affine" else _targets(m.table, space) for m in system.maps]
    worst = max(
        m.contraction_constant(space) if tbl is None else _pair_ratio(tbl, space)
        for m, tbl in zip(system.maps, tables)
    )
    if worst >= 1.0:
        raise NotAContractionError(f"not a contraction: estimated constant {worst:g} >= 1")

    lo, hi = np.array([(axis[0], axis[-1]) for axis in space.axes]).T
    for i, m in enumerate(system.maps):
        if m.kind != "affine":
            continue
        if space.coords.shape[1] != m.translation.size:
            raise DomainError("affine map dimension does not match the space")
        # one image per map: the hull check and the snap read the same array
        img = _affine_images(space.coords, m.matrix[None], m.translation[None])[0]
        excess = np.linalg.norm(img - np.clip(img, lo, hi), axis=1).max()
        if excess > space.spacing + _HULL_SLACK:
            raise CoverageError(
                f"map {i} leaves the grid hull by {excess:g} (> spacing {space.spacing:g})"
            )
        tables[i] = space.snap(img)

    validated = replace(system)
    # the class is frozen: set the derived fields on the fresh copy only
    vars(validated).update(c=float(worst), tables=_readonly(np.stack(tables)))
    return validated


def _require_validated(system):
    if system.tables is None:
        raise PreconditionError("the system must be validated: call validate() first")


def _check_measure(system, mu):
    """Before any step: ``mu`` shares the system's space and t-norm and attains 1."""
    if mu.space is not system.space or mu.tnorm != system.tnorm:
        raise DomainError("the measure must live on the system's space and t-norm")
    if abs(mu.top - 1.0) > NORMALIZATION_TOL:
        raise DomainError(f"the measure's density does not attain 1: its top is {mu.top!r}")


def _scatter(system, out, points, values):
    """Raise ``out`` by T(w, v) at the image of each point under each map,
    v its value in ``values``: the (k, m) images in one gather, T in one
    broadcast and one max-scatter, map by map.  ``TNorm._apply`` is
    monotone in v float by float, so that is T of the pushed-forward max.
    Returns ``out``."""
    scaled = system.tnorm._apply(system.weights[:, None], values)
    np.maximum.at(out, system.tables.take(points, axis=1).ravel(), scaled.ravel())
    return out


def _psi_density(system, density):
    """The operator on a raw density array, unchecked: the body of ``psi``
    and of the iterated solve.

    Only the support is followed, in one scatter per step, since
    T(w, 0) = 0 adds nothing to an output that starts at 0.  The density
    must hold no -0.0 (a measure's never does), or the zeros it leaves
    out would not match the full scatter's.
    """
    points = (density > 0.0).nonzero()[0]
    return _scatter(system, np.zeros(system.space.n), points, density[points])


def psi(system, mu):
    """One application of the system operator.

    density'(y) = max over maps i and points x with f_i(x) snapped to y
    of lambda_i * density(x); normalization survives because some
    weight is 1 and images keep the global max.  Equal bit for bit to
    max_union of scale(w, pushforward(table, mu)) over the maps, under
    every t-norm.  It checks its arguments and wraps ``_psi_density``,
    which follows only the support of the density, one scatter per step.
    """
    _require_validated(system)
    _check_measure(system, mu)
    return StarMeasure(system.space, _psi_density(system, mu.density), system.tnorm)


def _set_image(tables, points=None):
    """The sorted union of the images of ``points`` (all points when
    None) under every row of a ``(k', n)`` table array, marked in a point
    mask, so no sort."""
    hit = np.zeros(tables.shape[1], dtype=bool)
    hit[tables if points is None else tables.take(points, axis=1)] = True
    return hit.nonzero()[0]


def _stationary_set(tables, points=None):
    """The stationary set of S -> U_i table_i(S) from ``points``, a set
    the map sends into itself: all points when None, or the stationary
    set of more rows.  The sets then only shrink, so a step that keeps
    the size keeps the set, and this takes at most n steps.
    """
    size = tables.shape[1] if points is None else points.size
    while True:
        points = _set_image(tables, points)
        if points.size == size:
            return points
        size = points.size


def _closure(system, start):
    """The limit of the raise d <- max(d, psi(d)) from ``start``, the
    (max, T) closure of ``start``; returns (density, rounds).

    The raise is semi-naive.  ``psi`` is a max of one term T(w, d(x))
    per point x and map, so a point that did not rise in the last round
    sends exactly what it sent then, and the density already holds that.
    Each round therefore scatters only from the points that rose in the
    round before (round 1: the start's support), and it equals the naive
    round bit for bit.  ``rounds`` counts the rounds, the last one
    unchanged.  The start must be nonnegative and hold no -0.0; it is
    left as it was.
    """
    density = np.array(start, dtype=float)
    raised = np.empty_like(density)
    points = (density > 0.0).nonzero()[0]
    rounds = 0
    while True:
        rounds += 1
        np.copyto(raised, density)
        _scatter(system, raised, points, density[points])
        points = (raised != density).nonzero()[0]
        density, raised = raised, density
        if not points.size:
            return density, rounds


def _path_sweep(system):
    """The limit of the full-seed chain, exactly; returns (density, rounds).

    ``psi`` is linear over the semiring ([0, 1], max, T), so the limit at
    y is the best T-fold of weights over the backward-infinite walks that
    end at y.  Such a fold is nonzero only on a tail of weights >= some
    e with T(e, e) = e, and an infinite walk on maps of weight >= e ends
    exactly in their stationary set.  Those sets, at level e, are the
    sources.  The maps of weight >= e lose members as e rises, so each
    level's set lies in the one below, and its iteration starts there:
    those iterates lie between the level's set and the iterates from all
    points, so they end on the same set.  ``_closure`` then carries the
    sources along finite paths, a semi-naive Bellman-Ford in (max, T)
    that pushes each round only from the points that rose: one that did
    not sends what the density already holds, so each round is the naive
    one bit for bit.  T(a, lambda) <= a makes every best walk a simple
    path, so in exact arithmetic that takes at most n rounds; ``rounds``
    counts them, the last one unchanged.
    """
    weights = system.weights
    density = np.zeros(system.space.n)
    sources = None
    # ascending, so a higher source level overwrites a lower one
    for e in sorted(set(weights.tolist())):
        if e > 0.0 and system.tnorm._apply(e, e) == e:
            sources = _stationary_set(system.tables[weights >= e], sources)
            density[sources] = e
    return _closure(system, density)


def error_bound(n, c, diam):
    """The a priori bound c^n * diam(X) on the distance between orbits."""
    if not 0.0 <= c < 1.0:
        raise DomainError("the contraction constant must satisfy 0 <= c < 1")
    if not 0.0 < diam < np.inf:
        raise DomainError("diameter must be positive and finite")
    # c ** 2**63 underflows to 0.0 for every c < 1, and a float power of
    # an int beyond the float range would raise OverflowError
    return float(c ** min(_integer(n, "iteration count", 0), 2**63) * diam)


def residual(system, mu, levels=None):
    """Hypograph Hausdorff distance between mu and psi(mu).

    Zero when the two densities have equal level indices on the level
    grid; mu need not be invariant then.
    """
    levels = levels or LevelGrid(DEFAULT_LEVEL_RESOLUTION)
    nxt = psi(system, mu)
    return hypograph_hausdorff(system.space, mu.density, nxt.density, levels)


@dataclass
class SolveReport:
    """Solver record: the step count, the hypograph distance between the
    last two iterates (None before the first step), ``apriori_bound`` =
    c^n diam(X) and the stop cause.

    ``fixedPoint`` means psi(mu) == mu bit for bit for the output, and a
    residual of 0.0; from the full seed the output is the greatest grid
    fixed point and ``iterations`` counts the path sweep's rounds.  After
    ``bound`` or ``maxIterations``, neither c^n diam(X) (the paper's bound
    between two continuum orbits) nor the residual bounds the distance
    from the output to a grid fixed point.  The residual floors each
    density to the level grid (multiples of 1/m), so it can read 0.0
    although the last two iterates differ, as on the (1, .999) halves
    system's ``bound`` stop from a Dirac seed.
    """

    iterations: int
    final_residual: float | None
    apriori_bound: float
    stopped_by: str
    wall_time: float

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "finalResidual": self.final_residual,
            "aprioriBound": self.apriori_bound,
            "stoppedBy": self.stopped_by,
            "wallTime": self.wall_time,
        }


def solve(
    system,
    seed=None,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
    level_resolution=DEFAULT_LEVEL_RESOLUTION,
):
    """The invariant measure on the grid; returns (measure, report).

    A seed whose density is identically 1 (the default, the hypograph
    X x I) descends monotonically onto the greatest grid fixed point.
    That fixed point is computed exactly by a (max, T) path sweep, not
    approached: the report says ``fixedPoint`` and counts the sweep's
    rounds, and a density that fails psi(mu) == mu raises
    ValidationError instead of being returned.  It is the exact limit on
    the snapped tables up to the rounding of T along each best path:
    within rounds * 8u relative (u = 2^-53) where no fold underflows, and
    exact under min and Lukasiewicz.  It is not the greatest fixed point
    of float psi, whose chain can keep falling by an ulp a step.

    Any other seed is iterated, because on a grid its orbit can cycle.
    Before each step it stops on the first of: the last step returned
    its input bit for bit (``fixedPoint``), c^n diam(X) <= tol
    (``bound``), or max_iter steps taken (``maxIterations``, not an
    error).  The residual is computed once, after the loop, and only
    when the last two iterates differ.  ``tol``, ``max_iter`` and
    ``level_resolution`` are checked for every seed.

    Both branches iterate raw density arrays through ``_psi_density``,
    and the stop tests and the residual read those arrays.  The output is
    the one measure the solve builds, after the loop, and always a
    ``StarMeasure``: when no step was taken from a ``StarMeasure`` seed, it
    is that seed object; any other seed that attains 1 is wrapped.
    """
    _require_validated(system)
    if not (tol > 0.0 and np.isfinite(tol)):
        raise DomainError("tol must be positive and finite")
    max_iter = _integer(max_iter, "max_iter", 0)
    if seed is not None:
        _check_measure(system, seed)
    start = time.perf_counter()
    levels = LevelGrid(level_resolution)
    space = system.space
    density = seed.density if seed is not None else np.ones(space.n)
    diam = space.diameter
    prev, n = None, 0
    if np.all(density == 1.0):
        density, n = _path_sweep(system)
        if not np.array_equal(_psi_density(system, density), density):
            raise ValidationError("the path sweep did not end on a fixed point of psi")
        # psi returned it bit for bit: the loop stops at once on fixedPoint
        prev = density
    while True:
        bound = error_bound(n, system.c, diam)
        if prev is not None and np.array_equal(prev, density):
            stopped_by = "fixedPoint"
            break
        if bound <= tol:
            stopped_by = "bound"
            break
        if n == max_iter:
            stopped_by = "maxIterations"
            break
        prev, density = density, _psi_density(system, density)
        n += 1

    if stopped_by == "fixedPoint":
        res = 0.0
    elif prev is None:
        res = None
    else:
        res = hypograph_hausdorff(space, prev, density, levels)
    # the one measure of the solve; with no step taken a StarMeasure seed comes back as it was
    if seed is not None and density is seed.density and isinstance(seed, StarMeasure):
        mu = seed
    else:
        mu = StarMeasure(space, density, system.tnorm)
    report = SolveReport(
        iterations=n,
        final_residual=res,
        apriori_bound=bound,
        stopped_by=stopped_by,
        wall_time=time.perf_counter() - start,
    )
    return mu, report
