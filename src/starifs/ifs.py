"""Iterated function systems and the fixed-point solver.

The system operator sends a measure A to the union over maps of
lambda_i * (image of A under f_i).  Its unique fixed point is the
invariant measure.  On a grid the operator is linear over the semiring
([0, 1], max, T), so the limit of the chain from the full seed (density
identically 1, which the chain descends from monotonically) is the
solution of an algebraic path problem: ``solve`` computes it exactly by
a path sweep and checks it against ``psi`` bit for bit.  Other seeds are
iterated.  For the continuum operator, any two orbits are within
c^n * diam(X) of each other after n steps in the hypograph Hausdorff
metric (the paper's equal-projection argument); the iteration stops on
that number or on a small distance between consecutive iterates.  On
the grid neither is a certified distance to a grid fixed point, and the
second is a heuristic.

Affine map images are snapped to the nearest grid point (ties to the
lowest index).  Snapping contributes at most spacing/2 per application,
h/(2(1-c)) accumulated; the level grid contributes 1/m per side.  These
are the only systematic discretization errors.
"""

from __future__ import annotations

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
from .measures import StarMeasure, hypograph_hausdorff
from .spaces import LevelGrid, _distinct, _indices, _integer, _unit_values

WEIGHT_TOL = 1e-12
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
DEFAULT_LEVEL_RESOLUTION = 256
# pairs per block of a tabulated map's contraction ratio
_PAIR_BLOCK = 2**18


def _readonly(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ContractionMap:
    """A contraction of the space, affine on coordinates or tabulated.

    Affine maps act on coordinates as x -> matrix @ x + translation and
    are snapped onto the grid; their contraction constant is the
    operator 2-norm of the matrix.  Tabulated maps are explicit
    point-to-point assignments; their constant is estimated by the
    exhaustive pairwise ratio max d(f(x), f(y)) / d(x, y), in row blocks
    of the space's ``distances``, so a grid never builds its dense matrix.
    """

    kind: str
    matrix: np.ndarray | None = None
    translation: np.ndarray | None = None
    table: np.ndarray | None = None

    @classmethod
    def affine(cls, matrix, translation):
        matrix = _readonly(np.atleast_2d(np.array(matrix, dtype=float)))
        translation = _readonly(np.array(translation, dtype=float).ravel())
        if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != translation.size:
            raise DomainError("affine matrix and translation dimensions disagree")
        if not (np.isfinite(matrix).all() and np.isfinite(translation).all()):
            raise DomainError("affine matrix and translation entries must be finite")
        return cls(kind="affine", matrix=matrix, translation=translation)

    @classmethod
    def tabulated(cls, table):
        return cls(kind="tabulated", table=_readonly(_indices(table, "tabulated map entries")))

    def image_coords(self, space):
        if self.kind != "affine":
            raise DomainError("only affine maps have coordinate images")
        if space.coords is None:
            raise DomainError("affine maps need a space with coordinates")
        if space.coords.shape[1] != self.matrix.shape[0]:
            raise DomainError("affine map dimension does not match the space")
        return space.coords @ self.matrix.T + self.translation

    def snapped_table(self, space):
        """The map as a grid-point assignment."""
        if self.kind == "tabulated":
            if self.table.shape != (space.n,):
                raise DomainError("tabulated map must assign one target per point")
            return _readonly(_indices(self.table, "tabulated map targets", space))
        return _readonly(space.snap(self.image_coords(space)))

    def contraction_constant(self, space):
        if self.kind == "affine":
            return float(np.linalg.norm(self.matrix, 2))
        tbl = self.snapped_table(space)
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
class IFSSystem:
    """Contraction maps with weights and a t-norm over one space.

    The weight vector must attain 1 (its max is the normalization the
    operator preserves); it is held as a read-only copy.  The derived
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
        weights = np.array(self.weights, dtype=float).ravel()
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def k(self):
        return len(self.maps)


def validate(system):
    """Check the system invariants; returns a validated frozen copy.

    The copy carries the system constant ``c`` and the snapped tables;
    the argument is left as it was.  Raises WeightError when
    max weight != 1, NotAContractionError when any constant reaches 1,
    CoverageError when an affine image leaves the grid hull by more
    than one spacing.
    """
    if system.k < 1:
        raise DomainError("a system needs at least one map")
    if system.weights.shape != (system.k,):
        raise DomainError("one weight per map is required")
    _unit_values(system.weights, "weights")
    max_w = float(system.weights.max())
    if abs(max_w - 1.0) > WEIGHT_TOL:
        raise WeightError(f"weight error: max λ = {max_w:g}")

    worst = max(m.contraction_constant(system.space) for m in system.maps)
    if worst >= 1.0:
        raise NotAContractionError(
            f"not a contraction: estimated constant {worst:g} >= 1"
        )

    space = system.space
    for i, m in enumerate(system.maps):
        if m.kind != "affine":
            continue
        img = m.image_coords(space)
        lo = space.coords.min(axis=0)
        hi = space.coords.max(axis=0)
        excess = np.linalg.norm(img - np.clip(img, lo, hi), axis=1).max()
        if excess > space.spacing + 1e-12:
            raise CoverageError(
                f"map {i} leaves the grid hull by {excess:g} (> spacing {space.spacing:g})"
            )

    validated = replace(system)
    tables = _readonly(np.stack([m.snapped_table(space) for m in system.maps]))
    # the class is frozen: set the derived fields on the fresh copy only
    vars(validated).update(c=float(worst), tables=tables)
    return validated


def _require_validated(system):
    if system.tables is None:
        raise PreconditionError("the system must be validated: call validate() first")


def _check_measure(system, mu):
    if mu.space is not system.space or mu.tnorm != system.tnorm:
        raise DomainError("the measure must live on the system's space and t-norm")


def _psi_density(system, density):
    """The operator on a raw density array, unchecked: the body of ``psi``."""
    out = np.zeros(system.space.n)
    for w, tbl in zip(system.weights, system.tables):
        image = np.zeros_like(out)
        np.maximum.at(image, tbl, density)
        np.maximum(out, system.tnorm._apply(float(w), image), out=out)
    return out


def psi(system, mu):
    """One application of the system operator.

    density'(y) = max over maps i and points x with f_i(x) snapped to y
    of lambda_i * density(x); normalization survives because some
    weight is 1 and images keep the global max.  Equal bit for bit to
    max_union of scale(w, pushforward(table, mu)) over the maps.
    """
    _require_validated(system)
    _check_measure(system, mu)
    return StarMeasure(system.space, _psi_density(system, mu.density), system.tnorm)


def _set_image(tables, points):
    """The sorted union of the images of ``points`` under every row of a
    ``(k', n)`` table array."""
    return _distinct(tables[:, points])


def _stationary_set(tables):
    """The stationary set of S -> U_i table_i(S) from the full point set.

    The sets only shrink, so this takes at most n steps.
    """
    current = np.arange(tables.shape[1], dtype=np.int64)
    while True:
        nxt = _set_image(tables, current)
        if np.array_equal(nxt, current):
            return current
        current = nxt


def _path_sweep(system):
    """The limit of the full-seed chain, exactly; returns (density, rounds).

    ``psi`` is linear over the semiring ([0, 1], max, T), so the limit at
    y is the best T-fold of weights over the backward-infinite walks that
    end at y.  Such a fold is nonzero only on a tail of weights >= some
    e with T(e, e) = e, and an infinite walk on maps of weight >= e ends
    exactly in their stationary set.  Those sets, at level e, are the
    sources; the raise d <- max(d, psi(d)) then carries them along
    finite paths (Bellman-Ford in (max, T)).  T(a, lambda) <= a makes
    every best walk a simple path, so in exact arithmetic the raise
    takes at most n rounds; ``rounds`` counts them, the last one
    unchanged.
    """
    weights = system.weights
    density = np.zeros(system.space.n)
    # ascending, so a higher source level overwrites a lower one
    for e in _distinct(weights):
        if e > 0.0 and system.tnorm._apply(e, e) == e:
            density[_stationary_set(system.tables[weights >= e])] = e
    rounds = 0
    while True:
        rounds += 1
        raised = np.maximum(density, _psi_density(system, density))
        if np.array_equal(raised, density):
            return density, rounds
        density = raised


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
    """Solver record: the step count, the last consecutive-iterate
    residual (None before the first step), ``apriori_bound`` = c^n diam(X)
    and the stop cause.

    From the full seed the stop cause is ``fixedPoint``: the output is
    the grid fixed point, checked to satisfy psi(mu) == mu bit for bit,
    ``iterations`` counts the rounds of the path sweep and the residual
    is 0.0.  From any other seed the output is an iterate: c^n diam(X)
    is the paper's bound between two continuum orbits, neither it nor
    the residual bounds the distance from that iterate to a grid fixed
    point, and stopping on the residual is a heuristic.
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
    ValidationError instead of being returned.

    Any other seed is iterated, because on a grid its orbit can cycle.
    Before each step the iteration stops on the first of:
    consecutive-iterate hypograph residual <= tol, a priori bound
    c^n diam(X) <= tol, or max_iter steps taken.  Hitting max_iter is a
    reported stop, not an error.  ``tol``, ``max_iter`` and
    ``level_resolution`` are checked for every seed.
    """
    _require_validated(system)
    if not (tol > 0.0 and np.isfinite(tol)):
        raise DomainError("tol must be positive and finite")
    max_iter = _integer(max_iter, "max_iter", 0)
    if seed is not None:
        _check_measure(system, seed)
    start = time.perf_counter()
    levels = LevelGrid(level_resolution)
    mu = seed if seed is not None else StarMeasure.full(system.space, system.tnorm)
    diam = system.space.diameter
    if np.all(mu.density == 1.0):
        density, n = _path_sweep(system)
        mu = StarMeasure(system.space, density, system.tnorm)
        if not np.array_equal(psi(system, mu).density, mu.density):
            raise ValidationError("the path sweep did not end on a fixed point of psi")
        res, bound, stopped_by = 0.0, error_bound(n, system.c, diam), "fixedPoint"
    else:
        res = None
        n = 0
        while True:
            bound = error_bound(n, system.c, diam)
            if res is not None and res <= tol:
                stopped_by = "residual"
                break
            if bound <= tol:
                stopped_by = "bound"
                break
            if n == max_iter:
                stopped_by = "maxIterations"
                break
            nxt = psi(system, mu)
            if np.array_equal(nxt.density, mu.density):
                res = 0.0
            else:
                res = hypograph_hausdorff(system.space, mu.density, nxt.density, levels)
            mu = nxt
            n += 1

    report = SolveReport(
        iterations=n,
        final_residual=res,
        apriori_bound=bound,
        stopped_by=stopped_by,
        wall_time=time.perf_counter() - start,
    )
    return mu, report
