"""Idempotent measures as density fields and saturated hypograph sets.

A measure on a finite space is carried by its density: the assignment
x -> top level of the saturated set at x.  Evaluation against a test
function phi is

    mu(phi) = max over x of  density(x) * phi(x)

with * the t-norm.  This functional form is verified axiomatically by
the test suite (constants, homogeneity, max-linearity) rather than
assumed.  The saturated-set view lives on a quantized level grid and is
used for Hausdorff computations and set-level cross-checks; saturation
(downward closure in the level coordinate) is what makes the two views
interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .spaces import FiniteMetricSpace, LevelGrid, _distinct, _indices, _integer, _unit_values

NORMALIZATION_TOL = 1e-12


class SubDensity:
    """A density field with values in [0, 1]; the top may fall below 1.

    Arises from the scalar action r * mu, whose maximum is r * 1.
    """

    def __init__(self, space, density, tnorm):
        density = _unit_values(density, "density", space).copy()
        density.flags.writeable = False
        self.space = space
        self.density = density
        self.tnorm = tnorm

    @property
    def top(self):
        return float(self.density.max())


class StarMeasure(SubDensity):
    """A normalized density field: max density = 1.

    The hypograph of such a field meets the level-1 section, contains
    the zero section, and is saturated, so it is a measure.
    """

    def __init__(self, space, density, tnorm):
        super().__init__(space, density, tnorm)
        if abs(self.top - 1.0) > NORMALIZATION_TOL:
            raise ValidationError("a measure's density must attain 1")

    @classmethod
    def full(cls, space, tnorm):
        """Density identically 1: the hypograph is all of X x I."""
        return cls(space, np.ones(space.n), tnorm)

    @classmethod
    def dirac(cls, space, index, tnorm):
        d = np.zeros(space.n)
        d[_integer(index, "dirac index", space=space)] = 1.0
        return cls(space, d, tnorm)


def evaluate(mu, phi):
    """mu(phi) = max over x of density(x) * phi(x)."""
    phi = _unit_values(phi, "test function", mu.space)
    return float(np.max(mu.tnorm._apply(mu.density, phi)))


def pushforward(f, mu):
    """Image measure along a point map f: X -> X.

    ``f`` assigns a target index to every point; the image density at y
    is the max of the density over the preimage of y (0 when empty).
    The global maximum is preserved, so measures map to measures.
    """
    f = _indices(f, "point map targets", mu.space)
    if f.shape != (mu.space.n,):
        raise DomainError("point map must assign one target per point")
    out = np.zeros(mu.space.n)
    np.maximum.at(out, f, mu.density)
    cls = StarMeasure if isinstance(mu, StarMeasure) else SubDensity
    return cls(mu.space, out, mu.tnorm)


def scale(r, mu):
    """The scalar action r * mu: apply the t-norm to every level."""
    return SubDensity(mu.space, mu.tnorm.apply(float(r), mu.density), mu.tnorm)


def max_union(items):
    """Pointwise max of densities = union of the saturated sets."""
    items = list(items)
    if not items:
        raise DomainError("max_union needs at least one density")
    first = items[0]
    for it in items[1:]:
        if it.space is not first.space or it.tnorm != first.tnorm:
            raise DomainError("max_union items must share space and t-norm")
    out = items[0].density
    for it in items[1:]:
        out = np.maximum(out, it.density)
    return SubDensity(first.space, out, first.tnorm)


def weakstar_distance(mu, nu, tests):
    """max over the test family of |mu(phi) - nu(phi)|.

    A diagnostic pseudo-distance indexed by the chosen family.
    """
    if mu.space is not nu.space:
        raise DomainError("measures must live on the same space")
    tests = list(tests)
    if not tests:
        raise DomainError("the test family must be nonempty")
    return max(abs(evaluate(mu, phi) - evaluate(nu, phi)) for phi in tests)


@dataclass(frozen=True)
class SaturatedSet:
    """A finite element of the hypograph space on X x LevelGrid.

    Held by ``top_indices``, a read-only array of the top level index
    at each point; the set is {(x, k) : 0 <= k <= top_indices[x]}, so
    it contains the zero section and is downward closed per point by
    construction.  ``members`` and ``member_arrays()`` enumerate it.
    """

    space: FiniteMetricSpace
    levels: LevelGrid
    top_indices: np.ndarray

    def __post_init__(self):
        tops = _indices(self.top_indices, "top level indices")
        if tops.shape != (self.space.n,):
            raise ValidationError("one top level index per point is required")
        if np.any((tops < 0) | (tops > self.levels.resolution)):
            raise ValidationError("top level index outside the level grid")
        tops.flags.writeable = False
        object.__setattr__(self, "top_indices", tops)

    @property
    def members(self):
        """The (point index, level index) pairs of the set."""
        xs, ks = self.member_arrays()
        return frozenset(zip(xs.tolist(), ks.tolist()))

    def member_arrays(self):
        """Point and level indices of every member, sorted by point then level."""
        tops = self.top_indices
        xs = np.repeat(np.arange(self.space.n), tops + 1)
        ks = np.concatenate([np.arange(t + 1) for t in tops])
        return xs, ks


def to_saturated(mu, levels):
    """Quantized hypograph of a density: {(x, l) : l <= density(x)} u X x {0}.

    Densities are rounded down to the level grid, so the quantized set
    is contained in the true hypograph (one-sided error <= 1/m).
    """
    return SaturatedSet(mu.space, levels, levels.floor_index(mu.density))


def from_saturated(sat, tnorm):
    """Top of a saturated set, as a density field.

    Inverse of to_saturated on grid-valued densities.  Returns a
    StarMeasure when the top attains 1, a SubDensity otherwise.
    """
    m = sat.levels.resolution
    tops = sat.top_indices
    density = tops / m
    cls = StarMeasure if tops.max() == m else SubDensity
    return cls(sat.space, density, tnorm)


def hypograph_hausdorff(space, dens_a, dens_b, levels):
    """Hausdorff distance between two quantized hypographs (sup metric).

    For saturated sets the directed sup-inf collapses to a closed form
    on the level indices ka, kb of the density tops: from member (x, s)
    the best candidate over the fiber of y is max(d(x, y), (s - kb(y))+ / m),
    and the sup over the fiber of x is attained at s = ka(x).  Grouping
    the y by the level they reach turns the min over y into a sweep over
    the distinct values j of kb:

        directed(A -> B) = max_x min_j max(D_j(x), (ka(x) - j)+ / m)

    where D_j(x) is the distance from x to {y : kb(y) >= j}, supplied by
    the space's ``distance_to``: matrix-free on generated grids, and a
    masked row-min in fixed row blocks on dense spaces.  The gap
    term does not grow with j, so the sweep equals the min over all y
    exactly; level arithmetic is done on integer indices.

    Level j can lower a point's running value b(x) only if its gap
    (ka(x) - j)+ / m is below b(x), and then only through a distance
    below b(x).  So each call passes ``within`` = b(x) at those live
    points and 0 elsewhere, and a level with no live point is skipped:
    ``distance_to`` is exact below the cap and >= it above, so
    min(b, max(D_j, gap)) takes the same value as with the exact D_j.

    Matches the member-level brute force bit for bit on power-of-two
    resolutions, where k/m is itself exact.  Each density must give one
    value in [0, 1] per point of ``space``.
    """
    ka = levels.floor_index(_unit_values(dens_a, "density A", space))
    kb = levels.floor_index(_unit_values(dens_b, "density B", space))
    m = levels.resolution

    def directed(k_from, k_to):
        js = _distinct(k_to)
        # every point reaches the lowest level, so D is 0 there
        best = np.maximum(k_from - js[0], 0) / m
        for j in js[1:]:
            gap = np.maximum(k_from - j, 0) / m
            # level j can lower only the points whose gap is below their best
            live = gap < best
            if not live.any():
                continue
            reach = space.distance_to(k_to >= j, within=np.where(live, best, 0.0))
            np.minimum(best, np.maximum(reach, gap), out=best)
        return float(best.max())

    return max(directed(ka, kb), directed(kb, ka))
