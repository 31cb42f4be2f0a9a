"""Idempotent measures as density fields and saturated hypograph sets.

A measure on a finite space is carried by its density: the assignment
x -> top level of the saturated set at x.  Evaluation against a test
function phi is

    mu(phi) = max over x of  density(x) * phi(x)

with * the t-norm.  This functional form is verified axiomatically by
the test suite (constants, homogeneity, max-linearity) rather than
assumed.  The saturated-set view (``to_saturated``) lives on a
quantized level grid; saturation (downward closure in the level
coordinate) is what makes the two views interchangeable.
``hypograph_hausdorff`` works on the level indices of the density tops
and never lists a set's members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError
from .spaces import LevelGrid, _distinct, _indices, _integer, _unit_values

NORMALIZATION_TOL = 1e-12


class SubDensity:
    """A density field with values in [0, 1]; the top may fall below 1.

    Arises from the scalar action r * mu, whose maximum is r * 1.  A
    -0.0 entry is stored as +0.0, so no max over densities depends on
    the order of its operands (``np.maximum`` returns the second of two
    equal zeros).
    """

    def __init__(self, space, density, tnorm):
        # the sum is a fresh array, and -0.0 + 0.0 is +0.0
        density = _unit_values(density, "density", space) + 0.0
        density.flags.writeable = False
        self.space = space
        self.density = density
        self.tnorm = tnorm

    @cached_property
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
    """The scalar action r * mu: T(r, .) on every level; ``r`` is one number in [0, 1]."""
    r = _unit_values(r, "r")
    if r.ndim:
        raise DomainError("r must be one number in [0, 1]")
    return SubDensity(mu.space, mu.tnorm._apply(r, mu.density), mu.tnorm)


def max_union(items):
    """Pointwise max of densities = union of the saturated sets."""
    items = list(items)
    if not items:
        raise DomainError("max_union needs at least one density")
    first = items[0]
    out = first.density
    for it in items[1:]:
        if it.space is not first.space or it.tnorm != first.tnorm:
            raise DomainError("max_union items must share space and t-norm")
        out = np.maximum(out, it.density)
    return SubDensity(first.space, out, first.tnorm)


@dataclass(frozen=True)
class SaturatedSet:
    """A finite element of the hypograph space on X x LevelGrid.

    Held by ``top_indices``, a read-only array of the top level index
    at each point; the set is {(x, k) : 0 <= k <= top_indices[x]}, so
    it contains the zero section and is downward closed per point by
    construction.
    """

    space: object
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


def to_saturated(mu, levels):
    """Quantized hypograph of a density: {(x, l) : l <= density(x)} u X x {0}.

    Densities are rounded down to the level grid after adding GRID_SNAP_EPS,
    so each top lies less than 1/m below its density and at most GRID_SNAP_EPS/m above.
    """
    return SaturatedSet(mu.space, levels, levels.floor_index(mu.density))


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
    the grid's matrix-free ``distance_to``.  The gap term does not grow
    with j, so the sweep equals the min over all y exactly; level
    arithmetic is done on integer indices.

    Level j can lower a point's running value b(x) only if its gap
    (ka(x) - j)+ / m is below b(x), and then only through a distance
    below b(x).  So each call passes ``within`` = b(x) at those live
    points and 0 elsewhere, and a level with no live point is skipped;
    under the cap contract of ``distance_to`` (see ``spaces``),
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
