"""Independent brute-force computations used to validate the solver.

The n-th operator power expands into k^n terms indexed by words
(i_1, ..., i_n), each contributing the word-composed map weighted by the
fold of its letter weights.  The oracle composes each word's affine map
through the solver's own ``ifs._affine_images`` and snaps it once at the
end — deliberately a different error mode from the solver's
snap-each-step, equal to ``psi`` at depth 1 under every t-norm (see
``word_expansion``).  The two agree within
h/2 + h(1-c^n)/(2(1-c)) in the hypograph metric when the maps send the
grid hull into itself.

``validate`` admits affine maps on grids only, and an affine word
stops growing once every extension of it must snap to one cell.  With
L letters left, widen the grid box by
r_L = (h + ``_HULL_SLACK``)(1 - c^L)/(1 - c) on every axis.  ``validate``
lets a map send each grid point, hence each point of the box (the hull
of its corners), at most h + ``_HULL_SLACK`` out of the box, and so a
point at distance r from the box to at most c r + h + ``_HULL_SLACK``
from it: every extension by L letters sends every grid point into the
widened box.  Image coordinates ``x_0 a_i0 + x_1 a_i1 + t_i`` are
monotone in each coordinate and the snap is monotone along
each axis, so if the per-axis extremes of the word's image of that box,
moved out by a margin delta, snap to one index on every axis, every
extension sends every point to that cell.  What the word adds there is
the max over its suffixes s and the seed values v of T(fold(w, s), v),
w its weight.  That is T(w, top) at the seed's largest value, bit for
bit: a fold never rises (T(a, lambda) <= a), the suffix of letters of
weight 1 (the largest weight is 1) keeps w as T(w, 1) = w, and the
t-norm's float form is nondecreasing in each operand.  So a collapsed
word adds T(w, top) at its cell at once, whatever L.  At L = 0 the box
is the grid's and delta is 0: the corner images are the very floats
that bound every point's image.

delta covers the float error.  Let S be the largest coordinate of the
box widened by r_depth and u = 2^-53.  Both the test and the per-word
loop extend the same float prefix.  With d <= 2, matrix entries at
most 1 and translations and images at most 2.5 S, composing one letter
moves a point's image by at most about 30 u S, validate's float c and
hull excess widen r_L by a few ulps per letter, and each evaluation
costs about 14 u S: (50 L + 30) u S in all.  The word budget caps L at
19 for k >= 2 and at 10^6 for one map, where that is 5.6e-9 S, below
delta = 2^-26 S.  A margin too wide only keeps words live longer.

The cost is the words composed before they collapse, each tested once
through 2^d corner images; only a word still
straddling a cell boundary at full depth snaps points, and only those
of the seed's support, since T(w, 0) = 0 adds nothing.  Where k c < 1
the live words die out (``cantor-729-oracle`` composes 378 of 65,536);
where k c > 1, as on Sierpinski (3/2), they keep multiplying.  Only
tabulated systems walk every word.  Blocks and snaps hold at most about
``_BLOCK`` values.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceBudgetError
from .ifs import (
    _HULL_SLACK, _affine_images, _check_measure, _require_validated, _set_image, _stationary_set,
)
from .measures import StarMeasure
from .spaces import _integer, _lattice

WORD_BUDGET = 1_000_000
# values (point images, table entries, or a word's map, box images and
# cells) held by one block of words
_BLOCK = 1 << 14
# the collapse test's margin delta, relative to the largest padded coordinate
_MARGIN = 2.0**-26


def _check_budget(k, depth):
    """``depth`` as an int >= 0 whose k^depth words fit the budget.

    The depth itself is bounded too: a one-map system has one word per
    depth, but walking it still takes one step per letter.
    """
    depth = _integer(depth, "depth", 0)
    if depth > WORD_BUDGET or k**depth > WORD_BUDGET:
        raise ResourceBudgetError(f"{k}^{depth} words exceed the enumeration budget {WORD_BUDGET}")
    return depth


def _all_affine(system):
    return all(m.kind == "affine" for m in system.maps)


def _word_cells(space, box, margin, mats, trans):
    """The cell each word map sends all of ``box`` to, its image moved
    out by ``margin`` on every axis; -1 where that straddles a cell
    boundary."""
    # corner-major, so the extremes reduce over whole rows
    images = _affine_images(box, mats, trans).swapaxes(0, 1).copy()
    ends = space.snap(np.concatenate([images.min(0) - margin, images.max(0) + margin]))
    lo, hi = ends[: len(mats)], ends[len(mats) :]
    return np.where(lo == hi, lo, -1)


def _word_blocks(system, depth, points):
    """Yield (weights, cells) for the words of the given length, in
    blocks: where a word's prefix collapsed before full length, ``cells``
    has shape (words,); for a full-length word, shape (words,
    len(points)), the cell each of ``points`` goes to.

    Word (i_1, ..., i_n) composes left-to-right: each letter's map is
    applied before the prefix, matching the operator's nesting: word w
    then letter a has matrix M_w A_a, the images of A_a's columns under
    x -> M_w x, and translation M_w t_a + t_w; a tabulated word chains
    its tables.  A block grows by appending all k letters to all its
    words at once, so each word gets the same arithmetic whichever block
    it lands in.  Every new affine word is tested once (see the module
    docstring), and the words that collapse leave at once.  One rule
    bounds a block: one whose next step (growing by k letters, or at
    full length snapping or reading its tables at its points) would
    touch over ``_BLOCK`` values is split into parts that fit, of one
    word at least, walked depth first; at most k + 1 wait per level.
    """
    space = system.space
    k = system.k
    affine = _all_affine(system)
    if affine:
        dim = space.coords.shape[1]
        coords = space.coords[points]
        # column j of letter a's matrix is point a * dim + j
        letter_cols = np.concatenate([f.matrix.T for f in system.maps])
        letter_trans = np.stack([f.translation for f in system.maps])
        no_shift = np.zeros((1, dim))
        root = (np.eye(dim)[None], no_shift)
        # a word's matrix, translation and weight, its box images, their
        # two ends and the two cells
        per_word = dim * dim + dim + 1 + (2**dim + 2) * dim + 2
        per_leaf = coords.size
        # the grid box's 2^d corners and the way each moves out
        corners = _lattice([axis[[0, -1]] for axis in space.axes])
        outward = np.where(corners == corners.max(axis=0), 1.0, -1.0)
        reach = space.spacing + _HULL_SLACK
        c = system.c

        def box(left):
            """The grid box widened by r_left on every axis."""
            return corners + reach * (1.0 - c**left) / (1.0 - c) * outward

        margin = _MARGIN * np.abs(box(depth)).max()
    else:
        root = (np.arange(space.n, dtype=np.int64)[None],)
        per_word, per_leaf = space.n, len(points)

    def children(block):
        """Every word of the block followed by every letter."""
        weights, *arrays = block
        weights = system.tnorm._apply(weights[:, None], system.weights).ravel()
        if affine:
            mats, trans = arrays
            cols = _affine_images(letter_cols, mats, no_shift)
            arrays = (
                cols.reshape(-1, k, dim, dim).swapaxes(2, 3).reshape(-1, dim, dim),
                _affine_images(letter_trans, mats, trans).reshape(-1, dim),
            )
        else:
            arrays = (arrays[0][:, system.tables].reshape(len(weights), -1),)
        return (weights, *arrays)

    stack = [(0, (np.ones(1), *root))]
    while stack:
        length, block = stack.pop()
        size = len(block[0])
        # the values the block's next step touches per word
        touched = per_leaf if length == depth else k * per_word
        if size > 1 and size * touched > _BLOCK:
            step = max(1, _BLOCK // touched)
            stack.extend(
                (length, tuple(part[start : start + step] for part in block))
                for start in reversed(range(0, size, step))
            )
        elif length == depth and affine:
            yield block[0], _snap_images(space, coords, *block[1:])
        elif length == depth:
            yield block[0], block[1][:, points]
        else:
            block = children(block)
            if affine:
                left = depth - length - 1
                cells = _word_cells(space, box(left), left and margin, *block[1:])
                one = cells >= 0
                if one.any():
                    yield block[0][one], cells[one]
                    block = tuple(part[~one] for part in block)
            if len(block[0]):
                stack.append((length + 1, block))


def _snap_images(space, coords, mats, trans):
    """Snapped images of ``coords`` under every word map of a block, one row per word."""
    return space.snap(_affine_images(coords, mats, trans))


def word_expansion(system, seed, depth):
    """Depth-n word expansion of the operator applied to the seed.

    density(y) = max over words w and points x snapped into y of
    weight(w) * seed(x): the weight folded by ``_apply``, then applied by
    the same ``_apply`` before the max over a cell, as in ``psi``, so
    depth 1 is ``psi`` of the seed bit for bit under every t-norm, and
    depth 0 the seed: the empty word sends each point to itself and
    T(1, v) = v.  Affine compositions are snapped once; tabulated
    systems chain their tables.  Only the seed's support is followed, as
    T(w, 0) = 0.  A word that collapsed before full length adds
    T(weight, top) at its cell, top the seed's largest value (see the
    module docstring).
    """
    _require_validated(system)
    _check_measure(system, seed)
    depth = _check_budget(system.k, depth)
    space = system.space
    out = np.zeros(space.n)
    tnorm = system.tnorm
    points = np.flatnonzero(seed.density)
    values = seed.density[points]
    top = seed.density.max()
    for weights, cells in _word_blocks(system, depth, points):
        if cells.ndim == 2:
            # flat, where ufunc.at has its fast path
            np.maximum.at(out, cells.ravel(), tnorm._apply(weights[:, None], values).ravel())
        else:
            np.maximum.at(out, cells, tnorm._apply(weights, top))
    return StarMeasure(space, out, system.tnorm)


def attractor_support(system, depth, reference_index=0):
    """Depth-n attractor approximation: word images of one reference point.

    Returns the sorted indices {snap(f_w(x0)) : |w| = depth}.  Affine
    systems walk the same words as ``word_expansion`` with x0 as the
    support: a word marks its cell once every extension sends the whole
    grid into it, and the rest snap x0 alone, so the cost is the words
    composed before they collapse, not k^depth.  A system with a
    tabulated map takes ``depth`` set images of {x0} under its tables,
    in O(n) memory whatever the word count.  With all weights 1 and the
    minimum t-norm this equals the support of the word expansion from
    the Dirac seed at the reference point.
    """
    _require_validated(system)
    depth = _check_budget(system.k, depth)
    space = system.space
    reference_index = _integer(reference_index, "reference point", space=space)
    if not _all_affine(system):
        points = np.array([reference_index], dtype=np.int64)
        for _ in range(depth):
            points = _set_image(system.tables, points)
        return points
    hit = np.zeros(space.n, dtype=bool)
    for _, cells in _word_blocks(system, depth, [reference_index]):
        hit[cells] = True
    return np.flatnonzero(hit)


def hutchinson_fixed_set(system):
    """Stationary support of the grid-level set iteration S -> U f_i(S).

    Starts from the full point set and applies the snapped maps as pure
    set operations until stationary; the sets only shrink, so that takes
    at most n steps.  In the degenerate case (all weights 1, minimum
    t-norm) this is exactly the support the solver's fixed point must
    reproduce.  It shares the system's snapped tables and this set
    iteration with the solver's path sweep, which runs it on subsets of
    the maps for its sources, but none of the density machinery.
    """
    _require_validated(system)
    return _stationary_set(system.tables)
