"""Independent brute-force computations used to validate the solver.

The n-th operator power expands into k^n terms indexed by words
(i_1, ..., i_n), each contributing the word-composed map weighted by the
fold of its letter weights.  The oracle composes each word's affine map
through the solver's own ``ifs._affine_images`` and snaps it once at the
end — deliberately a different error mode from the solver's
snap-each-step, equal to ``psi`` at depth 1.  The two agree within
h/2 + h(1-c^n)/(2(1-c)) in the hypograph metric when the maps send the
grid hull into itself.

On a grid a word needs only its 2^d corner images: every image
coordinate is monotone in each grid coordinate and the snap is monotone
along each axis, so a word whose corners snap to one cell sends the
whole grid there.  The expansion costs O(k^n 2^d) corner snaps plus n
snaps per word whose image straddles a cell boundary, in blocks of at
most ``_BLOCK`` values whatever the word count.

All randomness is seeded and the seed is part of every report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceBudgetError
from .ifs import _affine_images, _check_measure, _require_validated, _set_image, _stationary_set
from .measures import StarMeasure
from .spaces import GridSpace, _distinct, _integer, _pairs_hausdorff

WORD_BUDGET = 1_000_000
# values (point images, table entries, or a word's map and corner images)
# held by one block of words
_BLOCK = 1 << 14


def _check_budget(k, depth):
    """``depth`` as an int >= 0 whose k^depth words fit the budget.

    The depth itself is bounded too: a one-map system has one word per
    depth, but walking it still takes one step per letter.
    """
    depth = _integer(depth, "depth", 0)
    if depth > WORD_BUDGET or k**depth > WORD_BUDGET:
        raise ResourceBudgetError(
            f"{k}^{depth} words exceed the enumeration budget {WORD_BUDGET}"
        )
    return depth


def _all_affine(system):
    return all(m.kind == "affine" for m in system.maps)


def _word_blocks(system, depth, per_word):
    """Yield every word of the given length in lexicographic blocks.

    Affine systems yield (weights, matrices, translations), tabulated
    ones (weights, tables).  Word (i_1, ..., i_n) composes left-to-right:
    each letter's map is applied before the prefix, matching the
    operator's nesting: word w then letter a has matrix M_w A_a, the
    images of A_a's columns under x -> M_w x, and translation
    M_w t_a + t_w.  A block is every word with a given prefix; it
    grows by appending all k letters to all its words at once, so each
    word gets the same arithmetic whichever block it lands in.  A block
    that would grow past ``_BLOCK // per_word`` words (at least one;
    ``per_word`` is the values one word holds) is split by the
    letter after its prefix into k blocks that are walked depth first,
    so blocks come out in lexicographic order.
    """
    space = system.space
    k = system.k
    affine = _all_affine(system)
    if affine:
        dim = space.coords.shape[1]
        # column j of letter a's matrix is point a * dim + j
        letter_cols = np.concatenate([f.matrix.T for f in system.maps])
        letter_trans = np.stack([f.translation for f in system.maps])
        no_shift = np.zeros((1, dim))
        root = (np.eye(dim)[None], no_shift)
    else:
        root = (np.arange(space.n, dtype=np.int64)[None],)
    cap = max(1, _BLOCK // per_word)

    def children(block):
        """Every word of the block followed by every letter, in order."""
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
        if length == depth:
            yield block
        elif size == 1 or size * k <= cap:
            stack.append((length + 1, children(block)))
        else:
            # split by the letter after the shared prefix: k contiguous runs
            step = size // k
            stack.extend(
                (length, tuple(part[a * step : (a + 1) * step] for part in block))
                for a in reversed(range(k))
            )


def _snap_images(space, coords, mats, trans):
    """Snapped images of ``coords`` under every word map of a block, word-major."""
    return space.snap(_affine_images(coords, mats, trans).reshape(-1, coords.shape[1]))


def _grid_corners(space):
    """The 2^d corner points of a grid, or None for a dense space, whose
    nearest-point snap is not monotone along each axis."""
    if not isinstance(space, GridSpace):
        return None
    mesh = np.meshgrid(*[axis[[0, -1]] for axis in space.axes])
    return np.column_stack([g.ravel() for g in mesh])


def _best_values(apply, weights, levels):
    """max over ``levels`` of apply(w, level) for each weight w, computed
    once per distinct weight, at most ``_BLOCK`` values at a time."""
    distinct = _distinct(weights)
    best = np.empty(len(distinct))
    rows = max(1, _BLOCK // len(levels))
    for start in range(0, len(distinct), rows):
        part = distinct[start : start + rows, None]
        best[start : start + rows] = apply(part, levels).max(axis=1)
    return best[np.searchsorted(distinct, weights)]


def word_expansion(system, seed, depth):
    """Depth-n word expansion of the operator applied to the seed.

    density(y) = max over words w and points x snapped into y of
    weight(w) * seed(x).  Affine compositions are snapped once;
    tabulated systems chain their tables.  Depth 0 is the seed, and
    depth 1 is ``psi`` of it bit for bit.

    On a grid a word whose 2^d corner images snap to one cell sends
    every point there (see the module docstring) and adds
    max_s weight(w) * s over the distinct seed values s.  Only a word
    whose image straddles a cell boundary, and every word on a dense
    space, snaps all n points, ``_BLOCK // (n d)`` words at a time.
    """
    _require_validated(system)
    _check_measure(system, seed)
    depth = _check_budget(system.k, depth)
    space = system.space
    if depth == 0:
        return StarMeasure(space, seed.density, system.tnorm)
    out = np.zeros(space.n)
    apply = system.tnorm._apply
    if not _all_affine(system):
        for weights, tables in _word_blocks(system, depth, space.n):
            np.maximum.at(out, tables.ravel(), apply(weights[:, None], seed.density).ravel())
        return StarMeasure(space, out, system.tnorm)
    dim = space.coords.shape[1]
    corners = _grid_corners(space)
    levels = _distinct(seed.density)
    per_point = max(1, _BLOCK // (space.n * dim))
    # values one word holds: its n images on a dense space; on a grid its
    # matrix, translation and weight, and each corner's image and target
    if corners is None:
        per_word = space.n * dim
    else:
        per_word = dim * dim + dim + 1 + len(corners) * (dim + 1)
    for weights, mats, trans in _word_blocks(system, depth, per_word):
        if corners is not None:
            ends = _snap_images(space, corners, mats, trans).reshape(len(weights), -1)
            one = np.all(ends == ends[:, :1], axis=1)
            np.maximum.at(out, ends[one, 0], _best_values(apply, weights[one], levels))
            straddle = ~one
            weights, mats, trans = weights[straddle], mats[straddle], trans[straddle]
        for start in range(0, len(weights), per_point):
            part = slice(start, start + per_point)
            # one statement, so a block's targets and values die before the next
            np.maximum.at(
                out,
                _snap_images(space, space.coords, mats[part], trans[part]),
                apply(weights[part, None], seed.density).ravel(),
            )
    return StarMeasure(space, out, system.tnorm)


def attractor_support(system, depth, reference_index=0):
    """Depth-n attractor approximation: word images of one reference point.

    Returns the sorted indices {snap(f_w(x0)) : |w| = depth}.  Affine
    systems compose the same word maps as ``word_expansion``, in
    lexicographic blocks, and snap each image once; a system with
    a tabulated map takes ``depth`` set images of {x0} under its tables,
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
    x0 = space.coords[reference_index : reference_index + 1]
    hit = np.zeros(space.n, dtype=bool)
    for _, mats, trans in _word_blocks(system, depth, 1):
        hit[_snap_images(space, x0, mats, trans)] = True
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


@dataclass
class LemmaFuzzReport:
    """Outcome of the equal-projection Hausdorff bound fuzzer."""

    trials: int
    rng_seed: int
    max_ratio: float
    tight_ratio: float
    violations: int
    passed: bool


def lemma_prod_fuzzer(space_x, space_y, trials, rng_seed):
    """Randomized check that equal-Y-projection pairs satisfy
    d_H(A, B) <= diam(X) under the sup product metric.

    Trial 0 is a constructed tight case (two singleton fibers realizing
    the diameter over one y), so the bound is attained exactly.  The
    remaining trials attach independent nonempty random X-fibers to a
    random nonempty Y-subset.
    """
    trials = _integer(trials, "trials", 1)
    rng = np.random.default_rng(rng_seed)
    diam = space_x.diameter

    xa, xb = np.unravel_index(np.argmax(space_x.dist), space_x.dist.shape)
    tight_a = np.array([[xa, 0]])
    tight_b = np.array([[xb, 0]])
    tight = _pairs_hausdorff(space_x, space_y, tight_a, tight_b) / diam

    max_ratio = tight
    violations = 0 if tight <= 1.0 else 1
    for _ in range(trials - 1):
        ys = rng.choice(space_y.n, size=rng.integers(1, space_y.n + 1), replace=False)
        a_pairs, b_pairs = [], []
        for y in ys:
            for bucket in (a_pairs, b_pairs):
                fiber = rng.choice(
                    space_x.n, size=rng.integers(1, space_x.n + 1), replace=False
                )
                bucket.extend((x, y) for x in fiber)
        ratio = (
            _pairs_hausdorff(space_x, space_y, np.array(a_pairs), np.array(b_pairs))
            / diam
        )
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0:
            violations += 1

    return LemmaFuzzReport(
        trials=trials,
        rng_seed=rng_seed,
        max_ratio=max_ratio,
        tight_ratio=tight,
        violations=violations,
        passed=violations == 0,
    )
