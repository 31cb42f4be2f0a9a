"""Independent brute-force computations used to validate the solver.

The n-th operator power expands into k^n terms indexed by words
(i_1, ..., i_n), each contributing the word-composed map weighted by the
fold of its letter weights.  The oracle evaluates this expansion with
exact affine composition and a single snap at the end — deliberately a
different error mode from the solver's snap-each-step — so agreement
between the two bounds the discretization error empirically.

All randomness is seeded and the seed is part of every report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ResourceBudgetError
from .ifs import _check_measure, _require_validated
from .measures import StarMeasure
from .spaces import _integer, _pairs_hausdorff

WORD_BUDGET = 1_000_000
# point images (coordinates or table entries) held by one block of words
_BLOCK = 1 << 14


@dataclass(frozen=True)
class Word:
    """A composition f_{i1} o ... o f_{in} with its folded weight.

    For all-affine systems the composition is carried exactly as a
    (matrix, translation) pair; otherwise as a chained lookup table.
    """

    letters: tuple
    weight: float
    matrix: np.ndarray | None = None
    translation: np.ndarray | None = None
    table: np.ndarray | None = None


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
    operator's nesting.  A block is every word with a given prefix; it
    grows by appending all k letters to all its words at once, so each
    word gets the same arithmetic whichever block it lands in.  A block
    that would grow past ``_BLOCK // per_word`` words (at least one; a
    tabulated word counts at least its n-long table) is split by the
    letter after its prefix into k blocks that are walked depth first,
    so blocks come out in lexicographic order.
    """
    space = system.space
    k = system.k
    affine = _all_affine(system)
    if affine:
        dim = space.coords.shape[1]
        letter_mats = np.stack([f.matrix for f in system.maps])
        letter_trans = np.stack([f.translation for f in system.maps])[..., None]
        root = (np.eye(dim)[None], np.zeros((1, dim)))
    else:
        per_word = max(per_word, space.n)
        root = (np.arange(space.n, dtype=np.int64)[None],)
    cap = max(1, _BLOCK // per_word)

    def children(block):
        """Every word of the block followed by every letter, in order."""
        weights, *arrays = block
        weights = system.tnorm._apply(weights[:, None], system.weights).ravel()
        if affine:
            mats = arrays[0][:, None]
            arrays = (
                (mats @ letter_mats).reshape(-1, dim, dim),
                ((mats @ letter_trans)[..., 0] + arrays[1][:, None]).reshape(-1, dim),
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
    pts = coords @ np.swapaxes(mats, 1, 2)
    pts += trans[:, None, :]
    return space.snap(pts.reshape(-1, pts.shape[-1]))


def enumerate_words(system, depth):
    """Yield every Word of the given length in lexicographic order.

    Word (i_1, ..., i_n) composes left-to-right: the prefix map is
    applied after the next letter's map, matching the operator's
    nesting.  Budget-checked at k^depth <= 1e6.  Blocks come in
    lexicographic order, so the letters of the i-th word are the i-th
    tuple of ``itertools.product``: the base-k digits of i.
    """
    _require_validated(system)
    depth = _check_budget(system.k, depth)
    affine = _all_affine(system)
    letters = itertools.product(range(system.k), repeat=depth)
    for weights, *arrays in _word_blocks(system, depth, 1):
        for i, weight in enumerate(weights.tolist()):
            if affine:
                maps = {"matrix": arrays[0][i], "translation": arrays[1][i]}
            else:
                maps = {"table": arrays[0][i]}
            yield Word(next(letters), weight, **maps)


def word_expansion(system, seed, depth):
    """Depth-n word expansion of the operator applied to the seed.

    density(y) = max over words w and points x snapped into y of
    weight(w) * seed(x).  Affine compositions are exact and snapped
    once; tabulated systems chain their tables.  Depth 0 is the seed.
    Words are processed in blocks of at most ``_BLOCK`` point images.
    """
    _require_validated(system)
    _check_measure(system, seed)
    depth = _check_budget(system.k, depth)
    space = system.space
    if depth == 0:
        return StarMeasure(space, seed.density, system.tnorm)
    out = np.zeros(space.n)
    affine = _all_affine(system)
    per_word = space.n * space.coords.shape[1] if affine else space.n
    for weights, *maps in _word_blocks(system, depth, per_word):
        # one statement, so a block's targets and values die before the next
        np.maximum.at(
            out,
            _snap_images(space, space.coords, *maps) if affine else maps[0].ravel(),
            system.tnorm._apply(weights[:, None], seed.density).ravel(),
        )
    return StarMeasure(space, out, system.tnorm)


def _set_image(system, points):
    """The sorted union of the snapped images of ``points`` under every map."""
    return np.unique(system.tables[:, points])


def attractor_support(system, depth, reference_index=0):
    """Depth-n attractor approximation: word images of one reference point.

    Returns the sorted indices {snap(f_w(x0)) : |w| = depth}.  Affine
    systems compose the same word maps as ``word_expansion``, exactly
    and in lexicographic blocks, and snap each image once; a system with
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
            points = _set_image(system, points)
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
    reproduce; it shares the system's snapped tables but none of the
    density machinery.
    """
    _require_validated(system)
    current = np.arange(system.space.n, dtype=np.int64)
    while True:
        nxt = _set_image(system, current)
        if np.array_equal(nxt, current):
            return current
        current = nxt


@dataclass
class LemmaFuzzReport:
    """Outcome of the equal-projection Hausdorff bound fuzzer."""

    trials: int
    rng_seed: int
    max_ratio: float
    tight_ratio: float
    violations: int
    passed: bool

    def to_dict(self):
        return {
            "trials": self.trials,
            "rngSeed": self.rng_seed,
            "maxRatio": self.max_ratio,
            "tightRatio": self.tight_ratio,
            "violations": self.violations,
            "passed": self.passed,
        }


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
