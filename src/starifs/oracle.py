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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceBudgetError
from .ifs import _require_validated
from .measures import StarMeasure
from .spaces import _pairs_hausdorff

WORD_BUDGET = 1_000_000


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

    def apply_to_coords(self, coords):
        if self.matrix is None:
            raise DomainError("word carries no exact affine composition")
        return coords @ self.matrix.T + self.translation


def _check_budget(k, depth):
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if k**depth > WORD_BUDGET:
        raise ResourceBudgetError(
            f"{k}^{depth} words exceed the enumeration budget {WORD_BUDGET}"
        )


def _all_affine(system):
    return all(m.kind == "affine" for m in system.maps)


def enumerate_words(system, depth):
    """Yield every Word of the given length, composing prefixes once.

    Word (i_1, ..., i_n) composes left-to-right: the prefix map is
    applied after the next letter's map, matching the operator's
    nesting.  Budget-checked at k^depth <= 1e6.
    """
    _require_validated(system)
    _check_budget(system.k, depth)
    space = system.space
    affine = _all_affine(system)

    if affine:
        dim = space.coords.shape[1]
        root = Word((), 1.0, np.eye(dim), np.zeros(dim))
    else:
        root = Word((), 1.0, table=np.arange(space.n, dtype=np.int64))

    def extend(word, letter):
        f = system.maps[letter]
        weight = system.tnorm.apply(word.weight, float(system.weights[letter]))
        letters = word.letters + (letter,)
        if affine:
            return Word(
                letters,
                weight,
                word.matrix @ f.matrix,
                word.matrix @ f.translation + word.translation,
            )
        tbl = system.tables[letter]
        return Word(letters, weight, table=word.table[tbl])

    def walk(word, remaining):
        if remaining == 0:
            yield word
            return
        for letter in range(system.k):
            yield from walk(extend(word, letter), remaining - 1)

    yield from walk(root, depth)


def word_expansion(system, seed, depth):
    """Depth-n word expansion of the operator applied to the seed.

    density(y) = max over words w and points x snapped into y of
    weight(w) * seed(x).  Affine compositions are exact and snapped
    once; tabulated systems chain their tables.  Depth 0 is the seed.
    """
    _require_validated(system)
    _check_budget(system.k, depth)
    space = system.space
    if depth == 0:
        return StarMeasure(space, seed.density, system.tnorm)
    out = np.zeros(space.n)
    for word in enumerate_words(system, depth):
        if word.table is not None:
            targets = word.table
        else:
            targets = space.snap(word.apply_to_coords(space.coords))
        np.maximum.at(out, targets, system.tnorm.apply(word.weight, seed.density))
    return StarMeasure(space, out, system.tnorm)


def attractor_support(system, depth, reference_index=0):
    """Depth-n attractor approximation: word images of one reference point.

    Returns the sorted indices {snap(f_w(x0)) : |w| = depth}.  Affine
    compositions are batched and exact, snapped once; tabulated systems
    chase indices.  With all weights 1 and the minimum t-norm this
    equals the support of the word expansion from the Dirac seed at the
    reference point (the two snap identically).
    """
    _require_validated(system)
    _check_budget(system.k, depth)
    space = system.space
    if not 0 <= reference_index < space.n:
        raise DomainError("reference point outside the space")
    if _all_affine(system):
        # batch words level by level, prepending letters: f_{j.w} = f_j o f_w
        dim = space.coords.shape[1]
        mats = np.eye(dim)[None]
        trans = np.zeros((1, dim))
        for _ in range(depth):
            mats = np.concatenate(
                [np.einsum("ab,kbc->kac", f.matrix, mats) for f in system.maps]
            )
            trans = np.concatenate(
                [trans @ f.matrix.T + f.translation for f in system.maps]
            )
        pts = space.coords[reference_index] @ np.swapaxes(mats, 1, 2) + trans
        idx = space.snap(pts)
    else:
        idx = np.array([reference_index], dtype=np.int64)
        for _ in range(depth):
            idx = np.concatenate([tbl[idx] for tbl in system.tables])
    return np.unique(idx)


def hutchinson_fixed_set(system, max_iter=10_000):
    """Stationary support of the grid-level set iteration S -> U f_i(S).

    Starts from the full point set and applies the snapped maps as pure
    set operations until stationary.  In the degenerate case (all
    weights 1, minimum t-norm) this is exactly the support the solver's
    fixed point must reproduce; it shares the system's snapped tables
    but none of the density machinery.
    """
    _require_validated(system)
    current = np.arange(system.space.n, dtype=np.int64)
    for _ in range(max_iter):
        nxt = np.unique(np.concatenate([tbl[current] for tbl in system.tables]))
        if np.array_equal(nxt, current):
            return current
        current = nxt
    raise ResourceBudgetError("set iteration did not stabilize within max_iter")


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
    if trials < 1:
        raise DomainError("at least one trial is required")
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
