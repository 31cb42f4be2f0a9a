import functools
import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starifs as si
from starifs import oracle
from starifs.config import RunConfig
from starifs.ifs import _affine_images

from conftest import (
    ALL_TNORMS,
    lemma_prod_fuzzer,
    make_cantor,
    make_sierpinski,
    pairs_hausdorff,
    product_metric,
)

CONFIGS = Path(__file__).parent / "configs"


class Word(NamedTuple):
    """A composition f_{i1} o ... o f_{in} with its folded weight: an
    exact (matrix, translation) pair for affine systems, a chained
    lookup table otherwise."""

    weight: float
    matrix: np.ndarray = None
    translation: np.ndarray = None
    table: np.ndarray = None


def reference_words(system, depth):
    """Every Word by the per-word recursion, one composition per call.

    Test oracle for the blocked word generator: the same left-to-right
    composition, one word at a time, in lexicographic order.
    """
    space = system.space
    if all(m.kind == "affine" for m in system.maps):
        dim = space.coords.shape[1]
        root = Word(1.0, np.eye(dim), np.zeros(dim))
    else:
        root = Word(1.0, table=np.arange(space.n, dtype=np.int64))

    def extend(word, letter):
        f = system.maps[letter]
        weight = system.tnorm.apply(word.weight, float(system.weights[letter]))
        if word.table is None:
            m, t = word.matrix[None], word.translation[None]
            # M_w A_a: the images of A_a's columns; M_w t_a + t_w: the image of t_a
            return Word(
                weight,
                _affine_images(f.matrix.T, m, np.zeros_like(t))[0].T,
                _affine_images(f.translation[None], m, t)[0, 0],
            )
        return Word(weight, table=word.table[system.tables[letter]])

    def walk(word, remaining):
        if remaining == 0:
            yield word
            return
        for letter in range(system.k):
            yield from walk(extend(word, letter), remaining - 1)

    yield from walk(root, depth)


def per_word_expansion(system, seed, depth):
    """The word expansion one word at a time: snap, then one max per word
    of T(weight, v)."""
    space = system.space
    out = np.zeros(space.n)
    for word in reference_words(system, depth):
        if word.table is not None:
            targets = word.table
        else:
            targets = space.snap(
                _affine_images(space.coords, word.matrix[None], word.translation[None])[0]
            )
        np.maximum.at(out, targets, system.tnorm._apply(word.weight, seed.density))
    return out


def make_rotated(n=24, family="hamacher", parameter=0.5, weights=(1.0, 0.8, 0.6)):
    """Three 2-D maps with rotation and shear, so matrices are dense."""
    space = si.grid_2d(n, n, ((0.0, 1.0), (0.0, 1.0)))
    c, s = 0.4 * np.cos(0.7), 0.4 * np.sin(0.7)
    maps = [
        si.ContractionMap.affine([[c, -s], [s, c]], [0.3, 0.1]),
        si.ContractionMap.affine([[0.45, 0.1], [-0.05, 0.35]], [0.45, 0.55]),
        si.ContractionMap.affine([[0.3, 0.0], [0.0, 0.3]], [0.05, 0.6]),
    ]
    return si.validate(
        si.IFSSystem(space, maps, list(weights), si.TNorm(family, parameter))
    )


def make_sheared():
    """A sheared map and a halving map on a 7 x 7 grid, product (1, .5).

    Point 12 = (5/6, 1/3) has the exact image (3/4, 1/4) under the
    first map: a true half-way tie in y, which floating point decides.
    ``tests/configs/sheared_dirac.json`` is this system.
    """
    space = si.grid_2d(7, 7, ((0.0, 1.0), (0.0, 1.0)))
    maps = [
        si.ContractionMap.affine([[1 / 6, 1 / 2], [-1 / 3, 1 / 6]], [0.25, 0.5]),
        si.ContractionMap.affine([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0]),
    ]
    return si.validate(si.IFSSystem(space, maps, [1.0, 0.5], si.TNorm("product")))


def make_leaving(n=41):
    """Two maps on an n-point grid whose images leave [0, 1] by exactly
    one spacing, the most ``validate`` allows: [.6 + h, 1 + h] and
    [-h, .6 - h].  A word's extensions then send points outside the
    box, where a collapse test that widens it too little misses them."""
    h = 1.0 / (n - 1)
    maps = [
        si.ContractionMap.affine([[-0.4]], [1.0 + h]),
        si.ContractionMap.affine([[0.6]], [-h]),
    ]
    space = si.grid_1d(n, 0.0, 1.0)
    return si.validate(si.IFSSystem(space, maps, [1.0, 0.6], si.TNorm("product")))


def make_quarters(n=257):
    """Three quarter-scale maps, weights (1, .7, .3) under Hamacher(0.5):
    words collapse with up to three letters left, and their weights stay
    apart, so the collapsed cells meet tens of distinct weights."""
    space = si.grid_1d(n, 0.0, 1.0)
    maps = [si.ContractionMap.affine([[0.25]], [t]) for t in (0.0, 0.375, 0.75)]
    return si.validate(
        si.IFSSystem(space, maps, [1.0, 0.7, 0.3], si.TNorm("hamacher", 0.5))
    )


def make_mixed(n=81):
    """Cantor maps plus a constant table: the system runs on tables."""
    maps = [
        si.ContractionMap.affine([[1.0 / 3.0]], [0.0]),
        si.ContractionMap.affine([[1.0 / 3.0]], [2.0 / 3.0]),
        si.ContractionMap.tabulated(np.full(n, n // 2)),
    ]
    space = si.grid_1d(n, 0.0, 1.0)
    return si.validate(
        si.IFSSystem(space, maps, [1.0, 0.5, 0.25], si.TNorm("lukasiewicz"))
    )


def full(system):
    return si.StarMeasure.full(system.space, system.tnorm)


def random_seed(system, rng_seed=11, top=1.0):
    rng = np.random.default_rng(rng_seed)
    density = rng.uniform(0.0, 1.0, system.space.n)
    density[rng.integers(system.space.n)] = top
    return si.StarMeasure(system.space, density, system.tnorm)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


EXPANSION_CASES = {
    "cantor-minimum": (lambda: make_cantor(family="minimum"), full, 10),
    "cantor-product": (lambda: make_cantor(family="product"), full, 10),
    "cantor-lukasiewicz": (lambda: make_cantor(family="lukasiewicz"), full, 10),
    "cantor-random-seed": (lambda: make_cantor(weights=(0.9, 1.0)), random_seed, 9),
    "sierpinski-dirac": (
        lambda: make_sierpinski(32),
        lambda s: si.StarMeasure.dirac(s.space, 37, s.tnorm),
        5,
    ),
    "sierpinski-full": (lambda: make_sierpinski(32), full, 5),
    "rotated-hamacher": (make_rotated, random_seed, 5),
    "deep": (lambda: make_cantor(27), full, 13),
    # 4 of the 1,024 words straddle a cell boundary; at depth 12 none does.
    # A top just below 1 tells T(w, top) from w.
    "cantor-729": (make_cantor, lambda s: random_seed(s, top=1.0 - 2**-42), 10),
    "tabulated": (make_mixed, random_seed, 5),
    "hull-leaving": (make_leaving, random_seed, 9),
    "quarters-hamacher": (make_quarters, random_seed, 7),
}


class TestWords:
    def test_budget_enforced(self, cantor):
        with pytest.raises(si.ResourceBudgetError):  # 2^21 > 1e6
            si.word_expansion(
                cantor, si.StarMeasure.full(cantor.space, cantor.tnorm), 21
            )
        with pytest.raises(si.ResourceBudgetError):
            si.attractor_support(cantor, 21)

    @pytest.mark.parametrize("depth", [2.5, 2.0, True, -1])
    def test_depth_must_be_an_integer(self, cantor, monkeypatch, depth):
        # a fractional depth never reached the last word level and hung
        def walk(*args):
            raise AssertionError("words walked before the depth was checked")

        monkeypatch.setattr(oracle, "_word_blocks", walk)
        seed = si.StarMeasure.full(cantor.space, cantor.tnorm)
        calls = [
            lambda: si.word_expansion(cantor, seed, depth),
            lambda: si.attractor_support(cantor, depth),
        ]
        for call in calls:
            with pytest.raises(si.DomainError, match="depth"):
                call()

    def test_one_map_depth_is_bounded(self, monkeypatch):
        # one map means one word per depth, which passed any word budget,
        # but the walk still took one step per letter
        def walk(*args):
            raise AssertionError("words walked before the depth was checked")

        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("minimum")
        system = si.validate(
            si.IFSSystem(X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], t)
        )
        monkeypatch.setattr(oracle, "_word_blocks", walk)
        depth = oracle.WORD_BUDGET + 1
        calls = [
            lambda: si.word_expansion(system, si.StarMeasure.full(X, t), depth),
            lambda: si.attractor_support(system, depth),
        ]
        for call in calls:
            with pytest.raises(si.ResourceBudgetError):
                call()


@st.composite
def grid_systems(draw):
    """A validated system of 2 or 3 affine maps on a 1-D grid or a 2-D
    grid of at most 16 x 16 on the unit box, each map fitted into the
    box widened by 0, half or one grid step per axis (``validate``
    allows one spacing out), with rotated and sheared matrices in 2-D;
    a seed (full, Dirac, or random with a top just below 1); and a depth
    with at most 729 words."""
    dim = draw(st.integers(1, 2))
    if dim == 1:
        space = si.grid_1d(draw(st.integers(2, 60)), 0.0, 1.0)
    else:
        space = si.grid_2d(draw(st.integers(2, 16)), draw(st.integers(2, 16)), ((0, 1), (0, 1)))
    steps = np.array([axis[1] - axis[0] for axis in space.axes])
    k = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])[: 2**dim, :dim]
    maps = []
    for _ in range(k):
        if dim == 1:
            matrix = np.array([[draw(st.floats(-0.9, 0.9))]])
        else:
            angle = draw(st.floats(0.0, 2 * np.pi))
            rotation = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            # a shear and a squash; at -1 and 0 the diagonal (1, 1) maps to 0
            shear = [[1.0, draw(st.floats(-1.0, 1.0))], [0.0, draw(st.floats(0.0, 1.0))]]
            matrix = np.array(rotation) @ np.array(shear)
            matrix *= draw(st.floats(0.05, 0.9)) / np.linalg.norm(matrix, 2)
            # a rotated image can be wider than the box along an axis
            matrix /= max(1.0, np.ptp(corners @ matrix.T, axis=0).max())
        images = corners @ matrix.T
        lo, hi = images.min(axis=0), images.max(axis=0)
        # a translation that keeps the image of the unit box inside the
        # box widened by ``out`` steps; at 1 a corner lands one spacing out
        out = draw(st.sampled_from([0.0, 0.5, 1.0])) * steps
        shift = [-a - o + draw(unit) * (1.0 - (b - a) + 2 * o) for a, b, o in zip(lo, hi, out)]
        maps.append(si.ContractionMap.affine(matrix, shift))
    weights = [draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9]), unit)) for _ in range(k)]
    weights[draw(st.integers(0, k - 1))] = 1.0
    system = si.validate(si.IFSSystem(space, maps, weights, draw(st.sampled_from(ALL_TNORMS))))
    kind = draw(st.sampled_from(["full", "dirac", "random"]))
    if kind == "full":
        seed = full(system)
    elif kind == "dirac":
        seed = si.StarMeasure.dirac(space, draw(st.integers(0, space.n - 1)), system.tnorm)
    else:
        density = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, space.n)
        # a top within the normalization tolerance below 1 tells T(w, top) from w
        density[draw(st.integers(0, space.n - 1))] = 1.0 - 2**-42
        seed = si.StarMeasure(space, density, system.tnorm)
    depth = draw(st.integers(1, 8 if k == 2 else 6))
    return system, seed, depth


def path_counts(monkeypatch, run):
    """``run()`` and the words it snapped: ``corners`` counts the words
    put to the collapse test (``_word_cells``), one per composed word,
    and ``points`` those whose points ``_snap_images`` snapped."""
    calls = {"corners": 0, "points": 0}
    word_cells, snap_images = oracle._word_cells, oracle._snap_images

    def cells_spy(space, box, margin, mats, trans):
        calls["corners"] += len(mats)
        return word_cells(space, box, margin, mats, trans)

    def snap_spy(space, coords, mats, trans):
        calls["points"] += len(mats)
        return snap_images(space, coords, mats, trans)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_word_cells", cells_spy)
        patch.setattr(oracle, "_snap_images", snap_spy)
        return run(), calls


class TestBlockedExpansion:
    """The blocked oracle against the per-word loop it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=grid_systems())
    def test_corner_collapse_equals_per_word_loop(self, case):
        system, seed, depth = case
        out = si.word_expansion(system, seed, depth)
        assert np.array_equal(out.density, per_word_expansion(system, seed, depth))

    @pytest.mark.parametrize("case", sorted(EXPANSION_CASES))
    def test_equals_per_word_loop(self, case):
        make, seed_of, depth = EXPANSION_CASES[case]
        system = make()
        seed = seed_of(system)
        out = si.word_expansion(system, seed, depth)
        assert np.array_equal(out.density, per_word_expansion(system, seed, depth))

    @pytest.mark.parametrize("block", [1, 5, 64, 1000])
    def test_small_blocks(self, monkeypatch, block):
        # blocks of one to a few words, split at many levels
        monkeypatch.setattr(oracle, "_BLOCK", block)
        for system, depth in (
            (make_cantor(27, family="product"), 7),
            (make_cantor(), 10),
            (make_rotated(12), 4),
            (make_mixed(27), 4),
        ):
            seed = random_seed(system)
            out, calls = path_counts(
                monkeypatch, lambda: si.word_expansion(system, seed, depth).density
            )
            assert np.array_equal(out, per_word_expansion(system, seed, depth))
            if oracle._all_affine(system):
                assert calls["corners"] > 0 and calls["points"] > 0

    @pytest.mark.parametrize("block", [64, 300, 1000])
    def test_full_length_steps_stay_within_a_block(self, monkeypatch, block):
        # one rule bounds every step: a block's snapped images, or the
        # table entries it reads at the seed's support, hold at most
        # _BLOCK values unless the block is one word
        cases = [(make_cantor(27, family="product"), 7), (make_rotated(12), 4), (make_mixed(27), 4)]
        whole = [si.word_expansion(s, random_seed(s), depth).density for s, depth in cases]
        steps = []
        snap_images, word_blocks = oracle._snap_images, oracle._word_blocks

        def snap_spy(space, coords, mats, trans):
            steps.append((len(mats), len(mats) * coords.size))
            return snap_images(space, coords, mats, trans)

        def blocks_spy(system, depth, points):
            for weights, cells in word_blocks(system, depth, points):
                if not oracle._all_affine(system) and cells.ndim == 2:
                    steps.append((len(weights), cells.size))
                yield weights, cells

        monkeypatch.setattr(oracle, "_BLOCK", block)
        monkeypatch.setattr(oracle, "_snap_images", snap_spy)
        monkeypatch.setattr(oracle, "_word_blocks", blocks_spy)
        for (system, depth), expect in zip(cases, whole):
            out = si.word_expansion(system, random_seed(system), depth).density
            assert np.array_equal(out, expect)
        assert any(words > 1 for words, _ in steps)
        assert all(words == 1 or touched <= block for words, touched in steps)

    def test_collapsed_words_stop_growing(self, monkeypatch):
        # no word image after length 7 spans more than one of the 729
        # cells, so a few hundred of the 65,536 words are ever composed
        system = make_cantor()
        seed = full(system)
        for run in (
            lambda: si.word_expansion(system, seed, 16),
            lambda: si.attractor_support(system, 16),
        ):
            _, calls = path_counts(monkeypatch, run)
            assert 0 < calls["corners"] < 2**10
            assert calls["points"] == 0

    def test_cantor_729_depth_16_composes_378_words(self, monkeypatch):
        # the count the README states for the cantor-729-oracle workload
        system = make_cantor()
        _, calls = path_counts(monkeypatch, lambda: si.word_expansion(system, full(system), 16))
        assert calls == {"corners": 378, "points": 0}

    def test_attractor_shares_word_maps(self, monkeypatch):
        # all weights 1 and the minimum t-norm: the support of the Dirac
        # expansion is the attractor approximation, on dense matrices too
        system = make_rotated(20, family="minimum", weights=(1.0, 1.0, 1.0))
        for block in (None, 3):
            if block is not None:
                monkeypatch.setattr(oracle, "_BLOCK", block)
            for ref in (0, 150, system.space.n - 1):
                seed = si.StarMeasure.dirac(system.space, ref, system.tnorm)
                support = np.flatnonzero(si.word_expansion(system, seed, 5).density)
                att = si.attractor_support(system, 5, reference_index=ref)
                assert np.array_equal(att, support)

    def test_dirac_expansion_snaps_only_its_support(self, monkeypatch):
        # T(w, 0) = 0, so a full-length word snaps the seed's one point;
        # snapping all 1,024 points of every word gave the same density
        make, seed_of, depth = EXPANSION_CASES["sierpinski-dirac"]
        system = make()
        snapped = []
        snap_images = oracle._snap_images

        def spy(space, coords, mats, trans):
            snapped.append(len(coords))
            return snap_images(space, coords, mats, trans)

        monkeypatch.setattr(oracle, "_snap_images", spy)
        si.word_expansion(system, seed_of(system), depth)
        assert snapped and set(snapped) == {1}

    def test_collapsed_words_add_t_once_in_any_block(self, monkeypatch):
        # a collapsed word adds T(weight, top) once, in whichever block it
        # lands: small blocks evaluate as many t-norm values as one
        system = make_sierpinski(32, family="product", weights=(1.0, 0.6, 0.8))
        seed = full(system)
        whole, whole_values = applied_values(
            monkeypatch, lambda: si.word_expansion(system, seed, 10).density
        )
        monkeypatch.setattr(oracle, "_BLOCK", 1024)
        out, values = applied_values(monkeypatch, lambda: si.word_expansion(system, seed, 10).density)
        assert values == whole_values
        assert np.array_equal(out, whole)

    def test_attractor_support_memory(self):
        # 3^12 words; holding them all at once took 55 MB
        system = make_sierpinski(64)
        assert traced_peak(lambda: si.attractor_support(system, 12)) < 8 * 2**20

    def test_word_expansion_memory(self):
        system = make_cantor()
        seed = full(system)
        assert traced_peak(lambda: si.word_expansion(system, seed, 12)) < 2 * 2**20

    def test_collapsed_words_are_not_held(self):
        # collapsed words add at once: 0.44 MiB; holding their 60,269
        # (weight, cell) pairs for one fold at the end took 1.5 MiB
        config = RunConfig.from_path(CONFIGS / "sierpinski_dirac.json")
        space, tnorm = config.build_space(), config.build_tnorm()
        system = si.validate(config.build_system(space, tnorm))
        seed = config.seed_measure(space, tnorm)
        assert traced_peak(lambda: si.word_expansion(system, seed, 12)) < 2**20

    def test_tabulated_blocks_count_their_tables(self):
        # each tabulated word carries a 2048-long table; 2187 of them take 36 MB
        system = make_mixed(2048)
        seed = full(system)
        assert traced_peak(lambda: si.word_expansion(system, seed, 7)) < 4 * 2**20


def applied_values(monkeypatch, run):
    """``run()`` and the number of t-norm values its ``TNorm._apply``
    calls evaluated."""
    count = [0]
    apply = si.TNorm._apply

    def spy(self, a, b):
        out = apply(self, a, b)
        count[0] += np.size(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(si.TNorm, "_apply", spy)
        return run(), count[0]


class TestCollapsedTValues:
    """A collapsed word's weight meets the seed's top once, not each suffix."""

    def test_expansion_applies_t_once_per_collapsed_word(self, monkeypatch):
        # folding every (weight, cell) pair through its suffixes took 14,654
        system = make_cantor()
        seed = full(system)
        _, values = applied_values(monkeypatch, lambda: si.word_expansion(system, seed, 16))
        assert values <= 1000

    def test_attractor_marks_cells_where_words_collapse(self, monkeypatch):
        # one weight per composed word; folding the collapsed ones to full
        # depth took 14,582
        system = make_cantor()
        (_, values), calls = path_counts(
            monkeypatch,
            lambda: applied_values(monkeypatch, lambda: si.attractor_support(system, 16)),
        )
        assert 0 < values <= calls["corners"] < 2**10


def make_one_map(tnorm, n=65):
    """x/2 + 1/4 alone on an n-point grid of [0, 1]: one word per depth,
    which collapses to one cell after a few letters."""
    space = si.grid_1d(n, 0.0, 1.0)
    return si.validate(si.IFSSystem(space, [si.ContractionMap.affine([[0.5]], [0.25])], [1.0], tnorm))


class TestCollapsedCellValue:
    """What a word collapsed with letters left adds at its cell, T(w, top),
    against the max over its suffixes and the seed values."""

    @settings(deadline=None)
    @given(data=st.data())
    def test_equals_the_recursion(self, data):
        tnorm = data.draw(st.sampled_from(ALL_TNORMS))
        near_one = st.floats(1.0 - 1e-12, 1.0)
        weight = st.one_of(st.just(1.0), near_one, st.floats(0.0, 1.0))
        # distinct seed values whose top lies within 1e-12 of 1
        values = data.draw(st.lists(st.one_of(near_one, st.floats(0.0, 1.0)), min_size=1, max_size=4))
        values = sorted(set(values + [data.draw(near_one)]))
        # the largest weight is 1
        letters = [1.0] + data.draw(st.lists(weight, max_size=2))
        weights = data.draw(st.lists(weight, min_size=1, max_size=4))
        left = data.draw(st.integers(0, 6))

        @functools.lru_cache(maxsize=None)
        def f(left, w):
            if left == 0:
                return max(float(tnorm._apply(w, v)) for v in values)
            return max(f(left - 1, float(tnorm._apply(w, l))) for l in letters)

        expect = [f(left, w) for w in weights]
        assert tnorm._apply(np.array(weights), values[-1]).tolist() == expect


class TestOneMapRuns:
    """A one-map system's words are runs of its one letter, of weight 1
    (the largest weight is 1): a collapsed run adds T(1, top) whatever
    its letters left, so a deep run costs like a shallow one."""

    @pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=repr)
    def test_equals_per_word_loop(self, tnorm):
        # ``reference_words``'s composition, one letter at a time, without its recursion
        system = make_one_map(tnorm)
        seed = random_seed(system, top=1.0 - 2**-42)
        f, space = system.maps[0], system.space
        weight, mat, trans = 1.0, np.eye(1), np.zeros(1)
        for _ in range(3000):
            weight = system.tnorm.apply(weight, float(system.weights[0]))
            mat, trans = (
                _affine_images(f.matrix.T, mat[None], np.zeros((1, 1)))[0].T,
                _affine_images(f.translation[None], mat[None], trans[None])[0, 0],
            )
        expect = np.zeros(space.n)
        targets = space.snap(_affine_images(space.coords, mat[None], trans[None])[0])
        np.maximum.at(expect, targets, system.tnorm.apply(weight, seed.density))
        assert np.array_equal(si.word_expansion(system, seed, 3000).density, expect)

    def test_deep_run_costs_like_a_shallow_one(self, monkeypatch):
        # one distinct-weight array and one letter table per level took
        # 1.5 s, 32 MiB and 100,000 t-norm values at this depth
        system = make_one_map(si.TNorm("product"))
        seed = full(system)
        shallow = si.word_expansion(system, seed, 20).density
        deep, values = applied_values(monkeypatch, lambda: si.word_expansion(system, seed, 100_000))
        assert np.array_equal(deep.density, shallow)
        assert values < 100
        assert traced_peak(lambda: si.word_expansion(system, seed, 100_000)) < 2**20


def make_halves(n=4):
    """Maps x/2 and x/2 + 1/2 on an n-point grid of [0, 1].  On four
    points both send a grid point to 1/2, half-way between the floats
    of 1/3 and 2/3 but nearer the second in exact arithmetic."""
    maps = [
        si.ContractionMap.affine([[0.5]], [0.0]),
        si.ContractionMap.affine([[0.5]], [0.5]),
    ]
    space = si.grid_1d(n, 0.0, 1.0)
    return si.validate(si.IFSSystem(space, maps, [1.0, 0.5], si.TNorm("product")))


def exact_words(system, depth):
    """Every word's (matrix, translation) in rationals, composed exactly
    from the letters' float entries, in ``reference_words`` order."""
    letters = [
        ([[Fraction(v) for v in row] for row in f.matrix], [Fraction(v) for v in f.translation])
        for f in system.maps
    ]
    dim = len(letters[0][1])
    for word in itertools.product(range(system.k), repeat=depth):
        mat = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        trans = [Fraction(0)] * dim
        for a in word:
            am, at = letters[a]
            trans = [trans[i] + sum(mat[i][j] * at[j] for j in range(dim)) for i in range(dim)]
            mat = [[sum(mat[i][l] * am[l][j] for l in range(dim)) for j in range(dim)] for i in range(dim)]
        yield mat, trans


def exact_nearest(axis, value):
    """Index of the grid coordinate nearest to ``value`` in exact
    arithmetic, over the axis's floats; ties go to the lowest index."""
    gaps = [abs(value - Fraction(x)) for x in axis]
    return gaps.index(min(gaps))


class TestExactSnap:
    """Float word images and snaps against exact rational arithmetic."""

    @pytest.mark.parametrize(
        "make, depth, ties",
        [(make_halves, 3, 7), (make_sheared, 3, 60), (lambda: make_rotated(6), 3, 0)],
        ids=["halves-4", "sheared-7x7", "rotated-6x6"],
    )
    def test_float_snap_differs_only_near_ties(self, make, depth, ties):
        # every word of length n <= depth: the float image is within
        # (50 n + 30) u S of the exact one, the bound the oracle's margin
        # rests on, and a float snap that is not the exact nearest point
        # is one step off, at an exact image that close to a half-way
        # point; ``ties`` counts those coordinates
        system = make()
        space = system.space
        c = system.c
        reach = (space.spacing + 1e-12) * (1 - c**depth) / (1 - c)
        scale = max(np.abs(axis[[0, -1]]).max() for axis in space.axes) + reach
        points = [[Fraction(v) for v in x] for x in space.coords]
        mismatches = 0
        for length in range(1, depth + 1):
            bound = (50 * length + 30) * 2.0**-53 * scale
            floats = reference_words(system, length)
            for word, (mat, trans) in zip(floats, exact_words(system, length)):
                images = _affine_images(space.coords, word.matrix[None], word.translation[None])[0]
                cells = space.snap(images)
                for x, image, cell in zip(points, images, cells):
                    # row-major: the per-axis indices of the flat cell
                    snapped = np.unravel_index(cell, [len(a) for a in reversed(space.axes)])[::-1]
                    for i, axis in enumerate(space.axes):
                        exact = trans[i] + sum(mat[i][j] * x[j] for j in range(len(x)))
                        assert abs(Fraction(image[i]) - exact) <= bound
                        nearest = exact_nearest(axis, exact)
                        if snapped[i] != nearest:
                            mismatches += 1
                            assert abs(int(snapped[i]) - nearest) == 1
                            half = (Fraction(axis[snapped[i]]) + Fraction(axis[nearest])) / 2
                            assert abs(exact - half) <= bound
        assert mismatches == ties

    def test_known_tie(self):
        # snap(1/2) is 1 on four points; exact arithmetic picks 2
        system = make_halves()
        assert system.tables[0, 3] == 1 and system.tables[1, 0] == 1
        assert exact_nearest(system.space.axes[0], Fraction(1, 2)) == 2


class TestWordExpansion:
    def test_seed_must_match_space_and_tnorm(self):
        system = make_cantor(27)
        seeds = (
            si.StarMeasure.full(si.grid_1d(27, 0, 10), si.TNorm("minimum")),
            si.StarMeasure.full(si.grid_1d(30, 0, 1), system.tnorm),
            si.StarMeasure.full(system.space, si.TNorm("minimum")),
        )
        for seed in seeds:
            for depth in (0, 2):
                with pytest.raises(si.DomainError, match="space and t-norm"):
                    si.word_expansion(system, seed, depth)

    def test_depth_zero_returns_seed(self):
        # bit for bit on every case under every t-norm, with no depth-0
        # branch: the empty word sends each grid point to itself, each
        # point snaps to itself and T(1, v) == v
        for make, seed_of, _ in EXPANSION_CASES.values():
            base = make()
            for t in ALL_TNORMS:
                system = si.validate(si.IFSSystem(base.space, base.maps, base.weights, t))
                seed = seed_of(system)
                out = si.word_expansion(system, seed, 0)
                assert out.density.tobytes() == seed.density.tobytes()

    @pytest.mark.parametrize(
        "make, seed_of",
        [
            (make_cantor, full),
            (make_cantor, random_seed),
            # the parent's oracle snapped point 12 elsewhere than psi did
            (make_sheared, lambda s: random_seed(s, 0)),
            (make_sheared, lambda s: si.StarMeasure.dirac(s.space, 12, s.tnorm)),
        ],
        ids=["cantor-full", "cantor-random", "sheared-random", "sheared-dirac"],
    )
    def test_depth_one_equals_psi(self, make, seed_of):
        # one affine arithmetic: a one-letter word is the solver's table
        system = make()
        seed = seed_of(system)
        assert np.array_equal(
            si.word_expansion(system, seed, 1).density, si.psi(system, seed).density
        )

    def test_depth_one_under_hamacher_is_within_the_snap_tolerance(self):
        # the expansion scales each point by T before its max, psi scatters
        # the same T(w, v) values; v1 < v2 are adjacent floats whose images
        # share cell 4, and T(w, .) is monotone float by float, so the two
        # agree bit for bit under every family
        X = si.grid_1d(9, 0, 1)
        maps = [si.ContractionMap.affine([[0.5]], [0.0]), si.ContractionMap.affine([[0.3]], [0.35])]
        w = 0.08564916714362436
        v1, v2 = 0.23681050659610012, 0.23681050659610015
        density = np.zeros(9)
        density[[0, 3, 4]] = 1.0, v1, v2
        for t in ALL_TNORMS:
            system = si.validate(si.IFSSystem(X, maps, [1.0, w], t))
            seed = si.StarMeasure(X, density, t)
            expanded = si.word_expansion(system, seed, 1).density
            assert np.array_equal(expanded, si.psi(system, seed).density)
            assert expanded[4] == t._apply(w, v2)

    def test_image_does_not_depend_on_its_batch(self):
        system = make_rotated()
        coords = system.space.coords
        mats = np.stack([f.matrix for f in system.maps])
        trans = np.stack([f.translation for f in system.maps])
        batch = _affine_images(coords, mats, trans)
        for a, f in enumerate(system.maps):
            img = _affine_images(coords, f.matrix[None], f.translation[None])[0]
            assert np.array_equal(batch[a], img)
            for i in range(len(coords)):
                one = _affine_images(coords[i : i + 1], f.matrix[None], f.translation[None])
                assert np.array_equal(one[0, 0], img[i])

    def test_deep_agreement_with_iteration(self):
        sys_ = make_cantor(n=244)
        seed = si.StarMeasure.full(sys_.space, sys_.tnorm)
        expanded = si.word_expansion(sys_, seed, 8)
        iterated = seed
        for _ in range(8):
            iterated = si.psi(sys_, iterated)
        h, c = sys_.space.spacing, sys_.c
        tol = h * (1 - c**8) / (2 * (1 - c))
        assert np.max(np.abs(expanded.density - iterated.density)) <= tol

    def test_normalization_survives(self, cantor):
        seed = si.StarMeasure.full(cantor.space, cantor.tnorm)
        out = si.word_expansion(cantor, seed, 5)
        assert out.top == 1.0

    def test_tabulated_chaining(self):
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("minimum")
        tables = [
            si.ContractionMap.tabulated(np.zeros(9, dtype=int)),
            si.ContractionMap.tabulated(np.full(9, 8)),
        ]
        sys_ = si.validate(si.IFSSystem(X, tables, [1.0, 1.0], t))
        seed = si.StarMeasure.full(X, t)
        out = si.word_expansion(sys_, seed, 4)
        it = seed
        for _ in range(4):
            it = si.psi(sys_, it)
        assert np.array_equal(out.density, it.density)


class TestAttractorSupport:
    @pytest.mark.parametrize("index", [3.5, True, "0"])
    def test_reference_index_must_be_an_integer(self, cantor, index):
        with pytest.raises(si.DomainError, match="integer point index"):
            si.attractor_support(cantor, 2, reference_index=index)

    @pytest.mark.parametrize("index", [-1, 729])
    def test_reference_index_outside_space(self, cantor, index):
        with pytest.raises(si.DomainError, match="outside the space"):
            si.attractor_support(cantor, 2, reference_index=index)

    def test_single_map_collapses_to_fixed_point(self):
        X = si.grid_1d(65, 0, 1)
        t = si.TNorm("minimum")
        sys_ = si.validate(
            si.IFSSystem(X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], t)
        )
        assert np.array_equal(si.attractor_support(sys_, 12, reference_index=40), [0])

    def test_cantor_depth5_ternary_endpoints(self, cantor):
        pts = si.attractor_support(cantor, 5)
        assert pts.size == 32
        # independent ternary computation of the depth-5 images of x0 = 0
        h = cantor.space.spacing
        expected = []
        for bits in range(32):
            v = 0.0
            for j in range(5):
                if bits >> j & 1:
                    v += 2.0 / 3.0 ** (j + 1)
            expected.append(v)
        got = np.sort(cantor.space.coords[pts, 0])
        assert np.allclose(got, np.sort(expected), atol=h / 2 + 1e-12)

    def test_count_bounded_by_word_count(self, cantor):
        for depth in (1, 3, 6):
            assert si.attractor_support(cantor, depth).size <= 2**depth

    def test_agrees_with_dirac_word_expansion(self):
        sys_ = make_sierpinski(n=16)
        ref = 0
        for depth in (3, 6):
            att = si.attractor_support(sys_, depth, reference_index=ref)
            seed = si.StarMeasure.dirac(sys_.space, ref, sys_.tnorm)
            words = si.word_expansion(sys_, seed, depth)
            assert np.array_equal(att, np.flatnonzero(words.density > 0))

    def test_tabulated_path(self):
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("minimum")
        tables = [
            si.ContractionMap.tabulated(np.zeros(9, dtype=int)),
            si.ContractionMap.tabulated(np.full(9, 8)),
        ]
        sys_ = si.validate(si.IFSSystem(X, tables, [1.0, 1.0], t))
        assert np.array_equal(si.attractor_support(sys_, 3, reference_index=4), [0, 8])


class TestHutchinsonFixedSet:
    def test_matches_degenerate_solve(self):
        sys_ = make_cantor(n=123, weights=(1.0, 1.0), family="minimum")
        out, _ = si.solve(sys_, tol=1e-9)
        support = np.flatnonzero(out.density > 0)
        assert np.array_equal(si.hutchinson_fixed_set(sys_), support)

    def test_single_map(self):
        X = si.grid_1d(33, 0, 1)
        sys_ = si.validate(
            si.IFSSystem(
                X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], si.TNorm("minimum")
            )
        )
        assert np.array_equal(si.hutchinson_fixed_set(sys_), [0])


class TestLemmaFuzzer:
    def test_report_passes_and_is_tight(self):
        X = si.grid_1d(8, 0, 1)
        Y = si.grid_1d(8, 0, 1)
        report = lemma_prod_fuzzer(X, Y, trials=100, rng_seed=77)
        assert report.passed
        assert report.violations == 0
        assert report.tight_ratio == 1.0
        assert report.max_ratio == 1.0

    def test_equal_pairs_have_zero_distance(self):
        X = si.grid_1d(5, 0, 1)
        Y = si.grid_1d(4, 0, 1)
        pairs = np.array([[0, 1], [3, 2], [4, 0]])
        assert pairs_hausdorff(X, Y, pairs, pairs) == 0.0

    def test_deterministic_given_seed(self):
        X = si.grid_1d(6, 0, 1)
        Y = si.grid_1d(5, 0, 1)
        a = lemma_prod_fuzzer(X, Y, trials=20, rng_seed=3)
        b = lemma_prod_fuzzer(X, Y, trials=20, rng_seed=3)
        assert a == b

    def test_fuzzer_distance_matches_product_space_hausdorff(self):
        # dual route: the fuzzer's pair distance vs a sup-inf brute force
        # over the materialized product matrix
        X = si.grid_1d(5, 0, 1)
        Y = si.grid_1d(4, 0, 2)
        P = product_metric(X, Y)
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = np.column_stack(
                [rng.integers(0, X.n, 6), rng.integers(0, Y.n, 6)]
            )
            b = np.column_stack(
                [rng.integers(0, X.n, 4), rng.integers(0, Y.n, 4)]
            )
            direct = pairs_hausdorff(X, Y, a, b)
            d = P[np.ix_(a[:, 0] * Y.n + a[:, 1], b[:, 0] * Y.n + b[:, 1])]
            via_product = max(d.min(axis=1).max(), d.min(axis=0).max())
            assert direct == via_product

    def test_requires_one_trial(self):
        X = si.grid_1d(4, 0, 1)
        with pytest.raises(si.DomainError):
            lemma_prod_fuzzer(X, X, trials=0, rng_seed=0)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_trials_must_be_an_integer(self, trials):
        # 2.5 used to fail with a TypeError from range()
        X = si.grid_1d(4, 0, 1)
        with pytest.raises(si.DomainError, match="integer"):
            lemma_prod_fuzzer(X, X, trials=trials, rng_seed=0)
