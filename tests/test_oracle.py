import itertools
import tracemalloc

import numpy as np
import pytest

import starifs as si
from starifs import oracle

from conftest import make_cantor, make_sierpinski, product_metric


def reference_words(system, depth):
    """Every Word by the per-word recursion, one composition per call.

    Test oracle for the blocked word generator: the same left-to-right
    composition, one word at a time, in lexicographic order.
    """
    space = system.space
    if all(m.kind == "affine" for m in system.maps):
        dim = space.coords.shape[1]
        root = si.Word((), 1.0, np.eye(dim), np.zeros(dim))
    else:
        root = si.Word((), 1.0, table=np.arange(space.n, dtype=np.int64))

    def extend(word, letter):
        f = system.maps[letter]
        weight = system.tnorm.apply(word.weight, float(system.weights[letter]))
        letters = word.letters + (letter,)
        if word.table is None:
            return si.Word(
                letters,
                weight,
                word.matrix @ f.matrix,
                word.matrix @ f.translation + word.translation,
            )
        return si.Word(letters, weight, table=word.table[system.tables[letter]])

    def walk(word, remaining):
        if remaining == 0:
            yield word
            return
        for letter in range(system.k):
            yield from walk(extend(word, letter), remaining - 1)

    yield from walk(root, depth)


def per_word_expansion(system, seed, depth):
    """The word expansion one word at a time: snap, then one max per word."""
    space = system.space
    out = np.zeros(space.n)
    for word in reference_words(system, depth):
        if word.table is not None:
            targets = word.table
        else:
            targets = space.snap(space.coords @ word.matrix.T + word.translation)
        np.maximum.at(out, targets, system.tnorm.apply(word.weight, seed.density))
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


def make_dense():
    """Two halving maps on a user-supplied dense space of random points."""
    pts = np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 60))
    space = si.FiniteMetricSpace(np.abs(pts[:, None] - pts[None, :]), coords=pts[:, None])
    maps = [
        si.ContractionMap.affine([[0.5]], [0.0]),
        si.ContractionMap.affine([[0.5]], [0.5]),
    ]
    return si.validate(si.IFSSystem(space, maps, [1.0, 0.7], si.TNorm("product")))


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


def random_seed(system, rng_seed=11):
    rng = np.random.default_rng(rng_seed)
    density = rng.uniform(0.0, 1.0, system.space.n)
    density[rng.integers(system.space.n)] = 1.0
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
    "dense": (make_dense, random_seed, 8),
    "deep": (lambda: make_cantor(27), full, 13),
    "tabulated": (make_mixed, random_seed, 5),
}


class TestWords:
    def test_counts_and_weights(self, cantor):
        words = list(si.enumerate_words(cantor, 3))
        assert len(words) == 8
        for w in words:
            lam = [cantor.weights[i] for i in w.letters]
            assert w.weight == cantor.tnorm.fold(lam)
        assert max(w.weight for w in words) == 1.0

    def test_depth_zero_is_empty_word(self, cantor):
        (w,) = list(si.enumerate_words(cantor, 0))
        assert w.letters == ()
        assert w.weight == 1.0
        assert np.array_equal(w.matrix, np.eye(1))

    def test_exact_composition(self, cantor):
        # word (0, 1): f0 o f1, x -> (x/3 + 2/3)/3
        words = {w.letters: w for w in si.enumerate_words(cantor, 2)}
        w = words[(0, 1)]
        assert w.matrix[0, 0] == pytest.approx(1 / 9)
        assert w.translation[0] == pytest.approx(2 / 9)

    def test_budget_enforced(self, cantor):
        with pytest.raises(si.ResourceBudgetError):
            list(si.enumerate_words(cantor, 21))  # 2^21 > 1e6
        with pytest.raises(si.ResourceBudgetError):
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
            lambda: list(si.enumerate_words(cantor, depth)),
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
            lambda: list(si.enumerate_words(system, depth)),
            lambda: si.word_expansion(system, si.StarMeasure.full(X, t), depth),
            lambda: si.attractor_support(system, depth),
        ]
        for call in calls:
            with pytest.raises(si.ResourceBudgetError):
                call()

    def test_lexicographic_and_equal_to_reference(self, monkeypatch):
        for block in (None, 1, 40, 300):
            if block is not None:
                monkeypatch.setattr(oracle, "_BLOCK", block)
            for system, depth in (
                (make_cantor(27), 6),
                (make_rotated(10), 4),
                (make_mixed(27), 4),
            ):
                words = list(si.enumerate_words(system, depth))
                expected = list(reference_words(system, depth))
                letters = [w.letters for w in words]
                assert letters == list(itertools.product(range(system.k), repeat=depth))
                assert letters == [w.letters for w in expected]
                for got, want in zip(words, expected):
                    assert type(got.weight) is float and got.weight == want.weight
                    for field in ("matrix", "translation", "table"):
                        a, b = getattr(got, field), getattr(want, field)
                        assert (a is None) == (b is None)
                        assert a is None or np.array_equal(a, b)


class TestBlockedExpansion:
    """The blocked oracle against the per-word loop it replaced, bit for bit."""

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
            (make_rotated(12), 4),
            (make_mixed(27), 4),
        ):
            seed = random_seed(system)
            out = si.word_expansion(system, seed, depth)
            assert np.array_equal(out.density, per_word_expansion(system, seed, depth))

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

    def test_attractor_support_memory(self):
        # 3^12 words; holding them all at once took 55 MB
        system = make_sierpinski(64)
        assert traced_peak(lambda: si.attractor_support(system, 12)) < 8 * 2**20

    def test_word_expansion_memory(self):
        system = make_cantor()
        seed = full(system)
        assert traced_peak(lambda: si.word_expansion(system, seed, 12)) < 2 * 2**20

    def test_tabulated_blocks_count_their_tables(self):
        # each tabulated word carries a 2048-long table; 2187 of them take 36 MB
        system = make_mixed(2048)
        seed = full(system)
        assert traced_peak(lambda: si.word_expansion(system, seed, 7)) < 4 * 2**20

        def walk():
            for _ in si.enumerate_words(system, 7):
                pass

        assert traced_peak(walk) < 4 * 2**20


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

    def test_depth_zero_returns_seed(self, cantor):
        seed = si.StarMeasure.full(cantor.space, cantor.tnorm)
        out = si.word_expansion(cantor, seed, 0)
        assert np.array_equal(out.density, seed.density)

    def test_depth_one_equals_psi(self, cantor):
        seed = si.StarMeasure.full(cantor.space, cantor.tnorm)
        assert np.array_equal(
            si.word_expansion(cantor, seed, 1).density, si.psi(cantor, seed).density
        )

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
        report = si.lemma_prod_fuzzer(X, Y, trials=100, rng_seed=77)
        assert report.passed
        assert report.violations == 0
        assert report.tight_ratio == 1.0
        assert report.max_ratio == 1.0

    def test_equal_pairs_have_zero_distance(self):
        from starifs.spaces import _pairs_hausdorff

        X = si.grid_1d(5, 0, 1)
        Y = si.grid_1d(4, 0, 1)
        pairs = np.array([[0, 1], [3, 2], [4, 0]])
        assert _pairs_hausdorff(X, Y, pairs, pairs) == 0.0

    def test_deterministic_given_seed(self):
        X = si.grid_1d(6, 0, 1)
        Y = si.grid_1d(5, 0, 1)
        a = si.lemma_prod_fuzzer(X, Y, trials=20, rng_seed=3)
        b = si.lemma_prod_fuzzer(X, Y, trials=20, rng_seed=3)
        assert a.to_dict() == b.to_dict()

    def test_fuzzer_distance_matches_product_space_hausdorff(self):
        # dual route: the fuzzer's pair distance vs the materialized
        # product space fed to the generic hausdorff
        from starifs.spaces import _pairs_hausdorff

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
            direct = _pairs_hausdorff(X, Y, a, b)
            via_product = si.hausdorff(
                P, a[:, 0] * Y.n + a[:, 1], b[:, 0] * Y.n + b[:, 1]
            )
            assert direct == via_product

    def test_requires_one_trial(self):
        X = si.grid_1d(4, 0, 1)
        with pytest.raises(si.DomainError):
            si.lemma_prod_fuzzer(X, X, trials=0, rng_seed=0)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_trials_must_be_an_integer(self, trials):
        # 2.5 used to fail with a TypeError from range()
        X = si.grid_1d(4, 0, 1)
        with pytest.raises(si.DomainError, match="integer"):
            si.lemma_prod_fuzzer(X, X, trials=trials, rng_seed=0)
