import numpy as np
import pytest

import starifs as si

from conftest import make_cantor, make_sierpinski


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


class TestWordExpansion:
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
        from starifs.oracle import _pairs_hausdorff

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
        from starifs.oracle import _pairs_hausdorff

        X = si.grid_1d(5, 0, 1)
        Y = si.grid_1d(4, 0, 2)
        P = si.product_metric(X, Y)
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
