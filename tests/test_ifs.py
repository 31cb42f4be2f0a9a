import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starifs as si

from conftest import ALL_TNORMS, make_cantor, make_sierpinski, random_measure


class TestContractionMap:
    def test_affine_constant_is_operator_norm(self):
        m = si.ContractionMap.affine([[0.3, 0.1], [0.0, 0.4]], [0.0, 0.0])
        X = si.grid_2d(4, 4, ((0, 1), (0, 1)))
        assert m.contraction_constant(X) == pytest.approx(
            np.linalg.norm([[0.3, 0.1], [0.0, 0.4]], 2)
        )

    def test_snapped_table_matches_snap(self):
        X = si.grid_1d(9, 0, 1)
        m = si.ContractionMap.affine([[0.5]], [0.25])
        tbl = m.snapped_table(X)
        assert np.array_equal(tbl, X.snap(X.coords * 0.5 + 0.25))

    def test_tabulated_constant(self):
        X = si.grid_1d(5, 0, 1)
        const = si.ContractionMap.tabulated(np.zeros(5, dtype=int))
        assert const.contraction_constant(X) == 0.0
        shift = si.ContractionMap.tabulated(np.array([0, 0, 1, 2, 3]))
        assert shift.contraction_constant(X) == 1.0

    @pytest.mark.parametrize(
        "space",
        [
            si.grid_1d(37, -0.4, 1.3),
            si.grid_2d(9, 7, ((0, 1), (0.2, 3.3))),
            si.FiniteMetricSpace(si.grid_2d(6, 5, ((0, 1), (0, 1))).dist),
        ],
        ids=["1d", "2d", "dense"],
    )
    @pytest.mark.parametrize("pair_block", [1, 100, 2**18])
    def test_tabulated_constant_is_the_dense_ratio(self, space, pair_block, monkeypatch):
        # row blocks of one row, of a few rows and of the whole space
        monkeypatch.setattr(si.ifs, "_PAIR_BLOCK", pair_block)
        rng = np.random.default_rng(space.n)
        d = space.dist
        off = ~np.eye(space.n, dtype=bool)
        tables = [rng.integers(0, space.n, space.n), np.arange(space.n)[::-1], np.zeros(space.n)]
        for table in tables:
            t = table.astype(int)
            dense = float((d[np.ix_(t, t)][off] / d[off]).max())
            assert si.ContractionMap.tabulated(table).contraction_constant(space) == dense

    def test_tabulated_constant_never_builds_a_grid_matrix(self):
        X = si.grid_2d(48, 48, ((0, 1), (0, 1)))
        half = [[0.5, 0.0], [0.0, 0.5]]
        maps = [si.ContractionMap.tabulated(np.zeros(X.n)), si.ContractionMap.affine(half, [0, 0])]
        tracemalloc.start()
        try:
            si.validate(si.IFSSystem(X, maps, [1.0, 1.0], si.TNorm("min")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense matrix alone is 8 * 2304**2 bytes = 42 MB
        assert "dist" not in vars(X)
        assert peak < 16e6

    @pytest.mark.parametrize(
        "table",
        [
            [0.5, 1.7],
            [np.nan, 1],
            [0, np.inf],
            [True, False],
            ["0", "1"],
            [1e30, 0],
            np.array([2**63, 0], dtype=np.uint64),
        ],
    )
    def test_tabulated_entries_must_be_finite_integers(self, table):
        # [0.5, 1.7] used to be truncated to [0, 1]; entries beyond int64
        # were cast to INT64_MIN or wrapped
        with pytest.raises(si.DomainError, match="finite integers"):
            si.ContractionMap.tabulated(table)

    def test_tabulated_accepts_integral_floats(self):
        m = si.ContractionMap.tabulated([1.0, 0.0])
        assert m.table.dtype == np.int64 and m.table.tolist() == [1, 0]

    def test_affine_shape_mismatch(self):
        with pytest.raises(si.DomainError):
            si.ContractionMap.affine([[0.5, 0.1]], [0.0])

    def test_affine_rejects_nonfinite(self):
        for matrix, translation in (([[np.nan]], [0.0]), ([[0.5]], [np.inf])):
            with pytest.raises(si.DomainError, match="finite"):
                si.ContractionMap.affine(matrix, translation)


class TestValidate:
    def test_cantor_valid(self, cantor):
        assert cantor.c == pytest.approx(1 / 3)
        assert len(cantor.tables) == 2

    def test_weights_need_max_one(self):
        X = si.grid_1d(10, 0, 1)
        maps = [si.ContractionMap.affine([[0.5]], [0.0])] * 2
        sys_ = si.IFSSystem(X, maps, [0.5, 0.7], si.TNorm("product"))
        with pytest.raises(si.WeightError, match="max λ = 0.7"):
            si.validate(sys_)

    def test_weights_above_one_rejected(self):
        X = si.grid_1d(10, 0, 1)
        maps = [si.ContractionMap.affine([[0.5]], [0.0])]
        with pytest.raises(si.DomainError):
            si.validate(si.IFSSystem(X, maps, [1.2], si.TNorm("product")))
        for bad in (np.nan, np.inf):
            with pytest.raises(si.DomainError, match="finite"):
                si.validate(si.IFSSystem(X, maps * 2, [1.0, bad], si.TNorm("product")))

    def test_identity_table_not_a_contraction(self):
        X = si.grid_1d(10, 0, 1)
        ident = si.ContractionMap.tabulated(np.arange(10))
        with pytest.raises(si.NotAContractionError):
            si.validate(si.IFSSystem(X, [ident], [1.0], si.TNorm("product")))

    def test_expanding_affine_rejected(self):
        X = si.grid_1d(10, 0, 1)
        grow = si.ContractionMap.affine([[1.01]], [0.0])
        with pytest.raises(si.NotAContractionError):
            si.validate(si.IFSSystem(X, [grow], [1.0], si.TNorm("product")))

    def test_coverage_error(self):
        X = si.grid_1d(10, 0, 1)
        escape = si.ContractionMap.affine([[0.5]], [5.0])
        with pytest.raises(si.CoverageError):
            si.validate(si.IFSSystem(X, [escape], [1.0], si.TNorm("product")))

    def test_empty_system_rejected(self):
        X = si.grid_1d(10, 0, 1)
        with pytest.raises(si.DomainError):
            si.validate(si.IFSSystem(X, [], [], si.TNorm("product")))


class TestFrozenSystem:
    def test_caller_arrays_cannot_change_validated_system(self):
        X = si.grid_1d(5, 0, 1)
        tbl = np.zeros(5, dtype=np.int64)
        matrix = np.array([[0.5]])
        weights = np.array([1.0, 0.5])
        maps = [si.ContractionMap.tabulated(tbl), si.ContractionMap.affine(matrix, [0.0])]
        sys_ = si.validate(si.IFSSystem(X, maps, weights, si.TNorm("product")))
        assert sys_.c == 0.5
        tbl[:] = [4, 3, 2, 1, 0]  # a reflection, constant 1
        matrix[0, 0] = 2.0
        weights[:] = [0.5, 1.0]
        assert np.array_equal(sys_.tables[0], np.zeros(5))
        assert np.array_equal(sys_.maps[1].matrix, [[0.5]])
        assert np.array_equal(sys_.weights, [1.0, 0.5])
        assert sys_.c == 0.5
        with pytest.raises(ValueError):
            sys_.tables[1][0] = 4

    def test_tables_are_one_read_only_array(self, cantor):
        tables = cantor.tables
        assert isinstance(tables, np.ndarray)
        assert tables.shape == (2, cantor.space.n) and tables.dtype == np.int64
        assert not tables.flags.writeable

    def test_validated_system_is_frozen(self, cantor):
        for name, value in (("c", 0.1), ("tables", ()), ("weights", [1.0, 1.0])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cantor, name, value)
        with pytest.raises(TypeError):  # derived fields come from validate only
            si.IFSSystem(cantor.space, cantor.maps, cantor.weights, cantor.tnorm, c=0.1)

    def test_validate_leaves_argument_unvalidated(self):
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("product")
        raw = si.IFSSystem(X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], t)
        sys_ = si.validate(raw)
        assert sys_ is not raw and sys_.c == 0.5
        assert raw.c is None and raw.tables is None

    ENTRY_POINTS = {
        "psi": si.psi,
        "residual": si.residual,
        "solve": lambda s, mu: si.solve(s),
        "word_expansion": lambda s, mu: si.word_expansion(s, mu, 0),
        "attractor_support": lambda s, mu: si.attractor_support(s, 1),
        "hutchinson_fixed_set": lambda s, mu: si.hutchinson_fixed_set(s),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_unvalidated_system_rejected(self, entry):
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("product")
        raw = si.IFSSystem(X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], t)
        with pytest.raises(si.PreconditionError):
            self.ENTRY_POINTS[entry](raw, si.StarMeasure.full(X, t))


def psi_by_hand(system, mu):
    """Direct double-loop evaluation of the operator's defining formula."""
    out = np.zeros(system.space.n)
    for w, tbl in zip(system.weights, system.tables):
        for x in range(system.space.n):
            y = tbl[x]
            out[y] = max(out[y], system.tnorm.apply(float(w), float(mu.density[x])))
    return out


def ultrametric_halving(tnorm, depth=5):
    """Two tabulated maps on the 2**depth leaves of a binary tree.

    d(x, y) = 2**(bit length of x ^ y - depth) is an ultrametric; the
    map x -> (x >> 1) | (b << (depth - 1)) halves every distance and is
    two-to-one, so the system has c = 1/2 and nontrivial preimages.
    """
    x = np.arange(2**depth)
    maps = [si.ContractionMap.tabulated((x >> 1) | (b << (depth - 1))) for b in (0, 1)]
    return si.validate(si.IFSSystem(binary_tree(depth), maps, [1.0, 0.6], tnorm))


def binary_tree(depth):
    """The 2**depth leaves of a binary tree under the ultrametric
    d(x, y) = 2**(bit length of x ^ y - depth)."""
    x = np.arange(2**depth)
    xor = x[:, None] ^ x[None, :]
    bits = np.frexp(xor.astype(float))[1]  # bit length of a positive integer
    return si.FiniteMetricSpace(np.where(xor > 0, 2.0 ** (bits - depth), 0.0))


class TestTabulatedAttractor:
    def test_equals_word_expansion_support(self):
        system = ultrametric_halving(si.TNorm("minimum"))
        for ref in (0, 13, 31):
            seed = si.StarMeasure.dirac(system.space, ref, system.tnorm)
            for depth in range(8):
                support = np.flatnonzero(si.word_expansion(system, seed, depth).density)
                att = si.attractor_support(system, depth, reference_index=ref)
                assert np.array_equal(att, support)

    def test_memory_does_not_grow_with_words(self):
        # holding all 2^19 word images at once took 10 MB
        system = ultrametric_halving(si.TNorm("product"), depth=6)
        si.attractor_support(system, 1)  # the first call pays numpy's lazy imports
        tracemalloc.start()
        try:
            support = si.attractor_support(system, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(support, np.arange(64))
        assert peak < 2**20


class TestPsi:
    def test_constant_map_gives_dirac(self):
        X = si.grid_1d(8, 0, 1)
        for t in ALL_TNORMS:
            sys_ = si.validate(
                si.IFSSystem(X, [si.ContractionMap.affine([[0.0]], [0.5])], [1.0], t)
            )
            mu = si.StarMeasure.full(X, t)
            out = si.psi(sys_, mu)
            expect = np.zeros(X.n)
            expect[X.snap(np.array([[0.5]]))[0]] = 1.0
            assert np.array_equal(out.density, expect)

    def test_identity_acting_map(self):
        # the snapped table of x -> 0.999999 x is the identity on a
        # coarse grid, so psi with weight 1 must fix every measure
        X = si.grid_1d(5, 0, 1)
        t = si.TNorm("product")
        sys_ = si.validate(
            si.IFSSystem(X, [si.ContractionMap.affine([[0.999999]], [0.0])], [1.0], t)
        )
        assert np.array_equal(sys_.tables[0], np.arange(5))
        mu = si.StarMeasure(X, [0.2, 1.0, 0.4, 0.0, 0.7], t)
        assert np.array_equal(si.psi(sys_, mu).density, mu.density)

    def test_cantor_one_step_hand_check(self):
        sys_ = make_cantor(n=28)
        mu = si.StarMeasure.full(sys_.space, sys_.tnorm)
        out = si.psi(sys_, mu)
        assert np.array_equal(out.density, psi_by_hand(sys_, mu))
        # density 1 on the snap of [0, 1/3], 0.5 on the snap of [2/3, 1]
        left = np.unique(sys_.tables[0])
        right = np.unique(sys_.tables[1])
        assert np.all(out.density[left] == 1.0)
        assert np.all(out.density[right] == 0.5)
        middle = np.setdiff1d(np.arange(28), np.union1d(left, right))
        assert middle.size > 0 and np.all(out.density[middle] == 0.0)

    def test_matches_hand_formula_randomized(self):
        # psi against the defining double loop and against the public
        # pushforward / scale / max_union composition, bit for bit
        rng = np.random.default_rng(21)
        for t in ALL_TNORMS:
            affine = make_cantor(30, (0.8, 1.0), t.family, t.parameter)
            for sys_ in (affine, ultrametric_halving(t)):
                for _ in range(5):
                    mu = random_measure(sys_.space, t, rng)
                    out = si.psi(sys_, mu).density
                    parts = [
                        si.scale(w, si.pushforward(tbl, mu))
                        for w, tbl in zip(sys_.weights, sys_.tables)
                    ]
                    assert np.array_equal(out, si.max_union(parts).density)
                    assert np.array_equal(out, psi_by_hand(sys_, mu))

    def test_normalization_preserved(self):
        rng = np.random.default_rng(22)
        for family in ("minimum", "product", "lukasiewicz"):
            sys_ = make_cantor(n=50, weights=(1.0, rng.uniform()), family=family)
            mu = si.StarMeasure.full(sys_.space, sys_.tnorm)
            for _ in range(5):
                mu = si.psi(sys_, mu)
                assert mu.top == 1.0

    def test_space_mismatch(self, cantor):
        other = si.grid_1d(10, 0, 1)
        mu = si.StarMeasure.full(other, cantor.tnorm)
        with pytest.raises(si.DomainError):
            si.psi(cantor, mu)
        # the same point count on a different grid
        wide = si.StarMeasure.full(si.grid_1d(cantor.space.n, 0, 10), cantor.tnorm)
        with pytest.raises(si.DomainError):
            si.psi(cantor, wide)


class TestErrorBound:
    def test_examples(self):
        assert si.error_bound(0, 0.5, 2.0) == 2.0
        assert si.error_bound(3, 0.5, 1.0) == 0.125
        assert si.error_bound(20, 0.5, 1.0) == pytest.approx(9.5367431640625e-07)

    @pytest.mark.parametrize("n", [2**63, 2**1024, 10**400], ids=["2**63", "2**1024", "10**400"])
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0 - 2**-53])
    def test_huge_counts_underflow_to_zero(self, n, c):
        # a count beyond the float range raised OverflowError
        assert si.error_bound(n, c, 1.0) == 0.0

    def test_counts_below_the_clamp_unchanged(self):
        c = 1.0 - 2**-53
        for n in (2**61, 2**62, 2**63 - 1):
            assert si.error_bound(n, c, 3.0) == float(c**n * 3.0)

    def test_rejects_non_contraction(self):
        with pytest.raises(si.DomainError):
            si.error_bound(3, 1.0, 1.0)
        with pytest.raises(si.DomainError):
            si.error_bound(3, 0.5, 0.0)

    @pytest.mark.parametrize(
        "n, diam",
        [(np.nan, 1.0), (2.5, 1.0), (True, 1.0), (3, np.nan), (3, np.inf)],
        ids=["nan-count", "fractional-count", "bool-count", "nan-diam", "inf-diam"],
    )
    def test_rejects_non_integer_counts_and_nonfinite_diameters(self, n, diam):
        # these returned nan, 0.177, 0.5, nan and inf
        with pytest.raises(si.DomainError):
            si.error_bound(n, 0.5, diam)


class TestSolve:
    def test_single_map_dirac_fixed_point(self):
        X = si.grid_1d(257, 0, 1)
        for t in ALL_TNORMS:
            sys_ = si.validate(
                si.IFSSystem(X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], t)
            )
            out, report = si.solve(sys_, tol=1e-9)
            expect = np.zeros(X.n)
            expect[0] = 1.0
            assert np.array_equal(out.density, expect)
            assert si.residual(sys_, out, si.LevelGrid(256)) == 0.0
            assert report.stopped_by == "fixedPoint"

    def test_huge_tolerance_stops_immediately(self, cantor):
        seed = si.StarMeasure.dirac(cantor.space, 5, cantor.tnorm)
        out, report = si.solve(cantor, seed=seed, tol=cantor.space.diameter)
        assert report.iterations == 0
        assert report.stopped_by == "bound"
        assert report.apriori_bound == cantor.space.diameter
        assert report.final_residual is None

    def test_zero_max_iter_stops_before_a_step(self, cantor):
        seed = si.StarMeasure.dirac(cantor.space, 5, cantor.tnorm)
        out, report = si.solve(cantor, seed=seed, max_iter=0)
        assert out is seed
        assert (report.iterations, report.stopped_by) == (0, "maxIterations")
        assert report.final_residual is None
        assert report.apriori_bound == cantor.space.diameter

    def test_seed_must_match_space_and_tnorm(self, cantor):
        wide = si.grid_1d(cantor.space.n, 0, 10)
        with pytest.raises(si.DomainError):
            si.solve(cantor, seed=si.StarMeasure.full(wide, cantor.tnorm))
        with pytest.raises(si.DomainError):
            si.solve(cantor, seed=si.StarMeasure.full(cantor.space, si.TNorm("minimum")))

    def test_max_iter_stop(self, cantor):
        seed = si.StarMeasure.dirac(cantor.space, 5, cantor.tnorm)
        out, report = si.solve(cantor, seed=seed, tol=1e-15, max_iter=1)
        assert report.iterations == 1
        assert report.stopped_by == "maxIterations"

    def test_bound_stop_records_bound(self, cantor):
        # tolerance reachable by the a priori bound before the residual
        seed = si.StarMeasure.dirac(cantor.space, 5, cantor.tnorm)
        out, report = si.solve(cantor, seed=seed, tol=0.3, max_iter=50)
        assert report.stopped_by in ("residual", "bound")
        if report.stopped_by == "bound":
            assert report.apriori_bound <= 0.3

    def test_report_invariants(self, cantor):
        out, report = si.solve(cantor, tol=1e-6)
        assert report.final_residual >= 0.0
        assert report.apriori_bound == pytest.approx(
            cantor.c**report.iterations * cantor.space.diameter
        )
        assert report.wall_time >= 0.0
        d = report.to_dict()
        assert set(d) == {
            "iterations",
            "finalResidual",
            "aprioriBound",
            "stoppedBy",
            "wallTime",
        }

    def test_monotone_chain_from_full_seed(self, cantor):
        mu = si.StarMeasure.full(cantor.space, cantor.tnorm)
        for _ in range(8):
            nxt = si.psi(cantor, mu)
            assert np.all(nxt.density <= mu.density)
            mu = nxt

    def test_two_seeds_meet_within_bound(self):
        sys_ = make_cantor(n=82)
        h = sys_.space.spacing
        m = 64
        lv = si.LevelGrid(m)
        mu = si.StarMeasure.full(sys_.space, sys_.tnorm)
        nu = si.StarMeasure.dirac(sys_.space, 81, sys_.tnorm)
        for n in range(1, 11):
            mu, nu = si.psi(sys_, mu), si.psi(sys_, nu)
            gap = si.hypograph_hausdorff(sys_.space, mu.density, nu.density, lv)
            assert gap <= sys_.c**n * sys_.space.diameter + 2 * h + 2 / m

    def test_grid_solve_is_matrix_free(self):
        # the dense 96^2 x 96^2 distance matrix alone would take 679 MB
        tracemalloc.start()
        try:
            system = make_sierpinski(96)
            _, report = si.solve(system, tol=1e-9, max_iter=200)
            # a Dirac seed is iterated, so its solve computes residuals
            centre = si.StarMeasure.dirac(system.space, 48 * 96 + 48, system.tnorm)
            _, iterated = si.solve(system, seed=centre, tol=1e-9, max_iter=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stopped_by == "fixedPoint"
        assert iterated.stopped_by == "residual"
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_nonfinite_tol(self, cantor, tol):
        with pytest.raises(si.DomainError, match="finite"):
            si.solve(cantor, tol=tol, max_iter=5)

    def test_rejects_nonpositive_tol(self, cantor):
        with pytest.raises(si.DomainError):
            si.solve(cantor, tol=0.0)

    @pytest.mark.parametrize("field", ["max_iter", "level_resolution"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_counts_must_be_integers(self, field, value):
        # level_resolution=2.5 used to stop on a residual of 0.0
        with pytest.raises(si.DomainError, match="integer"):
            si.solve(make_cantor(27), **{field: value})

    def test_rejects_negative_max_iter(self, cantor):
        with pytest.raises(si.DomainError, match=">= 0"):
            si.solve(cantor, max_iter=-1)


def halves(weights, tnorm=si.TNorm("product"), n=101):
    """x -> x/2 and x -> x/2 + 1/2 on an n-point grid of [0, 1]."""
    X = si.grid_1d(n, 0, 1)
    maps = [si.ContractionMap.affine([[0.5]], [b]) for b in (0.0, 0.5)]
    return si.validate(si.IFSSystem(X, maps, list(weights), tnorm))


@st.composite
def small_systems(draw):
    """A validated system with 2 or 3 maps on a small space: a 1-D grid
    or a 2-D grid of at most 12 x 12 (affine or constant tabulated maps),
    or a binary tree (tabulated halving maps, as in
    ``ultrametric_halving``, followed by a random isometry x -> x ^ mask)."""
    tnorm = draw(st.sampled_from(ALL_TNORMS))
    kind = draw(st.sampled_from(["grid1d", "grid2d", "tree"]))
    k = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    maps = []
    if kind == "tree":
        depth = draw(st.integers(2, 5))
        space = binary_tree(depth)
        x = np.arange(space.n)
        for _ in range(k):
            halving = (x >> 1) | (draw(st.integers(0, 1)) << (depth - 1))
            maps.append(si.ContractionMap.tabulated(halving ^ draw(st.integers(0, space.n - 1))))
    else:
        dim = 1 if kind == "grid1d" else 2
        if dim == 1:
            space = si.grid_1d(draw(st.integers(2, 40)), 0.0, 1.0)
        else:
            counts = [draw(st.integers(2, 12)) for _ in range(2)]
            space = si.grid_2d(*counts, ((0, 1), (0, 1)))
        corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])[: 2**dim, :dim]
        for _ in range(k):
            if draw(st.integers(0, 3)) == 0:
                target = draw(st.integers(0, space.n - 1))
                maps.append(si.ContractionMap.tabulated(np.full(space.n, target)))
                continue
            # entries of at most 0.9 / dim keep the 2-norm below 0.9
            entry = st.floats(-0.9 / dim, 0.9 / dim)
            matrix = np.array([[draw(entry) for _ in range(dim)] for _ in range(dim)])
            images = corners @ matrix.T
            lo, hi = images.min(axis=0), images.max(axis=0)
            # a translation that keeps the image of the unit cube inside it
            shift = [-a + draw(unit) * (1.0 - (b - a)) for a, b in zip(lo, hi)]
            maps.append(si.ContractionMap.affine(matrix, shift))
    weights = [draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9]), unit)) for _ in range(k)]
    weights[draw(st.integers(0, k - 1))] = 1.0
    return si.validate(si.IFSSystem(space, maps, weights, tnorm))


class TestPathSweep:
    @pytest.mark.parametrize("weight", [0.99, 0.999])
    def test_halves_repro_is_exact(self, weight):
        # the iteration stopped 0.740 (0.99) and 0.987 (0.999) above the
        # fixed point at x = 1, the second with a residual of 0.0
        system = halves((1.0, weight))
        out, report = si.solve(system, tol=1e-9)
        assert out.density[-1] == 0.0
        assert report.stopped_by == "fixedPoint"
        assert report.final_residual == 0.0
        assert np.array_equal(si.psi(system, out).density, out.density)

    def test_report_counts_rounds(self, cantor):
        out, report = si.solve(cantor, max_iter=0)
        assert report.stopped_by == "fixedPoint" and report.iterations > 0
        assert report.apriori_bound == si.error_bound(
            report.iterations, cantor.c, cantor.space.diameter
        )

    def test_uncertified_density_raises(self, cantor, monkeypatch):
        # the full density is not a fixed point of the Cantor system
        monkeypatch.setattr(si.ifs, "_path_sweep", lambda s: (np.ones(s.space.n), 1))
        with pytest.raises(si.ValidationError, match="fixed point"):
            si.solve(cantor)

    @settings(max_examples=60, deadline=None)
    @given(system=small_systems())
    def test_full_seed_output_is_the_chain_limit(self, system):
        g, report = si.solve(system)
        assert report.stopped_by == "fixedPoint"
        assert np.array_equal(si.psi(system, g).density, g.density)
        mu = si.StarMeasure.full(system.space, system.tnorm)
        for step in range(2000):
            if step < 200:
                assert np.all(g.density <= mu.density)
            nxt = si.psi(system, mu)
            if np.array_equal(nxt.density, mu.density):
                # the chain keeps subnormal residues that are 0 in exact arithmetic
                residue = g.density != mu.density
                assert np.all(np.maximum(g.density, mu.density)[residue] <= 1e-300)
                break
            mu = nxt


class TestResidual:
    def test_positive_for_non_invariant(self, cantor):
        seed = si.StarMeasure.full(cantor.space, cantor.tnorm)
        assert si.residual(cantor, seed) > 0.0

    def test_perturbation_detected(self, cantor):
        out, _ = si.solve(cantor, tol=1e-9)
        assert si.residual(cantor, out) == 0.0
        bumped = out.density.copy()
        mid = cantor.space.n // 2
        bumped[mid] = min(1.0, bumped[mid] + 0.25)
        assert si.residual(cantor, si.StarMeasure(cantor.space, bumped, cantor.tnorm)) > 0.0
