import dataclasses
import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import starifs as si
from starifs.config import RunConfig

from conftest import (
    ALL_TNORMS, exact_limit, exact_orbit, exact_psi, make_cantor, make_sierpinski, random_measure,
)

CONFIGS = Path(__file__).parent / "configs"


def _bounds_norm(s, matrix):
    """Whether s^2 I - A^T A is positive semidefinite, so that s bounds the
    operator 2-norm of A, in exact rationals: every principal minor of
    the matrix, over every subset of its indices, is at least 0."""
    a = [[Fraction(v) for v in row] for row in np.asarray(matrix, dtype=float).tolist()]
    dim = len(a)
    square = Fraction(float(s)) ** 2
    m = [
        [square * (i == j) - sum(a[k][i] * a[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]

    def det(idx):
        total = Fraction(0)
        for perm in itertools.permutations(range(len(idx))):
            inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
            term = Fraction(-1) ** inversions
            for row, col in enumerate(perm):
                term *= m[idx[row]][idx[col]]
            total += term
        return total

    subsets = (idx for size in range(1, dim + 1) for idx in itertools.combinations(range(dim), size))
    return all(det(idx) >= 0 for idx in subsets)


class TestContractionMap:
    def test_affine_constant_is_operator_norm(self):
        m = si.ContractionMap.affine([[0.3, 0.1], [0.0, 0.4]], [0.0, 0.0])
        X = si.grid_2d(4, 4, ((0, 1), (0, 1)))
        assert m.contraction_constant(X) == pytest.approx(
            np.linalg.norm([[0.3, 0.1], [0.0, 0.4]], 2)
        )

    @pytest.mark.parametrize(
        "matrix, c",
        [
            # LAPACK's SVD puts these one and two ulps below the norm
            (np.diag([-0.4971860918541538, 0.2727634298245977]), 0.4971860918541538),
            (np.diag([0.07633957272923778, -0.06099613064970464]), 0.07633957272923778),
            ([[-0.7]], 0.7),
            ([[0.25, -0.0], [0.0, -0.5]], 0.5),
        ],
        ids=["lapack-1ulp-low", "lapack-2ulp-low", "1x1-negative", "negative-zero-off-diagonal"],
    )
    def test_per_axis_scaling_constant_is_exact(self, matrix, c):
        m = si.ContractionMap.affine(matrix, np.zeros(len(matrix)))
        assert m.contraction_constant(si.grid_1d(3, 0, 1)) == c

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 2),
        entries=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        off=st.lists(st.sampled_from([0.0, -0.0]), min_size=4, max_size=4),
        diagonal_only=st.booleans(),
    )
    def test_affine_constant_routing(self, dim, entries, off, diagonal_only):
        """Per-axis scalings get max |a_ii|; any other matrix gets the
        least double that bounds its norm, certified exactly: it passes
        the test and the double below it fails."""
        matrix = np.reshape(entries[: dim * dim], (dim, dim))
        offdiag = ~np.eye(dim, dtype=bool)
        if diagonal_only:
            matrix[offdiag] = np.reshape(off[: dim * dim], (dim, dim))[offdiag]
        c = si.ContractionMap.affine(matrix, np.zeros(dim)).contraction_constant(None)
        if not matrix[offdiag].any():
            assert c == np.abs(np.diagonal(matrix)).max()
        else:
            assert _bounds_norm(c, matrix)
            assert not _bounds_norm(np.nextafter(c, 0.0), matrix)

    @pytest.mark.parametrize(
        "matrix, c",
        [
            # LAPACK's SVD gives 0.4497968677006066, four ulps below the norm
            (
                [[0.006291607350661144, 0.3020570831765945], [0.024851091626092336, 0.33251538160368965]],
                0.44979686770060684,
            ),
            # the sheared map of tests/configs/sheared_dirac.json
            ([[1 / 6, 1 / 2], [-1 / 3, 1 / 6]], 0.5320970672612088),
        ],
        ids=["lapack-4ulp-low", "sheared-dirac"],
    )
    def test_non_diagonal_constant_is_the_least_certified_bound(self, matrix, c):
        m = si.ContractionMap.affine(matrix, np.zeros(2))
        assert m.contraction_constant(None) == c
        assert _bounds_norm(c, matrix) and not _bounds_norm(np.nextafter(c, 0.0), matrix)

    def test_non_finite_lapack_norm_is_the_constant(self):
        # LAPACK's norm of this sheared matrix overflows: no exact test can
        # start from inf, so inf is the constant and validate rejects it
        m = si.ContractionMap.affine([[1.5e308, 1.5e308], [0.0, 1.5e308]], np.zeros(2))
        assert m.contraction_constant(None) == np.inf
        X = si.grid_2d(4, 4, ((0, 1), (0, 1)))
        with pytest.raises(si.NotAContractionError, match="estimated constant inf >= 1$"):
            si.validate(si.IFSSystem(X, [m], [1.0], si.TNorm("product")))

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        scale=st.sampled_from([1.0, 2.0**-40, 2.0**40]),
    )
    def test_non_diagonal_constant_certificate(self, entries, scale):
        # a 1 x 1 matrix is a per-axis scaling, so only 2 x 2 ones are certified
        matrix = scale * np.reshape(entries, (2, 2))
        matrix[0, 1] = matrix[0, 1] or scale / 3.0  # one nonzero off-diagonal entry at least
        c = si.ContractionMap.affine(matrix, np.zeros(2)).contraction_constant(None)
        assert _bounds_norm(c, matrix)
        assert not _bounds_norm(np.nextafter(c, 0.0), matrix)

    @pytest.mark.parametrize(
        "name, svds", [("cantor", 0), ("sierpinski", 0), ("sheared_dirac", 1)]
    )
    def test_only_non_diagonal_maps_call_lapack(self, name, svds, monkeypatch):
        calls = []
        norm = np.linalg.norm

        def recorded(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(np.array(x))
            return norm(x, ord, *args, **kwargs)

        system = RunConfig.from_path(CONFIGS / f"{name}.json").build_system()
        monkeypatch.setattr(np.linalg, "norm", recorded)
        si.validate(system)
        assert len(calls) == svds
        for matrix in calls:
            assert np.count_nonzero(matrix - np.diag(np.diagonal(matrix)))

    def test_snapped_table_matches_snap(self):
        X = si.grid_1d(9, 0, 1)
        m = si.ContractionMap.affine([[0.5]], [0.25])
        (tbl,) = si.validate(si.IFSSystem(X, [m], [1.0], si.TNorm("product"))).tables
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
        ],
        ids=["1d", "2d"],
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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 2))
    def test_non_constant_table_on_square_cells_is_not_a_contraction(self, data, dim):
        # two neighbours go to distinct points, at least one step apart:
        # the ratio is 1 up to the rounding of the coordinates
        n = data.draw(st.integers(2, 39 if dim == 1 else 6))
        X = si.grid_1d(n, 0, 1) if dim == 1 else si.grid_2d(n, n, ((0, 1), (0, 1)))
        table = data.draw(st.lists(st.integers(0, X.n - 1), min_size=X.n, max_size=X.n))
        assume(len(set(table)) > 1)
        assert si.ContractionMap.tabulated(table).contraction_constant(X) >= 1.0 - 1e-12

    def test_tabulated_column_collapse_on_an_anisotropic_grid(self):
        # f(ix, iy) = (0, ix): neighbours along y share an image, and
        # neighbours 0.5 apart along x land 0.125 apart along y
        X = si.grid_2d(3, 5, ((0, 1), (0, 0.5)))
        table = [3 * ix for iy in range(5) for ix in range(3)]
        assert si.ContractionMap.tabulated(table).contraction_constant(X) == 0.25

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

    def test_affine_maps_are_1x1_or_2x2(self):
        # a grid has one or two axes, so no space can take a larger matrix
        with pytest.raises(si.DomainError, match="1x1 or 2x2"):
            si.ContractionMap.affine(0.5 * np.eye(3), np.zeros(3))

    def test_image_coords_checks_map_and_space(self):
        half = si.ContractionMap.affine([[0.5]], [0.0])

        def validate(space):
            return si.validate(si.IFSSystem(space, [half], [1.0], si.TNorm("product")))

        with pytest.raises(si.DomainError, match="needs a grid space"):
            validate(si.grid_1d(2, 0, 1).dist)
        with pytest.raises(si.DomainError, match="dimension does not match"):
            validate(si.grid_2d(2, 2, ((0, 1), (0, 1))))

    def test_snapped_table_needs_one_target_per_point(self):
        const = si.ContractionMap.tabulated([0, 0])
        with pytest.raises(si.DomainError, match="one target per point"):
            si.validate(si.IFSSystem(si.grid_1d(3, 0, 1), [const], [1.0], si.TNorm("product")))

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

    @pytest.mark.parametrize("top", [0.9999999999999, 0.99999999999])
    def test_max_weight_must_be_exactly_one(self, top):
        # 1 - 1e-13 passed as 1, and solve then failed on a density whose top is not 1;
        # 1 - 1e-11 failed, but printed by %g as "max λ = 1"
        X = si.grid_1d(10, 0, 1)
        maps = [si.ContractionMap.affine([[0.5]], [0.0])] * 2
        sys_ = si.IFSSystem(X, maps, [top, 0.5], si.TNorm("product"))
        with pytest.raises(si.WeightError, match=f"max λ = {top!r}$"):
            si.validate(sys_)

    def test_weights_above_one_rejected(self):
        X = si.grid_1d(10, 0, 1)
        maps = [si.ContractionMap.affine([[0.5]], [0.0])]
        with pytest.raises(si.DomainError):
            si.validate(si.IFSSystem(X, maps, [1.2], si.TNorm("product")))
        for bad in (np.nan, np.inf):
            with pytest.raises(si.DomainError, match="finite"):
                si.validate(si.IFSSystem(X, maps * 2, [1.0, bad], si.TNorm("product")))

    def test_one_weight_per_map(self):
        X = si.grid_1d(10, 0, 1)
        maps = [si.ContractionMap.affine([[0.5]], [0.0])] * 3
        with pytest.raises(si.DomainError, match="one weight per map"):
            si.validate(si.IFSSystem(X, maps, [1.0, 0.5], si.TNorm("product")))

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

    def test_affine_maps_need_a_grid(self):
        # a grid is the one space: anything else is refused up front, for
        # affine and tabulated maps alike, before the weights are read
        X = si.grid_1d(28, 0.0, 1.0)
        affine = [si.ContractionMap.affine([[1 / 3]], [t]) for t in (0.0, 2 / 3)]
        const = [si.ContractionMap.tabulated(np.zeros(X.n))]
        for maps, weights in ((affine, [1.0, 1.0]), (const, [0.5])):
            # a bare matrix, nothing, and a copy of a grid's attributes
            for space in (X.dist, None, SimpleNamespace(**vars(X))):
                with pytest.raises(si.DomainError, match="^a system needs a grid space"):
                    si.validate(si.IFSSystem(space, maps, weights, si.TNorm("minimum")))

    def test_coverage_error_excess_in_2d(self):
        X = si.grid_2d(16, 12, ((0, 1), (0, 2)))
        # the hull box is computed once, before the map loop; map 1's worst
        # point leaves it along both axes
        maps = [
            si.ContractionMap.affine([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0]),
            si.ContractionMap.affine([[0.5, 0.1], [-0.1, 0.5]], [0.77, -0.41]),
        ]
        with pytest.raises(si.CoverageError) as info:
            si.validate(si.IFSSystem(X, maps, [1.0, 0.5], si.TNorm("product")))
        assert str(info.value) == "map 1 leaves the grid hull by 0.577062 (> spacing 0.193655)"

    @pytest.mark.parametrize("n, beyond_half", [(16, 29), (32, 286), (64, 1560)])
    def test_snap_moves_an_image_by_spacing_over_two_up_to_ulps(self, n, beyond_half):
        # exact rationals on the grid's float coordinates: some (map, point)
        # pairs of the Sierpinski maps 0.5 x + b land beyond spacing/2 of
        # their snapped point, all of them by a relative 2^-40 at most
        X = si.grid_2d(n, n, ((0.0, 1.0), (0.0, 1.0)))
        maps = [
            si.ContractionMap.affine([[0.5, 0.0], [0.0, 0.5]], b)
            for b in ([0.0, 0.0], [0.5, 0.0], [0.25, 0.5])
        ]
        system = si.validate(si.IFSSystem(X, maps, [1.0, 0.6, 0.8], si.TNorm("product")))
        half2 = (Fraction(X.spacing) / 2) ** 2
        bound2 = half2 * (1 + Fraction(1, 2**40)) ** 2
        coords = [(Fraction(x), Fraction(y)) for x, y in X.coords.tolist()]
        over = 0
        for m, table in zip(maps, system.tables.tolist()):
            # a diagonal matrix: the image is x a_00 + t_0, y a_11 + t_1
            (a, _), (_, d) = [[Fraction(v) for v in row] for row in m.matrix.tolist()]
            tx, ty = (Fraction(v) for v in m.translation.tolist())
            for (x, y), target in zip(coords, table):
                sx, sy = coords[target]
                dist2 = (a * x + tx - sx) ** 2 + (d * y + ty - sy) ** 2
                assert dist2 <= bound2
                over += dist2 > half2
        assert over == beyond_half

    def test_tables_equal_snaps_of_row_major_images(self):
        """Column-major coordinates and images leave every table and ``c`` as
        a row-major evaluation of the same formula gives them."""
        X = si.grid_2d(23, 17, ((-0.5, 1.5), (0.0, 2.0)))
        maps = [
            si.ContractionMap.affine([[0.4, 0.2], [-0.1, 0.45]], [0.3, 0.6]),
            si.ContractionMap.affine([[0.35, -0.15], [0.25, 0.3]], [0.1, 0.2]),
            si.ContractionMap.tabulated(np.full(X.n, 7)),
        ]
        system = si.validate(si.IFSSystem(X, maps, [1.0, 0.7, 0.4], si.TNorm("product")))
        coords = np.ascontiguousarray(X.coords)
        expect = []
        for m in maps[:2]:
            a, t = m.matrix, m.translation
            img = np.ascontiguousarray(
                np.stack([a[i, 0] * coords[:, 0] + a[i, 1] * coords[:, 1] + t[i] for i in (0, 1)], 1)
            )
            assert img.flags.c_contiguous
            expect.append(X.snap(img))
        expect.append(maps[2].table)
        assert np.array_equal(system.tables, np.stack(expect))
        # the least double that bounds both affine maps' norms
        assert all(_bounds_norm(system.c, m.matrix) for m in maps[:2])
        assert not all(_bounds_norm(np.nextafter(system.c, 0.0), m.matrix) for m in maps[:2])

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
            out[y] = max(out[y], float(system.tnorm._apply(float(w), float(mu.density[x]))))
    return out


def two_scatter_psi(system, density):
    """The two-scatter kernel ``psi`` ran before its T(w, .) was
    monotone: per map, push the support's values forward by a max into
    a reset image buffer, then apply T(w, .) once per target."""
    out = np.zeros(system.space.n)
    points = np.flatnonzero(density > 0.0)
    values = density[points]
    image = np.empty_like(out)
    for w, tbl in zip(system.weights, system.tables):
        targets = tbl[points]
        image[targets] = 0.0
        np.maximum.at(image, targets, values)
        np.maximum.at(out, targets, system.tnorm._apply(float(w), image[targets]))
    return out


def kernel_systems(tnorm):
    """A 1-D and a 2-D system under ``tnorm``, each with maps of weight 1
    and below 1."""
    square = make_sierpinski(16)
    return [
        make_cantor(40, (0.8, 1.0), tnorm.family, tnorm.parameter),
        si.validate(si.IFSSystem(square.space, square.maps, [1.0, 0.6, 0.8], tnorm)),
    ]


def fold_grid(n):
    """The n x n grid of [0, 2] x [0, 1]: the x step is twice the y step."""
    return si.grid_2d(n, n, ((0, 2), (0, 1)))


def fold_table(n, b, g):
    """The table of (ix, iy) -> (b, g[ix]) on ``fold_grid(n)``.

    Points differing by dx steps along x are at least 2 dx y steps
    apart, so when |g[i + 1] - g[i]| <= 1 the map halves every distance
    or better: a tabulated contraction that is not constant.
    """
    return np.tile(np.asarray(g) * n + b, n)


def fold_system(tnorm, n=8):
    """(ix, iy) -> (0, ix) and (ix, iy) -> (1, ix // 2) on ``fold_grid(n)``,
    with weights 1 and 0.6: c = 1/2, and both maps many-to-one."""
    ix = np.arange(n)
    maps = [si.ContractionMap.tabulated(fold_table(n, b, g)) for b, g in ((0, ix), (1, ix // 2))]
    return si.validate(si.IFSSystem(fold_grid(n), maps, [1.0, 0.6], tnorm))


class TestTabulatedAttractor:
    def test_equals_word_expansion_support(self):
        system = fold_system(si.TNorm("minimum"))
        assert system.c == 0.5
        for ref in (0, 13, 63):
            seed = si.StarMeasure.dirac(system.space, ref, system.tnorm)
            for depth in range(8):
                support = np.flatnonzero(si.word_expansion(system, seed, depth).density)
                att = si.attractor_support(system, depth, reference_index=ref)
                assert np.array_equal(att, support)

    def test_memory_does_not_grow_with_words(self):
        # holding all 2^19 word images at once took 10 MB
        system = fold_system(si.TNorm("product"))
        si.attractor_support(system, 1)  # the first call pays numpy's lazy imports
        tracemalloc.start()
        try:
            support = si.attractor_support(system, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the images of columns 0 and 1: (0, 0), (1, 0) and (0, 1)
        assert support.tolist() == [0, 1, 8]
        assert np.array_equal(support, si.hutchinson_fixed_set(system))
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
            for sys_ in (affine, fold_system(t)):
                for _ in range(5):
                    mu = random_measure(sys_.space, t, rng)
                    out = si.psi(sys_, mu).density
                    parts = [
                        si.scale(w, si.pushforward(tbl, mu))
                        for w, tbl in zip(sys_.weights, sys_.tables)
                    ]
                    assert np.array_equal(out, si.max_union(parts).density)
                    assert np.array_equal(out, psi_by_hand(sys_, mu))

    def test_sparse_density_matches_hand_formula(self):
        # mostly zeros, some subnormal: the support is all psi reads
        rng = np.random.default_rng(25)
        for t in ALL_TNORMS:
            affine = make_cantor(30, (0.8, 1.0), t.family, t.parameter)
            for sys_ in (affine, fold_system(t)):
                for _ in range(5):
                    n = sys_.space.n
                    density = np.zeros(n)
                    picked = rng.choice(n, 6, replace=False)
                    density[picked[:3]] = rng.uniform(0.0, 1.0, 3)
                    density[picked[3:5]] = 5e-324 * rng.integers(1, 1000, 2)
                    density[picked[5]] = 1.0
                    mu = si.StarMeasure(sys_.space, density, t)
                    out = si.psi(sys_, mu).density
                    parts = [
                        si.scale(w, si.pushforward(tbl, mu))
                        for w, tbl in zip(sys_.weights, sys_.tables)
                    ]
                    assert np.array_equal(out, si.max_union(parts).density)
                    assert np.array_equal(out, psi_by_hand(sys_, mu))

    def test_negative_zero_does_not_depend_on_map_order(self):
        # np.maximum returns its second operand on a tie, so a stored -0.0
        # made cell 4 read -0.0 with the maps in one order and +0.0 in the other
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("minimum")
        density = np.zeros(9)
        density[0], density[8] = 1.0, -0.0
        mu = si.StarMeasure(X, density, t)
        assert not np.signbit(mu.density).any()
        maps = [si.ContractionMap.affine([[0.5]], [0.0]), si.ContractionMap.affine([[0.25]], [0.75])]
        outs = [
            si.psi(si.validate(si.IFSSystem(X, order, [1.0, 1.0], t)), mu).density
            for order in (maps, maps[::-1])
        ]
        assert outs[0][4] == 0.0
        for out in outs:
            assert not np.signbit(out).any()
        assert np.array_equal(outs[0], outs[1])
        # a -0.0 weight is held as +0.0: under product it made every cell
        # its map does not reach read -0.0
        p = si.TNorm("product")
        system = si.validate(si.IFSSystem(X, maps, [1.0, -0.0], p))
        assert not np.signbit(system.weights).any()
        out = si.psi(system, si.StarMeasure(X, np.abs(density), p)).density
        assert not np.signbit(out).any()

    def test_pushforward_max_comes_before_the_tnorm(self):
        # v1 < v2 are adjacent floats that both land on cell 4 under the
        # second map; the Hamacher T(w, .) psi scatters through is monotone
        # to the last bit, so scaling each point before the max gives T of
        # the max
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("hamacher", 0.5)
        w = 0.08564916714362436
        v1, v2 = 0.8964002267475142, 0.8964002267475143
        assert np.nextafter(v1, 1.0) == v2
        assert t._apply(w, v1) <= t._apply(w, v2)
        maps = [si.ContractionMap.affine([[0.5]], [0.0]), si.ContractionMap.affine([[0.3]], [0.35])]
        system = si.validate(si.IFSSystem(X, maps, [1.0, w], t))
        assert system.tables.tolist() == [[0, 0, 1, 1, 2, 2, 3, 3, 4], [3, 3, 3, 4, 4, 4, 5, 5, 5]]
        density = np.zeros(9)
        density[[0, 3, 4]] = 1.0, v1, v2
        out = si.psi(system, si.StarMeasure(X, density, t)).density
        assert out[4] == t._apply(w, v2)

    @pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.config_name())
    def test_one_scatter_equals_the_two_scatter_kernel(self, tnorm):
        # bit for bit, signbits included: max then T
        rng = np.random.default_rng(31)
        for system in kernel_systems(tnorm):
            n = system.space.n
            for size in (1, 5, n // 3, n):
                density = np.zeros(n)
                picked = rng.choice(n, size, replace=False)
                density[picked] = rng.uniform(0.0, 1.0, size)
                subnormal = picked[: max(1, size // 4)]
                density[subnormal] = 5e-324 * rng.integers(1, 2**20, len(subnormal))
                density[picked[-1]] = 1.0
                mu = si.StarMeasure(system.space, density, tnorm)
                out = si.psi(system, mu).density
                expect = two_scatter_psi(system, mu.density)
                assert np.array_equal(out, expect)
                assert np.array_equal(np.signbit(out), np.signbit(expect))

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


def _halves_9():
    """A validated two-map product system on grid_1d(9)."""
    space = si.grid_1d(9, 0.0, 1.0)
    maps = [si.ContractionMap.affine([[0.5]], [0.0]), si.ContractionMap.affine([[0.5]], [0.5])]
    return si.validate(si.IFSSystem(space, maps, [1.0, 0.5], si.TNorm("product")))


UNNORMALIZED_ENTRY_POINTS = {
    "psi": lambda system, mu: si.psi(system, mu),
    "solve": lambda system, mu: si.solve(system, seed=mu),
    "residual": lambda system, mu: si.residual(system, mu),
    "word_expansion": lambda system, mu: si.word_expansion(system, mu, 2),
}


class TestUnnormalizedInput:
    """A density that does not attain 1 is rejected before any step: each
    entry point used to do all its work and then fail with a
    ValidationError while building its own output measure."""

    @pytest.mark.parametrize("call", UNNORMALIZED_ENTRY_POINTS.values(), ids=UNNORMALIZED_ENTRY_POINTS)
    def test_rejected_before_any_step(self, call):
        system = _halves_9()
        half = si.SubDensity(system.space, np.full(system.space.n, 0.5), system.tnorm)
        scatter = mock.patch.object(si.ifs, "_scatter", side_effect=AssertionError("a step ran"))
        blocks = mock.patch.object(si.oracle, "_word_blocks", side_effect=AssertionError("a step ran"))
        with scatter, blocks, pytest.raises(si.DomainError, match="does not attain 1: its top is 0.5"):
            call(system, half)

    @pytest.mark.parametrize("call", UNNORMALIZED_ENTRY_POINTS.values(), ids=UNNORMALIZED_ENTRY_POINTS)
    def test_top_within_tolerance_passes(self, call):
        system = _halves_9()
        n = system.space.n
        full = si.StarMeasure.full(system.space, system.tnorm)
        union = si.max_union([si.StarMeasure.dirac(system.space, 3, system.tnorm), si.scale(0.5, full)])
        near = si.SubDensity(system.space, np.full(n, 1.0 - 1e-13), system.tnorm)
        for mu in (union, near):
            assert type(mu) is si.SubDensity
            call(system, mu)

    def test_star_measure_takes_no_max(self):
        # a StarMeasure's construction cached its top: the check takes no new max
        system = _halves_9()
        mu = si.StarMeasure(system.space, np.linspace(0.0, 1.0, system.space.n), system.tnorm)
        assert vars(mu)["top"] == 1.0
        si.ifs._check_measure(system, mu)


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

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_sub_density_seed_comes_back_a_star_measure(self, max_iter):
        # a top within NORMALIZATION_TOL of 1 passes; the output type does not depend on the stop
        system = halves((1.0, 0.5), n=9)
        seed = si.SubDensity(system.space, [0.3] * 8 + [1.0 - 1e-13], system.tnorm)
        out, report = si.solve(system, seed=seed, max_iter=max_iter)
        assert type(out) is si.StarMeasure
        assert (out.space, out.tnorm) == (system.space, system.tnorm)
        assert (report.iterations, report.stopped_by) == (max_iter, "maxIterations")
        if max_iter == 0:
            assert np.array_equal(out.density, seed.density)

    def test_loop_builds_one_measure(self, cantor):
        # the steps run on raw arrays: no psi call, one measure at the end
        seed = si.StarMeasure.dirac(cantor.space, 5, cantor.tnorm)
        psi_spy = mock.patch.object(si.ifs, "psi", wraps=si.psi)
        measure_spy = mock.patch.object(si.ifs, "StarMeasure", wraps=si.StarMeasure)
        for kwargs in ({"seed": seed, "max_iter": 4}, {"seed": seed}, {}):
            with psi_spy as psi_calls, measure_spy as built:
                out, report = si.solve(cantor, **kwargs)
            assert report.iterations > 0
            assert psi_calls.call_count == 0 and built.call_count == 1
            assert np.array_equal(built.call_args.args[1], out.density)

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
        # c^n diam(X) <= 0.3 before the orbit repeats an iterate
        seed = si.StarMeasure.dirac(cantor.space, 5, cantor.tnorm)
        out, report = si.solve(cantor, seed=seed, tol=0.3, max_iter=50)
        assert report.stopped_by == "bound"
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
            centre = si.StarMeasure.dirac(system.space, 48 * 96 + 48, system.tnorm)
            _, iterated = si.solve(system, seed=centre, tol=1e-9, max_iter=200)
            # a fixed-point stop computes no residual: take one on a 2-D grid
            gap = si.residual(system, centre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stopped_by == "fixedPoint"
        assert iterated.stopped_by == "fixedPoint"
        assert gap > 0.0
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
def small_systems(
    draw,
    tnorms=tuple(ALL_TNORMS),
    weight=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 1.0),
    kinds=("grid1d", "grid2d", "fold"),
):
    """A validated system with 2 or 3 maps under one of ``tnorms`` on a
    small space of one of ``kinds``: a 1-D grid of at most 40 points or a
    2-D grid of at most 12 x 12 (affine or constant tabulated maps), or a
    ``fold_grid`` of at most 8 x 8 (tabulated folds (ix, iy) -> (b, g[ix]),
    g a walk of steps -1, 0 and 1, as in ``fold_system``).  The weights
    are drawn from ``weight``, one set to 1."""
    tnorm = draw(st.sampled_from(tnorms))
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    maps = []
    if kind == "fold":
        n = draw(st.integers(2, 8))
        space = fold_grid(n)
        for _ in range(k):
            steps = draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
            # clipping keeps every step within -1..1
            g = np.clip(draw(st.integers(0, n - 1)) + np.cumsum([0] + steps), 0, n - 1)
            maps.append(si.ContractionMap.tabulated(fold_table(n, draw(st.integers(0, n - 1)), g)))
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
    weights = [draw(weight) for _ in range(k)]
    weights[draw(st.integers(0, k - 1))] = 1.0
    return si.validate(si.IFSSystem(space, maps, weights, tnorm))


def naive_closure(system, start):
    """The raise d <- max(d, psi(d)) with the whole ``psi`` every round,
    until a round returns its input; returns (density, rounds)."""
    density, rounds = start, 0
    while True:
        rounds += 1
        raised = np.maximum(density, si.ifs._psi_density(system, density))
        if np.array_equal(raised, density):
            return density, rounds
        density = raised


def stationary_from_all(tables):
    """The stationary set of S -> U_i table_i(S), iterated from the full
    point set until a step returns its input."""
    current = np.arange(tables.shape[1])
    while True:
        hit = np.zeros(tables.shape[1], dtype=bool)
        hit[tables[:, current]] = True
        nxt = np.flatnonzero(hit)
        if np.array_equal(nxt, current):
            return current
        current = nxt


# start values: zeros, subnormals and ones as well as the unit interval
start_values = st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))


class TestClosure:
    @settings(max_examples=80, deadline=None)
    @given(system=small_systems(), data=st.data())
    def test_equals_the_naive_raise(self, system, data):
        n = system.space.n
        # + 0.0: a start holds no -0.0
        start = np.array(data.draw(st.lists(start_values, min_size=n, max_size=n))) + 0.0
        kept = start.copy()
        density, rounds = si.ifs._closure(system, start)
        expect, expect_rounds = naive_closure(system, start)
        assert rounds == expect_rounds
        assert np.array_equal(density, expect)
        assert not np.signbit(density).any()
        assert np.array_equal(start, kept)


def per_map_scatter(system, out, points, values):
    """The ``_scatter`` that looped over the maps: one max-scatter per
    map, with T skipped at weight 1."""
    for w, tbl in zip(system.weights, system.tables):
        scaled = values if w == 1.0 else system.tnorm._apply(float(w), values)
        np.maximum.at(out, tbl[points], scaled)
    return out


# support values: subnormals, the least normal and 1 as well as the unit interval
support_values = st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1.0]) | st.floats(0.0, 1.0)


class TestScatter:
    @settings(max_examples=200, deadline=None)
    @given(
        system=small_systems(weight=st.sampled_from([0.0, 1.0, 5e-324]) | st.floats(0.0, 1.0)),
        data=st.data(),
    )
    def test_equals_the_per_map_loop(self, system, data):
        """One gather, one broadcast T and one max-scatter give the per-map
        loop's output bit for bit, signed zeros included, on supports of
        every size and over an output that already holds values."""
        n = system.space.n
        size = data.draw(st.integers(0, n))
        points = np.array(data.draw(st.permutations(range(n)))[:size], dtype=np.int64)
        values = np.array(data.draw(st.lists(support_values, min_size=size, max_size=size)), dtype=float)
        held = st.just(-0.0) | start_values
        out = np.array(data.draw(st.lists(held, min_size=n, max_size=n)))
        expect = per_map_scatter(system, out.copy(), points, values)
        got = si.ifs._scatter(system, out.copy(), points, values)
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))


class TestPathSweep:
    @pytest.mark.parametrize("name, rounds", [("cantor", 9), ("hamacher_large", 6), ("sierpinski", 1)])
    def test_full_seed_round_counts(self, name, rounds):
        system = si.validate(RunConfig.from_path(CONFIGS / f"{name}.json").build_system())
        _, report = si.solve(system)
        assert (report.stopped_by, report.iterations) == ("fixedPoint", rounds)

    @settings(max_examples=60, deadline=None)
    @given(system=small_systems(tnorms=[si.TNorm("minimum")]))
    def test_nested_stationary_sets(self, system):
        # under min every positive weight is a source level, and each
        # level's iteration starts from the set of the level below
        calls = []

        def spy(tables, points=None):
            calls.append((tables, points, stationary(tables, points)))
            return calls[-1][2]

        stationary = si.ifs._stationary_set
        with mock.patch.object(si.ifs, "_stationary_set", spy):
            si.ifs._path_sweep(system)
        levels = sorted({w for w in system.weights.tolist() if w > 0.0})
        assert len(calls) == len(levels)
        below = None
        for (tables, points, got), e in zip(calls, levels):
            assert np.array_equal(tables, system.tables[system.weights >= e])
            assert points is below
            assert np.array_equal(got, stationary_from_all(tables))
            below = got

    def test_full_seed_output_is_the_exact_limit(self):
        # under hamacher(0), T(e, e) for e = 1 - 2^-53 is 1 - 2^-52, the
        # correctly rounded value, so e is no source level and the sweep
        # returns 0.0 at x = 1, the exact limit, which psi fixes bit for
        # bit; the float psi chain from the full seed does not stall at e
        # there but keeps falling by an ulp or so a step
        e = 1.0 - 2.0**-53
        t = si.TNorm("hamacher", 0.0)
        assert t._apply(e, e) == 1.0 - 2.0**-52
        system = halves((1.0, e), t, n=9)
        g, _ = si.solve(system)
        assert g.density[-1] == 0.0
        assert np.array_equal(si.psi(system, g).density, g.density)
        mu = si.StarMeasure.full(system.space, system.tnorm)
        tops = []
        for _ in range(100):
            mu = si.psi(system, mu)
            tops.append(mu.density[-1])
        assert tops[0] == e and all(b < a for a, b in zip(tops, tops[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        system=small_systems(
            weight=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.3, 1.0), kinds=("grid1d",)
        )
    )
    def test_full_seed_output_is_the_exact_grid_limit(self, system):
        # the sweep's output is the exact limit of the psi chain on the
        # snapped tables up to the rounding of T along each best path: each
        # round adds one T of relative error at most 8 u, and min and
        # Lukasiewicz round nothing (weights of at least 0.3 keep every
        # fold of at most 40 of them a normal float)
        g, report = si.solve(system)
        exact = exact_limit(system)
        assert exact_psi(system, exact) == exact
        got = g.density.tolist()
        assert [v > 0.0 for v in got] == [v > 0 for v in exact]
        if system.tnorm.family in ("minimum", "lukasiewicz"):
            assert got == [float(v) for v in exact]
        rel = report.iterations * 8 * Fraction(2) ** -53
        assert all(abs(Fraction(v) - e) <= rel * e for v, e in zip(got, exact))

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


class TestIteratedStop:
    def test_halves_dirac_repro_stops_on_bound(self):
        # from step 13 on the last two iterates have equal level indices,
        # so a residual of 0.0 there is no fixed point
        system = halves((1.0, 0.999))
        seed = si.StarMeasure.dirac(system.space, 100, system.tnorm)
        out, report = si.solve(system, seed=seed, tol=1e-9)
        assert (report.stopped_by, report.iterations) == ("bound", 30)
        assert report.apriori_bound <= 1e-9
        assert not np.array_equal(si.psi(system, out).density, out.density)

    @settings(max_examples=60, deadline=None)
    @given(
        system=small_systems(),
        point=st.integers(0),
        tol=st.sampled_from([1e-12, 1e-3, 0.5]),
        max_iter=st.integers(0, 60),
    )
    def test_stop_rule(self, system, point, tol, max_iter):
        seed = si.StarMeasure.dirac(system.space, point % system.space.n, system.tnorm)
        spy = mock.patch.object(si.ifs, "hypograph_hausdorff", wraps=si.hypograph_hausdorff)
        with spy as distance:
            out, report = si.solve(system, seed=seed, tol=tol, max_iter=max_iter)
        n = report.iterations
        orbit = [seed]
        for _ in range(n):
            orbit.append(si.psi(system, orbit[-1]))
        assert np.array_equal(orbit[-1].density, out.density)
        # no step before the last returned its input
        for a, b in zip(orbit[:-2], orbit[1:-1]):
            assert not np.array_equal(a.density, b.density)
        if report.stopped_by == "fixedPoint":
            assert np.array_equal(si.psi(system, out).density, out.density)
            assert report.final_residual == 0.0
            assert distance.call_count == 0
        else:
            assert report.stopped_by in ("bound", "maxIterations")
            assert (report.apriori_bound <= tol) == (report.stopped_by == "bound")
            assert distance.call_count == min(n, 1)
            assert (report.final_residual is None) == (n == 0)
        if report.stopped_by == "maxIterations":
            assert n == max_iter

    @settings(max_examples=100, deadline=None)
    @given(
        system=small_systems(
            weight=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.3, 1.0), kinds=("grid1d",)
        ),
        point=st.integers(0),
        max_iter=st.integers(0, 16),
    )
    def test_dirac_orbit_is_the_exact_orbit(self, system, point, max_iter):
        # the iterate after n steps against n exact psi steps on the same
        # tables.  Min rounds nothing.  A Lukasiewicz fold of weights of 0
        # or at least 0.3 is exact: with hi >= 1/2, 1 - hi is exact and
        # lo - (1 - hi) is a multiple of 2^-53 below 1, or of 2^-54 below
        # 1/2.  Product and Hamacher stayed below 1.43 u a step (u = 2^-53)
        # over 19,000 probed examples; 2 u a step is pinned
        seed = si.StarMeasure.dirac(system.space, point % system.space.n, system.tnorm)
        # the smallest tol: the bound stops the orbit only where c^n underflows
        out, report = si.solve(system, seed=seed, tol=5e-324, max_iter=max_iter)
        exact = exact_orbit(system, seed, report.iterations)
        got = out.density.tolist()
        if system.tnorm.family in ("minimum", "lukasiewicz"):
            assert got == [float(v) for v in exact]
        rel = report.iterations * 2 * Fraction(2) ** -53
        assert all(abs(Fraction(v) - e) <= rel * e for v, e in zip(got, exact))


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
