import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starifs as si
from starifs.ifs import _affine_images
from starifs.spaces import GridSpace, _euclidean, _lattice, _splitmix64

from conftest import level_floor, nearest_point, product_metric, projection_bound_check


def brute_hausdorff(dist, a_set, b_set):
    """Literal double-loop sup-inf evaluation (the definition)."""
    d_ab = max(min(dist[x][y] for y in b_set) for x in a_set)
    d_ba = max(min(dist[x][y] for x in a_set) for y in b_set)
    return max(d_ab, d_ba)


class TestGrid1d:
    def test_two_points(self):
        X = si.grid_1d(2, 0, 1)
        assert X.n == 2
        assert np.allclose(X.coords.ravel(), [0.0, 1.0])
        assert X.diameter == 1.0

    def test_three_points(self):
        X = si.grid_1d(3, 0, 1)
        assert np.allclose(X.coords.ravel(), [0.0, 0.5, 1.0])
        assert X.diameter == 1.0

    def test_spacing(self):
        X = si.grid_1d(101, 0, 1)
        assert X.spacing == pytest.approx(0.01)

    def test_rejects_degenerate(self):
        with pytest.raises(si.DomainError):
            si.grid_1d(1, 0, 1)
        with pytest.raises(si.DomainError):
            si.grid_1d(5, 1, 1)
        for a, b in ((0, math.inf), (math.nan, 1), (-math.inf, 0)):
            with pytest.raises(si.DomainError, match="finite"):
                si.grid_1d(5, a, b)
        with pytest.raises(si.DomainError, match="step"):
            si.grid_1d(5, -1e308, 1e308)  # the step overflows
        with pytest.raises(si.DomainError, match="distinct"):
            si.grid_1d(5, 0, 1.5e-323)  # subnormal coordinates collide

    @pytest.mark.parametrize("n", [2.5, 5.0, True, None])
    def test_count_must_be_an_integer(self, n):
        with pytest.raises(si.DomainError, match="integer"):
            si.grid_1d(n, 0, 1)
        with pytest.raises(si.DomainError, match="integer"):
            si.grid_2d(3, n, ((0, 1), (0, 1)))

    def test_spacing_is_the_step_or_the_cell_diagonal(self):
        assert si.grid_1d(7, -0.4, 1.3).spacing == (1.3 + 0.4) / 6
        hx, hy = (1.0 - 0.0) / 12, (3.3 - 0.2) / 5
        assert si.grid_2d(13, 6, ((0, 1), (0.2, 3.3))).spacing == float(np.hypot(hx, hy))


class TestGrid2d:
    def test_corners(self):
        X = si.grid_2d(2, 2, ((0, 1), (0, 1)))
        assert X.n == 4
        assert X.diameter == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_nine_points(self):
        X = si.grid_2d(3, 3, ((0, 1), (0, 1)))
        assert X.n == 9
        assert X.diameter == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_rectangle_diameter(self):
        X = si.grid_2d(2, 3, ((0, 1), (0, 2)))
        assert X.diameter == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_row_major_indexing(self):
        X = si.grid_2d(3, 2, ((0, 1), (0, 10)))
        # index = iy * nx + ix
        assert np.allclose(X.coords[0], [0.0, 0.0])
        assert np.allclose(X.coords[1], [0.5, 0.0])
        assert np.allclose(X.coords[3], [0.0, 10.0])

    def test_rejects_degenerate(self):
        with pytest.raises(si.DomainError):
            si.grid_2d(2, 2, ((0, 0), (0, 1)))
        with pytest.raises(si.DomainError):
            si.grid_2d(1, 5, ((0, 1), (0, 1)))
        with pytest.raises(si.DomainError, match="finite"):
            si.grid_2d(3, 3, ((0, 1), (0, math.inf)))
        with pytest.raises(si.DomainError, match="finite"):
            si.grid_2d(3, 3, ((math.nan, 1), (0, 1)))


class TestGridLimits:
    @pytest.mark.parametrize(
        "axes, message",
        [
            ([], "one or two axes"),
            ([(0, 1, 3)] * 3, "one or two axes"),
            ([(0, 1, 2**64)], "numpy"),
            ([(0, 1, 10**300)], "numpy"),
            # 2**60 points fit intp, but their 8-byte coordinates do not
            ([(0, 1, 2**60)], "numpy"),
            ([(0, 1, 2**62), (0, 1, 2)], "numpy"),
            # 2-D distances square the gaps: the diameter read inf, or every
            # distance read 0.0 (the pytest config turns a warning into an error)
            ([(0, 1e200, 3)] * 2, "square"),
            ([(0, 1e-165, 3)] * 2, "square"),
        ],
        ids=[
            "no-axes", "three-axes", "2**64", "10**300", "2**60", "2**62x2", "1e200^2", "1e-165^2"
        ],
    )
    def test_rejects_axes_it_cannot_hold(self, axes, message):
        # each raised a numpy error or warning, or passed; none allocates much
        with pytest.raises(si.DomainError, match=message):
            GridSpace(axes)


@pytest.mark.parametrize(
    "space",
    [
        si.grid_1d(2, 0, 1),
        si.grid_1d(101, -0.37, 2.9),
        si.grid_2d(7, 5, ((0, 1), (0, 3))),
        si.grid_2d(13, 6, ((-1.1, 0.7), (0.2, 3.3))),
    ],
    ids=["1d-2", "1d-101", "2d-7x5", "2d-13x6"],
)
class TestGridMatrixFree:
    def test_diameter_is_dense_max(self, space):
        assert space.diameter == space.dist.max()

    def test_distance_to_is_dense_row_min(self, space):
        rng = np.random.default_rng(space.n)
        masks = [rng.uniform(size=space.n) < p for p in (0.05, 0.3, 0.9)]
        masks += [np.eye(1, space.n, k, dtype=bool)[0] for k in (0, space.n - 1)]
        # the empty set: inf everywhere, on every kind of space
        masks.append(np.zeros(space.n, dtype=bool))
        dense = si.FiniteMetricSpace(space.dist)
        for mask in masks:
            expected = space.dist[:, mask].min(axis=1, initial=np.inf)
            caps = [
                np.zeros(space.n),
                np.full(space.n, np.inf),
                rng.uniform(0, space.diameter, space.n),
                # ties: the cap is the distance itself
                expected,
                np.where(rng.uniform(size=space.n) < 0.5, expected, 0.0),
            ]
            for X in (space, dense):
                assert np.array_equal(X.distance_to(mask), expected)
                for within in caps:
                    got = X.distance_to(mask, within=within)
                    below = expected < within
                    assert np.array_equal(got[below], expected[below])
                    assert np.all(got[~below] >= within[~below])


class TestMetricValidation:
    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(si.DomainError):
            si.FiniteMetricSpace(d)

    def test_rejects_non_square(self):
        with pytest.raises(si.DomainError, match="square"):
            si.FiniteMetricSpace(np.zeros((2, 3)))

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(si.DomainError):
            si.FiniteMetricSpace(d)

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        with pytest.raises(si.DomainError):
            si.FiniteMetricSpace(d)

    def test_rejects_zero_offdiagonal(self):
        d = np.zeros((2, 2))
        with pytest.raises(si.DomainError):
            si.FiniteMetricSpace(d)

    def test_rejects_one_point_space(self):
        # accepted before, and every system on it crashed validate
        with pytest.raises(si.DomainError, match="two points"):
            si.FiniteMetricSpace([[0.0]])

    def test_rejects_nonfinite(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(si.DomainError, match="finite"):
            si.FiniteMetricSpace(d)

    def test_copies_caller_arrays(self):
        d = si.grid_1d(3, 0, 1).dist.copy()
        X = si.FiniteMetricSpace(d)
        d[0, 1] = d[1, 0] = 5.0  # the caller's matrix stays writable
        assert X.dist[0, 1] == 0.5 and X.coords is None
        with pytest.raises(ValueError, match="read-only"):
            X.dist[0, 1] = 5.0

    def test_sampled_validation_large_space(self):
        # above the exhaustive cutoff the triangle check is sampled
        grid = si.grid_1d(600, 0, 1)
        X = si.FiniteMetricSpace(grid.dist)
        assert X.n == 600
        # squared distances break the triangle inequality on every triple
        # with k strictly between i and j: about a third of the samples
        x = grid.coords.ravel()
        with pytest.raises(si.DomainError, match=r"triangle inequality violated \(sampled\)"):
            si.FiniteMetricSpace((x[:, None] - x[None, :]) ** 2)


class TestDenseBuild:
    def test_positivity_rejects_one_duplicate_point(self):
        x = np.sort(np.concatenate([np.linspace(0.0, 1.0, 599), [0.123456]]))
        assert si.FiniteMetricSpace(np.abs(x[:, None] - x[None, :])).n == 600
        # one duplicate pair among 600 points
        x[-1] = x[-2]
        with pytest.raises(si.DomainError, match="distinct points must be at positive distance"):
            si.FiniteMetricSpace(np.abs(x[:, None] - x[None, :]))

    def test_peak_memory_is_one_matrix_and_a_block(self):
        # an n(n-1) off-diagonal copy put the peak at about 2.1 matrices
        d = si.grid_1d(2000, 0, 1).dist
        tracemalloc.start()
        try:
            si.FiniteMetricSpace(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d.nbytes


def splitmix64_reference(seed, n):
    """SplitMix64 in its stateful form, on Python ints reduced mod 2^64."""
    words, state = [], seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        words.append(z ^ (z >> 31))
    return words


class TestSplitMix64:
    def test_published_outputs_for_seed_0(self):
        words = [int(z) for z in _splitmix64(0, (3,))]
        assert words == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", [0, 1, 101, 2**64 - 1])
    def test_matches_the_reference_without_warnings(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = _splitmix64(seed, (4, 250))
        assert words.dtype == np.uint64
        assert [int(z) for z in words.ravel()] == splitmix64_reference(seed, 1000)

    def test_doubles_lie_in_the_unit_interval(self):
        # the conversion axiom_report uses; the largest word maps to 1 - 2^-53
        words = np.concatenate([_splitmix64(7, (10**5,)), np.array([2**64 - 1], np.uint64)])
        u = (words >> np.uint64(11)) * 2.0**-53
        assert u.min() >= 0.0 and u.max() == 1.0 - 2.0**-53


class TestHausdorff:
    def test_singletons(self):
        X = si.grid_1d(2, 0, 1)
        assert si.hausdorff(X, [0], [1]) == 1.0

    def test_midpoint(self):
        X = si.grid_1d(3, 0, 1)
        assert si.hausdorff(X, [0, 2], [0, 1, 2]) == 0.5

    def test_matches_brute_force(self):
        X = si.grid_1d(40, 0, 1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.choice(X.n, size=rng.integers(1, 33), replace=False)
            b = rng.choice(X.n, size=rng.integers(1, 33), replace=False)
            expected = brute_hausdorff(X.dist, list(a), list(b))
            assert si.hausdorff(X, a, b) == expected

    def test_metric_properties_on_subsets(self):
        X = si.grid_1d(30, 0, 1)
        rng = np.random.default_rng(9)
        for _ in range(50):
            sets = [
                sorted(rng.choice(X.n, size=rng.integers(1, 10), replace=False))
                for _ in range(3)
            ]
            a, b, c = sets
            dab, dbc, dac = (
                si.hausdorff(X, a, b),
                si.hausdorff(X, b, c),
                si.hausdorff(X, a, c),
            )
            assert dab == si.hausdorff(X, b, a)
            assert (dab == 0.0) == (a == b)
            assert dac <= dab + dbc + 1e-12
            assert dab <= X.diameter

    def test_rejects_empty(self):
        X = si.grid_1d(3, 0, 1)
        with pytest.raises(si.DomainError):
            si.hausdorff(X, [], [0])

    def test_rejects_out_of_range(self):
        X = si.grid_1d(3, 0, 1)
        with pytest.raises(si.DomainError):
            si.hausdorff(X, [0, 5], [1])

    @pytest.mark.parametrize("points", [[2.7], [True], [np.nan]])
    def test_rejects_non_integer_points(self, points):
        # [2.7] was truncated to point 2 and [True] read as point 1
        X = si.grid_1d(5, 0, 1)
        for a, b in ((points, [0]), ([0], points)):
            with pytest.raises(si.DomainError, match="finite integers"):
                si.hausdorff(X, a, b)


class TestProducts:
    def test_product_metric_matches_pairs(self):
        X = si.grid_1d(4, 0, 1)
        Y = si.grid_1d(3, 0, 2)
        P = product_metric(X, Y)
        assert P.n == 12
        for (i, s), (j, t) in [((0, 0), (3, 2)), ((1, 1), (2, 0))]:
            flat_a = i * Y.n + s
            flat_b = j * Y.n + t
            assert P.dist[flat_a, flat_b] == max(X.dist[i, j], Y.dist[s, t])

    def test_product_metric_satisfies_axioms(self):
        X = si.grid_1d(5, 0, 1)
        Y = si.grid_1d(4, 0, 2)
        P = product_metric(X, Y)
        si.FiniteMetricSpace(P.dist)  # re-validates all metric axioms

    def test_projection_bound_trivial_cases(self):
        X = si.grid_1d(5, 0, 1)
        Y = si.grid_1d(4, 0, 1)
        same = [(0, 1), (3, 2)]
        assert projection_bound_check(X, Y, same, same)
        a = [(x, 0) for x in range(X.n)]
        b = [(2, 0)]
        assert projection_bound_check(X, Y, a, b)

    def test_projection_bound_random(self):
        X = si.grid_1d(8, 0, 1)
        Y = si.grid_1d(8, 0, 1)
        rng = np.random.default_rng(12)
        for _ in range(100):
            ys = rng.choice(Y.n, size=rng.integers(1, Y.n + 1), replace=False)
            a, b = [], []
            for y in ys:
                for bucket in (a, b):
                    for x in rng.choice(X.n, size=rng.integers(1, X.n + 1), replace=False):
                        bucket.append((x, y))
            assert projection_bound_check(X, Y, a, b)

    def test_projection_mismatch_raises(self):
        X = si.grid_1d(3, 0, 1)
        Y = si.grid_1d(3, 0, 1)
        with pytest.raises(si.PreconditionError):
            projection_bound_check(X, Y, [(0, 0)], [(0, 1)])


class TestSnap:
    def test_grid_points_snap_to_themselves(self):
        X = si.grid_1d(9, 0, 1)
        assert np.array_equal(X.snap(X.coords), np.arange(9))

    def test_tie_goes_to_lowest_index(self):
        X = si.grid_1d(5, 0, 1)  # spacing 0.25
        assert X.snap(np.array([[0.125]]))[0] == 0
        assert X.snap(np.array([[0.625]]))[0] == 2

    def test_clips_outside_hull(self):
        X = si.grid_1d(5, 0, 1)
        assert X.snap(np.array([[-3.0]]))[0] == 0
        assert X.snap(np.array([[42.0]]))[0] == 4

    def test_2d_row_major(self):
        X = si.grid_2d(4, 3, ((0, 1), (0, 1)))
        idx = X.snap(X.coords)
        assert np.array_equal(idx, np.arange(12))
        assert X.snap(np.array([[0.34, 0.49]]))[0] == X.snap(np.array([[1 / 3, 0.5]]))[0]

    def test_snap_matches_the_dense_argmin_and_ties_go_low(self):
        X = si.grid_1d(7, 0, 1)
        rng = np.random.default_rng(2)
        for count in (50, 600):
            pts = rng.uniform(-0.2, 1.2, (count, 1))
            assert np.array_equal(X.snap(pts), nearest_point(X.coords, pts))
        # a floating half-way point: the grid's tie rule picks the lower
        # point, while the argmin sees |0.5 - 2/3| < |0.5 - 1/3|
        X = si.grid_1d(4, 0, 1)
        assert X.snap([[0.5]])[0] == 1
        assert nearest_point(X.coords, [[0.5]])[0] == 2

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_snap_is_the_nearest_point_off_ties(self, data, seed):
        # random 1-D and 2-D grids, random points in and around the hull:
        # the closed form equals the argmin wherever the nearest point
        # wins by more than 1e-9 spacing
        dim = data.draw(st.integers(1, 2))
        axes = []
        for _ in range(dim):
            lo, width = data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(0.01, 10.0))
            axes.append((lo, lo + width, data.draw(st.integers(2, 30))))
        X = GridSpace(axes)
        lo, hi = X.coords.min(axis=0), X.coords.max(axis=0)
        pad = 0.2 * (hi - lo)
        pts = np.random.default_rng(seed).uniform(lo - pad, hi + pad, (400, dim))
        d2 = ((pts[:, None, :] - X.coords[None, :, :]) ** 2).sum(axis=-1)
        two = np.sqrt(np.partition(d2, 1, axis=1)[:, :2])
        clear = two[:, 1] - two[:, 0] > 1e-9 * X.spacing
        assert np.array_equal(X.snap(pts)[clear], nearest_point(X.coords, pts)[clear])

    @pytest.mark.parametrize(
        "axes",
        [
            [(0.0, 1.0, 7)],
            [(-0.0, 1.0, 9)],
            [(-2.5, -0.0, 33)],
            [(-0.0, 1.0, 5), (-1.0, 3.5, 4)],
            [(0.1, 0.7, 13), (-0.0, 2.0, 11)],
            [(-1e-3, 2.0, 64), (0.2, 0.3, 3)],
        ],
        ids=["1d", "1d-minus-zero", "1d-hi-minus-zero", "2d-minus-zero-x", "2d-minus-zero-y", "2d"],
    )
    def test_coords_are_the_lattice_and_snap_keeps_its_indices(self, axes):
        X = GridSpace(axes)
        assert np.array_equal(X.coords, _lattice(X.axes))
        assert X.coords.flags.f_contiguous
        rng = np.random.default_rng(5)
        lo, hi = np.array([a[0] for a in axes]), np.array([a[1] for a in axes])
        pts = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (4000, len(axes)))
        # the grid points, the midpoints between neighbours, and signed zeros
        pts = np.concatenate([pts, X.coords, (X.coords[1:] + X.coords[:-1]) / 2, 0.0 * pts[:3]])
        pts[-1] = -0.0
        # the closed form from the constructor's bounds: lo, step and row-major strides
        expected, stride = np.zeros(len(pts), dtype=np.int64), 1
        for ax, (a, b, count) in enumerate(axes):
            step = (float(b) - float(a)) / (count - 1)
            u = np.clip(np.ceil((pts[:, ax] - float(a)) / step - 0.5), 0, count - 1)
            expected += u.astype(np.int64) * stride
            stride *= count
        assert np.array_equal(X.snap(pts), expected)
        assert X.snap(pts[7]) == expected[7]

    def test_stacked_snap_of_transposed_view(self):
        X = si.grid_2d(13, 11, ((0.0, 1.0), (-1.0, 1.0)))
        assert X.coords.flags.f_contiguous
        mats = np.array([[[0.5, 0.2], [-0.1, 0.6]], [[0.3, 0.0], [0.4, 0.5]], [[0.7, -0.2], [0.1, 0.2]]])
        trans = np.array([[0.1, 0.2], [0.5, -0.3], [0.2, 0.1]])
        images = _affine_images(X.coords, mats, trans)
        assert images.shape == (3, X.n, 2) and not images.flags.c_contiguous
        flat = X.snap(np.ascontiguousarray(images).reshape(-1, 2))
        assert np.array_equal(X.snap(images), flat.reshape(3, X.n))
        one = X.snap(images[1, 5])
        assert one.shape == () and one == flat[X.n + 5]

    @pytest.mark.parametrize(
        "pts",
        [[[0.9]], [[0.1, 0.2, 0.9]], [[np.nan, 0.5]], [[np.inf, 0.5]], [[0.5, -np.inf]], 0.5],
        ids=["one-coordinate", "three-coordinates", "nan", "inf", "minus-inf", "scalar"],
    )
    def test_rejects_wrong_dimension_and_nonfinite(self, pts):
        X = si.grid_2d(4, 4, ((0, 1), (0, 1)))
        # unchecked, the grid raises IndexError, reads two of three
        # coordinates or casts NaN to an index
        with pytest.raises(si.DomainError, match="finite with 2 coordinates"):
            X.snap(pts)
        assert X.snap([[0.9, 0.9], [0.1, 0.1]]).tolist() == [15, 0]


@pytest.mark.parametrize(
    "space",
    [
        si.grid_1d(7, 0, 1),
        si.grid_1d(600, -0.3, 2.1),
        si.grid_2d(5, 4, ((0, 1), (0, 3))),
        si.grid_2d(23, 17, ((-1.1, 0.7), (0.2, 3.3))),
    ],
    ids=["1d-7", "1d-600", "2d-5x4", "2d-23x17"],
)
def test_dense_dist_is_euclidean_of_coords(space):
    # built in row blocks from ``distances``; 600 and 391 points cross them
    assert np.array_equal(space.dist, _euclidean(space.coords, space.coords))


class TestLevelGrid:
    def test_levels(self):
        lv = si.LevelGrid(4)
        assert np.allclose(lv.levels, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_floor_on_grid_values_is_exact(self):
        lv = si.LevelGrid(10)
        # 0.3 * 10 rounds below 3.0 in floats; the snap epsilon absorbs it
        assert lv.floor_index(np.array([0.3]))[0] == 3
        assert lv.floor_index(np.array([1.0]))[0] == 10
        assert lv.floor_index(np.array([0.0]))[0] == 0

    def test_floor_rounds_down(self):
        lv = si.LevelGrid(4)
        assert level_floor(lv, np.array([0.26]))[0] == 0.25
        assert level_floor(lv, np.array([0.249999]))[0] == 0.0
        # rounding noise below the snap epsilon counts as on-grid
        assert level_floor(lv, np.array([0.25 - 1e-13]))[0] == 0.25

    def test_rejects_bad_resolution(self):
        with pytest.raises(si.DomainError):
            si.LevelGrid(0)

    @pytest.mark.parametrize("m", [2**53 + 1, 10**300], ids=["2**53+1", "10**300"])
    def test_resolution_beyond_float64_rejected(self, m):
        # level indices above 2**53 are not all floats; 10**300 gave a false stop
        with pytest.raises(si.DomainError, match="level resolution must be <="):
            si.LevelGrid(m)
        assert si.LevelGrid(2**53).resolution == 2**53

    @pytest.mark.parametrize("m", [2.5, 4.0, True, "4"])
    def test_resolution_must_be_an_integer(self, m):
        # 2.5 used to give the levels [0, .4, .8, 1.2]
        with pytest.raises(si.DomainError, match="integer"):
            si.LevelGrid(m)
        assert si.LevelGrid(np.int64(4)).resolution == 4
