import numpy as np
import pytest

import starifs as si

from conftest import (
    ALL_TNORMS,
    hypograph_hausdorff_bruteforce,
    level_floor,
    make_sierpinski,
    random_measure,
)

TOL = 1e-12


@pytest.fixture
def small_grid():
    return si.grid_1d(2, 0, 1)


class TestDensityTypes:
    def test_star_measure_requires_top_one(self, small_grid):
        t = si.TNorm("product")
        with pytest.raises(si.ValidationError):
            si.StarMeasure(small_grid, [0.5, 0.9], t)
        si.SubDensity(small_grid, [0.5, 0.9], t)  # fine without normalization

    def test_rejects_out_of_range(self, small_grid):
        t = si.TNorm("product")
        with pytest.raises(si.DomainError):
            si.SubDensity(small_grid, [0.5, 1.5], t)
        with pytest.raises(si.DomainError):
            si.SubDensity(small_grid, [-0.5, 1.0], t)

    @pytest.mark.parametrize("cls", [si.SubDensity, si.StarMeasure])
    @pytest.mark.parametrize(
        "density", [[1.0 + 5e-13, 0.5], [-1e-13, 1.0]], ids=["above-one", "below-zero"]
    )
    def test_rejects_values_just_outside_unit_interval(self, small_grid, cls, density):
        # these were clipped into [0, 1] without an error
        with pytest.raises(si.DomainError, match=r"lie in \[0, 1\]"):
            cls(small_grid, density, si.TNorm("product"))

    def test_rejects_wrong_length(self, small_grid):
        with pytest.raises(si.DomainError):
            si.StarMeasure(small_grid, [1.0, 0.0, 0.0], si.TNorm("product"))

    def test_dirac_and_full(self, small_grid):
        t = si.TNorm("minimum")
        assert np.array_equal(si.StarMeasure.full(small_grid, t).density, [1, 1])
        assert np.array_equal(si.StarMeasure.dirac(small_grid, 1, t).density, [0, 1])
        assert np.array_equal(
            si.StarMeasure.dirac(small_grid, np.int64(0), t).density, [1, 0]
        )

    @pytest.mark.parametrize("index", [True, np.True_, 0.0, 2.5, "1", None])
    def test_dirac_index_must_be_an_integer(self, small_grid, index):
        # a bool used to index the density array and gave the full measure
        with pytest.raises(si.DomainError, match="integer point index"):
            si.StarMeasure.dirac(small_grid, index, si.TNorm("minimum"))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_dirac_index_outside_space(self, small_grid, index):
        with pytest.raises(si.DomainError, match="outside the space"):
            si.StarMeasure.dirac(small_grid, index, si.TNorm("minimum"))


class TestEvaluate:
    def test_constant_function_axiom(self):
        X = si.grid_1d(10, 0, 1)
        for t in ALL_TNORMS:
            mu = si.StarMeasure.full(X, t)
            for c in (0.0, 0.37, 1.0):
                assert si.evaluate(mu, np.full(X.n, c)) == pytest.approx(c, abs=TOL)

    def test_dirac_picks_value(self):
        X = si.grid_1d(5, 0, 1)
        rng = np.random.default_rng(0)
        phi = rng.uniform(0, 1, X.n)
        for t in ALL_TNORMS:
            mu = si.StarMeasure.dirac(X, 3, t)
            assert si.evaluate(mu, phi) == pytest.approx(phi[3], abs=TOL)

    def test_two_point_product(self, small_grid):
        mu = si.StarMeasure(small_grid, [1.0, 0.5], si.TNorm("product"))
        assert si.evaluate(mu, np.array([0.2, 0.9])) == pytest.approx(0.45, abs=TOL)

    def test_rejects_mismatch(self, small_grid):
        mu = si.StarMeasure.full(small_grid, si.TNorm("product"))
        with pytest.raises(si.DomainError):
            si.evaluate(mu, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(si.DomainError):
            si.evaluate(mu, np.array([0.1, 1.2]))


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.config_name())
def test_measure_axioms_randomized(tnorm):
    X = si.grid_1d(32, 0, 1)
    rng = np.random.default_rng(17)
    for _ in range(25):
        mu = random_measure(X, tnorm, rng)
        phi = rng.uniform(0, 1, X.n)
        psi_fn = rng.uniform(0, 1, X.n)
        lam = rng.uniform()
        c = rng.uniform()
        # constants
        assert si.evaluate(mu, np.full(X.n, c)) == pytest.approx(c, abs=TOL)
        # homogeneity
        lhs = si.evaluate(mu, tnorm.apply(lam, phi))
        rhs = tnorm.apply(lam, si.evaluate(mu, phi))
        assert lhs == pytest.approx(rhs, abs=TOL)
        # max-linearity
        lhs = si.evaluate(mu, np.maximum(phi, psi_fn))
        rhs = max(si.evaluate(mu, phi), si.evaluate(mu, psi_fn))
        assert lhs == pytest.approx(rhs, abs=TOL)


class TestPushforward:
    def test_identity(self):
        X = si.grid_1d(6, 0, 1)
        t = si.TNorm("product")
        mu = random_measure(X, t, np.random.default_rng(1))
        out = si.pushforward(np.arange(X.n), mu)
        assert np.array_equal(out.density, mu.density)

    def test_map_needs_one_target_per_point(self):
        X = si.grid_1d(6, 0, 1)
        mu = si.StarMeasure.full(X, si.TNorm("product"))
        for f in (np.zeros(X.n - 1, dtype=int), np.zeros((X.n, 1), dtype=int)):
            with pytest.raises(si.DomainError, match="one target per point"):
                si.pushforward(f, mu)

    def test_constant_map_gives_dirac(self):
        X = si.grid_1d(6, 0, 1)
        t = si.TNorm("minimum")
        mu = random_measure(X, t, np.random.default_rng(2))
        out = si.pushforward(np.full(X.n, 4), mu)
        expect = np.zeros(X.n)
        expect[4] = 1.0
        assert np.array_equal(out.density, expect)

    def test_defining_equation(self):
        # evaluate(pushforward(f, mu), phi) == evaluate(mu, phi o f),
        # both sides computed independently
        X = si.grid_1d(12, 0, 1)
        rng = np.random.default_rng(3)
        for t in ALL_TNORMS:
            for _ in range(20):
                mu = random_measure(X, t, rng)
                f = rng.integers(0, X.n, X.n)
                phi = rng.uniform(0, 1, X.n)
                lhs = si.evaluate(si.pushforward(f, mu), phi)
                rhs = si.evaluate(mu, phi[f])
                assert lhs == pytest.approx(rhs, abs=TOL)

    def test_functoriality(self):
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("product")
        rng = np.random.default_rng(4)
        mu = random_measure(X, t, rng)
        f = rng.integers(0, X.n, X.n)
        g = rng.integers(0, X.n, X.n)
        once = si.pushforward(g[f], mu)
        twice = si.pushforward(g, si.pushforward(f, mu))
        assert np.array_equal(once.density, twice.density)

    def test_preserves_maximum(self):
        X = si.grid_1d(9, 0, 1)
        t = si.TNorm("product")
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = random_measure(X, t, rng)
            out = si.pushforward(rng.integers(0, X.n, X.n), mu)
            assert isinstance(out, si.StarMeasure)
            assert out.top == mu.top

    def test_rejects_bad_targets(self):
        X = si.grid_1d(4, 0, 1)
        mu = si.StarMeasure.full(X, si.TNorm("product"))
        with pytest.raises(si.DomainError):
            si.pushforward(np.array([0, 1, 2, 9]), mu)

    @pytest.mark.parametrize("targets", [[0.9, 1.5, 2.2, 3.9, 4.1], [0, 1, 2, 3, np.nan]])
    def test_rejects_non_integer_targets(self, targets):
        # the float targets were truncated to [0, 1, 2, 3, 4]
        X = si.grid_1d(5, 0, 1)
        mu = si.StarMeasure.full(X, si.TNorm("product"))
        with pytest.raises(si.DomainError, match="finite integers"):
            si.pushforward(targets, mu)


class TestScaleAndUnion:
    def test_scale_by_unit(self):
        X = si.grid_1d(5, 0, 1)
        t = si.TNorm("product")
        mu = random_measure(X, t, np.random.default_rng(6))
        assert np.allclose(si.scale(1.0, mu).density, mu.density, atol=TOL)

    def test_scale_by_zero(self):
        X = si.grid_1d(5, 0, 1)
        for t in ALL_TNORMS:
            mu = si.StarMeasure.full(X, t)
            assert np.array_equal(si.scale(0.0, mu).density, np.zeros(X.n))

    def test_scale_product_example(self, small_grid):
        mu = si.StarMeasure(small_grid, [1.0, 0.6], si.TNorm("product"))
        out = si.scale(0.5, mu)
        assert isinstance(out, si.SubDensity)
        assert np.allclose(out.density, [0.5, 0.3], atol=TOL)

    def test_scale_rejects_a_bad_factor(self, small_grid):
        # float(r) raised ValueError or TypeError for these
        mu = si.StarMeasure.full(small_grid, si.TNorm("product"))
        for r in ("x", None, np.array([0.5, 0.5]), 1.5, float("nan")):
            with pytest.raises(si.DomainError, match="r must"):
                si.scale(r, mu)

    def test_scale_top_commutes(self):
        X = si.grid_1d(8, 0, 1)
        rng = np.random.default_rng(7)
        for t in ALL_TNORMS:
            mu = random_measure(X, t, rng)
            r = rng.uniform()
            assert si.scale(r, mu).top == pytest.approx(t.apply(r, mu.top), abs=TOL)

    def test_scale_composition(self):
        X = si.grid_1d(8, 0, 1)
        rng = np.random.default_rng(8)
        for t in ALL_TNORMS:
            mu = random_measure(X, t, rng)
            r, s = rng.uniform(size=2)
            nested = si.scale(r, si.scale(s, mu))
            flat = si.scale(t.apply(r, s), mu)
            assert np.allclose(nested.density, flat.density, atol=TOL)

    def test_max_union(self, small_grid):
        t = si.TNorm("minimum")
        a = si.SubDensity(small_grid, [1.0, 0.0], t)
        b = si.SubDensity(small_grid, [0.0, 1.0], t)
        assert np.array_equal(si.max_union([a, b]).density, [1.0, 1.0])
        assert np.array_equal(si.max_union([a]).density, a.density)

    def test_max_union_rejects_empty_and_mixed(self, small_grid):
        t = si.TNorm("minimum")
        a = si.SubDensity(small_grid, [1.0, 0.0], t)
        b = si.SubDensity(small_grid, [0.0, 1.0], si.TNorm("product"))
        with pytest.raises(si.DomainError):
            si.max_union([])
        with pytest.raises(si.DomainError):
            si.max_union([a, b])

    def test_union_commutes_with_saturation(self):
        X = si.grid_1d(6, 0, 1)
        t = si.TNorm("minimum")
        lv = si.LevelGrid(8)
        rng = np.random.default_rng(9)
        subs = [si.SubDensity(X, level_floor(lv, rng.uniform(0, 1, X.n)), t) for _ in range(3)]
        set_union = frozenset().union(*(si.to_saturated(s, lv).members for s in subs))
        assert set_union == si.to_saturated(si.max_union(subs), lv).members


class TestWeakstarDistance:
    def test_zero_on_equal(self):
        X = si.grid_1d(7, 0, 1)
        t = si.TNorm("product")
        mu = random_measure(X, t, np.random.default_rng(10))
        tests = [np.random.default_rng(11).uniform(0, 1, X.n) for _ in range(4)]
        assert si.weakstar_distance(mu, mu, tests) == 0.0

    def test_constant_tests_blind(self):
        X = si.grid_1d(7, 0, 1)
        t = si.TNorm("product")
        rng = np.random.default_rng(12)
        mu, nu = random_measure(X, t, rng), random_measure(X, t, rng)
        assert si.weakstar_distance(mu, nu, [np.full(X.n, 0.8)]) <= TOL

    def test_singleton_family(self):
        X = si.grid_1d(7, 0, 1)
        t = si.TNorm("product")
        rng = np.random.default_rng(13)
        mu, nu = random_measure(X, t, rng), random_measure(X, t, rng)
        phi = rng.uniform(0, 1, X.n)
        expect = abs(si.evaluate(mu, phi) - si.evaluate(nu, phi))
        assert si.weakstar_distance(mu, nu, [phi]) == expect

    def test_rejects_empty_family(self):
        X = si.grid_1d(3, 0, 1)
        mu = si.StarMeasure.full(X, si.TNorm("product"))
        with pytest.raises(si.DomainError):
            si.weakstar_distance(mu, mu, [])

    def test_rejects_mixed_tnorms(self):
        # a product Dirac and a min Dirac read 0.0, as if one measure
        X = si.grid_1d(5, 0, 1)
        mu = si.StarMeasure.dirac(X, 2, si.TNorm("product"))
        nu = si.StarMeasure.dirac(X, 2, si.TNorm("minimum"))
        with pytest.raises(si.DomainError, match="t-norm"):
            si.weakstar_distance(mu, nu, [np.ones(5)])

    def test_rejects_other_space_with_equal_size(self):
        # equal point counts used to pass, and the distance read 0.0
        t = si.TNorm("product")
        mu = si.StarMeasure.full(si.grid_1d(5, 0, 1), t)
        nu = si.StarMeasure.full(si.grid_1d(5, 0, 10), t)
        with pytest.raises(si.DomainError, match="same space"):
            si.weakstar_distance(mu, nu, [np.ones(5)])
        with pytest.raises(si.DomainError, match="share space"):
            si.max_union([mu, nu])


class TestSaturated:
    def test_full_density(self):
        X = si.grid_1d(3, 0, 1)
        t = si.TNorm("product")
        lv = si.LevelGrid(2)
        sat = si.to_saturated(si.StarMeasure.full(X, t), lv)
        assert sat.members == frozenset((x, k) for x in range(3) for k in range(3))

    def test_zero_density(self):
        X = si.grid_1d(3, 0, 1)
        lv = si.LevelGrid(4)
        sat = si.to_saturated(si.SubDensity(X, np.zeros(3), si.TNorm("product")), lv)
        assert sat.members == frozenset((x, 0) for x in range(3))

    def test_dirac_density(self):
        X = si.grid_1d(3, 0, 1)
        lv = si.LevelGrid(4)
        sat = si.to_saturated(si.StarMeasure.dirac(X, 1, si.TNorm("product")), lv)
        expect = {(x, 0) for x in range(3)} | {(1, k) for k in range(5)}
        assert sat.members == frozenset(expect)

    def test_round_trip_on_grid_values(self):
        X = si.grid_1d(10, 0, 1)
        t = si.TNorm("product")
        lv = si.LevelGrid(8)
        rng = np.random.default_rng(14)
        density = level_floor(lv, rng.uniform(0, 1, X.n))
        density[0] = 1.0
        mu = si.StarMeasure(X, density, t)
        back = si.from_saturated(si.to_saturated(mu, lv), t)
        assert isinstance(back, si.StarMeasure)
        assert np.array_equal(back.density, mu.density)

    def test_truncation_matches_floor(self):
        X = si.grid_1d(20, 0, 1)
        t = si.TNorm("product")
        lv = si.LevelGrid(10)
        rng = np.random.default_rng(15)
        density = rng.uniform(0, 1, X.n)
        density[3] = 1.0
        mu = si.StarMeasure(X, density, t)
        back = si.from_saturated(si.to_saturated(mu, lv), t)
        expect = np.floor(density * 10 + 1e-9) / 10  # independent floor computation
        assert np.array_equal(back.density, expect)

    def test_invalid_sets_rejected(self):
        X = si.grid_1d(2, 0, 1)
        lv = si.LevelGrid(2)
        with pytest.raises(si.ValidationError):  # one top per point
            si.SaturatedSet(X, lv, [0])
        with pytest.raises(si.ValidationError):  # below the zero section
            si.SaturatedSet(X, lv, [0, -1])
        with pytest.raises(si.ValidationError):  # outside the grid
            si.SaturatedSet(X, lv, [0, 5])

    @pytest.mark.parametrize("top", [1.7, np.nan])
    def test_tops_must_be_integers(self, top):
        # 1.7 was truncated to level 1, and NaN raised numpy's cast error
        X = si.grid_1d(4, 0, 1)
        with pytest.raises(si.DomainError, match="finite integers"):
            si.SaturatedSet(X, si.LevelGrid(4), [0, top, 2, 4])


def dense_closed_form(space, dens_a, dens_b, levels):
    """max_x min_y max(d(x, y), (ka(x) - kb(y))+ / m) over the full matrix."""
    ka = levels.floor_index(np.asarray(dens_a, dtype=float))
    kb = levels.floor_index(np.asarray(dens_b, dtype=float))
    m = levels.resolution

    def directed(k_from, k_to):
        gap = np.maximum(k_from[:, None] - k_to[None, :], 0) / m
        return float(np.maximum(space.dist, gap).min(axis=1).max())

    return max(directed(ka, kb), directed(kb, ka))


def _special_pairs(n, rng):
    dirac = np.zeros(n)
    dirac[n // 2] = 1.0
    other = np.zeros(n)
    other[0] = 1.0
    r = rng.uniform(0, 1, n)
    zero = np.zeros(n)
    return [(r, r), (zero, zero), (zero, r), (dirac, dirac), (dirac, other), (dirac, r)]


_RECT = si.grid_2d(7, 5, ((0.0, 1.0), (0.0, 3.0)))


def _dirac_orbit(n, family, weights, steps=12):
    """Sierpinski on n x n from the centre Dirac: the space and its first iterates.

    Their sparse supports are where the cap of ``distance_to`` engages.
    """
    system = make_sierpinski(n, family, weights)
    mu = si.StarMeasure.dirac(system.space, (n // 2) * n + n // 2, system.tnorm)
    orbit = [mu.density]
    for _ in range(steps):
        mu = si.psi(system, mu)
        orbit.append(mu.density)
    return system.space, orbit


_ORBITS = [
    _dirac_orbit(n, family, weights)
    for n in (16, 32)
    for family, weights in (("minimum", (1.0, 1.0, 1.0)), ("product", (1.0, 0.6, 0.8)))
]


class TestHypographHausdorff:
    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(16)
        cases = []
        for space, m in [
            (si.grid_1d(9, 0, 1), 8),
            (si.grid_1d(23, -0.4, 1.3), 10),
            (_RECT, 16),
            (_RECT, 12),
            (si.FiniteMetricSpace(_RECT.dist, coords=_RECT.coords), 8),
        ]:
            pairs = [tuple(rng.uniform(0, 1, (2, space.n))) for _ in range(25)]
            cases.append((space, m, pairs + _special_pairs(space.n, rng)))
        # consecutive iterates: sparse supports, where the cap engages
        for space, orbit in _ORBITS:
            cases += [(space, m, list(zip(orbit, orbit[1:]))) for m in (16, 256)]
        for space, m, pairs in cases:
            lv = si.LevelGrid(m)
            for da, db in pairs:
                fast = si.hypograph_hausdorff(space, da, db, lv)
                assert fast == dense_closed_form(space, da, db, lv)
                members = [(lv.floor_index(d) + 1).sum() for d in (da, db)]
                if members[0] * members[1] > 2**22:
                    continue  # the brute force would hold that many pairs
                brute = hypograph_hausdorff_bruteforce(space, da, db, lv)
                if m & (m - 1) == 0:
                    assert fast == brute
                else:
                    # brute force subtracts two rounded k/m values, the closed
                    # form divides the exact integer gap: they differ by ulps
                    assert fast == pytest.approx(brute, rel=0.0, abs=4 * np.finfo(float).eps)

    def test_cap_stops_the_transform_early_and_skips_dead_levels(self):
        space, orbit = _ORBITS[-1]
        lv = si.LevelGrid(256)
        exact = space.distance_to
        # per call: whether the capped answer differs from the exact one,
        # which only a row loop stopped before the uncapped one can give
        early = []

        def spy(mask, within=None):
            got = exact(mask, within=within)
            want = exact(mask)
            below = want < within
            assert np.array_equal(got[below], want[below])
            assert np.all(got[~below] >= within[~below])
            early.append(not np.array_equal(got, want))
            return got

        space.distance_to = spy
        try:
            for da, db in zip(orbit, orbit[1:]):
                si.hypograph_hausdorff(space, da, db, lv)
            assert any(early)
            # from the halved density every point is matched at its own
            # level by the time the sweep passes 1/2: the levels above are
            # skipped
            early.clear()
            da, db = orbit[-1], orbit[-1] / 2
            assert si.hypograph_hausdorff(space, da, db, lv) == dense_closed_form(
                space, da, db, lv
            )
        finally:
            del space.distance_to
        levels = sum(np.unique(lv.floor_index(d)).size - 1 for d in (da, db))
        assert 0 < len(early) < levels

    def test_zero_iff_equal_quantized(self):
        X = si.grid_1d(6, 0, 1)
        lv = si.LevelGrid(4)
        rng = np.random.default_rng(18)
        da = rng.uniform(0.05, 0.2, X.n)
        assert si.hypograph_hausdorff(X, da, da + 1e-6, lv) == 0.0  # same cells
        db = da.copy()
        db[2] += 0.5
        assert si.hypograph_hausdorff(X, da, db, lv) > 0.0

    def test_densities_are_checked(self):
        # each of these used to return 0.0, or warn and read garbage levels
        X = si.grid_1d(10, 0, 1)
        lv = si.LevelGrid(8)
        good = np.linspace(0, 1, X.n)
        bad = {
            "one value per point": [np.ones(9), np.ones((2, 5))],
            r"lie in \[0, 1\]": [np.full(X.n, np.nan), np.full(X.n, 2.0), -good],
        }
        for message, densities in bad.items():
            for dens in densities:
                for pair in ((dens, good), (good, dens)):
                    with pytest.raises(si.DomainError, match=message):
                        si.hypograph_hausdorff(X, *pair, lv)

    def test_symmetry_and_chunking(self):
        # above 256 points the dense row-min crosses a row-block boundary
        X = si.grid_1d(300, 0, 1)
        dense = si.FiniteMetricSpace(X.dist)
        lv = si.LevelGrid(16)
        rng = np.random.default_rng(19)
        da, db = rng.uniform(0, 1, (2, X.n))
        d1 = si.hypograph_hausdorff(dense, da, db, lv)
        d2 = si.hypograph_hausdorff(dense, db, da, lv)
        assert d1 == d2 == si.hypograph_hausdorff(X, db, da, lv)
