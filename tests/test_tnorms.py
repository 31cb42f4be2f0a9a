from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import starifs as si
from starifs.tnorms import axiom_report, parse_tnorm

from conftest import ALL_TNORMS

TOL = 1e-12

units = st.floats(0.0, 1.0, allow_nan=False)


def test_closed_form_examples():
    assert si.TNorm("product").apply(0.5, 0.4) == pytest.approx(0.2, abs=TOL)
    assert si.TNorm("minimum").apply(0.3, 0.7) == 0.3
    assert si.TNorm("lukasiewicz").apply(0.6, 0.7) == pytest.approx(0.3, abs=TOL)


@pytest.mark.parametrize(
    "tnorm", ALL_TNORMS + [si.TNorm("hamacher", 5.0)], ids=lambda t: t.config_name()
)
def test_one_is_a_unit(tnorm):
    # bit for bit, in both operand orders
    rng = np.random.default_rng(5)
    a = np.concatenate([rng.uniform(0.0, 1.0, 10**5), [0.0, 0.42, 1.0, 5e-324]])
    one = np.ones_like(a)
    assert tnorm.apply(1.0, 0.42) == 0.42
    assert np.array_equal(tnorm.apply(one, a), a)
    assert np.array_equal(tnorm.apply(a, one), a)


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.config_name())
def test_axiom_report_passes(tnorm):
    report = axiom_report(tnorm, triples=1000, rng_seed=1)
    assert report["passed"], report


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.config_name())
@given(a=units, b=units, c=units)
def test_axioms_pointwise(tnorm, a, b, c):
    t = tnorm.apply
    assert abs(t(1.0, a) - a) <= TOL
    assert abs(t(a, b) - t(b, a)) <= TOL
    assert abs(t(a, t(b, c)) - t(t(a, b), c)) <= TOL
    assert -TOL <= t(a, b) <= min(a, b) + TOL


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.config_name())
@given(a=units, b=units, a2=units, b2=units)
def test_monotone(tnorm, a, b, a2, b2):
    lo_a, hi_a = min(a, a2), max(a, a2)
    lo_b, hi_b = min(b, b2), max(b, b2)
    assert tnorm.apply(lo_a, lo_b) <= tnorm.apply(hi_a, hi_b) + TOL


@pytest.mark.parametrize(
    "tnorm", ALL_TNORMS + [si.TNorm("hamacher", 5.0)], ids=lambda t: t.config_name()
)
def test_sampled_lipschitz_continuity(tnorm):
    rng = np.random.default_rng(3)
    a, b, a2, b2 = rng.uniform(0.0, 1.0, (4, 2000))
    lhs = np.abs(tnorm.apply(a, b) - tnorm.apply(a2, b2))
    rhs = tnorm.lipschitz_bound() * (np.abs(a - a2) + np.abs(b - b2))
    assert np.all(lhs <= rhs + TOL)


def test_hamacher_zero_parameter_degenerate_corner():
    t = si.TNorm("hamacher", 0.0)
    assert t.apply(0.0, 0.0) == 0.0
    # continuity toward the extended corner
    assert t.apply(1e-9, 1e-9) < 1e-8


def test_apply_rejects_out_of_range():
    t = si.TNorm("product")
    # a string raised numpy's conversion ValueError
    for a, b in [(-0.1, 0.5), (0.5, 1.1), (float("nan"), 0.2), ("x", 0.5)]:
        with pytest.raises(si.DomainError):
            t.apply(a, b)


def test_fold_examples():
    assert si.TNorm("product").fold([0.5, 0.5, 0.5]) == 0.125
    assert si.TNorm("minimum").fold([1.0, 0.4, 0.9]) == 0.4
    for tnorm in ALL_TNORMS:
        assert tnorm.fold([]) == 1.0


def test_fold_rejects_out_of_range():
    with pytest.raises(si.DomainError):
        si.TNorm("minimum").fold([0.5, 2.0])
    # float(w) raised ValueError or TypeError for these
    for weights in (["a"], [0.5, None], [[0.5, 0.5]]):
        with pytest.raises(si.DomainError, match="weights"):
            si.TNorm("product").fold(weights)


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.config_name())
@given(w1=st.lists(units, max_size=6), w2=st.lists(units, max_size=6))
def test_fold_split(tnorm, w1, w2):
    whole = tnorm.fold(w1 + w2)
    split = tnorm.apply(tnorm.fold(w1), tnorm.fold(w2))
    assert abs(whole - split) <= TOL


@pytest.mark.parametrize("tnorm", ALL_TNORMS, ids=lambda t: t.config_name())
def test_fold_permutation_invariant(tnorm):
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.uniform(0.0, 1.0, rng.integers(0, 8)).tolist()
        shuffled = list(w)
        rng.shuffle(shuffled)
        assert abs(tnorm.fold(w) - tnorm.fold(shuffled)) <= TOL


# every family, and Hamacher with a mid-size, the largest and a
# subnormal parameter
SCALE_TNORMS = ALL_TNORMS + [si.TNorm("hamacher", p) for p in (7.5, 1e308, 5e-324)]
# relative error of T(w, v) against exact rationals, in units of 2^-53,
# where w, v and the exact value are normal floats: the largest measured
# for Hamacher was 3.5 over 15,000 points per parameter; the longest
# path of the form, through (p x) y, rounds nine times, each by at most
# 1 u, so 8 fails only if nearly all of them err fully and alike
SCALE_ERROR_UNITS = 8
_ONE_BITS = int(np.float64(1.0).view(np.int64))


def _exact(tnorm, w, v):
    w, v = Fraction(w), Fraction(v)
    if tnorm.family == "minimum":
        return min(w, v)
    if tnorm.family == "product":
        return w * v
    if tnorm.family == "lukasiewicz":
        return max(Fraction(0), w + v - 1)
    p = Fraction(tnorm.parameter)
    denom = p + (1 - p) * (w + v - w * v)
    return w * v / denom if denom else Fraction(0)


@pytest.mark.parametrize("tnorm", SCALE_TNORMS, ids=lambda t: t.config_name())
@settings(deadline=None)
@given(w=units, start=units)
def test_scalar_action(tnorm, w, start):
    # a run of 257 adjacent floats around start, clipped to [0, 1]
    bits = np.clip(np.float64(start).view(np.int64) + np.arange(-128, 129), 0, _ONE_BITS)
    run = np.unique(bits).view(np.float64)
    out = tnorm._apply(w, run)
    # nondecreasing in each operand float by float, and symmetric bit for bit
    assert np.all(np.diff(out) >= 0.0)
    assert np.all(np.diff(tnorm._apply(run, start)) >= 0.0)
    assert np.array_equal(tnorm._apply(run, w), out)
    assert np.all(out <= np.minimum(w, run)) and not np.signbit(out).any()
    assert np.array_equal(tnorm._apply(1.0, run), run)
    assert tnorm._apply(w, 0.0) == 0.0 and tnorm._apply(w, 1.0) == w
    tiny = 2.0**-1022
    if w >= tiny:
        for v, got in zip(run[::32].tolist(), out[::32].tolist()):
            exact = _exact(tnorm, w, v)
            if v >= tiny and exact >= tiny:
                assert abs(Fraction(got) - exact) <= SCALE_ERROR_UNITS * 2**-53 * exact


# floats within 2^20 ulps below 1, where 1 - s of a rounded s loses most
near_one = st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0**-53)


def _adjacent(a):
    """a and the float above it, both in [0, 1]."""
    return a, min(1.0, float(np.nextafter(a, 2.0)))


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 7.5, 1e10, 1e200, 1e308, 5e-324])
@settings(deadline=None)
@given(a=st.one_of(units, near_one), b=st.one_of(units, near_one))
@example(a=0.3, b=1.0 - 2.0**-53)
@example(a=4.6e-303, b=4.6e-303)
@example(a=1e-200, b=1e-200)
def test_hamacher_apply_relative_error(p, a, b):
    # p (1 - s) must not take 1 - s from a rounded s = a + b - ab: p would
    # scale the rounding error of s, to 5.6e8 u at p = 1e10; a numerator
    # ab that underflows gave 0.0 at p = 0 where T = 2.3e-303; and p (x y)
    # read 0 * inf at p = 0 for (1e-200, 1e-200)
    tnorm = si.TNorm("hamacher", p)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = float(tnorm._apply(a, b))
        assert got == float(tnorm._apply(b, a))
        assert float(tnorm._apply(1.0, a)) == a and float(tnorm._apply(a, 0.0)) == 0.0
        assert 0.0 <= got <= min(a, b)
        # nondecreasing in each operand from one float to the next
        (a0, a1), (b0, b1) = _adjacent(a), _adjacent(b)
        assert tnorm._apply(a0, b) <= tnorm._apply(a1, b)
        assert tnorm._apply(a, b0) <= tnorm._apply(a, b1)
    exact = _exact(tnorm, a, b)
    if exact >= 2.0**-1022:
        assert abs(Fraction(got) - exact) <= SCALE_ERROR_UNITS * 2**-53 * exact


def test_parse_tnorm_names():
    assert parse_tnorm("min").family == "minimum"
    assert parse_tnorm("product").family == "product"
    assert parse_tnorm("lukasiewicz").family == "lukasiewicz"
    t = parse_tnorm("hamacher(0.5)")
    assert t.family == "hamacher" and t.parameter == 0.5
    assert parse_tnorm("hamacher", 2.0).parameter == 2.0


def test_parse_tnorm_rejections():
    with pytest.raises(si.DomainError):
        parse_tnorm("drastic")
    with pytest.raises(si.DomainError):
        parse_tnorm("hamacher")  # parameter required
    with pytest.raises(si.DomainError):
        parse_tnorm("hamacher(-1)")
    with pytest.raises(si.DomainError):
        si.TNorm("hamacher", -0.5)


def test_config_name_round_trip():
    # ":g" printed 0.1234567 as 0.123457, which parses to another t-norm
    extra = [si.TNorm("hamacher", p) for p in (0.1234567, 1e-7, 1 / 3, 5e-324, 1e308)]
    for tnorm in ALL_TNORMS + extra:
        assert parse_tnorm(tnorm.config_name()) == tnorm


@pytest.mark.parametrize("p", [1e154, 1e300, 1.7e308])
def test_large_hamacher_lipschitz_bound_is_finite(p):
    # p * p / (4 (p - 1)) overflowed to inf from p ~ 1.34e154 and to nan from 1e308
    t = si.TNorm("hamacher", p)
    assert np.isfinite(t.lipschitz_bound())
    report = axiom_report(t)
    assert report["passed"], report


def test_non_hamacher_families_ignore_the_parameter():
    for family in ("min", "product", "lukasiewicz"):
        assert si.TNorm(family, 2.0) == si.TNorm(family)
        assert si.TNorm(family, float("nan")).parameter == 1.0
    # a product measure is accepted by a system built with another parameter
    X = si.grid_1d(9, 0, 1)
    system = si.validate(
        si.IFSSystem(
            X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], si.TNorm("product", 2.0)
        )
    )
    si.psi(system, si.StarMeasure.full(X, si.TNorm("product")))


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"triples": 0}, "triples"),
        ({"triples": 2.5}, "triples"),
        ({"triples": True}, "triples"),
        ({"rng_seed": -1}, "rng_seed"),
        ({"rng_seed": 1.5}, "rng_seed"),
        ({"rng_seed": 2**64}, "rng_seed"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": -1e-12}, "tol"),
    ],
)
def test_axiom_report_rejects_bad_arguments(kwargs, name):
    with pytest.raises(si.DomainError, match=name):
        axiom_report(si.TNorm("product"), **kwargs)


def test_axiom_report_accepts_the_extreme_seeds():
    for seed in (0, np.uint64(2**64 - 1), 2**64 - 1):
        report = axiom_report(si.TNorm("product"), triples=1, rng_seed=seed)
        assert report["passed"] and report["rngSeed"] == int(seed)


def _unit_broken(a, b):
    return 0.9 * a * b


def _comm_broken(a, b):
    return a * a * b


def _assoc_broken(a, b):
    return np.minimum(a, b) * np.sqrt(np.maximum(a, b))


def _mono_broken(a, b):
    # decreasing in the larger operand, and equal to the smaller one at 1
    return np.minimum(a, b) * (1.5 - 0.5 * np.maximum(a, b))


def _lipschitz_broken(a, b):
    # Lukasiewicz with slope 2 in the larger operand, against a bound of 1
    return np.maximum(0.0, np.minimum(a, b) - 2.0 * (1.0 - np.maximum(a, b)))


@pytest.mark.parametrize(
    "broken, axiom",
    [
        (_unit_broken, "unit"),
        (_comm_broken, "commutativity"),
        (_assoc_broken, "associativity"),
        (_mono_broken, "monotonicity"),
        (_lipschitz_broken, "continuity"),
    ],
)
def test_axiom_report_catches_a_broken_operation(monkeypatch, broken, axiom):
    monkeypatch.setattr(si.TNorm, "_apply", lambda self, a, b: broken(a, b))
    report = axiom_report(si.TNorm("product"), rng_seed=101)
    assert not report["passed"]
    assert report["deviations"][axiom] > report["tolerance"], report
