"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines live.
Each criterion asserts both its mathematical content at the stated
tolerance and its runtime budget.
"""

import json
import time
from pathlib import Path

import numpy as np

import starifs as si
from starifs.cli import main as cli_main

from conftest import lemma_prod_fuzzer, make_cantor, make_sierpinski

CONFIGS = Path(__file__).parent / "configs"
GOLDEN = Path(__file__).parent / "golden"

TOL = 1e-12

CRITERION_FAMILIES = [
    si.TNorm("minimum"),
    si.TNorm("product"),
    si.TNorm("lukasiewicz"),
    si.TNorm("hamacher", 0.5),
    si.TNorm("hamacher", 1.0),
    si.TNorm("hamacher", 2.0),
]


class _Clock:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.name} ({elapsed:.2f}s, budget {self.budget:g}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget:g}s"
            )


def test_criterion_01_tnorm_axiom_suite():
    with _Clock(1, "t-norm axiom suite", 1.0):
        for tnorm in CRITERION_FAMILIES:
            report = si.axiom_report(tnorm, triples=1000, rng_seed=101, tol=TOL)
            assert report["passed"], report


def test_criterion_02_measure_axiom_suite():
    with _Clock(2, "measure axiom suite", 5.0):
        X = si.grid_1d(64, 0, 1)
        rng = np.random.default_rng(202)
        for tnorm in CRITERION_FAMILIES:
            dens = rng.uniform(0, 1, (100, X.n))
            dens[np.arange(100), rng.integers(0, X.n, 100)] = 1.0
            tests = rng.uniform(0, 1, (100, X.n))
            lams = rng.uniform(0, 1, 100)
            consts = rng.uniform(0, 1, 100)

            evals = tnorm.apply(dens[:, None, :], tests[None, :, :]).max(-1)

            # constants: mu(c) = c
            const_evals = tnorm.apply(
                dens[:, None, :], np.broadcast_to(consts[None, :, None], (100, 100, X.n))
            ).max(-1)
            assert np.max(np.abs(const_evals - consts[None, :])) <= TOL

            # homogeneity: mu(lam * phi) = lam * mu(phi)
            scaled = tnorm.apply(lams[:, None], tests)
            lhs = tnorm.apply(dens[:, None, :], scaled[None, :, :]).max(-1)
            rhs = tnorm.apply(lams[None, :], evals)
            assert np.max(np.abs(lhs - rhs)) <= TOL

            # max-linearity: mu(phi v psi) = mu(phi) v mu(psi)
            partner = np.roll(tests, -1, axis=0)
            vee = np.maximum(tests, partner)
            lhs = tnorm.apply(dens[:, None, :], vee[None, :, :]).max(-1)
            rhs = np.maximum(evals, np.roll(evals, -1, axis=1))
            assert np.max(np.abs(lhs - rhs)) <= TOL


def test_criterion_03_projection_lemma_fuzzer():
    with _Clock(3, "equal-projection Hausdorff bound fuzzer", 1.0):
        X = si.grid_1d(8, 0, 1)
        Y = si.grid_1d(8, 0, 1)
        report = lemma_prod_fuzzer(X, Y, trials=100, rng_seed=303)
        assert report.passed
        assert report.violations == 0
        assert report.max_ratio <= 1.0
        assert report.tight_ratio == 1.0  # the constructed case attains the bound


def test_criterion_04_single_map_dirac_fixed_point():
    with _Clock(4, "single-map Dirac fixed point", 1.0):
        X = si.grid_1d(257, 0, 1)
        levels = si.LevelGrid(256)
        expect = np.zeros(X.n)
        expect[0] = 1.0  # grid point nearest the map's fixed point 0
        for tnorm in CRITERION_FAMILIES:
            system = si.validate(
                si.IFSSystem(X, [si.ContractionMap.affine([[0.5]], [0.0])], [1.0], tnorm)
            )
            out, _ = si.solve(system, tol=1e-9)
            assert np.array_equal(out.density, expect)
            assert si.residual(system, out, levels) == 0.0


def test_criterion_05_existence_monotone_chain():
    with _Clock(5, "monotone chain and hypograph membership", 5.0):
        system = make_cantor()
        levels = si.LevelGrid(256)
        m = levels.resolution
        mu = si.StarMeasure.full(system.space, system.tnorm)
        for _ in range(12):
            nxt = si.psi(system, mu)
            assert np.all(nxt.density <= mu.density)  # decreasing chain
            sat = si.to_saturated(nxt, levels)  # construction validates
            tops = sat.top_indices
            assert tops.max() == m  # meets the level-1 section
            assert np.all(tops >= 0)  # contains the zero section
            mu = nxt


def test_criterion_06_uniqueness_two_seeds():
    with _Clock(6, "uniqueness from two seeds", 10.0):
        system = make_cantor()
        X = system.space
        h = X.spacing
        levels = si.LevelGrid(256)
        m = levels.resolution
        c = system.c

        mu = si.StarMeasure.full(X, system.tnorm)
        nu = si.StarMeasure.dirac(X, X.n - 1, system.tnorm)  # right endpoint
        out1, rep1 = si.solve(system, seed=mu, tol=1e-6)
        out2, rep2 = si.solve(system, seed=nu, tol=1e-6)

        # the bound holds along the whole orbit pair
        for n in range(1, max(rep1.iterations, rep2.iterations) + 1):
            mu, nu = si.psi(system, mu), si.psi(system, nu)
            gap = si.hypograph_hausdorff(X, mu.density, nu.density, levels)
            assert gap <= c**n * X.diameter + 2 * h + 2 / m

        final_gap = si.hypograph_hausdorff(X, out1.density, out2.density, levels)
        assert final_gap < 1e-3


def test_criterion_07_apriori_bound_tracking():
    with _Clock(7, "a priori bound tracking, n = 1..15", 10.0):
        system = make_cantor()
        X = system.space
        h = X.spacing
        levels = si.LevelGrid(256)
        m = levels.resolution
        mu = si.StarMeasure.full(X, system.tnorm)
        nu = si.StarMeasure.dirac(X, X.n - 1, system.tnorm)
        for n in range(1, 16):
            mu, nu = si.psi(system, mu), si.psi(system, nu)
            gap = si.hypograph_hausdorff(X, mu.density, nu.density, levels)
            assert gap <= si.error_bound(n, system.c, X.diameter) + 2 * h + 2 / m


def test_criterion_08_oracle_equivalence():
    with _Clock(8, "word expansion vs iterated operator at depth 8", 5.0):
        system = make_cantor()
        seed = si.StarMeasure.full(system.space, system.tnorm)
        expanded = si.word_expansion(system, seed, 8)
        iterated = seed
        for _ in range(8):
            iterated = si.psi(system, iterated)
        h, c = system.space.spacing, system.c
        tolerance = h * (1 - c**8) / (2 * (1 - c))
        discrepancy = np.max(np.abs(expanded.density - iterated.density))
        assert discrepancy <= tolerance


def test_criterion_09_degenerate_hutchinson_reduction():
    with _Clock(9, "degenerate reduction recovers the grid attractor", 30.0):
        system = make_sierpinski(64)
        X = system.space
        out, report = si.solve(system, tol=1e-9)
        support = np.flatnonzero(out.density > 0)
        assert np.all(out.density[support] == 1.0)  # indicator density

        # the solved support is exactly the grid attractor: the
        # stationary set of the set-level operator on the same grid
        assert np.array_equal(support, si.hutchinson_fixed_set(system))

        # word-oracle consistency at matching depth: the depth where the
        # single-point approximation has stabilized within budget
        depth = 12
        att = si.attractor_support(system, depth)
        assert np.array_equal(att, si.attractor_support(system, depth - 1))
        dirac_words = si.word_expansion(
            system, si.StarMeasure.dirac(X, 0, system.tnorm), 7
        )
        assert np.array_equal(
            np.flatnonzero(dirac_words.density > 0), si.attractor_support(system, 7)
        )

        # exact-composition and snap-each-step supports agree within the
        # accumulated snapping drift
        gap = si.hausdorff(X, support, att)
        assert gap <= X.spacing / (2 * (1 - system.c)) + X.spacing / 2


def test_criterion_10_cli_contract(tmp_path):
    with _Clock(10, "CLI exit codes, round trip, golden image", 5.0):
        raw = json.loads((CONFIGS / "cantor.json").read_text())
        raw["output"]["pathPrefix"] = str(tmp_path / "out" / "cantor")
        cfg = tmp_path / "cantor.json"
        cfg.write_text(json.dumps(raw))

        # exit-code table
        assert cli_main(["check", str(cfg)]) == 0
        assert cli_main(["check", str(CONFIGS / "bad_weights.json")]) == 1
        assert cli_main(["check", str(CONFIGS / "malformed.json")]) == 2
        assert cli_main(["oracle", str(cfg), "--depth", "21"]) == 4

        # CSV -> JSON -> CSV identity
        assert cli_main(["solve", str(cfg)]) == 0
        csv_in = tmp_path / "out" / "cantor.density.csv"
        as_json = tmp_path / "rt.json"
        back = tmp_path / "rt.csv"
        assert cli_main(["export", str(csv_in), "--format", "json", "--out", str(as_json)]) == 0
        assert cli_main(["export", str(as_json), "--format", "csv", "--out", str(back)]) == 0
        assert back.read_bytes() == csv_in.read_bytes()

        # golden PGM, byte for byte
        produced = (tmp_path / "out" / "cantor.density.pgm").read_bytes()
        assert produced == (GOLDEN / "cantor_m256.pgm").read_bytes()
