"""Regenerate the stored reference densities and Sierpinski start points.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when the expected output of a workload changes on purpose;
the benchmark's gate compares every run against these files.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from starifs import ifs
from starifs.config import RunConfig
from starifs.measures import StarMeasure

import workloads

DEFAULT_START = 2080  # the grid centre, (32, 32)
MONOTONE_PREFIX = 7  # steps over which a start's orbit must be neither rising nor falling


def solved(config):
    cfg = RunConfig.from_dict(config)
    space = cfg.build_space()
    tnorm = cfg.build_tnorm()
    system = ifs.validate(cfg.build_system(space, tnorm))
    s = cfg.solver
    measure, report = ifs.solve(
        system,
        seed=cfg.seed_measure(space, tnorm),
        tol=s["tol"],
        max_iter=s["maxIter"],
        level_resolution=s["levelResolution"],
    )
    return space, tnorm, system, measure, report


def dirac_orbit(system, space, tnorm, point, max_steps=40):
    """Steps until the Dirac orbit of ``point`` is fixed, its fixed density,
    and whether its first steps are neither increasing nor decreasing."""
    mu = StarMeasure.dirac(space, point, tnorm)
    mixed = True
    for step in range(1, max_steps + 1):
        nxt = ifs.psi(system, mu)
        if np.array_equal(nxt.density, mu.density):
            return step, mu.density, mixed
        if step <= MONOTONE_PREFIX:
            mixed &= not (
                np.all(nxt.density <= mu.density) or np.all(nxt.density >= mu.density)
            )
        mu = nxt
    return None, mu.density, mixed


def main():
    out = tempfile.mkdtemp()
    _, _, _, measure, _ = solved(workloads.make_config("cantor-6561", 0, f"{out}/c")[0])
    workloads.save_density(workloads.DATA / "cantor-6561.density.json", measure.density)

    config = workloads._sierpinski(64, f"dirac:{DEFAULT_START}")
    space, tnorm, system, measure, report = solved(config)
    workloads.save_density(workloads.DATA / "sierpinski-64.density.json", measure.density)
    steps, fixed, mixed = dirac_orbit(system, space, tnorm, DEFAULT_START)
    assert mixed and report.iterations == steps and np.array_equal(fixed, measure.density)

    n = 64
    starts = [DEFAULT_START]
    for point in range(space.n):
        iy, ix = divmod(point, n)
        if point == DEFAULT_START or not (0 < ix < n - 1 and 0 < iy < n - 1):
            continue
        s, f, m = dirac_orbit(system, space, tnorm, point)
        if s == steps and m and np.array_equal(f, measure.density):
            starts.append(point)
    Path(workloads.DATA / "sierpinski-64.starts.json").write_text(
        json.dumps({"orbitSteps": steps, "starts": starts}) + "\n"
    )
    print(f"{len(starts)} start points with a {steps}-step orbit")


if __name__ == "__main__":
    main()
