"""Workload definitions, inputs from the seed, and the output gate.

A workload is a starifs run config plus the command it drives
(``solve`` or ``oracle``).  The seed is the benchmark's only input knob:
it picks the Dirac start point of ``sierpinski-64-dirac`` and is
recorded, unused, by the two Cantor workloads, whose inputs are fixed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

_THIRD = 1.0 / 3.0
_HALF = [[0.5, 0.0], [0.0, 0.5]]
_EXPORTS = ["csv", "json", "pgm"]


def _cantor(n):
    return {
        "space": {"kind": "grid1d", "counts": [n], "bounds": [0, 1]},
        "tnorm": {"family": "product"},
        "maps": [
            {"affine": {"matrix": [[_THIRD]], "translation": [0]}},
            {"affine": {"matrix": [[_THIRD]], "translation": [2 * _THIRD]}},
        ],
        "weights": [1.0, 0.5],
        "solver": {"tol": 1e-6, "maxIter": 10000, "levelResolution": 256, "seed": "full"},
    }


def _sierpinski(n, seed):
    return {
        "space": {"kind": "grid2d", "counts": [n, n], "bounds": [[0, 1], [0, 1]]},
        "tnorm": "min",
        "maps": [
            {"affine": {"matrix": _HALF, "translation": [0, 0]}},
            {"affine": {"matrix": _HALF, "translation": [0.5, 0]}},
            {"affine": {"matrix": _HALF, "translation": [0, 0.5]}},
        ],
        "weights": [1.0, 1.0, 1.0],
        "solver": {"tol": 1e-9, "maxIter": 200, "levelResolution": 256, "seed": seed},
    }


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "cantor-6561": {"command": "solve", "reference": "cantor-6561.density.json"},
    "sierpinski-64-dirac": {"command": "solve", "reference": "sierpinski-64.density.json"},
    "cantor-729-oracle": {"command": "oracle", "depth": 16},
}


def sierpinski_starts():
    """Interior start points whose Dirac orbit reaches the reference fixed
    point after exactly as many steps as point 2080 (listed first).

    Restricting the choice to one orbit length keeps the work per run the
    same for every seed; ``make_reference.py`` derives the list.
    """
    return json.loads((DATA / "sierpinski-64.starts.json").read_text())["starts"]


def make_config(name, seed, path_prefix):
    """The run config of a workload for one seed, and what the seed chose."""
    if name == "cantor-6561":
        config, chosen = _cantor(6561), {}
    elif name == "sierpinski-64-dirac":
        starts = sierpinski_starts()
        point = starts[seed % len(starts)]
        config, chosen = _sierpinski(64, f"dirac:{point}"), {"diracPoint": point}
    elif name == "cantor-729-oracle":
        config, chosen = _cantor(729), {}
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    config["output"] = {"formats": _EXPORTS, "pathPrefix": path_prefix}
    return config, chosen


def save_density(path, density):
    """Store a density by its nonzero entries, every digit kept."""
    nz = np.flatnonzero(density)
    payload = {"n": int(density.size), "nonzero": [[int(i), float(density[i])] for i in nz]}
    Path(path).write_text(json.dumps(payload) + "\n")


def load_density(path):
    payload = json.loads(Path(path).read_text())
    density = np.zeros(payload["n"])
    for i, v in payload["nonzero"]:
        density[i] = v
    return density


def check_solve(name, system, measure, csv_density, psi):
    """Errors of a solve workload's output; empty when it passes.

    The exported CSV must read back equal to the in-memory density, the
    density must be an exact fixed point of ``psi``, and it must equal
    the stored reference.
    """
    density = measure.density
    errors = []
    if csv_density.shape != density.shape or not np.array_equal(csv_density, density):
        errors.append("exported CSV does not read back equal to the density")
    if not np.array_equal(psi(system, measure).density, density):
        errors.append("density is not an exact fixed point of psi")
    reference = load_density(DATA / WORKLOADS[name]["reference"])
    if reference.shape != density.shape or not np.array_equal(reference, density):
        errors.append("density differs from the stored reference")
    return errors


def check_oracle(report):
    """Errors of an oracle run; the discrepancy must be within tolerance."""
    if not report["maxDensityDiscrepancy"] <= report["analyticTolerance"]:
        return [
            f"oracle discrepancy {report['maxDensityDiscrepancy']!r} exceeds "
            f"the analytic tolerance {report['analyticTolerance']!r}"
        ]
    return []

