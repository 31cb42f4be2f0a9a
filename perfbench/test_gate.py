"""The benchmark's output gate and failure count.

    PYTHONPATH=src python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
import workloads
from starifs import ifs
from starifs.config import RunConfig
from starifs.measures import StarMeasure


def _sierpinski_system():
    config, _ = workloads.make_config("sierpinski-64-dirac", 0, "unused")
    cfg = RunConfig.from_dict(config)
    space = cfg.build_space()
    tnorm = cfg.build_tnorm()
    return ifs.validate(cfg.build_system(space, tnorm))


def test_gate_accepts_reference_and_rejects_corrupted_density():
    system = _sierpinski_system()
    reference = workloads.load_density(workloads.DATA / "sierpinski-64.density.json")
    good = StarMeasure(system.space, reference, system.tnorm)
    assert workloads.check_solve("sierpinski-64-dirac", system, good, reference, ifs.psi) == []

    corrupted = reference.copy()
    corrupted[np.flatnonzero(reference == 0.0)[-1]] = 1.0
    bad = StarMeasure(system.space, corrupted, system.tnorm)
    errors = workloads.check_solve("sierpinski-64-dirac", system, bad, reference, ifs.psi)
    assert len(errors) == 3, errors


def test_corrupted_and_raising_runs_count_as_failed(tmp_path):
    system = _sierpinski_system()
    reference = workloads.load_density(workloads.DATA / "sierpinski-64.density.json")
    corrupted = reference.copy()
    corrupted[np.flatnonzero(reference)[-1]] = 0.0
    bad = StarMeasure(system.space, corrupted, system.tnorm)
    errors = workloads.check_solve("sierpinski-64-dirac", system, bad, corrupted, ifs.psi)
    corrupted_run = {"ok": not errors, "errors": errors}

    config_path = tmp_path / "config.json"
    config_path.write_text('{"space": {"kind": "grid1d"}}')
    spec_path = tmp_path / "spec.json"
    spec = {"workload": "cantor-729-oracle", "config": str(config_path), "trace": False}
    spec_path.write_text(json.dumps(spec))
    raising_run = run.attempt([sys.executable, str(run.CHILD), str(spec_path)], run.child_env())
    assert raising_run["ok"] is False
    assert "ConfigError" in raising_run["errors"][0]

    passing_run = {"ok": True, "errors": []}
    assert run.summarize([passing_run, corrupted_run, raising_run]) == (3, 2)
