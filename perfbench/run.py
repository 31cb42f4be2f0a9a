"""starifs benchmark runner.

    python3 perfbench/run.py --workload cantor-6561 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each run of the workload is a
batch ``solve`` or ``oracle`` in a fresh child interpreter (child.py),
started one at a time from this process, so every run pays what a CLI
user pays apart from interpreter start and imports.  Runs repeat until
``--seconds`` is spent (at least MIN_ROUNDS of them); metrics are medians
over runs.  Phase times are reported at the baseline machine's speed:
each is scaled by a probe kernel timed around the run (calibration.py);
the raw wall times are printed and kept beside them.  ``--trace 0`` prints the end-to-end metrics of untraced runs;
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics of the traced ones plus the tracing overhead.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Run records,
spans and outputs are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "2"
SCALED = ("setup_s", "compute_s", "export_s", "total_s")

def metric_units():
    """Units of the end-to-end and of the per-layer metrics, by name.

    child.layer_metrics computes every per-layer metric except
    trace.overhead_s, which is traced minus untraced compute_s.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


def machine_info():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blasThreads": BLAS_THREADS,
    }


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def attempt(cmd, env=None):
    """Run one child to completion; its record, or a failed one.

    A child that exits nonzero, times out or prints no JSON record is a
    failed run, as is one whose record says its output gate failed.
    """
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "errors": tail}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "errors": ["no JSON record on the last stdout line"]}
    if not isinstance(record, dict) or "ok" not in record:
        return {"ok": False, "errors": ["malformed run record"]}
    return record


def scaled(record, probe_s):
    """The record with its times at the baseline machine's speed.

    ``probe_s`` is the probe kernel's mean time around the run.  Phase
    times and the per-layer times (names ending in _s, _ms or _us) are
    scaled; the raw ones move to ``record["wall"]``.  Spans stay raw.  A
    record without phase times (a child that raised or timed out) is
    returned as it is.
    """
    if all(k in record for k in SCALED):
        scale = calibration.REFERENCE_S / probe_s
        record["wall"] = {k: record[k] for k in SCALED}
        record.update({k: scale * record[k] for k in SCALED})
        record["probe_s"] = probe_s
        if "layers" in record:
            record["wall"]["layers"] = layers = record["layers"]
            record["layers"] = {
                k: scale * v if k.endswith(("_s", "_ms", "_us")) else v
                for k, v in layers.items()
            }
    return record


def summarize(records):
    """(attempted, failed) over run records."""
    return len(records), sum(1 for r in records if not r.get("ok"))


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def measure(commands, seconds):
    """Run each command in turn until ``seconds`` is spent; records per command.

    A further round starts only while a typical round still fits in the
    remaining time, so a run of the benchmark ends near ``seconds``, after
    at least ``MIN_ROUNDS`` rounds.  The probe kernel runs between children,
    and each record is scaled by the mean of the probes right before and
    after it.
    """
    env = child_env()
    records = [[] for _ in commands]
    durations = []
    start = time.perf_counter()
    with calibration.Probe() as probe:
        before = probe.time_s()
        while len(durations) < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.median(durations) <= seconds
        ):
            t = time.perf_counter()
            for cmd, sink in zip(commands, records):
                record = attempt(cmd, env)
                after = probe.time_s()
                sink.append(scaled(record, (before + after) / 2))
                before = after
            durations.append(time.perf_counter() - t)
    return records


def report_line(name, values, unit):
    return (
        f"{name}: median {statistics.median(values):.6g} {unit}"
        f" (min {min(values):.6g}, max {max(values):.6g}, n={len(values)})"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "starifs" / "__init__.py").is_file():
        print(f"error: no starifs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    end_to_end, per_layer = metric_units()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}"
    config, chosen = workloads.make_config(
        args.workload, args.seed, str(OUT / args.workload / "out")
    )
    config_path = OUT / f"{stem}.config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    commands = []
    for trace in range(args.trace + 1):
        spec = {"workload": args.workload, "config": str(config_path), "trace": bool(trace)}
        spec_path = OUT / f"{stem}.trace{trace}.spec.json"
        spec_path.write_text(json.dumps(spec) + "\n")
        commands.append([sys.executable, str(CHILD), str(spec_path)])

    info = machine_info()
    print(f"workload {args.workload}, seed {args.seed}, inputs {json.dumps(chosen)}")
    print(f"machine {json.dumps(info)}")
    untraced, traced = (measure(commands, args.seconds) + [[]])[:2]
    records = untraced + traced
    attempted, failed = summarize(records)
    for r in records:
        if not r["ok"]:
            print(f"failed run: {'; '.join(r['errors'])}")
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")

    good = [r for r in untraced if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    if not good or (args.trace and not good_traced):
        print("error: no run passed its output gate", file=sys.stderr)
        return 1

    metrics = {}
    if args.trace:
        for name, unit in per_layer.items():
            if name == "trace.overhead_s":
                value = median_of(good_traced, "compute_s") - median_of(good, "compute_s")
            else:
                value = statistics.median(r["layers"][name] for r in good_traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in end_to_end.items():
            metrics[name] = {"value": median_of(good, name), "unit": unit}
    for name, unit in end_to_end.items():
        print(report_line(name, [r[name] for r in good], unit))
    for name in SCALED:
        print(report_line(f"{name} wall", [r["wall"][name] for r in good], "s"))
    print(report_line("probe_s", [r["probe_s"] for r in good], "s"))
    if args.trace:
        print(report_line("compute_s traced", [r["compute_s"] for r in good_traced], "s"))
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")

    result_path = OUT / f"{stem}.trace{args.trace}.result.json"
    result_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "inputs": chosen,
                "machine": info,
                "metrics": metrics,
                "runs": [{k: v for k, v in r.items() if k != "spans"} for r in records],
                "spans": [r["spans"] for r in good_traced],
            }
        )
        + "\n"
    )
    print(f"wrote {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
