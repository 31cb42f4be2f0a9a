"""One benchmark run in a fresh interpreter: ``python3 child.py SPEC``.

SPEC is a JSON file naming the workload, its config path and whether to
trace.  The run calls the public functions that
``starifs solve`` / ``starifs oracle`` call, in the same order, timing
each phase with ``time.perf_counter``.  The output gate runs after the
timed region.  The last line on stdout is one JSON record; a run that
raises exits nonzero and prints none.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from starifs import config as config_mod
from starifs import ifs, io_formats, oracle, tnorms

import workloads


class Tracer:
    """Span recorder kept in memory: name, start, end and parent span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapped(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` (a module, class or dict entry) by a traced
        wrapper until ``unpatch``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrapped(name, original)
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapped(name, getattr(owner, attr)))
            self._restore.append(lambda: setattr(owner, attr, original))

    def unpatch(self):
        while self._restore:
            self._restore.pop()()

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name):
        return sum(self.durations(name))

    def self_time(self, name):
        """Span time minus the part of it covered by direct child spans."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids
        )
        return self.total(name) - children


class NullTracer:
    """Stand-in for untraced runs: phase spans cost one call each."""

    @contextmanager
    def span(self, name):
        yield


def instrument(tracer):
    """Wrap the public functions the run calls, at their module boundary."""
    tracer.patch(config_mod.RunConfig, "build_space", "spaces.build")
    tracer.patch(tnorms, "axiom_report", "tnorms.axiom_report")
    tracer.patch(ifs, "validate", "ifs.validate")
    tracer.patch(ifs, "solve", "ifs.solve")
    # solve() looks these two up in the ifs module on every iteration
    tracer.patch(ifs, "psi", "ifs.psi")
    tracer.patch(ifs, "hypograph_hausdorff", "measures.hypograph_hausdorff")
    tracer.patch(oracle, "word_expansion", "oracle.word_expansion")
    tracer.patch(io_formats, "table_from_space", "io_formats.table")
    for fmt in io_formats.WRITERS:
        tracer.patch(io_formats.WRITERS, fmt, "io_formats.write")
    tracer.patch(io_formats, "write_report_json", "io_formats.write")


def setup(config_path, tracer):
    """Parse, build the space, check the t-norm axioms, validate: ``check``."""
    with tracer.span("config.parse"):
        config = config_mod.RunConfig.from_path(config_path)
    space = config.build_space()
    tnorm = config.build_tnorm()
    report = tnorms.axiom_report(tnorm)
    if not report["passed"]:
        raise RuntimeError(f"t-norm axiom failure: {report['deviations']}")
    system = ifs.validate(config.build_system(space, tnorm))
    return config, space, tnorm, system


def compute_solve(config, space, tnorm, system):
    solver = config.solver
    seed = config.seed_measure(space, tnorm)
    return ifs.solve(
        system,
        seed=seed,
        tol=solver["tol"],
        max_iter=solver["maxIter"],
        level_resolution=solver["levelResolution"],
    )


def export_solve(config, space, measure, report):
    out = config.output
    prefix = out["pathPrefix"]
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    table = io_formats.table_from_space(space, measure.density)
    written = []
    for fmt in out["formats"]:
        path = f"{prefix}.density.{fmt}"
        io_formats.WRITERS[fmt](path, table)
        written.append(path)
    report_path = f"{prefix}.report.json"
    io_formats.write_report_json(report_path, report.to_dict())
    written.append(report_path)
    return written


def compute_oracle(config, space, tnorm, system, depth):
    seed = config.seed_measure(space, tnorm)
    expanded = oracle.word_expansion(system, seed, depth)
    iterated = seed
    for _ in range(depth):
        iterated = ifs.psi(system, iterated)
    discrepancy = float(np.max(np.abs(expanded.density - iterated.density)))
    c = system.c
    tolerance = space.spacing * (1 - c**depth) / (2 * (1 - c))
    return {
        "depth": depth,
        "words": system.k**depth,
        "maxDensityDiscrepancy": discrepancy,
        "analyticTolerance": tolerance,
        "passed": discrepancy <= tolerance,
    }


def run(spec):
    workload = workloads.WORKLOADS[spec["workload"]]
    solving = workload["command"] == "solve"
    tracer = Tracer() if spec["trace"] else NullTracer()
    if spec["trace"]:
        instrument(tracer)

    t0 = time.perf_counter()
    with tracer.span("setup"):
        config, space, tnorm, system = setup(spec["config"], tracer)
    t1 = time.perf_counter()
    with tracer.span("compute"):
        if solving:
            measure, report = compute_solve(config, space, tnorm, system)
        else:
            oracle_report = compute_oracle(config, space, tnorm, system, workload["depth"])
    t2 = time.perf_counter()
    with tracer.span("export"):
        if solving:
            written = export_solve(config, space, measure, report)
        else:
            print(json.dumps(oracle_report, indent=2))
            written = []
    t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spec["trace"]:
        tracer.unpatch()
    if solving:
        csv_path = next(p for p in written if p.endswith(".density.csv"))
        csv_density = io_formats.read_density_csv(csv_path).density
        errors = workloads.check_solve(spec["workload"], system, measure, csv_density, ifs.psi)
    else:
        errors = workloads.check_oracle(oracle_report)

    record = {
        "ok": not errors,
        "errors": errors,
        "setup_s": t1 - t0,
        "compute_s": t2 - t1,
        "export_s": t3 - t2,
        "total_s": t3 - t0,
        "peak_rss_mb": peak_rss_mb,
        "iterations": report.iterations if solving else None,
        "stoppedBy": report.stopped_by if solving else None,
    }
    if spec["trace"]:
        record["layers"] = layer_metrics(
            tracer, space, system, written, workload, record["iterations"] or 0
        )
        record["spans"] = tracer.spans
    return record


def layer_metrics(tracer, space, system, written, workload, iterations):
    """Per-layer numbers of one traced run, named as in BENCHMARK.json."""

    def median_ms(name):
        d = tracer.durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    words = system.k ** workload["depth"] if workload["command"] == "oracle" else 0
    expansion_s = tracer.total("oracle.word_expansion")
    return {
        "spaces.build_s": tracer.total("spaces.build"),
        "spaces.space_bytes": space.dist.nbytes + space.coords.nbytes,
        "measures.hypograph_hausdorff.calls": len(tracer.durations("measures.hypograph_hausdorff")),
        "measures.hypograph_hausdorff.total_s": tracer.total("measures.hypograph_hausdorff"),
        "measures.hypograph_hausdorff.median_ms": median_ms("measures.hypograph_hausdorff"),
        "ifs.psi.calls": len(tracer.durations("ifs.psi")),
        "ifs.psi.total_s": tracer.total("ifs.psi"),
        "ifs.psi.median_ms": median_ms("ifs.psi"),
        "ifs.solve.iterations": iterations,
        "ifs.solve.self_s": tracer.self_time("ifs.solve"),
        "oracle.word_expansion_s": expansion_s,
        "oracle.words": words,
        "oracle.per_word_us": 1e6 * expansion_s / words if words else 0.0,
        "io_formats.table_s": tracer.total("io_formats.table"),
        "io_formats.write_s": tracer.total("io_formats.write"),
        "io_formats.bytes_written": sum(os.path.getsize(p) for p in written),
        "config.parse_s": tracer.total("config.parse"),
        "tnorms.axiom_report_s": tracer.total("tnorms.axiom_report"),
        "ifs.validate_s": tracer.total("ifs.validate"),
    }


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    record = run(spec)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
