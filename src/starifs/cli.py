"""Batch command-line interface.

Subcommands: check, solve, oracle, export.  Exit codes: 0 pass,
1 validation failure, 2 parse/format error, 3 I/O failure, 4 resource
budget exceeded.  No interactive mode: every command is deterministic
given its config (wall time aside).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io_formats
from .config import FORMATS, RunConfig
from .errors import ConfigError, ResourceBudgetError, StarIfsError
from .ifs import psi, solve, validate
from .oracle import word_expansion
from .tnorms import axiom_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _check(args):
    """Load the config, apply the solver flags, and build the space, the
    t-norm, the validated system and the seed, printing one line per
    stage; returns (config, system, seed).
    """
    config = RunConfig.from_path(args.config)
    flags = {"tol": args.tol, "maxIter": args.max_iter, "levelResolution": args.levels}
    config.override_solver({k: v for k, v in flags.items() if v is not None})
    space = config.build_space()
    print(f"space ok: {space.n} points, diameter {space.diameter:.17g}")
    tnorm = config.build_tnorm()
    report = axiom_report(tnorm)
    if not report["passed"]:
        worst = max(report["deviations"].items(), key=lambda kv: kv[1])
        raise ConfigError(
            f"t-norm axiom failure: {worst[0]} deviates by {worst[1]:.3g}"
        )
    print(f"t-norm ok: {tnorm.config_name()} passed {report['triples']} sampled triples")
    system = validate(config.build_system(space, tnorm))
    print(f"system ok: {system.k} maps, contraction constant c = {system.c:.17g}")
    seed = config.seed_measure(space, tnorm)
    print(f"seed ok: {config.solver['seed']}")
    return config, system, seed


def cmd_check(args):
    _check(args)
    print("check passed")
    return EXIT_OK


def cmd_solve(args):
    config, system, seed = _check(args)
    solver = config.solver
    measure, report = solve(
        system,
        seed=seed,
        tol=solver["tol"],
        max_iter=solver["maxIter"],
        level_resolution=solver["levelResolution"],
    )
    out = config.output
    prefix = out["pathPrefix"]
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    table = io_formats.table_from_space(system.space, measure.density)
    written = []
    for fmt in out["formats"]:
        path = f"{prefix}.density.{fmt}"
        io_formats.WRITERS[fmt](path, table)
        written.append(path)
    report_path = f"{prefix}.report.json"
    io_formats.write_report_json(report_path, report.to_dict())
    written.append(report_path)
    print(
        f"solved in {report.iterations} iterations "
        f"(stoppedBy={report.stopped_by}, finalResidual={report.final_residual}, "
        f"aprioriBound={report.apriori_bound:.3g})"
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle(args):
    _, system, seed = _check(args)
    depth = args.depth

    expanded = word_expansion(system, seed, depth)
    iterated = seed
    for _ in range(depth):
        iterated = psi(system, iterated)

    discrepancy = float(np.max(np.abs(expanded.density - iterated.density)))
    h = system.space.spacing
    c = system.c
    tolerance = h * (1 - c**depth) / (2 * (1 - c))
    passed = discrepancy <= tolerance
    report = {
        "depth": depth,
        "words": system.k**depth,
        "maxDensityDiscrepancy": discrepancy,
        "analyticTolerance": tolerance,
        "passed": passed,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if passed else EXIT_VALIDATION


def cmd_export(args):
    if args.format not in FORMATS:
        raise ConfigError(f"unknown format {args.format!r}")
    table = io_formats.READERS[io_formats.sniff_format(args.infile)](args.infile)
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    io_formats.WRITERS[args.format](args.out, table)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="starifs",
        description="Invariant idempotent measures of IFSs under triangular norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, help="override solver.tol (finite, > 0)")
        p.add_argument("--max-iter", type=int, help="override solver.maxIter")
        p.add_argument("--levels", type=int, help="override solver.levelResolution")

    p = sub.add_parser("check", help="validate a config: space, t-norm, system, seed")
    p.add_argument("config")
    add_solver_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="iterate to the invariant measure and export")
    p.add_argument("config")
    add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="cross-check the solver against word expansion")
    p.add_argument("config")
    p.add_argument("--depth", type=int, required=True)
    add_solver_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export", help="convert a density file between encodings")
    p.add_argument("infile")
    p.add_argument("--format", required=True, help="csv, pgm, or json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StarIfsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
