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
from .measures import hypograph_hausdorff
from .oracle import word_expansion
from .spaces import LevelGrid

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_BUDGET = 4
# the first class that matches decides the exit code: subclasses first
_EXIT_CODES = (
    (ConfigError, EXIT_PARSE),
    (ResourceBudgetError, EXIT_BUDGET),
    (StarIfsError, EXIT_VALIDATION),
    (OSError, EXIT_IO),
)


def _print(text):
    """Print a line; once stdout's reader has gone, send stdout to /dev/null and go on."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # at most once: later writes, and the flush at exit, go to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _make_parent(path):
    """Create the directory ``path`` is in, if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)


def _check(args):
    """Load the config, apply the solver flags, and build the space, the
    t-norm, the validated system and the seed, printing one line per
    stage; returns (config, system, seed).
    """
    config = RunConfig.from_path(args.config)
    flags = {"tol": args.tol, "maxIter": args.max_iter, "levelResolution": args.levels}
    config.override_solver({k: v for k, v in flags.items() if v is not None})
    space = config.build_space()
    _print(f"space ok: {space.n} points, diameter {space.diameter:.17g}")
    tnorm = config.build_tnorm()
    _print(f"t-norm ok: {tnorm.config_name()}")
    system = validate(config.build_system(space, tnorm))
    _print(f"system ok: {system.k} maps, contraction constant c = {system.c:.17g}")
    seed = config.seed_measure(space, tnorm)
    _print(f"seed ok: {config.solver['seed']}")
    # from a seed other than the full one, snapped affine images keep orbits
    # up to h/(1-c) apart, so no tolerance below that is ever certified
    tol, floor = config.solver["tol"], space.spacing / (1 - system.c)
    affine = any(m.kind == "affine" for m in system.maps)
    if config.solver["seed"] != "full" and affine and tol < floor:
        _print(
            f"note: tol = {tol:.3g} is below the grid's floor h/(1-c) = {floor:.3g}; "
            "no grid certificate reaches tol"
        )
    return config, system, seed


def cmd_check(args):
    _check(args)
    _print("check passed")
    return EXIT_OK


def cmd_solve(args):
    config, system, seed = _check(args)
    s = config.solver
    measure, report = solve(system, seed, s["tol"], s["maxIter"], s["levelResolution"])
    out = config.output
    prefix = out["pathPrefix"]
    _make_parent(prefix)
    table = io_formats.table_from_space(system.space, measure.density)
    written = []
    for fmt in out["formats"]:
        path = f"{prefix}.density.{fmt}"
        io_formats.WRITERS[fmt](path, table)
        written.append(path)
    report_path = f"{prefix}.report.json"
    io_formats.write_report_json(report_path, report.to_dict())
    written.append(report_path)
    _print(
        f"solved in {report.iterations} iterations "
        f"(stoppedBy={report.stopped_by}, finalResidual={report.final_residual}, "
        f"aprioriBound={report.apriori_bound:.3g})"
    )
    for path in written:
        _print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle(args):
    if args.depth < 0:
        raise ConfigError("--depth: must be >= 0")
    config, system, seed = _check(args)
    depth = args.depth

    expanded = word_expansion(system, seed, depth)
    iterated = seed
    for _ in range(depth):
        iterated = psi(system, iterated)

    space = system.space
    levels = LevelGrid(config.solver["levelResolution"])
    distance = hypograph_hausdorff(space, expanded.density, iterated.density, levels)
    discrepancy = float(np.max(np.abs(expanded.density - iterated.density)))
    h, c = space.spacing, system.c
    # the step-by-step image of a word is within `drift` of its exact
    # image, and the expansion's single snap within h/2 of it
    drift = h * (1 - c**depth) / (2 * (1 - c))
    snap_tolerance = h / 2 + drift
    passed = distance <= snap_tolerance
    report = {
        "depth": depth,
        "words": system.k**depth,
        "hypographDistance": distance,
        "snapTolerance": snap_tolerance,
        "maxDensityDiscrepancy": discrepancy,
        "analyticTolerance": drift,
        "passed": passed,
    }
    _print(json.dumps(report, indent=2))
    return EXIT_OK if passed else EXIT_VALIDATION


def cmd_export(args):
    if args.format not in FORMATS:
        raise ConfigError(f"unknown format {args.format!r}")
    table = io_formats.READERS[io_formats.sniff_format(args.infile)](args.infile)
    _make_parent(args.out)
    try:
        io_formats.WRITERS[args.format](args.out, table)
    except ConfigError as exc:
        # a table the writer cannot encode: name its file, as the readers do
        raise ConfigError(f"{args.infile}: {exc}") from None
    _print(f"wrote {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="starifs",
        description="Invariant idempotent measures of IFSs under triangular norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, func, help):
        """A subcommand that reads a config and takes the solver flags."""
        p = sub.add_parser(name, help=help)
        p.add_argument("config")
        p.add_argument("--tol", type=float, help="override solver.tol (finite, > 0)")
        p.add_argument("--max-iter", type=int, help="override solver.maxIter")
        p.add_argument("--levels", type=int, help="override solver.levelResolution")
        p.set_defaults(func=func)
        return p

    add_config_command("check", cmd_check, "validate a config: space, t-norm, system, seed")
    add_config_command("solve", cmd_solve, "solve for the invariant measure and export")
    add_config_command(
        "oracle", cmd_oracle, "cross-check the solver against word expansion"
    ).add_argument("--depth", type=int, required=True)

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
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
