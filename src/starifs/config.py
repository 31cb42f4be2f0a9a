"""Run configuration: a single JSON tree describing space, t-norm, maps,
weights, solver parameters, and outputs.

Parsing either succeeds completely or fails with a field-labeled
ConfigError; syntax errors keep the line/column from the JSON decoder.
Parsed configs normalize to a canonical dict that re-serializes and
re-parses identically.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .ifs import DEFAULT_LEVEL_RESOLUTION, DEFAULT_MAX_ITER, DEFAULT_TOL, ContractionMap, IFSSystem
from .io_formats import WRITERS
from .measures import StarMeasure
from .spaces import MAX_LEVEL_RESOLUTION, GridSpace
from .tnorms import parse_tnorm

# a tuple, so an unhashable entry of output.formats compares unequal
FORMATS = tuple(WRITERS)
_GRID_DIMS = {"grid1d": 1, "grid2d": 2}

_SOLVER_DEFAULTS = dict(
    tol=DEFAULT_TOL, maxIter=DEFAULT_MAX_ITER, levelResolution=DEFAULT_LEVEL_RESOLUTION, seed="full"
)
_DIRAC_RE = re.compile(r"dirac:([0-9]+)")
_OUTPUT_DEFAULTS = {"formats": ["csv", "json"], "pathPrefix": "starifs_out"}


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _expect_number(value, path, lo=None, hi=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "must be a number")
    # json accepts NaN, Infinity and integers beyond the float range
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        _fail(path, "must be a finite number")
    if integer and int(value) != value:
        _fail(path, "must be an integer")
    if lo is not None and value < lo:
        _fail(path, f"must be >= {lo}")
    if hi is not None and value > hi:
        _fail(path, f"must be <= {hi}")
    return int(value) if integer else float(value)


def _object(raw, path, required=(), defaults=None):
    """``raw`` as a JSON object with ``defaults`` filled in.

    A non-object, a missing required key or an unknown key fails with
    the dotted field path; ``path`` is "" at the top level.
    """
    if not isinstance(raw, dict):
        _fail(path or "top level", "must be an object")
    prefix = f"{path}." if path else ""
    defaults = defaults or {}
    for key in required:
        if key not in raw:
            _fail(prefix + key, "missing required field")
    unknown = set(raw) - set(required) - set(defaults)
    if unknown:
        _fail(prefix + sorted(unknown)[0], "unknown field")
    return defaults | raw


def _normalize_space(raw):
    # kind first: it decides what counts and bounds must look like
    space = _object(raw, "space", required=("kind",), defaults={"counts": None, "bounds": None})
    kind = space["kind"]
    if kind not in _GRID_DIMS:
        _fail("space.kind", "must be 'grid1d' or 'grid2d'")
    dim = _GRID_DIMS[kind]
    # grid1d writes its one [lo, hi] pair unnested
    counts, pairs = space["counts"], [space["bounds"]] if dim == 1 else space["bounds"]
    if not (isinstance(counts, list) and len(counts) == dim):
        _fail("space.counts", f"{kind} takes {dim} point count(s)")
    if not (isinstance(pairs, list) and len(pairs) == dim):
        _fail("space.bounds", f"{kind} takes one [lo, hi] per axis")
    out = {"kind": kind, "counts": [], "bounds": []}
    for ax, (count, pair) in enumerate(zip(counts, pairs)):
        out["counts"].append(_expect_number(count, f"space.counts[{ax}]", lo=2, integer=True))
        path = "space.bounds" if dim == 1 else f"space.bounds[{ax}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(path, "must be [lo, hi]")
        lo = _expect_number(pair[0], f"{path}[0]")
        hi = _expect_number(pair[1], f"{path}[1]")
        if not lo < hi:
            _fail(path, "needs lo < hi")
        out["bounds"].append([lo, hi])
    if dim == 1:
        out["bounds"] = out["bounds"][0]
    return out


def _normalize_tnorm(raw):
    if isinstance(raw, str):
        family, param = raw, None
    else:
        body = _object(raw, "tnorm", required=("family",), defaults={"parameter": None})
        family, param = body["family"], body["parameter"]
        if not isinstance(family, str):
            _fail("tnorm.family", "must be a string")
        if param is not None:
            if family != "hamacher":
                _fail("tnorm.parameter", "is read only by family 'hamacher'")
            param = _expect_number(param, "tnorm.parameter", lo=0.0)
    try:
        t = parse_tnorm(family, param)
    except DomainError as exc:
        _fail("tnorm", str(exc))
    cfg = {"family": "min" if t.family == "minimum" else t.family}
    if t.family == "hamacher":
        cfg["parameter"] = t.parameter
    return cfg


def _normalize_map(raw, path, dim, n_points):
    _object(raw, path, defaults={"affine": None, "tabulated": None})
    if len(raw) != 1:
        _fail(path, "must be {'affine': ...} or {'tabulated': ...}")
    if "affine" in raw:
        body = _object(raw["affine"], f"{path}.affine", required=("matrix", "translation"))
        matrix, translation = body["matrix"], body["translation"]
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            _fail(f"{path}.affine.matrix", "must be a matrix (list of rows)")
        if not isinstance(translation, list):
            _fail(f"{path}.affine.translation", "must be a vector")
        mat = [
            [_expect_number(v, f"{path}.affine.matrix[{r}][{c}]") for c, v in enumerate(row)]
            for r, row in enumerate(matrix)
        ]
        tr = [
            _expect_number(v, f"{path}.affine.translation[{j}]")
            for j, v in enumerate(translation)
        ]
        if len(mat) != dim or any(len(row) != dim for row in mat):
            _fail(f"{path}.affine.matrix", f"must be {dim}x{dim} on a {dim}-D grid")
        if len(tr) != dim:
            _fail(f"{path}.affine.translation", f"must have {dim} entries on a {dim}-D grid")
        return {"affine": {"matrix": mat, "translation": tr}}
    pairs = _object(raw["tabulated"], f"{path}.tabulated", required=("pairs",))["pairs"]
    if not isinstance(pairs, list):
        _fail(f"{path}.tabulated.pairs", "must be a list of [source, target] pairs")
    table = {}
    for j, pair in enumerate(pairs):
        at = f"{path}.tabulated.pairs[{j}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(at, "must be [source, target]")
        s = _expect_number(pair[0], f"{at}[0]", lo=0, hi=n_points - 1, integer=True)
        t = _expect_number(pair[1], f"{at}[1]", lo=0, hi=n_points - 1, integer=True)
        if s in table:
            _fail(at, f"duplicate source {s}")
        table[s] = t
    # distinct sources in 0..n-1: n of them cover every point
    if len(table) != n_points:
        _fail(f"{path}.tabulated.pairs", "must cover every point exactly once")
    return {"tabulated": {"pairs": [[s, table[s]] for s in sorted(table)]}}


def _normalize_solver(raw, n_points):
    raw = _object(raw, "solver", defaults=_SOLVER_DEFAULTS)
    out = {
        "tol": _expect_number(raw["tol"], "solver.tol"),
        "maxIter": _expect_number(raw["maxIter"], "solver.maxIter", lo=1, integer=True),
        "levelResolution": _expect_number(
            raw["levelResolution"],
            "solver.levelResolution",
            lo=1,
            hi=MAX_LEVEL_RESOLUTION,
            integer=True,
        ),
        "seed": raw["seed"],
    }
    if out["tol"] <= 0:
        _fail("solver.tol", "must be > 0")
    seed = out["seed"]
    if seed != "full":
        dirac = _DIRAC_RE.fullmatch(seed) if isinstance(seed, str) else None
        if dirac is None:
            _fail("solver.seed", "must be 'full' or 'dirac:<pointIndex>' (ASCII digits)")
        index = int(dirac.group(1))
        if index >= n_points:
            _fail("solver.seed", f"dirac index {index} outside the space of {n_points} points")
        out["seed"] = f"dirac:{index}"
    return out


def _normalize_output(raw):
    raw = _object(raw, "output", defaults=_OUTPUT_DEFAULTS)
    formats = raw["formats"]
    if not isinstance(formats, list) or not all(f in FORMATS for f in formats):
        _fail("output.formats", f"must be a subset of {set(FORMATS)}")
    if not isinstance(raw["pathPrefix"], str) or not raw["pathPrefix"]:
        _fail("output.pathPrefix", "must be a nonempty string")
    return {"formats": sorted(set(formats)), "pathPrefix": raw["pathPrefix"]}


@dataclass
class RunConfig:
    """A fully validated run description with canonical field values."""

    data: dict

    @classmethod
    def from_dict(cls, raw):
        required = ("space", "tnorm", "maps", "weights")
        raw = _object(raw, "", required, defaults={"solver": {}, "output": {}})
        space = _normalize_space(raw["space"])
        dim = len(space["counts"])
        n_points = math.prod(space["counts"])
        if not isinstance(raw["maps"], list) or not raw["maps"]:
            _fail("maps", "must be a nonempty list")
        maps = [_normalize_map(m, f"maps[{i}]", dim, n_points) for i, m in enumerate(raw["maps"])]
        if not isinstance(raw["weights"], list) or len(raw["weights"]) != len(maps):
            _fail("weights", "must list one weight per map")
        weights = [
            _expect_number(w, f"weights[{i}]", lo=0.0, hi=1.0)
            for i, w in enumerate(raw["weights"])
        ]
        data = {
            "space": space,
            "tnorm": _normalize_tnorm(raw["tnorm"]),
            "maps": maps,
            "weights": weights,
            "solver": _normalize_solver(raw["solver"], n_points),
            "output": _normalize_output(raw["output"]),
        }
        return cls(data)

    @classmethod
    def from_path(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        return cls.from_dict(raw)

    def to_json(self):
        return json.dumps(self.data, indent=2) + "\n"

    # -- builders ------------------------------------------------------

    def build_space(self):
        s = self.data["space"]
        pairs = [s["bounds"]] if s["kind"] == "grid1d" else s["bounds"]
        try:
            return GridSpace([(lo, hi, n) for (lo, hi), n in zip(pairs, s["counts"])])
        except DomainError as exc:
            _fail("space", str(exc))

    def build_tnorm(self):
        t = self.data["tnorm"]
        return parse_tnorm(t["family"], t.get("parameter"))

    def build_system(self, space=None, tnorm=None):
        space = space if space is not None else self.build_space()
        tnorm = tnorm if tnorm is not None else self.build_tnorm()
        maps = [
            ContractionMap.affine(m["affine"]["matrix"], m["affine"]["translation"])
            if "affine" in m
            else ContractionMap.tabulated([t for _, t in m["tabulated"]["pairs"]])
            for m in self.data["maps"]
        ]
        return IFSSystem(space, maps, self.data["weights"], tnorm)

    def seed_measure(self, space, tnorm):
        """The seed measure; a Dirac index was range-checked at parse time."""
        seed = self.data["solver"]["seed"]
        if seed == "full":
            return StarMeasure.full(space, tnorm)
        return StarMeasure.dirac(space, int(seed.removeprefix("dirac:")), tnorm)

    def override_solver(self, values):
        """Replace solver fields, checked as the config file's are."""
        self.data = RunConfig.from_dict(self.data | {"solver": self.solver | values}).data

    @property
    def solver(self):
        return self.data["solver"]

    @property
    def output(self):
        return self.data["output"]
