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

from .errors import ConfigError, DomainError, ResourceBudgetError
from .ifs import DEFAULT_LEVEL_RESOLUTION, DEFAULT_MAX_ITER, DEFAULT_TOL, ContractionMap, IFSSystem
from .io_formats import WRITERS, read_json
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
# a path prefix is nonempty text: NUL and lone surrogates cannot name a file
_PATH_PREFIX_RE = re.compile("[^\0\ud800-\udfff]+")


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


def _numbers(raw, path, **limits):
    """Each entry of the list ``raw``, checked by ``_expect_number`` as ``path[i]``."""
    return [_expect_number(v, f"{path}[{i}]", **limits) for i, v in enumerate(raw)]


def _list(raw, path, message, length=None):
    """``raw``, which must be a list, of ``length`` entries if given, or fail with ``message``."""
    if not isinstance(raw, list) or length is not None and len(raw) != length:
        _fail(path, message)
    return raw


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
    if not isinstance(kind, str) or kind not in _GRID_DIMS:
        _fail("space.kind", "must be 'grid1d' or 'grid2d'")
    dim = _GRID_DIMS[kind]
    counts = _list(space["counts"], "space.counts", f"{kind} takes {dim} point count(s)", dim)
    # grid1d writes its one [lo, hi] pair unnested
    pairs = [space["bounds"]] if dim == 1 else space["bounds"]
    _list(pairs, "space.bounds", f"{kind} takes one [lo, hi] per axis", dim)
    counts, bounds = _numbers(counts, "space.counts", lo=2, integer=True), []
    for ax, pair in enumerate(pairs):
        path = "space.bounds" if dim == 1 else f"space.bounds[{ax}]"
        lo, hi = _numbers(_list(pair, path, "must be [lo, hi]", 2), path)
        if not lo < hi:
            _fail(path, "needs lo < hi")
        bounds.append([lo, hi])
    return {"kind": kind, "counts": counts, "bounds": bounds[0] if dim == 1 else bounds}


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
        at, rows = f"{path}.affine.matrix", "must be a matrix (list of rows)"
        matrix = [_list(row, at, rows) for row in _list(body["matrix"], at, rows)]
        translation = _list(body["translation"], f"{path}.affine.translation", "must be a vector")
        mat = [_numbers(row, f"{at}[{r}]") for r, row in enumerate(matrix)]
        tr = _numbers(translation, f"{path}.affine.translation")
        if len(mat) != dim or any(len(row) != dim for row in mat):
            _fail(f"{path}.affine.matrix", f"must be {dim}x{dim} on a {dim}-D grid")
        if len(tr) != dim:
            _fail(f"{path}.affine.translation", f"must have {dim} entries on a {dim}-D grid")
        return {"affine": {"matrix": mat, "translation": tr}}
    pairs = _object(raw["tabulated"], f"{path}.tabulated", required=("pairs",))["pairs"]
    _list(pairs, f"{path}.tabulated.pairs", "must be a list of [source, target] pairs")
    table = {}
    for j, pair in enumerate(pairs):
        at = f"{path}.tabulated.pairs[{j}]"
        pair = _list(pair, at, "must be [source, target]", 2)
        s, t = _numbers(pair, at, lo=0, hi=n_points - 1, integer=True)
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
        index = dirac.group(1).lstrip("0") or "0"
        # by length first: int() refuses more than 4,300 digits
        if len(index) > len(str(n_points)) or int(index) >= n_points:
            _fail("solver.seed", f"dirac index {index} outside the space of {n_points} points")
        out["seed"] = f"dirac:{index}"
    return out


def _normalize_output(raw):
    raw = _object(raw, "output", defaults=_OUTPUT_DEFAULTS)
    formats = raw["formats"]
    if not isinstance(formats, list) or not all(f in FORMATS for f in formats):
        _fail("output.formats", f"must be a list drawn from {list(FORMATS)}")
    prefix = raw["pathPrefix"]
    if not isinstance(prefix, str) or not _PATH_PREFIX_RE.fullmatch(prefix):
        _fail("output.pathPrefix", "must be a nonempty string without NUL or lone surrogates")
    return {"formats": sorted(set(formats)), "pathPrefix": prefix}


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
        maps = _list(raw["maps"] or None, "maps", "must be a nonempty list")
        maps = [_normalize_map(m, f"maps[{i}]", dim, n_points) for i, m in enumerate(maps)]
        weights = _list(raw["weights"], "weights", "must list one weight per map", len(maps))
        weights = _numbers(weights, "weights", lo=0.0, hi=1.0)
        return cls({
            "space": space,
            "tnorm": _normalize_tnorm(raw["tnorm"]),
            "maps": maps,
            "weights": weights,
            "solver": _normalize_solver(raw["solver"], n_points),
            "output": _normalize_output(raw["output"]),
        })

    @classmethod
    def from_path(cls, path):
        return cls.from_dict(read_json(path))

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
        except MemoryError as exc:
            need = math.prod(s["counts"]) * len(s["counts"]) * 8
            msg = f"space.counts {s['counts']}: {need} bytes of coordinates cannot be allocated"
            raise ResourceBudgetError(msg) from exc

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
        n_points = math.prod(self.data["space"]["counts"])
        self.data = self.data | {"solver": _normalize_solver(self.solver | values, n_points)}

    @property
    def solver(self):
        return self.data["solver"]

    @property
    def output(self):
        return self.data["output"]
