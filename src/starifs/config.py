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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ifs import ContractionMap, IFSSystem
from .measures import StarMeasure
from .spaces import grid_1d, grid_2d
from .tnorms import parse_tnorm

FORMATS = ("csv", "pgm", "json")

_SOLVER_DEFAULTS = {"tol": 1e-6, "maxIter": 10_000, "levelResolution": 256, "seed": "full"}
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


def _normalize_space(raw):
    if not isinstance(raw, dict):
        _fail("space", "must be an object")
    kind = raw.get("kind")
    if kind not in ("grid1d", "grid2d"):
        _fail("space.kind", "must be 'grid1d' or 'grid2d'")
    counts = raw.get("counts")
    bounds = raw.get("bounds")
    if kind == "grid1d":
        if not (isinstance(counts, list) and len(counts) == 1):
            _fail("space.counts", "grid1d takes one point count")
        n = _expect_number(counts[0], "space.counts[0]", lo=2, integer=True)
        if not (isinstance(bounds, list) and len(bounds) == 2):
            _fail("space.bounds", "grid1d takes [a, b]")
        a = _expect_number(bounds[0], "space.bounds[0]")
        b = _expect_number(bounds[1], "space.bounds[1]")
        if not a < b:
            _fail("space.bounds", "needs a < b")
        return {"kind": kind, "counts": [n], "bounds": [a, b]}
    if not (isinstance(counts, list) and len(counts) == 2):
        _fail("space.counts", "grid2d takes [nx, ny]")
    nx = _expect_number(counts[0], "space.counts[0]", lo=2, integer=True)
    ny = _expect_number(counts[1], "space.counts[1]", lo=2, integer=True)
    if not (isinstance(bounds, list) and len(bounds) == 2):
        _fail("space.bounds", "grid2d takes [[x0, x1], [y0, y1]]")
    out = []
    for ax, rng in enumerate(bounds):
        if not (isinstance(rng, list) and len(rng) == 2):
            _fail(f"space.bounds[{ax}]", "must be [lo, hi]")
        lo = _expect_number(rng[0], f"space.bounds[{ax}][0]")
        hi = _expect_number(rng[1], f"space.bounds[{ax}][1]")
        if not lo < hi:
            _fail(f"space.bounds[{ax}]", "needs lo < hi")
        out.append([lo, hi])
    return {"kind": kind, "counts": [nx, ny], "bounds": out}


def _normalize_tnorm(raw):
    if isinstance(raw, str):
        t = parse_tnorm(raw)
    elif isinstance(raw, dict):
        family = raw.get("family")
        if not isinstance(family, str):
            _fail("tnorm.family", "must be a string")
        param = raw.get("parameter")
        if param is not None:
            param = _expect_number(param, "tnorm.parameter", lo=0.0)
        try:
            t = parse_tnorm(family, param)
        except Exception as exc:
            _fail("tnorm", str(exc))
    else:
        _fail("tnorm", "must be a name or an object")
    cfg = {"family": "min" if t.family == "minimum" else t.family}
    if t.family == "hamacher":
        cfg["parameter"] = t.parameter
    return cfg


def _normalize_map(raw, i, n_points):
    path = f"maps[{i}]"
    if not isinstance(raw, dict) or len(raw) != 1:
        _fail(path, "must be {'affine': ...} or {'tabulated': ...}")
    if "affine" in raw:
        body = raw["affine"]
        if not isinstance(body, dict):
            _fail(f"{path}.affine", "must be an object")
        matrix = body.get("matrix")
        translation = body.get("translation")
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
        if any(len(row) != len(mat) for row in mat) or len(tr) != len(mat):
            _fail(f"{path}.affine", "matrix must be square and match the translation")
        return {"affine": {"matrix": mat, "translation": tr}}
    if "tabulated" in raw:
        body = raw["tabulated"]
        pairs = body.get("pairs") if isinstance(body, dict) else None
        if not isinstance(pairs, list):
            _fail(f"{path}.tabulated.pairs", "must be a list of [source, target] pairs")
        table = {}
        for j, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                _fail(f"{path}.tabulated.pairs[{j}]", "must be [source, target]")
            s = _expect_number(pair[0], f"{path}.tabulated.pairs[{j}][0]", lo=0, integer=True)
            t = _expect_number(pair[1], f"{path}.tabulated.pairs[{j}][1]", lo=0, integer=True)
            if s in table:
                _fail(f"{path}.tabulated.pairs[{j}]", f"duplicate source {s}")
            table[s] = t
        if n_points is not None and sorted(table) != list(range(n_points)):
            _fail(f"{path}.tabulated.pairs", "must cover every point exactly once")
        return {"tabulated": {"pairs": [[s, table[s]] for s in sorted(table)]}}
    _fail(path, "must be {'affine': ...} or {'tabulated': ...}")


def _normalize_solver(raw):
    raw = dict(_SOLVER_DEFAULTS) | (raw or {})
    out = {
        "tol": _expect_number(raw["tol"], "solver.tol"),
        "maxIter": _expect_number(raw["maxIter"], "solver.maxIter", lo=1, integer=True),
        "levelResolution": _expect_number(
            raw["levelResolution"], "solver.levelResolution", lo=1, integer=True
        ),
        "seed": raw["seed"],
    }
    if out["tol"] <= 0:
        _fail("solver.tol", "must be > 0")
    seed = out["seed"]
    if not isinstance(seed, str) or not (
        seed == "full" or seed.startswith("dirac:")
    ):
        _fail("solver.seed", "must be 'full' or 'dirac:<pointIndex>'")
    if seed.startswith("dirac:"):
        try:
            int(seed.split(":", 1)[1])
        except ValueError:
            _fail("solver.seed", "dirac seed needs an integer point index")
    return out


def _normalize_output(raw):
    raw = dict(_OUTPUT_DEFAULTS) | (raw or {})
    formats = raw["formats"]
    if not isinstance(formats, list) or not set(formats) <= set(FORMATS):
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
        if not isinstance(raw, dict):
            raise ConfigError("top level: must be an object")
        for key in ("space", "tnorm", "maps", "weights"):
            if key not in raw:
                _fail(key, "missing required field")
        unknown = set(raw) - {"space", "tnorm", "maps", "weights", "solver", "output"}
        if unknown:
            _fail(sorted(unknown)[0], "unknown field")
        space = _normalize_space(raw["space"])
        n_points = int(np.prod(space["counts"]))
        if not isinstance(raw["maps"], list) or not raw["maps"]:
            _fail("maps", "must be a nonempty list")
        maps = [_normalize_map(m, i, n_points) for i, m in enumerate(raw["maps"])]
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
            "solver": _normalize_solver(raw.get("solver")),
            "output": _normalize_output(raw.get("output")),
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
        if s["kind"] == "grid1d":
            return grid_1d(s["counts"][0], *s["bounds"])
        return grid_2d(s["counts"][0], s["counts"][1], s["bounds"])

    def build_tnorm(self):
        t = self.data["tnorm"]
        return parse_tnorm(t["family"], t.get("parameter"))

    def build_system(self, space=None, tnorm=None):
        space = space if space is not None else self.build_space()
        tnorm = tnorm if tnorm is not None else self.build_tnorm()
        maps = []
        for m in self.data["maps"]:
            if "affine" in m:
                maps.append(
                    ContractionMap.affine(m["affine"]["matrix"], m["affine"]["translation"])
                )
            else:
                table = np.array([t for _, t in m["tabulated"]["pairs"]], dtype=np.int64)
                maps.append(ContractionMap.tabulated(table))
        return IFSSystem(space, maps, self.data["weights"], tnorm)

    def seed_measure(self, space, tnorm):
        seed = self.data["solver"]["seed"]
        if seed == "full":
            return StarMeasure.full(space, tnorm)
        index = int(seed.split(":", 1)[1])
        if not 0 <= index < space.n:
            _fail("solver.seed", f"dirac index {index} outside the space")
        return StarMeasure.dirac(space, index, tnorm)

    @property
    def solver(self):
        return self.data["solver"]

    @property
    def output(self):
        return self.data["output"]
