"""Density-field encodings: CSV, JSON, and plain PGM.

CSV is the primary format: header ``index,x[,y],density``, one row per
grid point in row-major order, 17 significant digits so 64-bit values
round-trip losslessly.  JSON mirrors the same table.  PGM (plain P2,
maxval 255) quantizes density d to round-half-up(255 d) and is the only
lossy encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PGM_MAXVAL = 255
_PGM_VALUES_PER_LINE = 16
# the header of a table, by the dimension of its coordinates
HEADERS = (("index", "x", "density"), ("index", "x", "y", "density"))


@dataclass(frozen=True, eq=False)
class DensityTable:
    """A density field with its grid coordinates, as written to disk.

    ``rows`` is a read-only (n, len(columns)) float array: the index,
    the coordinates, then the density.  Every table, built or read, is
    checked here once; readers prefix the ``ConfigError`` with the path.
    """

    columns: tuple
    rows: np.ndarray

    def __post_init__(self):
        columns = tuple(self.columns) if isinstance(self.columns, (list, tuple)) else None
        if columns not in HEADERS:
            raise ConfigError(f"unrecognized density header {self.columns!r}")
        try:
            rows = np.array(self.rows, dtype=float)
        except (TypeError, ValueError, OverflowError):
            rows = None
        if rows is None or rows.ndim != 2 or rows.shape[1] != len(columns) or not len(rows):
            raise ConfigError(f"the table needs one or more rows of {len(columns)} numeric fields")
        if not np.all(np.isfinite(rows)):
            raise ConfigError("every value must be finite")
        if not np.array_equal(rows[:, 0], np.arange(len(rows))):
            raise ConfigError("the index column must count 0, 1, ..., n-1")
        if not np.all((rows[:, -1] >= 0.0) & (rows[:, -1] <= 1.0)):
            raise ConfigError("densities must lie in [0, 1]")
        rows.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    @property
    def density(self):
        return self.rows[:, -1]

    def grid_shape(self):
        """(width, height) of the row-major grid the table covers."""
        width, height, *_ = [len(np.unique(c)) for c in self.rows[:, 1:-1].T] + [1]
        if width * height != len(self.rows):
            raise ConfigError("the coordinates do not form a row-major grid")
        return width, height


def _checked(path, columns, rows):
    try:
        return DensityTable(columns, rows)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def table_from_space(space, density):
    if space.coords is None:
        raise ConfigError("density export needs a space with coordinates")
    dim = space.coords.shape[1]
    if dim > 2:
        raise ConfigError("density export supports 1-D and 2-D grids only")
    rows = np.column_stack([np.arange(space.n), space.coords, density])
    return DensityTable(HEADERS[dim - 1], rows)


def write_density_csv(path, table):
    row_format = ",".join(["%d"] + ["%.17g"] * (len(table.columns) - 1)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.columns) + "\n")
        fh.writelines(row_format % tuple(row) for row in table.rows.tolist())


def read_density_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty density file")
    columns = tuple(lines[0][1].split(","))
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise ConfigError(f"{path}:{lineno}: expected {len(columns)} fields")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return _checked(path, columns, rows)


def write_density_json(path, table):
    rows = table.rows.astype(object)
    rows[:, 0] = table.rows[:, 0].astype(np.int64).tolist()  # the index as int
    payload = {"columns": list(table.columns), "rows": rows.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_density_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        columns, rows = payload["columns"], payload["rows"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed density JSON ({exc})") from exc
    return _checked(path, columns, rows)


def write_density_pgm(path, table):
    """Plain P2, maxval 255, row-major; value = round-half-up(255 d)."""
    width, height = table.grid_shape()
    values = np.floor(PGM_MAXVAL * table.density + 0.5).astype(np.int64).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P2\n{width} {height}\n{PGM_MAXVAL}\n")
        fh.writelines(
            " ".join(map(str, values[start : start + _PGM_VALUES_PER_LINE])) + "\n"
            for start in range(0, len(values), _PGM_VALUES_PER_LINE)
        )


def read_density_pgm(path):
    """Read a plain PGM back as a density table.

    PGM carries no geometry, so coordinates are reconstructed as a
    uniform unit grid (1-D when the height is 1); densities are
    value/maxval.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = [t for ln in fh for t in ln.split("#", 1)[0].split()]
    if len(tokens) < 4 or tokens[0] != "P2":
        raise ConfigError(f"{path}: not a plain P2 PGM")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        values = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed PGM ({exc})") from exc
    if len(values) != width * height:
        raise ConfigError(f"{path}: PGM pixel count does not match its header")
    if width < 1 or height < 1 or maxval < 1:
        raise ConfigError(f"{path}: malformed PGM header")
    counts = (width,) if height == 1 else (width, height)
    axes = [np.linspace(0.0, 1.0, count) for count in counts]
    coords = np.column_stack([g.ravel() for g in np.meshgrid(*axes)])
    rows = np.column_stack([np.arange(len(values)), coords, values / maxval])
    return _checked(path, HEADERS[len(axes) - 1], rows)


READERS = {"csv": read_density_csv, "json": read_density_json, "pgm": read_density_pgm}
WRITERS = {"csv": write_density_csv, "json": write_density_json, "pgm": write_density_pgm}


def sniff_format(path):
    name = str(path).lower()
    for ext in READERS:
        if name.endswith("." + ext):
            return ext
    raise ConfigError(f"{path}: cannot infer density format from the extension")


def write_report_json(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
