"""Density-field encodings: CSV, JSON, and plain PGM.

CSV is the primary format: header ``index,x[,y],density``, one row per
grid point in row-major order, the index as an integer and every other
field by ``repr``, the shortest string that reads back to the same
64-bit value.  JSON mirrors the same table in the layout of
``json.dump(indent=2)``, with the same strings.  PGM (plain P2, maxval
255) quantizes density d to round-half-up(255 d) and is the only lossy
encoding.

A table turns its rows into CSV text once, on its first CSV or JSON
write, one string per block of ``_ROW_BLOCK`` rows, formatting each
distinct value of a column once (with its block where no value repeats)
and keeps that text: the CSV writer writes it, and the JSON writer
re-punctuates it.  The PGM writer joins the strings of its 8-bit values.

Every writer opens its path through ``_create``.  A regular file already
there, owned by this process and writable by its owner, is unlinked and
a new one created with its permission bits, so other hard links to it
keep the old bytes.  On ext4 this is cheaper than truncating the file in
place, because a truncated file that is written again has its writeback
started at close (``auto_da_alloc``); the price is that a new file stays
in the page cache until the kernel writes it back, so a crash in that
time can leave it empty or missing, with the old bytes gone too.
Anything else at the path (a symlink, a device, a FIFO, a read-only or
another user's file) is opened with a truncating ``open`` and written
through.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .spaces import _distinct, _lattice

PGM_MAXVAL = 255
_PGM_VALUES_PER_LINE = 16
_PGM_TEXT = np.array([str(v) for v in range(PGM_MAXVAL + 1)], dtype=object)
# rows formatted at once by the writers; a multiple of _PGM_VALUES_PER_LINE
_ROW_BLOCK = 512
# the header of a table, by the dimension of its coordinates
HEADERS = (("index", "x", "density"), ("index", "x", "y", "density"))


@dataclass(frozen=True, eq=False)
class DensityTable:
    """A density field with its grid coordinates, as written to disk.

    ``rows`` is a read-only (n, len(columns)) float array: the index,
    the coordinates, then the density.  Every table, built or read, is
    checked here once; readers prefix the ``ConfigError`` with the path.
    Its first CSV or JSON write keeps ``_csv_rows`` for later writes.
    """

    columns: tuple
    rows: np.ndarray

    def __post_init__(self):
        columns = tuple(self.columns) if isinstance(self.columns, (list, tuple)) else None
        if columns not in HEADERS:
            raise ConfigError(f"unrecognized density header {self.columns!r}")
        try:
            rows = np.array(self.rows, dtype=float, order="C")  # written row by row
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

    @cached_property
    def _csv_rows(self):
        """The CSV lines, one string per block of ``_ROW_BLOCK`` rows: the
        index as an integer and every other field by the ``repr`` of its
        value.  Each column's distinct values, told apart by their bits so
        that -0.0 keeps its sign, are formatted once, with their punctuation:
        for all blocks, or by each block where every row holds its own value."""
        n, width = len(self.rows), len(self.columns)

        def text(j, values):
            strings = list(map(repr, values.view(float).tolist()))
            end = "\n" if j == width - 2 else ""
            # the comma before the field; the index's string ends in the first one
            return ["," + s + end for s in strings] if j else strings
        split = []
        for j, column in enumerate(self.rows[:, 1:].T):
            bits = column.view(np.int64)
            distinct = _distinct(bits)
            own = len(distinct) == n  # every row its own value, as a 1-D grid's x
            strings = None if own else np.array(text(j, distinct), dtype=object)
            split.append((bits, None if own else distinct, strings))
        blocks = []
        for start in range(0, n, _ROW_BLOCK):
            rows = range(start, min(start + _ROW_BLOCK, n))
            fields = [None] * (len(rows) * width)
            fields[::width] = [f"{i}," for i in rows]
            for j, (bits, distinct, strings) in enumerate(split):
                values = bits[start : rows.stop]
                if distinct is None:  # the block's own strings, gone with the block
                    fields[j + 1 :: width] = text(j, values)
                else:
                    fields[j + 1 :: width] = strings[np.searchsorted(distinct, values)].tolist()
            blocks.append("".join(fields))
        return blocks

    def grid_shape(self):
        """(width, height) of the row-major grid the table covers: its
        coordinates must be ``_lattice`` of each column's distinct values."""
        coords = self.rows[:, 1:-1]
        axes = [_distinct(c) for c in coords.T]
        width, height, *_ = [len(a) for a in axes] + [1]
        # x along each row, y down each column of the (height, width) grid
        lines = [axes[0]] + [a[:, None] for a in axes[1:]]
        if width * height != len(coords) or not all(
            np.all(c.reshape(height, width) == a) for c, a in zip(coords.T, lines)
        ):
            raise ConfigError("the coordinates do not form a row-major grid")
        return width, height


def read_text(path):
    """An input file's text; bytes that are not UTF-8 fail naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def read_json(path):
    """An input file's JSON value.  A syntax error names the file, line and column;
    arrays nested too deep or an integer of over 4,300 digits, the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:  # int()'s digit limit, whose advice names a Python call
        raise ConfigError(f"{path}: an integer of over {sys.get_int_max_str_digits()} digits") from exc


def _checked(path, columns, rows):
    try:
        return DensityTable(columns, rows)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _create(path):
    """Open ``path`` for writing; an old output of ours becomes a new file.

    A regular file there that this process owns and whose owner may write
    it is unlinked, and the new file gets its permission bits.  Anything
    else (a symlink, a device, a FIFO, a read-only file, another user's
    file) or a failed unlink is opened as it is, so ``open`` refuses a
    file this user may not write.
    """
    try:
        st = os.lstat(path)
    except OSError:
        st = None
    replace = (
        st is not None
        and stat.S_ISREG(st.st_mode)
        and st.st_uid == os.geteuid()
        and st.st_mode & stat.S_IWUSR
    )
    if replace:
        with contextlib.suppress(OSError):
            os.unlink(path)
    fh = open(path, "w", encoding="utf-8")
    if replace:
        # a filesystem that cannot store the mode keeps its own
        with contextlib.suppress(OSError):
            os.chmod(fh.fileno(), st.st_mode & 0o777)
    return fh


def table_from_space(space, density):
    if space.coords is None:
        raise ConfigError("density export needs a space with coordinates")
    dim = space.coords.shape[1]
    if dim > 2:
        raise ConfigError("density export supports 1-D and 2-D grids only")
    rows = np.column_stack([np.arange(space.n), space.coords, density])
    return DensityTable(HEADERS[dim - 1], rows)


def write_density_csv(path, table):
    with _create(path) as fh:
        fh.write(",".join(table.columns) + "\n")
        fh.writelines(table._csv_rows)


def read_density_csv(path):
    """Read a CSV table: every field in one numpy conversion, or, when that
    fails, line by line, split at line feeds only, so the error names the physical line."""
    lines = [ln.strip() for ln in read_text(path).split("\n")]
    body = [ln for ln in lines if ln]
    if not body:
        raise ConfigError(f"{path}: empty density file")
    columns = tuple(body[0].split(","))
    rows = body[1:]
    text = ",".join(rows)
    try:
        # float() also reads "0_5" and other scripts' digits ("٠.٧٥"): fields are ASCII, no "_"
        if {ln.count(",") for ln in rows} != {len(columns) - 1} or not text.isascii() or "_" in text:
            raise ValueError("a row has the wrong field count or a field that is not ASCII")
        # numpy converts each string with float(), as the line scan does
        values = np.array(text.split(","), dtype=float)
    except ValueError:
        return _read_csv_lines(path, columns, lines)
    return _checked(path, columns, values.reshape(len(rows), len(columns)))


def _read_csv_lines(path, columns, lines):
    """The line scan of ``read_density_csv``, which names the first bad line."""
    rows = []
    numbered = [(no, ln) for no, ln in enumerate(lines, start=1) if ln]
    for lineno, ln in numbered[1:]:
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise ConfigError(f"{path}:{lineno}: expected {len(columns)} fields")
        if not ln.isascii() or "_" in ln:
            raise ConfigError(f"{path}:{lineno}: fields must be ASCII numbers without '_'")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return _checked(path, columns, rows)


def write_density_json(path, table):
    """``json.dump({"columns": ..., "rows": ...}, indent=2)`` and a newline,
    byte for byte, without the encoder: the CSV text re-punctuated, which
    holds the index as an int and every other value by ``repr``, as
    ``json`` writes a float; neither has a ``]``, ``,`` or line feed."""
    columns = ",\n".join("    " + json.dumps(c) for c in table.columns)
    blocks = table._csv_rows
    with _create(path) as fh:
        fh.write('{\n  "columns": [\n' + columns + '\n  ],\n  "rows": [\n    [\n      ')
        # a line feed opens the next row, so the last block drops its last one
        for block in blocks[:-1] + [blocks[-1][:-1]]:
            text = block.replace("\n", "]").replace(",", ",\n      ")
            fh.write(text.replace("]", "\n    ],\n    [\n      "))
        fh.write("\n    ]\n  ]\n}\n")


def read_density_json(path):
    payload = read_json(path)
    try:
        columns, rows = payload["columns"], payload["rows"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed density JSON ({exc})") from exc
    table = _checked(path, columns, rows)
    if not all(type(v) in (int, float) for row in rows for v in row):  # no string or bool
        raise ConfigError(f"{path}: every value must be a JSON number")
    return table


def write_density_pgm(path, table):
    """Plain P2, maxval 255, row-major; value = round-half-up(255 d)."""
    width, height = table.grid_shape()
    with _create(path) as fh:
        fh.write(f"P2\n{width} {height}\n{PGM_MAXVAL}\n")
        for start in range(0, len(table.rows), _ROW_BLOCK):
            density = table.density[start : start + _ROW_BLOCK]
            block = _PGM_TEXT[np.floor(PGM_MAXVAL * density + 0.5).astype(np.intp)].tolist()
            parts = [" "] * (2 * len(block))
            parts[::2] = block
            lines = len(block) // _PGM_VALUES_PER_LINE
            parts[2 * _PGM_VALUES_PER_LINE - 1 :: 2 * _PGM_VALUES_PER_LINE] = ["\n"] * lines
            parts[-1] = "\n"  # a block ends a line
            fh.write("".join(parts))


def read_density_pgm(path):
    """Read a plain PGM back as a density table.

    PGM carries no geometry, so coordinates are reconstructed as a
    uniform unit grid (1-D when the height is 1); densities are
    value/maxval, with 0 < maxval < 65536 as plain PGM requires.
    """
    tokens = [t for ln in read_text(path).split("\n") for t in ln.split("#", 1)[0].split()]
    if len(tokens) < 4 or tokens[0] != "P2":
        raise ConfigError(f"{path}: not a plain P2 PGM")
    try:
        # ASCII decimal digits only: int() also reads "+1", "1_0" and "٣"
        width, height, maxval = (int(t) if t.isascii() and t.isdigit() else 0 for t in tokens[1:4])
        if not all(t.isascii() and t.isdigit() for t in tokens[4:]):
            raise ValueError("a pixel is not ASCII decimal digits")
        values = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed PGM ({exc})") from exc
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ConfigError(f"{path}: malformed PGM header")
    if len(values) != width * height:
        raise ConfigError(f"{path}: PGM pixel count does not match its header")
    counts = (width,) if height == 1 else (width, height)
    axes = [np.linspace(0.0, 1.0, count) for count in counts]
    rows = np.column_stack([np.arange(len(values)), _lattice(axes), values / maxval])
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
    with _create(path) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
