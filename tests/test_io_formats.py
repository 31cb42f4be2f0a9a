"""The density writers against the encoders they replace, their
round trip and shared value strings, and the pinned bytes of the test
configs' CSV and JSON outputs."""

import contextlib
import hashlib
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starifs as si
from starifs import io_formats
from starifs.cli import main
from starifs.config import RunConfig
from starifs.io_formats import HEADERS, DensityTable
from starifs.spaces import _distinct, _lattice

from conftest import REFERENCE_WRITERS

TESTS = Path(__file__).parent
CONFIGS = TESTS / "configs"
GOLDEN = TESTS / "golden"


def _solved_table(name):
    config = RunConfig.from_path(CONFIGS / f"{name}.json")
    space = config.build_space()
    tnorm = config.build_tnorm()
    system = si.validate(config.build_system(space, tnorm))
    measure, _ = si.solve(system, seed=config.seed_measure(space, tnorm))
    return io_formats.table_from_space(space, measure.density)


def _grid_table(width, height, rng):
    """A random density on a width x height unit grid, 1-D when height is 1;
    about half of the densities repeat a few values."""
    n = width * height
    density = rng.uniform(0.0, 1.0, n)
    repeated = rng.random(n) < 0.5
    density[repeated] = rng.choice([0.0, 0.5, 1.0, 1.0 / 3.0], int(repeated.sum()))
    axes = [np.linspace(0.0, 1.0, c) for c in ((width,) if height == 1 else (width, height))]
    coords = np.column_stack([g.ravel() for g in np.meshgrid(*axes)])
    return DensityTable(HEADERS[len(axes) - 1], np.column_stack([np.arange(n), coords, density]))


def _edge_table():
    """Floats whose shortest repr and 17-digit forms differ, the smallest
    subnormal, and negative zeros, one of them in a column that also
    holds 0.0."""
    x = [-0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 2.0, 1e16]
    density = [5e-324, 1e-300, 0.1, 1.0 / 3.0, 1.0, 0.0, -0.0]
    return DensityTable(HEADERS[0], np.column_stack([np.arange(len(x)), x, density]))


TABLES = {
    "cantor-solve": lambda: _solved_table("cantor"),
    "sierpinski-solve": lambda: _solved_table("sierpinski"),
    "golden-pgm": lambda: io_formats.read_density_pgm(GOLDEN / "cantor_m256.pgm"),
    "edge-values": _edge_table,
    "one-row": lambda: DensityTable(HEADERS[0], [[0, 0.25, 1.0]]),
    "one-row-2d": lambda: DensityTable(HEADERS[1], [[0, 0.25, -0.0, 1.0]]),
}
# one 512-row block, two and eight blocks, each with one row either side, in 1-D and 2-D
GRIDS = [(n, 1) for n in (511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097)]
GRIDS += [(65, 63), (64, 64), (241, 17)]
for shape in GRIDS:
    TABLES["grid-%dx%d" % shape] = lambda s=shape: _grid_table(*s, np.random.default_rng(s))


@pytest.mark.parametrize("fmt", ["csv", "json", "pgm"])
@pytest.mark.parametrize("name", list(TABLES))
def test_writer_bytes_match_reference(tmp_path, name, fmt):
    table = TABLES[name]()
    io_formats.WRITERS[fmt](tmp_path / f"new.{fmt}", table)
    REFERENCE_WRITERS[fmt](tmp_path / f"ref.{fmt}", table)
    assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


# floats whose shortest repr and 17-digit forms differ, signed zeros,
# subnormals and large integers, then any finite float
_EDGE_COORDS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-05, 0.1, 1.0 / 3.0, 1e16, -1e16]
_COORDS = st.one_of(st.sampled_from(_EDGE_COORDS), st.floats(allow_nan=False, allow_infinity=False))
_EDGE_DENSITIES = [-0.0, 0.0, 5e-324, 1e-310, 1e-05, 0.1, 1.0 / 3.0, 0.5, np.nextafter(1.0, 0.0), 1.0]
_DENSITIES = st.one_of(st.sampled_from(_EDGE_DENSITIES), st.floats(0.0, 1.0))


@st.composite
def _tables(draw):
    """A 1-D or 2-D table of 1-40 rows; the coordinates need not form a grid."""
    dim, n = draw(st.sampled_from([1, 2])), draw(st.integers(1, 40))
    coords = draw(st.lists(_COORDS, min_size=n * dim, max_size=n * dim))
    density = draw(st.lists(_DENSITIES, min_size=n, max_size=n))
    rows = np.column_stack([np.arange(n), np.reshape(coords, (n, dim)), density])
    return DensityTable(HEADERS[dim - 1], rows)


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_csv_and_json_round_trip_with_the_same_strings(tmp_path_factory, table):
    out = tmp_path_factory.mktemp("round-trip")
    io_formats.write_density_csv(out / "t.csv", table)
    io_formats.write_density_json(out / "t.json", table)
    for back in (io_formats.read_density_csv(out / "t.csv"), io_formats.read_density_json(out / "t.json")):
        assert back.columns == table.columns
        assert np.array_equal(back.rows.view(np.int64), table.rows.view(np.int64))
    csv_fields = [ln.split(",") for ln in (out / "t.csv").read_text().splitlines()[1:]]
    # the JSON value tokens as written, unparsed
    json_tokens = json.loads((out / "t.json").read_text(), parse_float=str, parse_int=str)["rows"]
    assert csv_fields == json_tokens


@pytest.mark.parametrize("source", ["built", "csv", "json"])
def test_each_column_is_formatted_once_for_every_write(tmp_path, monkeypatch, source):
    table = _grid_table(65, 63, np.random.default_rng(0))
    if source != "built":
        io_formats.WRITERS[source](tmp_path / f"in.{source}", table)
        table = io_formats.READERS[source](tmp_path / f"in.{source}")
    splits = []
    real = io_formats._distinct
    monkeypatch.setattr(io_formats, "_distinct", lambda values: splits.append(values.size) or real(values))
    for i, fmt in enumerate(["csv", "json", "csv"]):
        io_formats.WRITERS[fmt](tmp_path / f"out{i}.{fmt}", table)
    assert splits == [len(table.rows)] * (len(table.columns) - 1)
    assert (tmp_path / "out0.csv").read_bytes() == (tmp_path / "out2.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_csv_and_json_bytes_match_reference_for_any_values(tmp_path_factory, table):
    """The JSON text is the CSV text re-punctuated, so exponents (``1e+16``,
    ``-1e-05``), subnormals and signed zeros pass through that too."""
    out = tmp_path_factory.mktemp("bytes")
    for fmt in ("csv", "json"):
        io_formats.WRITERS[fmt](out / f"new.{fmt}", table)
        REFERENCE_WRITERS[fmt](out / f"ref.{fmt}", table)
        assert (out / f"new.{fmt}").read_bytes() == (out / f"ref.{fmt}").read_bytes()


def test_json_written_first_formats_each_column_once(tmp_path, monkeypatch):
    table = _grid_table(65, 63, np.random.default_rng(0))
    splits = []
    real = io_formats._distinct
    monkeypatch.setattr(io_formats, "_distinct", lambda values: splits.append(values.size) or real(values))
    for i, fmt in enumerate(["json", "csv", "json"]):
        io_formats.WRITERS[fmt](tmp_path / f"out{i}.{fmt}", table)
    assert splits == [len(table.rows)] * (len(table.columns) - 1)
    assert (tmp_path / "out0.json").read_bytes() == (tmp_path / "out2.json").read_bytes()


def _one_distinct_column(dim, own, rng):
    """A table of three 512-row blocks and part of a fourth whose column
    ``own`` (1 is x) holds a distinct value in every row, permuted, with
    -0.0 beside 0.0; its other columns repeat a few values."""
    n = 3 * io_formats._ROW_BLOCK + 7
    rows = [np.arange(n)]
    for j in range(1, dim + 2):
        if j == own:
            rows.append(rng.permutation(np.concatenate([[-0.0], np.linspace(0.0, 1.0, n - 1)])))
        else:
            rows.append(rng.choice([0.0, 0.25, 1.0 / 3.0, 1.0], n))
    return DensityTable(HEADERS[dim - 1], np.column_stack(rows))


@pytest.mark.parametrize("order", [("csv", "json"), ("json", "csv")], ids=["csv-first", "json-first"])
@pytest.mark.parametrize("dim, own", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
def test_columns_whose_rows_all_differ_match_reference(tmp_path, dim, own, order):
    # such a column is formatted a block at a time, beside shared strings
    table = _one_distinct_column(dim, own, np.random.default_rng([dim, own]))
    column = table.rows[:, own].view(np.int64)
    assert len(_distinct(column)) == len(table.rows)
    assert all(len(_distinct(c.view(np.int64))) == 4 for c in np.delete(table.rows, [0, own], axis=1).T)
    for fmt in order:
        io_formats.WRITERS[fmt](tmp_path / f"new.{fmt}", table)
        REFERENCE_WRITERS[fmt](tmp_path / f"ref.{fmt}", table)
        assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


def test_1d_grid_text_keeps_no_string_per_point():
    # 59,049 points: x's strings, formatted up front and held to the last
    # block, took the peak to 7.0 MB; the text itself is 2.0 MB
    n = 3**10
    rng = np.random.default_rng(n)
    space = si.grid_1d(n, 0.0, 1.0)
    table = io_formats.table_from_space(space, 0.5 ** rng.integers(0, 12, n).astype(float))
    tracemalloc.start()
    try:
        table._csv_rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def _lattice_shape(table):
    """``grid_shape`` by the full lattice: (width, height), or None to reject."""
    coords = table.rows[:, 1:-1]
    axes = [_distinct(c) for c in coords.T]
    if not np.array_equal(coords, _lattice(axes)):
        return None
    width, height, *_ = [len(a) for a in axes] + [1]
    return width, height


def _grid_shape_or_none(table):
    try:
        return table.grid_shape()
    except si.ConfigError as exc:
        assert str(exc) == "the coordinates do not form a row-major grid"
        return None


def _points_table(points):
    points = np.reshape(points, (len(points), -1))
    rows = np.column_stack([np.arange(len(points)), points, np.zeros(len(points))])
    return DensityTable(HEADERS[points.shape[1] - 1], rows)


_X, _Y = [0.0, 0.5, 1.0], [-1.0, 2.0]
_ROW_MAJOR = [(x, y) for y in _Y for x in _X]
SHAPE_CASES = {
    "row-major": (_ROW_MAJOR, (3, 2)),
    "column-major": ([(x, y) for x in _X for y in _Y], None),
    "repeated-point": (_ROW_MAJOR[:-1] + _ROW_MAJOR[:1], None),
    "one-point-short": (_ROW_MAJOR[:-1], None),
    "1d-increasing": ([[x] for x in _X], (3, 1)),
    "1d-decreasing": ([[x] for x in _X[::-1]], None),
    "signed-zeros": ([(-0.0, 0.0), (1.0, 0.0), (0.0, -0.0), (1.0, -0.0)], None),
    "zeros-of-either-sign": ([(-0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], (2, 2)),
}


@pytest.mark.parametrize("points, shape", list(SHAPE_CASES.values()), ids=list(SHAPE_CASES))
def test_grid_shape_cases(points, shape):
    table = _points_table(points)
    assert _grid_shape_or_none(table) == _lattice_shape(table) == shape


_AXIS_VALUES = [-1.0, -0.0, 0.0, 5e-324, 0.25, 0.5, 1.0, 1e16]


@st.composite
def _near_grid_tables(draw):
    """A table on the lattice of one or two small axes, drawn in any order
    and with repeats, laid out row-major, column-major or shuffled, then
    maybe with a point repeated or the last point dropped."""
    dim = draw(st.sampled_from([1, 2]))
    axis = st.lists(st.sampled_from(_AXIS_VALUES), min_size=1, max_size=5)
    axes = [draw(axis) for _ in range(dim)]
    axes = [sorted(a) if draw(st.booleans()) else a for a in axes]
    order = draw(st.sampled_from(["C", "F"]))
    points = np.column_stack([g.ravel(order=order) for g in np.meshgrid(*axes)])
    if draw(st.booleans()):
        points = points[draw(st.permutations(range(len(points))))]
    edit = draw(st.sampled_from(["none", "repeat", "drop"]))
    if edit == "repeat" and len(points) > 1:
        i, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
        points[i] = points[j]
    elif edit == "drop" and len(points) > 1:
        points = points[:-1]
    return _points_table(points)


@settings(max_examples=300, deadline=None)
@given(table=_near_grid_tables())
def test_grid_shape_accepts_exactly_the_lattice(table):
    assert _grid_shape_or_none(table) == _lattice_shape(table)


def _pinned():
    """{file name: sha256} from ``tests/golden/density.sha256``."""
    lines = (GOLDEN / "density.sha256").read_text().splitlines()
    return {Path(name).name: digest for digest, name in (ln.split() for ln in lines)}


@pytest.mark.parametrize("name", ["cantor", "sierpinski"])
def test_solve_outputs_match_pinned_sha256(tmp_path, name):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw["output"]["pathPrefix"] = str(tmp_path / name)
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["solve", str(tmp_path / "cfg.json")]) == 0
    pinned = {k: v for k, v in _pinned().items() if k.startswith(f"{name}.")}
    assert sorted(pinned) == [f"{name}.density.csv", f"{name}.density.json"]
    for file_name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("maxval", [65535, 65536, 10**30])
def test_pgm_maxval_is_below_65536(tmp_path, maxval):
    # plain PGM requires 0 < maxval < 65536; a larger one was read as a scale
    path = tmp_path / "d.pgm"
    path.write_text(f"P2\n2 1\n{maxval}\n1 2\n")
    if maxval < 65536:
        assert io_formats.read_density_pgm(path).density.tolist() == [1 / maxval, 2 / maxval]
        return
    with pytest.raises(si.ConfigError, match=f"{path}: malformed PGM header"):
        io_formats.read_density_pgm(path)


def _small_grid():
    return _grid_table(5, 3, np.random.default_rng(5))


# every writer, by name, with a value it writes
_WRITE_CASES = {fmt: (io_formats.WRITERS[fmt], _small_grid) for fmt in io_formats.WRITERS}
_WRITE_CASES["report"] = (io_formats.write_report_json, lambda: {"iterations": 3, "stoppedBy": "fixedPoint"})


def _write_case(tmp_path, name):
    """(writer, value, the bytes the writer puts in a new file)."""
    write, make = _WRITE_CASES[name]
    value = make()
    write(tmp_path / "fresh", value)
    return write, value, (tmp_path / "fresh").read_bytes()


@pytest.mark.parametrize("name", list(_WRITE_CASES))
def test_writing_over_a_longer_file_leaves_the_new_bytes(tmp_path, name):
    write, value, new = _write_case(tmp_path, name)
    path = tmp_path / "out"
    path.write_bytes(b"old output\n" * (len(new) // 4))
    write(path, value)
    assert path.read_bytes() == new


@pytest.mark.parametrize("name", list(_WRITE_CASES))
def test_a_hard_link_to_an_old_output_keeps_the_old_bytes(tmp_path, name):
    write, value, new = _write_case(tmp_path, name)
    path, kept = tmp_path / "out", tmp_path / "kept"
    path.write_bytes(b"old output\n")
    os.link(path, kept)
    write(path, value)
    assert kept.read_bytes() == b"old output\n"
    assert path.read_bytes() == new


@pytest.mark.parametrize("name", list(_WRITE_CASES))
def test_a_symlink_at_the_output_path_is_written_through(tmp_path, name):
    write, value, new = _write_case(tmp_path, name)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"old output\n" * 1000)
    link.symlink_to(target)
    write(link, value)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == new


@pytest.mark.parametrize("mode", [0o600, 0o666, 0o640])
def test_a_replaced_output_keeps_its_mode(tmp_path, mode):
    path = tmp_path / "out.csv"
    path.write_text("old output\n")
    path.chmod(mode)
    umask = os.umask(0o022)
    try:
        io_formats.write_density_csv(path, _small_grid())
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_a_read_only_output_is_not_unlinked(tmp_path):
    # open refuses it (exit 3 from the CLI), except for root, who writes it in place
    path, kept = tmp_path / "out.csv", tmp_path / "kept"
    path.write_text("old output\n")
    path.chmod(0o444)
    os.link(path, kept)
    with contextlib.suppress(PermissionError):
        io_formats.write_density_csv(path, _small_grid())
    assert kept.read_bytes() == path.read_bytes()
    assert stat.S_IMODE(path.stat().st_mode) == 0o444


def test_another_users_output_is_written_in_place(tmp_path, monkeypatch):
    path, kept = tmp_path / "out.csv", tmp_path / "kept"
    path.write_text("old output\n")
    os.link(path, kept)
    monkeypatch.setattr(os, "geteuid", lambda: path.stat().st_uid + 1)
    io_formats.write_density_csv(path, _small_grid())
    assert kept.read_bytes() == path.read_bytes() != b"old output\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "pgm"])
def test_export_to_dev_null_unlinks_nothing(tmp_path, monkeypatch, capsys, fmt):
    # os.devnull is a device: it is written through, never unlinked
    infile = tmp_path / "in.csv"
    io_formats.write_density_csv(infile, _small_grid())

    def unlink(path, *args, **kwargs):
        raise AssertionError(f"unlink({path!r})")
    monkeypatch.setattr(os, "unlink", unlink)
    assert main(["export", str(infile), "--format", fmt, "--out", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_onto_its_own_input_leaves_it_unchanged(tmp_path, fmt):
    path = tmp_path / f"a.{fmt}"
    io_formats.WRITERS[fmt](path, _solved_table("cantor"))
    before = path.read_bytes()
    assert main(["export", str(path), "--format", fmt, "--out", str(path)]) == 0
    assert path.read_bytes() == before
