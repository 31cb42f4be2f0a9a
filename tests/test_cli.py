import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starifs as si
from starifs import config as config_module
from starifs import io_formats
from starifs.cli import build_parser, main
from starifs.config import RunConfig
from starifs.ifs import _affine_images

from conftest import ALL_TNORMS

CONFIGS = Path(__file__).parent / "configs"
GOLDEN = Path(__file__).parent / "golden"


def _redirected(tmp_path, name):
    """A copy of ``tests/configs/<name>.json`` with outputs redirected
    into tmp_path as ``out/<name>``."""
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw["output"]["pathPrefix"] = str(tmp_path / "out" / name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def cantor_cfg(tmp_path):
    """The reference config with outputs redirected into tmp_path."""
    return _redirected(tmp_path, "cantor")


def _set(*path, value):
    """An edit of a parsed config that sets the field at ``path`` to ``value``."""

    def edit(raw):
        for key in path[:-1]:
            raw = raw[key]
        raw[path[-1]] = value

    return edit


_GRID2D = {"kind": "grid2d", "counts": [4, 4], "bounds": [[0, 1], [0, 1]]}

# (edit of tests/configs/cantor.json, the start of the error message)
FIELD_ERRORS = [
    (_set("tnorm", value="drastic"), "tnorm: unknown t-norm family"),
    (_set("tnorm", value="hamacher(abc)"), "tnorm: bad hamacher parameter"),
    (_set("tnorm", value="hamacher"), "tnorm: hamacher requires a parameter"),
    (_set("tnorm", value="hamacher(1e400)"), "tnorm: hamacher parameter must be finite"),
    (_set("tnorm", value="hamacher(-1)"), "tnorm: hamacher parameter must be finite and >= 0"),
    (_set("tnorm", value={"family": "product", "paramter": 0.5}), "tnorm.paramter: unknown field"),
    (_set("tnorm", value={"family": "min", "parameter": 3}), "tnorm.parameter"),
    (_set("tnorm", value={"family": 3}), "tnorm.family: must be a string"),
    (_set("tnorm", value=3), "tnorm: must be an object"),
    (_set("solver", value={"tolerance": 1e-9}), "solver.tolerance: unknown field"),
    (_set("solver", value=0), "solver: must be an object"),
    (_set("solver", value=[]), "solver: must be an object"),
    (_set("solver", value=None), "solver: must be an object"),
    (_set("solver", value=[1]), "solver: must be an object"),
    (_set("solver", "levelResolution", value=1e300), "solver.levelResolution: must be <="),
    (_set("output", value=[]), "output: must be an object"),
    (_set("output", value=[1]), "output: must be an object"),
    (_set("output", "extra", value=1), "output.extra: unknown field"),
    (_set("output", "formats", value=[["csv"]]), "output.formats"),
    (_set("output", "pathPrefix", value=""), "output.pathPrefix"),
    (_set("space", value=[]), "space: must be an object"),
    (_set("space", "extra", value=1), "space.extra: unknown field"),
    (_set("space", value={"counts": [5], "bounds": [0, 1]}), "space.kind: missing required field"),
    (_set("space", "counts", value=[9, 9]), "space.counts: grid1d takes"),
    (_set("space", value={**_GRID2D, "counts": [4]}), "space.counts: grid2d takes"),
    (_set("space", "bounds", value=[0, 1, 2]), "space.bounds: must be [lo, hi]"),
    (_set("space", value={**_GRID2D, "bounds": [[0, 1]]}), "space.bounds: grid2d takes"),
    (_set("space", "bounds", value=[1, 1]), "space.bounds: needs lo < hi"),
    (_set("space", value={**_GRID2D, "bounds": [[0, 1], [2, 1]]}), "space.bounds[1]: needs lo < hi"),
    (_set("space", "bounds", value=[1e16, 1e16 + 2]), "space: grid points must be distinct"),
    (_set("space", "counts", value=[1e300]), "space: grid point count exceeds"),
    (_set("space", "counts", value=[True]), "space.counts[0]: must be a number"),
    (_set("space", "counts", value=["9"]), "space.counts[0]: must be a number"),
    (_set("space", "counts", value=[1]), "space.counts[0]: must be >= 2"),
    (_set("space", "counts", value=[10**400]), "space.counts[0]: must be a finite number"),
    (_set("solver", "maxIter", value=2.5), "solver.maxIter: must be an integer"),
    (_set("solver", "maxIter", value=0), "solver.maxIter: must be >= 1"),
    (_set("weights", value=[True, 0.5]), "weights[0]: must be a number"),
    (_set("weights", value=[1.5, 0.5]), "weights[0]: must be <= 1"),
    (_set("tnorm", value={"family": "hamacher", "parameter": "1"}), "tnorm.parameter: must be a number"),
    (_set("maps", value={}), "maps: must be a nonempty list"),
    (_set("maps", 0, "extra", value=1), "maps[0].extra: unknown field"),
    (_set("maps", 0, value={}), "maps[0]: must be"),
    (_set("maps", 0, "affine", "extra", value=1), "maps[0].affine.extra: unknown field"),
    (_set("maps", 0, "affine", "matrix", value=[[0.5], []]), "maps[0].affine.matrix: must be 1x1"),
    (_set("maps", 0, "affine", "matrix", value=[]), "maps[0].affine.matrix: must be 1x1"),
    (_set("maps", 0, "affine", "matrix", value=0.5), "maps[0].affine.matrix: must be a matrix"),
    (_set("maps", 0, "affine", "translation", value=0), "maps[0].affine.translation: must be a"),
    (_set("maps", 0, "affine", "translation", value=[0, 0]), "maps[0].affine.translation: must have"),
    (_set("maps", 0, value={"tabulated": {"pairs": [], "x": 1}}), "maps[0].tabulated.x: unknown"),
    (_set("maps", 0, value={"tabulated": {"pairs": [[0, 0], [0, 1]]}}), "maps[0].tabulated.pairs[1]: duplicate"),
    (_set("maps", 0, value={"tabulated": {"pairs": [[0]]}}), "maps[0].tabulated.pairs[0]: must be"),
    (_set("maps", 0, value={"tabulated": {"pairs": [[729, 0]]}}), "maps[0].tabulated.pairs[0][0]"),
    (_set("maps", 0, value={"tabulated": {"pairs": 3}}), "maps[0].tabulated.pairs: must be a list"),
    (_set("space", "kind", value=["grid1d"]), "space.kind: must be 'grid1d' or 'grid2d'"),
    # past int()'s 4,300-digit limit
    (_set("solver", "seed", value="dirac:" + "9" * 5000), "solver.seed: dirac index 9999"),
    (_set("output", "pathPrefix", value="out/a\u0000b"), "output.pathPrefix:"),
    (_set("output", "pathPrefix", value="out/\ud800"), "output.pathPrefix:"),
]

# contents the readers cannot decode, as a config or a density JSON file;
# 1,000 nesting levels suffice on Python 3.11, but newer versions nest deeper
# with the start of the message after the file name
UNDECODABLE = {
    "byte-ff": (b'{"columns": "\xff"}', "not UTF-8 text"),
    "nested": (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    # Python's own message ended "use sys.set_int_max_str_digits() to increase the limit"
    "5000-digits": (b'{"columns": ' + b"9" * 5000 + b"}", "an integer of over 4300 digits\n"),
}


class TestRunConfig:
    def test_parses_reference_config(self):
        cfg = RunConfig.from_path(CONFIGS / "cantor.json")
        assert cfg.data["space"]["counts"] == [729]
        assert cfg.data["tnorm"] == {"family": "product"}
        assert cfg.data["solver"]["levelResolution"] == 256
        assert cfg.data["weights"] == [1.0, 0.5]

    def test_round_trip_identity(self):
        cfg = RunConfig.from_path(CONFIGS / "cantor.json")
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert again.data == cfg.data
        assert again.to_json() == cfg.to_json()

    def test_tnorm_string_forms(self):
        base = json.loads((CONFIGS / "cantor.json").read_text())
        base["tnorm"] = "hamacher(0.5)"
        cfg = RunConfig.from_dict(base)
        assert cfg.data["tnorm"] == {"family": "hamacher", "parameter": 0.5}
        assert cfg.build_tnorm().parameter == 0.5

    def test_field_labeled_errors(self):
        base = json.loads((CONFIGS / "cantor.json").read_text())
        cases = [
            ({"space": {"kind": "disc"}}, "space.kind"),
            ({"weights": [1.0]}, "weights"),
            ({"solver": {"tol": -1}}, "solver.tol"),
            ({"solver": {"seed": "delta"}}, "solver.seed"),
            ({"output": {"formats": ["bmp"]}}, "output.formats"),
            ({"extra": 1}, "extra"),
        ]
        for override, label in cases:
            raw = json.loads(json.dumps(base))
            raw.update(override)
            with pytest.raises(si.ConfigError, match=label.replace("[", "\\[")):
                RunConfig.from_dict(raw)

    def test_tnorm_object_form_round_trip(self):
        base = json.loads((CONFIGS / "cantor.json").read_text())
        base["tnorm"] = {"family": "hamacher", "parameter": 0.5}
        cfg = RunConfig.from_dict(base)
        assert cfg.data["tnorm"] == {"family": "hamacher", "parameter": 0.5}
        assert cfg.build_tnorm() == si.TNorm("hamacher", 0.5)
        assert RunConfig.from_dict(json.loads(cfg.to_json())).to_json() == cfg.to_json()

    @pytest.mark.parametrize("edit, label", FIELD_ERRORS)
    def test_every_object_and_field_is_checked(self, edit, label):
        raw = json.loads((CONFIGS / "cantor.json").read_text())
        edit(raw)
        with pytest.raises(si.ConfigError) as info:
            # the grid limits are checked where the grid is built
            RunConfig.from_dict(raw).build_space()
        assert str(info.value).startswith(label)

    def test_missing_field(self):
        with pytest.raises(si.ConfigError, match="maps"):
            RunConfig.from_dict({"space": {}, "tnorm": "min", "weights": []})

    def test_tabulated_maps(self):
        raw = {
            "space": {"kind": "grid1d", "counts": [4], "bounds": [0, 1]},
            "tnorm": "min",
            "maps": [{"tabulated": {"pairs": [[0, 1], [1, 1], [2, 1], [3, 1]]}}],
            "weights": [1.0],
        }
        cfg = RunConfig.from_dict(raw)
        system = si.validate(cfg.build_system())
        assert np.array_equal(system.tables[0], [1, 1, 1, 1])

    @pytest.mark.parametrize(
        "seed", ["dirac: 5", "dirac:1_0", "dirac:+5", "dirac:\u0663", "dirac:729", "dirac:5\n"]
    )
    def test_dirac_seed_needs_ascii_digits_in_range(self, seed):
        # int() accepted the first four, and the index was checked only at solve
        raw = json.loads((CONFIGS / "cantor.json").read_text())
        raw["solver"]["seed"] = seed
        with pytest.raises(si.ConfigError, match="solver.seed"):
            RunConfig.from_dict(raw)

    def test_dirac_seed_is_stored_canonically(self):
        raw = json.loads((CONFIGS / "cantor.json").read_text())
        raw["solver"]["seed"] = "dirac:0042"
        cfg = RunConfig.from_dict(raw)
        assert cfg.solver["seed"] == "dirac:42"
        seed = cfg.seed_measure(cfg.build_space(), cfg.build_tnorm())
        assert np.flatnonzero(seed.density).tolist() == [42]

    def test_tabulated_must_cover(self):
        raw = {
            "space": {"kind": "grid1d", "counts": [4], "bounds": [0, 1]},
            "tnorm": "min",
            "maps": [{"tabulated": {"pairs": [[0, 0], [1, 0]]}}],
            "weights": [1.0],
        }
        with pytest.raises(si.ConfigError, match="cover every point"):
            RunConfig.from_dict(raw)


class TestCheckCommand:
    def test_pass(self, cantor_cfg, capsys):
        assert main(["check", str(cantor_cfg)]) == 0
        out = capsys.readouterr().out
        assert "check passed" in out

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize(
        "name, flags, noted",
        [("cantor_dirac", [], True), ("cantor", [], False), ("cantor_dirac", ["--tol", "0.01"], False)],
        ids=["dirac-seed", "full-seed", "tol-above-floor"],
    )
    def test_tolerance_floor_note(self, tmp_path, capsys, command, name, flags, noted):
        # cantor_dirac: h/(1-c) = (1/728) / (2/3) = 0.00206 against tol 1e-06
        assert main([command, str(_redirected(tmp_path, name)), *flags]) == 0
        notes = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("note:")]
        expected = "note: tol = 1e-06 is below the grid's floor h/(1-c) = 0.00206; no grid certificate reaches tol"
        assert notes == ([expected] if noted else [])

    def test_large_hamacher_parameter(self, capsys):
        # the t-norm's Lipschitz bound was nan here and check exited 2
        assert main(["check", str(CONFIGS / "hamacher_large.json")]) == 0
        assert "t-norm ok: hamacher(1e+308)" in capsys.readouterr().out

    def test_weight_failure_named(self, capsys):
        assert main(["check", str(CONFIGS / "bad_weights.json")]) == 1
        err = capsys.readouterr().err
        assert "weight error: max λ = 0.7" in err

    @pytest.mark.parametrize(
        "name, code, message",
        [
            ("not_utf8", 2, "not_utf8.json: not UTF-8 text (byte 338"),
            ("kind_list", 2, "space.kind: must be 'grid1d' or 'grid2d'"),
            # check passed, then solve failed: "a measure's density must attain 1"
            ("near_one_weight", 1, "weight error: max λ = 0.9999999999999"),
        ],
    )
    def test_bad_config_files(self, capsys, name, code, message):
        assert main(["check", str(CONFIGS / f"{name}.json")]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    def test_undecodable_config_names_the_file(self, tmp_path, capsys, data, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_formats_error_text_is_fixed(self, cantor_cfg, capsys):
        # the formats were printed as a set, in an order that changed from run to run
        raw = json.loads(cantor_cfg.read_text())
        raw["output"]["formats"] = ["bmp"]
        cantor_cfg.write_text(json.dumps(raw))
        assert main(["check", str(cantor_cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: output.formats: must be a list drawn from ['csv', 'json', 'pgm']\n"

    def test_grid_overflow_named(self, capsys):
        # check passed with "diameter inf", and solve wrote "aprioriBound": Infinity
        assert main(["check", str(CONFIGS / "grid_overflow.json")]) == 2
        assert "error: space: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space, refused",
        [
            ({"kind": "grid1d", "counts": [2**40], "bounds": [0, 1]}, "linspace"),
            ({"kind": "grid2d", "counts": [2**20, 2**20], "bounds": [[0, 1], [0, 1]]}, "meshgrid"),
        ],
        ids=["grid1d", "grid2d"],
    )
    @pytest.mark.parametrize("command", [["check"], ["solve"], ["oracle", "--depth", "1"]])
    def test_unallocatable_grid_exits_4(self, tmp_path, monkeypatch, capsys, space, refused, command):
        # numpy's MemoryError gave a traceback and exit 1.  It is raised here
        # without a real request: whether one is refused depends on the
        # kernel's overcommit setting
        dim = len(space["counts"])
        halving = {"affine": {"matrix": (0.5 * np.eye(dim)).tolist(), "translation": [0] * dim}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"space": space, "tnorm": "min", "maps": [halving], "weights": [1]}))

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np, refused, refuse)
        assert main([command[0], str(path), *command[1:]]) == 4
        need = 8 * dim * 2**40
        assert capsys.readouterr().err == (
            f"error: space.counts {space['counts']}: {need} bytes of coordinates cannot be allocated\n"
        )

    def test_infinite_contraction_constant_exits_1(self, tmp_path, capsys):
        # LAPACK's norm of this sheared matrix overflows to inf
        raw = {
            "space": _GRID2D,
            "tnorm": "product",
            "maps": [{"affine": {"matrix": [[1.5e308, 1.5e308], [0, 1.5e308]], "translation": [0, 0]}}],
            "weights": [1.0],
        }
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(raw))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == "error: not a contraction: estimated constant inf >= 1\n"

    def test_malformed_config(self):
        assert main(["check", str(CONFIGS / "malformed.json")]) == 2

    @pytest.mark.parametrize(
        "field, value, label",
        [("weights", [1.0, float("nan")], "weights"), ("bounds", [0, float("inf")], "space.bounds")],
        ids=["nan-weight", "infinite-bound"],
    )
    def test_nonfinite_number_named(self, cantor_cfg, capsys, field, value, label):
        raw = json.loads(cantor_cfg.read_text())
        (raw if field == "weights" else raw["space"])[field] = value
        cantor_cfg.write_text(json.dumps(raw))  # writes NaN / Infinity literals
        assert main(["check", str(cantor_cfg)]) == 2
        assert f"{label}[1]: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, label",
        [
            (_set("tnorm", value="drastic"), "tnorm: unknown t-norm family"),
            (_set("solver", value={"tolerance": 1e-9}), "solver.tolerance: unknown field"),
            (_set("space", "counts", value=[1e300]), "space: grid point count exceeds"),
        ],
        ids=["tnorm-string", "unknown-solver-key", "huge-count"],
    )
    def test_config_errors_exit_2(self, cantor_cfg, capsys, edit, label):
        # exit 1 naming no field, exit 0, and a numpy traceback
        raw = json.loads(cantor_cfg.read_text())
        edit(raw)
        cantor_cfg.write_text(json.dumps(raw))
        assert main(["check", str(cantor_cfg)]) == 2
        assert f"error: {label}" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [str(2**53 + 1), str(10**300)], ids=["2**53+1", "10**300"])
    def test_levels_beyond_float64_named(self, cantor_cfg, capsys, levels):
        assert main(["solve", str(cantor_cfg), "--levels", levels]) == 2
        assert "solver.levelResolution: must be <=" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["check", "/nonexistent/nowhere.json"]) == 3

    def test_solver_flags_recheck_only_the_solver(self, cantor_cfg, monkeypatch, capsys):
        # the flags re-parsed the whole config, so every map was checked twice
        calls = []
        real = config_module._normalize_map
        monkeypatch.setattr(config_module, "_normalize_map", lambda *a: calls.append(a) or real(*a))
        sierpinski = CONFIGS / "sierpinski.json"
        assert main(["check", str(sierpinski), "--tol", "1e-3", "--max-iter", "5"]) == 0
        assert len(calls) == 3
        assert main(["check", str(cantor_cfg), "--levels", "0"]) == 2
        assert "solver.levelResolution: must be >= 1" in capsys.readouterr().err

    def test_out_of_range_seed(self, capsys):
        # check used to pass a seed that solve then rejected
        assert main(["check", str(CONFIGS / "bad_seed.json")]) == 2
        assert "solver.seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "maps, space, label",
        [
            (
                [{"tabulated": {"pairs": [[0, 1], [1, 1], [2, 1], [3, 99]]}}],
                {"kind": "grid1d", "counts": [4], "bounds": [0, 1]},
                "maps[0].tabulated.pairs[3][1]: must be <= 3",
            ),
            (
                [{"affine": {"matrix": [[0.5]], "translation": [0]}}],
                {"kind": "grid2d", "counts": [4, 4], "bounds": [[0, 1], [0, 1]]},
                "maps[0].affine.matrix: must be 2x2",
            ),
        ],
        ids=["tabulated-target", "affine-dimension"],
    )
    def test_map_checked_against_space(self, tmp_path, capsys, maps, space, label):
        # both exited 1 from validate with a message that named no field
        raw = {"space": space, "tnorm": "min", "maps": maps, "weights": [1.0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["check", str(cfg)]) == 2
        assert label in capsys.readouterr().err


class TestSolveCommand:
    def test_artifacts_written(self, cantor_cfg, tmp_path, capsys):
        assert main(["solve", str(cantor_cfg)]) == 0
        prefix = tmp_path / "out" / "cantor"
        report = json.loads((prefix.parent / "cantor.report.json").read_text())
        assert report["stoppedBy"] == "fixedPoint"
        assert set(report) == {
            "iterations",
            "finalResidual",
            "aprioriBound",
            "stoppedBy",
            "wallTime",
        }
        table = io_formats.read_density_csv(f"{prefix}.density.csv")
        assert len(table.rows) == 729
        assert table.density.max() == 1.0

    def test_dirac_single_map_closed_form(self, tmp_path):
        raw = {
            "space": {"kind": "grid1d", "counts": [257], "bounds": [0, 1]},
            "tnorm": "min",
            "maps": [{"affine": {"matrix": [[0.5]], "translation": [0]}}],
            "weights": [1.0],
            "solver": {"tol": 1e-09},
            "output": {"formats": ["csv"], "pathPrefix": str(tmp_path / "run")},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", str(cfg)]) == 0
        table = io_formats.read_density_csv(tmp_path / "run.density.csv")
        dens = table.density
        assert dens[0] == 1.0
        assert np.all(dens[1:] == 0.0)

    def test_max_iter_override(self, tmp_path):
        # the stop rules belong to the iteration, which runs from a Dirac seed
        cfg = _redirected(tmp_path, "cantor_dirac")
        assert main(["solve", str(cfg), "--max-iter", "1", "--tol", "1e-15"]) == 0
        report = json.loads((tmp_path / "out" / "cantor_dirac.report.json").read_text())
        assert report["stoppedBy"] == "maxIterations"
        assert report["iterations"] == 1

    @pytest.mark.parametrize(
        "name, iterations, distance", [("tabulated", 5, 0.0), ("lukasiewicz_dirac", 7, 0.03125)]
    )
    def test_config_stops_and_passes_the_oracle(self, tmp_path, capsys, name, iterations, distance):
        # a constant tabulated map beside affine ones (full seed), and Lukasiewicz (Dirac seed)
        cfg = _redirected(tmp_path, name)
        assert main(["check", str(cfg)]) == 0
        assert main(["solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / f"{name}.report.json").read_text())
        assert (report["stoppedBy"], report["iterations"]) == ("fixedPoint", iterations)
        capsys.readouterr()
        assert main(["oracle", str(cfg), "--depth", "8"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["passed"] is True
        assert payload["hypographDistance"] == distance <= payload["snapTolerance"]

    def test_non_constant_tables_through_every_config_command(self, tmp_path, capsys):
        # two fold tables (ix, iy) -> (0, ix) and (1, ix // 2) beside an
        # affine map, on a grid whose x step is twice its y step: the pair
        # ratio, the Dirac and full-seed solves and the oracle's table walk
        cfg = _redirected(tmp_path, "tabulated_fold")
        assert main(["check", str(cfg)]) == 0
        assert "system ok: 3 maps, contraction constant c = 0.5\n" in capsys.readouterr().out
        assert main(["solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "tabulated_fold.report.json").read_text())
        assert (report["stoppedBy"], report["iterations"]) == ("fixedPoint", 6)
        capsys.readouterr()
        assert main(["oracle", str(cfg), "--depth", "8"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["passed"] is True and payload["hypographDistance"] == 0.0
        raw = json.loads(cfg.read_text())
        raw["solver"]["seed"] = "full"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "tabulated_fold.report.json").read_text())
        assert (report["stoppedBy"], report["iterations"]) == ("fixedPoint", 5)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_override_named(self, cantor_cfg, capsys, tol):
        assert main(["solve", str(cantor_cfg), "--tol", tol]) == 2
        assert "solver.tol: must be a finite number" in capsys.readouterr().err

    def test_deterministic_density_bytes(self, cantor_cfg, tmp_path):
        assert main(["solve", str(cantor_cfg)]) == 0
        first = (tmp_path / "out" / "cantor.density.csv").read_bytes()
        assert main(["solve", str(cantor_cfg)]) == 0
        assert (tmp_path / "out" / "cantor.density.csv").read_bytes() == first

    def test_unwritable_prefix(self, cantor_cfg, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        raw = json.loads(cantor_cfg.read_text())
        raw["output"]["pathPrefix"] = str(blocker / "x")
        cfg = tmp_path / "bad_out.json"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", str(cfg)]) == 3


def _psi_on(tables):
    """``psi`` over the tables that ``tables(system)`` gives instead of the system's."""

    def mutated(system, mu):
        out = np.zeros(system.space.n)
        for table, weight in zip(tables(system), system.weights):
            np.maximum.at(out, table, system.tnorm._apply(weight, mu.density))
        return si.SubDensity(system.space, out, system.tnorm)

    return mutated


def _snapped_tables(shift):
    """Tables that round each image half-up on every axis, then move it
    ``shift`` cells up (clipped to the grid)."""

    def tables(system):
        space, out = system.space, []
        for f in system.maps:
            img = _affine_images(space.coords, f.matrix[None], f.translation[None])[0]
            index, stride = 0, 1
            for ax, axis in enumerate(space.axes):
                step = (axis[-1] - axis[0]) / (len(axis) - 1)
                cell = np.floor((img[:, ax] - axis[0]) / step + 0.5) + shift
                index = index + np.clip(cell, 0, len(axis) - 1).astype(np.int64) * stride
                stride *= len(axis)
            out.append(index)
        return out

    return tables


class TestOracleCommand:
    def test_depth_one_report(self, cantor_cfg, capsys):
        assert main(["oracle", str(cantor_cfg), "--depth", "1"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["maxDensityDiscrepancy"] == 0.0
        assert payload["passed"] is True

    def test_depth_eight_passes(self, cantor_cfg, capsys):
        assert main(["oracle", str(cantor_cfg), "--depth", "8"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["words"] == 256
        assert payload["maxDensityDiscrepancy"] <= payload["analyticTolerance"]
        assert payload["hypographDistance"] == 0.0 < payload["snapTolerance"]

    def test_budget_exceeded(self, cantor_cfg):
        assert main(["oracle", str(cantor_cfg), "--depth", "21"]) == 4

    def test_negative_depth_is_a_parse_error(self, cantor_cfg, capsys):
        # a bad flag is a parse error, as --max-iter 0 is
        assert main(["oracle", str(cantor_cfg), "--depth", "-1"]) == 2
        assert "error: --depth: must be >= 0" in capsys.readouterr().err

    @staticmethod
    def _report(argv, capsys, code=0):
        assert main(["oracle", *argv]) == code
        out = capsys.readouterr().out
        return json.loads(out[out.index("{") :])

    def test_sierpinski_passes_in_the_hypograph_metric(self, capsys):
        # a word's one snap and its step-by-step snaps land a cell apart,
        # so the densities differ by a whole weight at a point; the
        # hypographs are one cell diagonal apart
        report = self._report([str(CONFIGS / "sierpinski.json"), "--depth", "4"], capsys)
        assert report["hypographDistance"] == pytest.approx(np.hypot(1 / 63, 1 / 63))
        assert report["snapTolerance"] == pytest.approx(0.0322687618)
        assert report["maxDensityDiscrepancy"] == 1.0
        assert report["maxDensityDiscrepancy"] > report["analyticTolerance"]

    def test_sheared_depth_one_is_exact(self, capsys):
        # point 12's image is a half-way tie: the expansion and psi snap
        # it through the same arithmetic, so depth 1 agrees exactly
        report = self._report([str(CONFIGS / "sheared_dirac.json"), "--depth", "1"], capsys)
        assert report["hypographDistance"] == 0.0
        assert report["maxDensityDiscrepancy"] == 0.0

    def test_random_system_fails_only_the_density_gap(self, tmp_path, capsys):
        raw = {
            "space": {"kind": "grid1d", "counts": [25], "bounds": [0, 1]},
            "tnorm": "min",
            "maps": [
                {"affine": {"matrix": [[0.23]], "translation": [0.6]}},
                {"affine": {"matrix": [[0.71]], "translation": [0.07]}},
            ],
            "weights": [1.0, 0.5],
        }
        cfg = tmp_path / "random.json"
        cfg.write_text(json.dumps(raw))
        report = self._report([str(cfg), "--depth", "3"], capsys)
        assert report["maxDensityDiscrepancy"] == 0.5 > report["analyticTolerance"]
        assert report["hypographDistance"] == pytest.approx(1 / 24)

    @pytest.mark.parametrize("name", ["cantor", "sierpinski"])
    @pytest.mark.parametrize(
        "tables, code",
        [
            (lambda s: s.tables[:-1], 1),
            (_snapped_tables(1), 1),
            # a tie goes to either nearest point: both are within h/2
            (_snapped_tables(0), 0),
        ],
        ids=["drop-a-map", "one-cell-up", "ties-up"],
    )
    def test_pass_rule_on_mutated_psi(self, monkeypatch, capsys, name, tables, code):
        monkeypatch.setattr("starifs.cli.psi", _psi_on(tables))
        report = self._report([str(CONFIGS / f"{name}.json"), "--depth", "4"], capsys, code)
        assert (report["hypographDistance"] <= report["snapTolerance"]) == (code == 0)

    def test_one_map_depth_budget(self, tmp_path):
        raw = {
            "space": {"kind": "grid1d", "counts": [9], "bounds": [0, 1]},
            "tnorm": "min",
            "maps": [{"affine": {"matrix": [[0.5]], "translation": [0]}}],
            "weights": [1.0],
        }
        cfg = tmp_path / "one_map.json"
        cfg.write_text(json.dumps(raw))
        assert main(["oracle", str(cfg), "--depth", "1000001"]) == 4


class TestExportCommand:
    def _solve(self, cantor_cfg):
        assert main(["solve", str(cantor_cfg)]) == 0

    def test_csv_json_csv_identity(self, cantor_cfg, tmp_path):
        self._solve(cantor_cfg)
        csv_in = tmp_path / "out" / "cantor.density.csv"
        as_json = tmp_path / "roundtrip.json"
        back = tmp_path / "roundtrip.csv"
        assert main(["export", str(csv_in), "--format", "json", "--out", str(as_json)]) == 0
        assert main(["export", str(as_json), "--format", "csv", "--out", str(back)]) == 0
        assert back.read_bytes() == csv_in.read_bytes()

    def test_pgm_quantization_rule(self, tmp_path):
        table = io_formats.DensityTable(
            ("index", "x", "density"),
            [(0, 0.0, 1.0), (1, 0.5, 0.5), (2, 1.0, 0.0)],
        )
        path = tmp_path / "t.pgm"
        io_formats.write_density_pgm(path, table)
        body = path.read_text().split()
        assert body[:4] == ["P2", "3", "1", "255"]
        assert body[4:] == ["255", "128", "0"]  # 0.5 rounds half up to 128

    def test_pgm_round_trip_within_quantization(self, cantor_cfg, tmp_path):
        self._solve(cantor_cfg)
        pgm = tmp_path / "out" / "cantor.density.pgm"
        back = tmp_path / "back.csv"
        assert main(["export", str(pgm), "--format", "csv", "--out", str(back)]) == 0
        original = io_formats.read_density_csv(tmp_path / "out" / "cantor.density.csv")
        recovered = io_formats.read_density_csv(back)
        assert np.max(np.abs(original.density - recovered.density)) <= 0.5 / 255

    def test_unknown_format(self, cantor_cfg, tmp_path):
        self._solve(cantor_cfg)
        csv_in = tmp_path / "out" / "cantor.density.csv"
        assert main(["export", str(csv_in), "--format", "bmp", "--out", str(tmp_path / "x")]) == 2

    def test_missing_input(self, tmp_path):
        assert main(["export", str(tmp_path / "no.csv"), "--format", "json", "--out", str(tmp_path / "x")]) == 3

    def _export_fails(self, path, capsys):
        assert main(["export", str(path), "--format", "pgm", "--out", str(path) + ".pgm"]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:" in err
        return err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0.5,nan", "must be finite"),
            ("1,0.5,inf", "must be finite"),
            ("1,0.5,2.5", "must lie in [0, 1]"),
            ("2,0.5,0.5", "index column must count"),
        ],
    )
    def test_csv_rows_checked(self, tmp_path, capsys, row, message):
        path = tmp_path / "d.csv"
        path.write_text(f"index,x,density\n0,0,1\n{row}\n")
        assert message in self._export_fails(path, capsys)

    @pytest.mark.parametrize(
        "rows", [[[0, 0.0, 1.0], [1, 0.5, 0.5]], [[10**400, 0.0, 0.0, 1.0]]], ids=["short", "huge"]
    )
    def test_json_rows_must_match_header(self, tmp_path, capsys, rows):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"columns": ["index", "x", "y", "density"], "rows": rows}))
        assert "rows of 4 numeric fields" in self._export_fails(path, capsys)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("empty.csv", "", "empty density file"),
            ("header.csv", "index,x,density\n", "one or more rows of 3 numeric fields"),
            ("unknown.csv", "a,b,c\n0,0,1\n", "unrecognized density header"),
            ("short.csv", "index,x,density\n0,0,1\n1,0.5\n", "short.csv:3: expected 3 fields"),
            ("brace.json", "{", "brace.json:1:2:"),
            ("list.json", "[1, 2]", "malformed density JSON"),
            ("text.json", '{"columns": "index,x,density", "rows": [[0, 0, 1]]}', "unrecognized density header"),
            ("binary.pgm", "P5\n1 1\n255\n255\n", "not a plain P2 PGM"),
            ("short.pgm", "P2\n2 2\n255\n255 0 0\n", "pixel count does not match"),
            ("negative.pgm", "P2\n-1 -1\n255\n0\n", "malformed PGM header"),
            ("zero.pgm", "P2\n0 1\n255\n", "malformed PGM header"),
            ("maxval.pgm", "P2\n1 1\n0\n0\n", "malformed PGM header"),
            ("maxval-65536.pgm", "P2\n2 1\n65536\n1 2\n", "malformed PGM header"),
            ("fraction.pgm", "P2\n1 1\n255\n3.5\n", "malformed PGM"),
            ("huge.pgm", f"P2\n1 1\n255\n{10**23}\n", "malformed PGM"),
            # float() and int() read these as numbers; the formats do not
            ("string.json", '{"columns": ["index", "x", "density"], "rows": [[0, "0.5", "1"]]}',
             "every value must be a JSON number"),
            ("bool.json", '{"columns": ["index", "x", "density"], "rows": [[0, 0, 1], [1, true, 0.25]]}',
             "every value must be a JSON number"),
            ("underscore.csv", "index,x,density\n0,0,1\n\n1,0_5,1\n", "underscore.csv:4: fields must be ASCII"),
            ("arabic.csv", "index,x,density\n0,0,\u0660.\u0667\u0665\n", "arabic.csv:2: fields must be ASCII"),
            ("underscore.pgm", "P2\n1 1\n255\n1_0\n", "malformed PGM"),
            ("arabic.pgm", "P2\n1 1\n255\n\u0663\n", "malformed PGM"),
            ("d.txt", "index,x,density\n0,0,1\n", "cannot infer density format"),
        ],
    )
    def test_bad_inputs_name_the_file(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert message in self._export_fails(path, capsys)

    @pytest.mark.parametrize(
        "name, data, message",
        [
            pytest.param("d.csv", b"index,x,density\n0,0,1\xff\n", "not UTF-8", id="csv-byte-ff"),
            pytest.param("d.pgm", b"P2\n1 1\n255\n\xff\n", "not UTF-8", id="pgm-byte-ff"),
        ]
        + [
            pytest.param("d.json", data, message, id=f"json-{case}")
            for case, (data, message) in UNDECODABLE.items()
        ],
    )
    def test_undecodable_inputs_name_the_file(self, tmp_path, capsys, name, data, message):
        # each gave a traceback and exit 1
        path = tmp_path / name
        path.write_bytes(data)
        assert f"error: {path}: {message}" in self._export_fails(path, capsys)

    def test_pgm_pixel_above_maxval(self, tmp_path, capsys):
        path = tmp_path / "d.pgm"
        path.write_text("P2\n2 1\n255\n255 300\n")
        assert "densities must lie in [0, 1]" in self._export_fails(path, capsys)

    def test_csv_error_names_physical_line(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("index,x,density\n\n0,0,1\n\n1,abc,0.5\n")
        assert f"{path}:5:" in self._export_fails(path, capsys)

    def test_pgm_needs_grid_coordinates(self, tmp_path):
        xy, x = ("index", "x", "y", "density"), ("index", "x", "density")
        tables = [
            (xy, [(0, 0.0, 0.0, 1.0), (1, 1.0, 0.0, 1.0), (2, 0.0, 1.0, 1.0)]),
            # column-major: y varies fastest, which the PGM wrote transposed
            (xy, [(0, 0.0, 0.0, 1.0), (1, 0.0, 1.0, 0.5), (2, 1.0, 0.0, 0.0), (3, 1.0, 1.0, 1.0)]),
            # four rows at two points: two distinct values on each axis
            (xy, [(0, 0.0, 0.0, 1.0), (1, 1.0, 1.0, 1.0), (2, 0.0, 0.0, 1.0), (3, 1.0, 1.0, 1.0)]),
            # 1-D, x not increasing
            (x, [(0, 1.0, 1.0), (1, 0.0, 0.5), (2, 2.0, 0.0)]),
        ]
        for columns, rows in tables:
            table = io_formats.DensityTable(columns, rows)
            with pytest.raises(si.ConfigError, match="row-major grid"):
                io_formats.write_density_pgm(tmp_path / "t.pgm", table)

    def test_column_major_csv_to_pgm_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("index,x,y,density\n0,0,0,1\n1,0,1,0.5\n2,1,0,0\n3,1,1,1\n")
        out = tmp_path / "d.pgm"
        assert main(["export", str(path), "--format", "pgm", "--out", str(out)]) == 2
        assert "row-major grid" in capsys.readouterr().err
        assert not out.exists()

    def test_writer_error_names_the_input_file(self, tmp_path, capsys):
        path = tmp_path / "cm.csv"
        path.write_text("index,x,y,density\n0,0,0,1\n1,0,1,0.5\n2,1,0,0\n3,1,1,1\n")
        out = tmp_path / "cm.pgm"
        assert main(["export", str(path), "--format", "pgm", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: the coordinates do not form a row-major grid\n"
        assert not out.exists()

    def test_table_rows_read_only(self, cantor_cfg, tmp_path):
        self._solve(cantor_cfg)
        table = io_formats.read_density_csv(tmp_path / "out" / "cantor.density.csv")
        assert table.rows.shape == (729, 3)
        with pytest.raises(ValueError, match="read-only"):
            table.rows[0, -1] = 0.5

    def test_golden_cantor_pgm(self, cantor_cfg, tmp_path):
        self._solve(cantor_cfg)
        produced = (tmp_path / "out" / "cantor.density.pgm").read_bytes()
        assert produced == (GOLDEN / "cantor_m256.pgm").read_bytes()


class Test2dExports:
    def test_solve_writes_2d_pgm(self, tmp_path):
        raw = json.loads((CONFIGS / "sierpinski.json").read_text())
        raw["space"]["counts"] = [16, 16]
        raw["output"]["pathPrefix"] = str(tmp_path / "sp")
        cfg = tmp_path / "sp.json"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", str(cfg)]) == 0
        header = (tmp_path / "sp.density.pgm").read_text().split()[:4]
        assert header == ["P2", "16", "16", "255"]


def _python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports starifs from this checkout."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_cli_and_samplers_do_not_import_numpy_ma_numpy_random_fractions_or_decimal(tmp_path):
    # each numpy import costs 10-18 ms of a run, and numpy 1.x imports
    # numpy.ma with numpy; fractions, which imports decimal, costs about
    # 2 ms, more than a solve's setup, and only a non-diagonal affine
    # matrix needs it (``_operator_norm``)
    modules = ("numpy.ma", "numpy.random", "fractions", "decimal")
    loaded = f"print([m in sys.modules for m in {modules!r}])"
    if _python(f"import sys, numpy; {loaded}", tmp_path) != "[False, False, False, False]":
        pytest.skip("a bare `import numpy` loads numpy.ma, numpy.random, fractions or decimal")
    commands = []
    for name in ("cantor", "sierpinski"):
        config = str(CONFIGS / f"{name}.json")
        commands += [["check", config], ["solve", config], ["oracle", config, "--depth", "4"]]
        for fmt in ("csv", "json", "pgm"):
            out = f"out/{name}.export.{fmt}"
            commands.append(["export", f"out/{name}.density.{fmt}", "--format", fmt, "--out", out])
    tnorms = [t.config_name() for t in ALL_TNORMS]
    code = (
        "import sys\nimport starifs as si\nfrom starifs.cli import main\n"
        f"for argv in {commands!r}:\n    assert main(argv) == 0, argv\n"
        f"for name in {tnorms!r}:\n    assert si.axiom_report(si.parse_tnorm(name))['passed']\n"
        f"{loaded}"
    )
    assert _python(code, tmp_path) == "[False, False, False, False]"


@pytest.mark.parametrize("command", ["check", "solve", "oracle"])
def test_config_commands_share_the_solver_flags(command):
    depth = ["--depth", "3"] if command == "oracle" else []
    args = build_parser().parse_args(
        [command, "c.json", "--tol", "1e-3", "--max-iter", "5", "--levels", "64", *depth]
    )
    assert (args.config, args.tol, args.max_iter, args.levels) == ("c.json", 1e-3, 5, 64)
    with pytest.raises(SystemExit):
        # --depth is the oracle's own flag, and the oracle's only required one
        build_parser().parse_args([command, "c.json"] + ([] if depth else ["--depth", "3"]))


def _closed_stdout(argv, cwd, unbuffered="1"):
    """Run ``starifs argv`` in a fresh interpreter whose stdout is a pipe
    whose read end is already closed; returns (exit code, stderr)."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys; from starifs.cli import main; sys.exit(main())"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered),
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    return done.returncode, done.stderr


class TestClosedStdout:
    """A reader that goes away (``starifs ... | head -1``) stops the
    printing, not the command: no message, the command's own exit code."""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_check(self, tmp_path, unbuffered):
        # an unhandled EPIPE exits 3 with "error: [Errno 32] Broken pipe"
        # unbuffered, and 120 with a message at shutdown buffered
        argv = ["check", str(CONFIGS / "cantor.json")]
        assert _closed_stdout(argv, tmp_path, unbuffered) == (0, "")

    def test_check_in_process(self, monkeypatch, capsys):
        # the runs in a fresh interpreter leave ``_print``'s BrokenPipe
        # branch out of the suite's own line trace
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["check", str(CONFIGS / "cantor.json")]) == 0
        assert capsys.readouterr().err == ""

    def test_solve_writes_every_file(self, cantor_cfg, tmp_path):
        assert _closed_stdout(["solve", str(cantor_cfg)], tmp_path) == (0, "")
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "cantor.density.csv", "cantor.density.json", "cantor.density.pgm", "cantor.report.json"
        ]
        golden = (GOLDEN / "cantor_m256.pgm").read_bytes()
        assert (out / "cantor.density.pgm").read_bytes() == golden

    def test_oracle(self, tmp_path):
        argv = ["oracle", str(CONFIGS / "cantor.json"), "--depth", "8"]
        assert _closed_stdout(argv, tmp_path) == (0, "")
