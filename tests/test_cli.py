import json
from pathlib import Path

import numpy as np
import pytest

import starifs as si
from starifs import io_formats
from starifs.cli import main
from starifs.config import RunConfig

CONFIGS = Path(__file__).parent / "configs"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def cantor_cfg(tmp_path):
    """The reference config with outputs redirected into tmp_path."""
    raw = json.loads((CONFIGS / "cantor.json").read_text())
    raw["output"]["pathPrefix"] = str(tmp_path / "out" / "cantor")
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps(raw))
    return path


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

    def test_weight_failure_named(self, capsys):
        assert main(["check", str(CONFIGS / "bad_weights.json")]) == 1
        err = capsys.readouterr().err
        assert "weight error: max λ = 0.7" in err

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

    def test_missing_file(self):
        assert main(["check", "/nonexistent/nowhere.json"]) == 3


class TestSolveCommand:
    def test_artifacts_written(self, cantor_cfg, tmp_path, capsys):
        assert main(["solve", str(cantor_cfg)]) == 0
        prefix = tmp_path / "out" / "cantor"
        report = json.loads((prefix.parent / "cantor.report.json").read_text())
        assert report["stoppedBy"] in ("residual", "bound")
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

    def test_max_iter_override(self, cantor_cfg, tmp_path):
        assert main(["solve", str(cantor_cfg), "--max-iter", "1", "--tol", "1e-15"]) == 0
        report = json.loads((tmp_path / "out" / "cantor.report.json").read_text())
        assert report["stoppedBy"] == "maxIterations"
        assert report["iterations"] == 1

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

    def test_budget_exceeded(self, cantor_cfg):
        assert main(["oracle", str(cantor_cfg), "--depth", "21"]) == 4


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
