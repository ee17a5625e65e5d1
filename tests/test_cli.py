"""Experiment harness: config parsing, run artifacts, exit codes."""

import math
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from graphlap import cli
from graphlap.errors import ConfigurationError
from graphlap.graph import GraphConfig
from graphlap.solver import SolverParams

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def read_report(path):
    header, *rows = path.read_text().splitlines()
    assert header == ",".join(cli.REPORT_COLUMNS)
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def read_meta(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def other_value(f):
    """A valid value of the field that differs from its default."""
    choices = f.metadata["choices"]
    if choices:
        return choices[-1] if choices[-1] != f.default else choices[0]
    if f.name == "out":
        return "elsewhere"
    return f.default + 1 if isinstance(f.default, int) else f.default + 0.25


def read_weights(path):
    out = {}
    for line in path.read_text().splitlines()[1:]:
        i, j, w = line.split(",")
        out[(int(i), int(j))] = float(w)
    return out


class TestParseConfig:
    def test_problem_required(self):
        with pytest.raises(ConfigurationError):
            cli.parse_config([])

    def test_problem_specific_graph_defaults(self):
        ct = cli.parse_config(["--problem", "ct"])
        assert (ct.radius, ct.sigma, ct.metric) == (6.0, 0.05, "chebyshev")
        assert (ct.size, ct.angles, ct.delta_rel) == (64, 30, 0.05)
        demo = cli.parse_config(["--problem", "laplacian_demo"])
        assert (demo.radius, demo.sigma, demo.metric) == (1.0, 0.01, "manhattan")

    @pytest.mark.parametrize("problem", ["ct", "deblur"])
    def test_solver_defaults_are_the_library_defaults(self, problem):
        assert cli._solver_params(cli.parse_config(["--problem", problem])) == SolverParams()

    def test_demo_overrides_only_the_graph(self):
        got = cli._solver_params(cli.parse_config(["--problem", "laplacian_demo"]))
        demo_graph = GraphConfig(radius=1.0, sigma=0.01, metric="manhattan")
        assert got == SolverParams(graph=demo_graph)

    @pytest.mark.parametrize("f", fields(cli.ExperimentConfig), ids=lambda f: f.name)
    def test_every_field_round_trips_through_file_and_flag(self, f, tmp_path):
        value = other_value(f)
        expected_type = get_type_hints(cli.ExperimentConfig)[f.name]
        base = [] if f.name == "problem" else ["--problem", "ct"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{f.name}={value}\n")
        from_file = cli.parse_config([*base, "--config", str(cfg)])
        from_flag = cli.parse_config([*base, "--" + f.name.replace("_", "-"), str(value)])
        for config in (from_file, from_flag):
            assert getattr(config, f.name) == value
            assert type(getattr(config, f.name)) is expected_type

    def test_help_lists_every_field_with_its_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for f in fields(cli.ExperimentConfig):
            assert "--" + f.name.replace("_", "-") in text
            if f.default is not MISSING:
                assert f"{f.metadata['help']} (default {f.default}" in text

    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep base\n\nproblem=ct\nsigma = 0.2\nangles=40\ngraph-period=3\n")
        got = cli.parse_config(["--config", str(cfg), "--sigma", "0.3"])
        assert got.problem == "ct"
        assert got.sigma == 0.3
        assert got.angles == 40
        assert got.graph_period == 3
        assert got.radius == 6.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=ct\nwat=1\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            cli.parse_config(["--config", str(cfg)])

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=ct\nsize=abc\n")
        with pytest.raises(ConfigurationError, match="bad value"):
            cli.parse_config(["--config", str(cfg)])

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=ct\njust a line\n")
        with pytest.raises(ConfigurationError, match="key=value"):
            cli.parse_config(["--config", str(cfg)])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            cli.parse_config(["--problem", "ct", "--config", "/no/such/file.cfg"])

    def test_unknown_problem_in_file_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=heat\n")
        with pytest.raises(ConfigurationError, match="unknown problem"):
            cli.parse_config(["--config", str(cfg)])

    @pytest.mark.parametrize("psi", ["fbp", "tv"])
    def test_deblur_rejects_projection_only_psi(self, psi):
        with pytest.raises(ConfigurationError, match="projection data"):
            cli.parse_config(["--problem", "deblur", "--psi", psi])

    def test_size_and_noise_bounds(self):
        with pytest.raises(ConfigurationError):
            cli.parse_config(["--problem", "ct", "--size", "1"])
        with pytest.raises(ConfigurationError):
            cli.parse_config(["--problem", "ct", "--delta-rel", "-0.1"])

    @pytest.mark.parametrize("problem", ["ct", "deblur"])
    @pytest.mark.parametrize("size", [2, 6])
    def test_size_below_ssim_window_rejected_before_solving(self, problem, size, tmp_path):
        out = tmp_path / "out"
        argv = ["--problem", problem, "--size", str(size), "--out", str(out)]
        with pytest.raises(ConfigurationError, match="7x7 window"):
            cli.parse_config(argv)
        assert cli.main(argv) == 2
        assert not out.exists()
        assert cli.parse_config(["--problem", problem, "--size", "7"]).size == 7

    def test_bad_choice_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            cli.parse_config(["--problem", "ct", "--metric", "euclid"])


class TestLaplacianDemo:
    def test_writes_graph_matrices(self, tmp_path):
        assert cli.main(["--problem", "laplacian_demo", "--out", str(tmp_path)]) == 0
        weights = read_weights(tmp_path / "weights.csv")
        assert len(weights) == 8
        assert weights[(0, 1)] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert weights[(1, 3)] == pytest.approx(math.exp(-4.0), rel=1e-12)
        degrees = (tmp_path / "degrees.csv").read_text().splitlines()
        assert degrees[0] == "i,degree"
        assert float(degrees[1].split(",")[1]) == pytest.approx(math.exp(-1) + math.exp(-9), rel=1e-12)
        assert float(degrees[2].split(",")[1]) == pytest.approx(math.exp(-1) + math.exp(-4), rel=1e-12)
        meta = read_meta(tmp_path / "meta.txt")
        assert meta["problem"] == "laplacian_demo"

    def test_wider_similarity_scale_raises_every_weight(self, tmp_path):
        assert cli.main(["--problem", "laplacian_demo", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["--problem", "laplacian_demo", "--sigma", "1.0",
                         "--out", str(tmp_path / "b")]) == 0
        narrow = read_weights(tmp_path / "a" / "weights.csv")
        wide = read_weights(tmp_path / "b" / "weights.csv")
        assert set(narrow) == set(wide)
        assert all(wide[k] > narrow[k] for k in narrow)


@pytest.fixture(scope="module")
def ct_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("ct16")
    rc = cli.main(["--problem", "ct", "--size", "16", "--angles", "10", "--out", str(out)])
    assert rc == 0
    return out


class TestCtRun:
    def test_writes_all_artifacts(self, ct_out):
        for name in ("trace.csv", "recon.pgm", "recon.csv", "report.csv", "meta.txt"):
            assert (ct_out / name).exists(), name

    def test_report_row_is_consistent(self, ct_out):
        (row,) = read_report(ct_out / "report.csv")
        meta = read_meta(ct_out / "meta.txt")
        assert row["psi"] == "adjoint"
        assert row["stop_reason"] == "discrepancy_met"
        assert float(row["residual"]) <= 2.0 * float(meta["delta"])
        assert int(row["iterations"]) > 0
        assert 0.0 < float(row["re"]) < 1.0
        assert -1.0 <= float(row["ssim"]) <= 1.0

    def test_meta_lists_every_flag(self, ct_out):
        meta = read_meta(ct_out / "meta.txt")
        missing = {f.name for f in fields(cli.ExperimentConfig)} - set(meta)
        assert not missing
        assert meta["version"]
        assert meta["num_detectors"] == "23"
        assert meta["stop_reason"] == "discrepancy_met"
        assert int(meta["iterations"]) == int(read_report(ct_out / "report.csv")[0]["iterations"])

    def test_recon_files_decode(self, ct_out):
        lines = (ct_out / "recon.csv").read_text().splitlines()
        img = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        assert img.shape == (16, 16)
        assert np.all(np.isfinite(img))
        pgm = (ct_out / "recon.pgm").read_bytes()
        assert pgm.startswith(b"P5\n16 16\n255\n")
        assert len(pgm) == len(b"P5\n16 16\n255\n") + 256

    def test_report_appends_on_rerun(self, ct_out):
        rc = cli.main(["--problem", "ct", "--size", "16", "--angles", "10", "--out", str(ct_out)])
        assert rc == 0
        lines = (ct_out / "report.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines.count(",".join(cli.REPORT_COLUMNS)) == 1
        assert lines[1] == lines[2]


class TestReconstructionQualityTrend:
    def test_less_noise_gives_smaller_error(self, tmp_path):
        errors = {}
        for delta_rel in ("0.2", "0.01"):
            out = tmp_path / delta_rel
            assert cli.main(["--problem", "ct", "--size", "64", "--delta-rel", delta_rel,
                             "--out", str(out)]) == 0
            errors[delta_rel] = float(read_report(out / "report.csv")[0]["re"])
        assert errors["0.01"] < errors["0.2"]


class TestDeblurRun:
    def test_discrepancy_stop_with_moderate_noise(self, tmp_path):
        rc = cli.main(["--problem", "deblur", "--size", "32", "--delta-rel", "0.01",
                       "--out", str(tmp_path)])
        assert rc == 0
        (row,) = read_report(tmp_path / "report.csv")
        meta = read_meta(tmp_path / "meta.txt")
        assert row["stop_reason"] == "discrepancy_met"
        assert float(row["residual"]) <= 2.0 * float(meta["delta"])
        assert meta["kernel_radius"] == "6"

    def test_iteration_cap_reported(self, tmp_path):
        rc = cli.main(["--problem", "deblur", "--size", "16", "--delta-rel", "0",
                       "--max-iter", "5", "--out", str(tmp_path)])
        assert rc == 0
        (row,) = read_report(tmp_path / "report.csv")
        assert row["stop_reason"] == "max_iter_reached"
        assert row["iterations"] == "5"
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 7


class TestExitCodes:
    def test_config_errors_exit_two(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=ct\nsize=16\npsi=nett\n")
        for argv in (["--problem", "deblur", "--psi", "fbp"], ["--problem", "ct", "--tau", "1.0"],
                     ["--problem", "ct", "--tau", "0.5"], ["--problem", "deblur", "--rho", "0"],
                     ["--problem", "ct", "--size", "16", "--nu0", "nan"],
                     ["--problem", "ct", "--size", "16", "--radius", "inf"],
                     ["--problem", "ct", "--size", "16", "--delta-rel", "nan"],
                     ["--problem", "ct", "--size", "16", "--delta-rel", "inf"],
                     ["--problem", "ct", "--size", "16", "--seed", "-1"],
                     ["--problem", "deblur", "--rho", "inf"],
                     ["--problem", "deblur", "--size", "16", "--rho", "1e6"],
                     ["--problem", "ct", "--size", "16", "--sigma", "inf"],
                     ["--config", str(cfg)]):
            assert cli.main([*argv, "--out", str(out)]) == 2
            assert not out.exists(), argv
        assert cli.main([]) == 2

    def test_divergence_exits_three_with_partial_trace(self, tmp_path):
        with np.errstate(all="ignore"):
            rc = cli.main(["--problem", "ct", "--size", "16", "--angles", "10",
                           "--eta0", "1e12", "--eta1", "1e12", "--delta-rel", "0",
                           "--out", str(tmp_path)])
        assert rc == 3
        assert (tmp_path / "trace.csv").exists()
        assert len((tmp_path / "trace.csv").read_text().splitlines()) > 2
        assert read_meta(tmp_path / "meta.txt")["stop_reason"] == "diverged"
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "recon.pgm").exists()


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "graphlap.cli", "--problem",
                               "laplacian_demo", "--out", str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "8 weights" in proc.stdout
        assert (tmp_path / "weights.csv").exists()

    def test_console_script_declaration(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["graphlap"] == "graphlap.cli:main"
        module, func = scripts["graphlap"].split(":")
        # The same call the installed wrapper makes: sys.exit(main()) with argv from the shell.
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = subprocess.run([sys.executable, "-c", wrapper, "--problem", "laplacian_demo",
                               "--out", str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "degrees.csv").exists()

    @pytest.mark.skipif(shutil.which("graphlap") is None,
                        reason="graphlap console script not on PATH; "
                               "install with `pip install -e .[test] --no-build-isolation` "
                               "(needs the wheel package or setuptools >= 70.1)")
    def test_console_script(self, tmp_path):
        exe = shutil.which("graphlap")
        assert exe is not None
        proc = subprocess.run([exe, "--problem", "laplacian_demo", "--out", str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert (tmp_path / "degrees.csv").exists()
