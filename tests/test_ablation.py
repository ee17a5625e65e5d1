"""The ablation script: adaptive graph, fixed graph and Landweber arms per initializer."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from graphlap import cli, solver
from graphlap.phantoms import NoiseSpec, add_noise
from graphlap.recon import ReconstructorSpec

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ablation.py"
SMOKE = ["--problem", "ct", "--size", "16", "--angles", "8", "--max-iter", "60"]
COLUMNS = "problem,psi,arm,delta_rel,seed,stop_k,stop_reason,re,ssim,best_re,constant_C"


def run_script(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def load_script():
    spec = importlib.util.spec_from_file_location("ablation", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    proc = run_script(*SMOKE, "--levels", "0.05", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, *lines = (out / "ablation.csv").read_text().splitlines()
    assert header == COLUMNS
    return proc.stdout, [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_smoke_table(smoke):
    stdout, rows = smoke
    assert len(rows) == 12
    assert stdout.splitlines()[0].split() == COLUMNS.split(",")
    assert len(stdout.splitlines()) == 1 + len(rows)
    got = [(r["psi"], r["arm"], int(r["stop_k"]), r["stop_reason"]) for r in rows]
    stops = {"adjoint": (34, 34, 36), "fbp": (8, 9, 7), "tikhonov": (11, 11, 9), "tv": (10, 11, 9)}
    assert got == [(psi, arm, k, "discrepancy_met")
                   for psi, ks in stops.items() for arm, k in zip(("adaptive", "fixed", "landweber"), ks)]
    assert all((r["problem"], r["delta_rel"], r["seed"]) == ("ct", "0.05", "0") for r in rows)
    assert all(float(r["best_re"]) <= float(r["re"]) for r in rows)
    for psi in stops:
        assert len({r["re"] for r in rows if r["psi"] == psi}) == 3


def test_adaptive_row_matches_the_cli(smoke, tmp_path):
    # same flags through `graphlap`: one problem set-up, so the same numbers to the last digit
    assert cli.main([*SMOKE, "--delta-rel", "0.05", "--psi", "adjoint", "--out", str(tmp_path)]) == 0
    header, line = (tmp_path / "report.csv").read_text().splitlines()
    report = dict(zip(header.split(","), line.split(",")))
    (row,) = [r for r in smoke[1] if (r["psi"], r["arm"]) == ("adjoint", "adaptive")]
    assert (row["re"], row["stop_k"], row["stop_reason"], row["constant_C"]) == (
        report["re"], report["iterations"], report["stop_reason"], report["constant_C"])


def test_arms_differ_only_in_the_graph_term(monkeypatch):
    config = cli.parse_config([*SMOKE, "--delta-rel", "0.05"])
    A, truth, _ = cli.build_problem(config)
    noisy, delta = add_noise(A.apply(truth), NoiseSpec(delta_rel=0.05))
    real_build = solver.build_laplacian
    builds = []

    def counting_build(u, graph, reuse):
        builds.append(u)
        return real_build(u, graph, reuse=reuse)

    monkeypatch.setattr(solver, "build_laplacian", counting_build)
    traces, build_counts = {}, {}
    for arm, params in load_script().arms(config).items():
        builds.clear()
        traces[arm] = solver.solve(A, noisy, delta, ReconstructorSpec(), params).trace
        build_counts[arm] = len(builds)
    assert build_counts == {"adaptive": len(traces["adaptive"]), "fixed": 1, "landweber": 1}
    assert any(r.beta > 0 for r in traces["fixed"])
    assert len(traces["landweber"]) > 1
    assert all(r.beta == 0 for r in traces["landweber"])


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--problem", "deblur", "--psis", "fbp"], "needs projection data", id="fbp"),
    pytest.param(["--problem", "deblur", "--psis", "adjoint,fbp"], "needs projection data", id="adjoint,fbp"),
    pytest.param(["--problem", "ct", "--tau", "0.5"], "tau must exceed 1", id="tau"),
    pytest.param(["--problem", "ct", "--max-iter", "-1"], "max_iter must be >= 0", id="max-iter"),
    pytest.param(["--problem", "ct", "--angles", "0"], "num_angles must be >= 1", id="angles"),
    pytest.param(["--problem", "ct", "--sigma", "0"], "sigma must be positive", id="sigma"),
    pytest.param(["--problem", "ct", "--levels", "nan"], "delta_rel must be >= 0 and finite", id="levels-nan"),
    pytest.param(["--problem", "ct", "--seeds", "-1"], "seed must be >= 0", id="seeds-negative"),
])
def test_bad_cell_exits_two_before_any_solve(tmp_path, argv, message):
    out = tmp_path / "out"
    proc = run_script(*argv, "--out", str(out))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_out_naming_a_file_exits_two_before_any_solve(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    proc = run_script(*SMOKE, "--levels", "0.05", "--out", str(taken))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "is not a directory" in proc.stderr, proc.stderr
    assert proc.stdout == ""
    assert taken.read_text() == "kept\n"


def test_diverged_solve_is_a_row(tmp_path):
    proc = run_script("--problem", "ct", "--size", "16", "--angles", "10", "--eta0", "1e12", "--eta1", "1e12",
                      "--levels", "0", "--psis", "adjoint", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    header, *lines = (tmp_path / "ablation.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [r["arm"] for r in rows] == ["adaptive", "fixed", "landweber"]
    assert all(r["stop_reason"] == "diverged" and r["re"] == "nan" and int(r["stop_k"]) > 1 for r in rows)
    assert all(r["ssim"] == r["constant_C"] == "nan" for r in rows)
