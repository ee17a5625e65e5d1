"""Self-test of the benchmark: every workload at a tiny size, and bad output counted.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import graphlap as gl  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "ct128_adjoint": dict(size=24, angles=12, max_iter=40, expected_stop=gl.MAX_ITER_REACHED),
    "deblur256_reuse": dict(size=24, max_iter=12),
    "ct128_starts": dict(size=24, angles=24),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_every_workload_has_a_tiny_variant():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_and_reports_every_metric(name, traced, tmp_path):
    record = runner.run_workload(tiny(name), seed=3, seconds=0.0, traced=traced, scratch=tmp_path)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0 and record["failed_frac"] == 0.0
    assert record["attempted"] == runner.MIN_REPEATS * len(tiny(name).cases)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    assert set(listed) <= set(record["metrics"])
    values = record["metrics"]
    if traced:
        assert values["graph.build.calls"] == values["solver.graph_rebuilds"]
        assert (tmp_path / f"spans-{name}-seed3.jsonl").is_file()
        self_ms = sum(values[f"{layer}.self_ms"] for layer in tracing.SOLVE_LAYERS)
        assert math.isclose(1e3 * values["trace.self_sum_s"], self_ms, rel_tol=1e-9)
    else:
        assert all(values[m] > 0 for m in listed)


def _nan_iterate(result):
    values = np.array(result.final_iterate.values)
    values[0, 0] = np.nan
    bad = gl.ImageGrid(np.zeros_like(values))
    object.__setattr__(bad, "values", values)
    return dataclasses.replace(result, final_iterate=bad)


CORRUPTIONS = {
    "nan_iterate": _nan_iterate,
    "wrong_stop_reason": lambda r: dataclasses.replace(r, stop_reason="diverged"),
    "short_trace": lambda r: dataclasses.replace(r, trace=r.trace[:-1]),
    "residual_above_threshold": lambda r: dataclasses.replace(
        r, trace=r.trace[:-1] + (dataclasses.replace(r.trace[-1], residual=1e300),)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_results_count_as_failed(corruption, tmp_path):
    w = tiny("ct128_starts")
    record = runner.run_workload(w, seed=3, seconds=0.0, traced=False, scratch=tmp_path,
                                 corrupt=CORRUPTIONS[corruption])
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    assert record["failed_frac"] == 1.0


def test_differing_trace_bytes_across_repeats_count_as_failed(tmp_path):
    calls = []

    def perturb_second_repeat(result):
        calls.append(None)
        if len(calls) <= len(w.cases):
            return result
        last = result.trace[-1]
        return dataclasses.replace(result, trace=result.trace[:-1] + (dataclasses.replace(last, alpha=last.alpha * 2),))

    w = tiny("ct128_starts")
    record = runner.run_workload(w, seed=3, seconds=0.0, traced=False, scratch=tmp_path,
                                 corrupt=perturb_second_repeat)
    assert record["failed"] == len(w.cases)
    assert all("differ" in p for p in record["problems"])


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ct128_adjoint", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
