"""One workload run: set-ups and solve repeats, output checks, metrics.

A run is one closed-loop caller making sequential solves in this process.
Each repeat starts from empty graphlap caches (what a fresh ``graphlap`` CLI
process starts from), sets the workload up and runs its solves.  Repeats
continue while the next one is expected to finish inside the time budget;
timing metrics are medians over repeats, set-up time a median over set-ups.

Every solve is checked: the final iterate is finite, the trace has
``stop_index + 1`` rows, the stop reason is the one the workload expects, a
discrepancy stop really has ``||A u - v|| <= tau * delta`` (recomputed here),
and the ``write_trace_csv`` bytes of the same case are identical in every
repeat.  A solve that raises or fails a check counts towards ``failed``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse

import graphlap as gl
import tracing
import workloads

SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 1.0
SETUP_REPEAT_SECONDS = 0.3
SETUP_MAX_SAMPLES = 100
MIN_REPEATS = 2
WARMUP_ITERATIONS = 3
GRAPH_BYTES_PER_EDGE = 16  # one float64 difference and one float64 weight


def cold_start():
    """Empty graphlap's module-level caches, as a fresh process finds them."""
    for name, module in list(sys.modules.items()):
        if name == "graphlap" or name.startswith("graphlap."):
            for attr, value in vars(module).items():
                if attr.endswith("_CACHE") and isinstance(value, dict):
                    value.clear()
                elif callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def check(w: workloads.Workload, inputs: workloads.Inputs, case: workloads.Case, result) -> list[str]:
    """Problems with one solve's output; empty when it is correct."""
    problems = []
    finite = bool(np.isfinite(result.final_iterate.values).all())
    if not finite:
        problems.append("final iterate is not finite")
    if len(result.trace) != result.stop_index + 1:
        problems.append(f"trace has {len(result.trace)} rows for stop index {result.stop_index}")
    if result.stop_reason != w.expected_stop:
        problems.append(f"stop reason {result.stop_reason!r}, expected {w.expected_stop!r}")
    if result.stop_reason == gl.DISCREPANCY_MET and finite and result.trace:
        noisy, delta = inputs.data[case.delta_rel]
        threshold = w.params().tau * delta
        residual = gl.norm(gl.sub(inputs.operator.apply(result.final_iterate), noisy))
        if not (residual <= threshold and result.trace[-1].residual <= threshold):
            problems.append(f"discrepancy stop with residual {residual!r} above tau*delta {threshold!r}")
        if not math.isclose(residual, result.trace[-1].residual, rel_tol=1e-9):
            problems.append(f"last trace residual {result.trace[-1].residual!r} != recomputed {residual!r}")
    return problems


def trace_digest(trace, scratch: Path) -> str:
    path = scratch / "trace.csv"
    gl.write_trace_csv(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sparse_parts(operator):
    return [m for m in vars(operator).values() if sparse.issparse(m)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(w: workloads.Workload, inputs: workloads.Inputs) -> dict:
    """Versions, threads and CPU, beside the workload's working-set bytes."""
    parts = _sparse_parts(inputs.operator)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_model": _cpu_model(),
        "cpu_cache": _cache_sizes(),
        "graph_working_set_bytes": GRAPH_BYTES_PER_EDGE * workloads.graph_edges(w),
        "radon_working_set_bytes": sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in parts),
    }


def _median_dict(rows: list[dict]) -> dict:
    """Per-key median; counts stay whole numbers."""
    out = {}
    for key in rows[0] if rows else ():
        values = [row[key] for row in rows]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def run_workload(w: workloads.Workload, seed: int, seconds: float, traced: bool, scratch: Path,
                 corrupt=None) -> dict:
    """Run ``w`` for about ``seconds`` and return its result record.

    With ``traced`` the repeats alternate untraced and traced, so the record
    holds per-layer figures and the tracing overhead; otherwise it holds the
    end-to-end metrics.  ``corrupt`` maps each solve result before it is
    checked (the self-test uses it to show that bad output is counted).
    """
    scratch.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    tracer = tracing.Tracer() if traced else None
    setup_times: list[float] = []
    setup_layers: list[dict] = []

    def timed_setups(min_samples, min_seconds):
        """Set up from cold caches until both minimums are met; return the last inputs."""
        samples = []
        while len(samples) < min_samples or (sum(samples) < min_seconds and len(samples) < SETUP_MAX_SAMPLES):
            inputs = None  # one set of inputs alive at a time keeps the peak memory steady
            cold_start()
            lo = tracer.mark() if tracer else 0
            t0 = time.perf_counter()
            inputs = workloads.setup(w, seed)
            samples.append(time.perf_counter() - t0)
            if tracer and tracer.installed:
                setup_layers.append(tracing.summarize_setup(tracer.spans, lo, tracer.mark()))
        setup_times.extend(samples)
        return inputs

    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, str] = {}
    quality: dict[str, tuple[float, float]] = {}
    repeats: list[dict] = []
    layer_rows: list[dict] = []
    if tracer:
        tracer.install()
    try:
        inputs = timed_setups(SETUP_MIN_SAMPLES, SETUP_MIN_SECONDS)
        env = environment(w, inputs)
        # The first solve of a process runs slower while the heap grows; a short
        # untimed solve takes that out of the first repeat.
        try:
            workloads.solve_case(dataclasses.replace(w, max_iter=WARMUP_ITERATIONS), inputs, w.cases[0])
        except Exception as exc:  # the timed repeats count the failure
            problems.append(f"warm-up: {type(exc).__name__}: {exc}")
        while len(repeats) < MIN_REPEATS or (
                time.perf_counter() - start + statistics.median(r["wall"] for r in repeats) <= seconds):
            repeat_start = time.perf_counter()
            trace_this = traced and len(repeats) % 2 == 1
            if tracer:
                tracer.install() if trace_this else tracer.uninstall()
            # set-up samples are spread over the run, like the solve samples
            inputs = None
            inputs = timed_setups(1, SETUP_REPEAT_SECONDS)
            lo = tracer.mark() if tracer else 0
            solve_s = 0.0
            visited = iterations = 0
            for case in w.cases:
                attempted += 1
                gc.collect()
                try:
                    t0 = time.perf_counter()
                    result = workloads.solve_case(w, inputs, case)
                    solve_s += time.perf_counter() - t0
                    if corrupt is not None:
                        result = corrupt(result)
                    report = gl.evaluate(result.final_iterate, inputs.truth)
                    issues = check(w, inputs, case, result)
                    digest = trace_digest(result.trace, scratch)
                except Exception as exc:  # a failing solve is counted, and the run goes on
                    failed += 1
                    problems.append(f"{case.label}: {type(exc).__name__}: {exc}")
                    continue
                if digests.setdefault(case.label, digest) != digest:
                    issues.append("trace.csv bytes differ from an earlier repeat of the same case")
                if issues:
                    failed += 1
                    problems.extend(f"{case.label}: {issue}" for issue in issues)
                    continue
                quality[case.label] = (report.re, report.ssim)
                visited += len(result.trace)
                iterations += result.stop_index
            if tracer and trace_this:
                row = tracing.summarize(tracer.spans, lo, tracer.mark())
                row["solver.iterations"] = iterations
                row["solver.self_ms_per_iterate"] = row["solver.self_ms"] / max(1, visited)
                layer_rows.append(row)
            repeats.append({"wall": time.perf_counter() - repeat_start, "solve_s": solve_s,
                            "visited": visited, "traced": trace_this})
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        tracer.write(scratch / f"spans-{w.name}-seed{seed}.jsonl")

    plain = [r for r in repeats if not r["traced"]]
    solve_s = statistics.median(r["solve_s"] for r in plain)
    if traced:
        traced_solve_s = statistics.median(r["solve_s"] for r in repeats if r["traced"])
        edges = workloads.graph_edges(w)
        metrics = {
            **_median_dict(setup_layers),
            **_median_dict(layer_rows),
            "graph.edges": edges,
            "graph.bytes_computed": GRAPH_BYTES_PER_EDGE * edges,
            "operators.matrix_nnz": sum(m.nnz for m in _sparse_parts(inputs.operator)),
            "trace.untraced_solve_s": solve_s,
            "trace.overhead_frac": traced_solve_s / solve_s - 1.0,
        }
    else:
        res = [q[0] for q in quality.values()]
        ssims = [q[1] for q in quality.values()]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_s,
            "ms_per_iterate": statistics.median(1e3 * r["solve_s"] / max(1, r["visited"]) for r in plain),
            "re": statistics.fmean(res) if res else math.nan,
            "ssim": statistics.fmean(ssims) if ssims else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "workload": w.name,
        "seed": seed,
        "traced": traced,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "repeats": repeats,
        "setup_times": setup_times,
        "problems": problems,
        "digests": digests,
        "environment": env,
    }
