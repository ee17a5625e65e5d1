"""Shipping gate: thirteen end-to-end checks, one summary line each.

Each test registers its verdict with :func:`conftest.record_criterion` before
asserting, so the terminal summary always lists every criterion.

Criterion 7 is red on purpose: it pins RE <= 0.15 and SSIM >= 0.93 at 5% noise
(CT 128^2, 60 angles, adjoint start), and the solver stops there at RE 1.30 and
SSIM 0.21 after 160 steps, worse than the zero image.  The cause is scale: with
||A|| ~ 86 the adjoint start has norm ~1.3e5 against 32 for the phantom, so
every graph weight exp(-d^2/sigma) underflows to ~0 and the graph term does
nothing.  The pinned pair stays as stated until the solver is fixed; the
failure message reports only what the test measures.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import graphlap as gl
from conftest import record_criterion
from graphlap import cli

ADJOINT = gl.ReconstructorSpec(kind="adjoint")
PSI_KINDS = ("adjoint", "fbp", "tikhonov", "tv")


def read_table(path, skip_header=True):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1 if skip_header else 0:]]


@pytest.fixture(scope="module")
def ct128_sweep():
    """One CT sweep at desk size 128, five noise levels, adjoint start."""
    t0 = time.perf_counter()
    truth = gl.shepp_logan(128)
    A = gl.RadonTransform(gl.RadonGeometry(128, 60))
    clean = A.apply(truth)
    runs = {}
    for delta_rel in (0.2, 0.1, 0.05, 0.03, 0.01):
        noisy, delta = gl.add_noise(clean, gl.NoiseSpec(delta_rel=delta_rel, seed=0))
        res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(), truth=truth)
        runs[delta_rel] = (res, gl.evaluate(res.final_iterate, truth))
    return truth, A, clean, runs, time.perf_counter() - t0


def test_criterion_01_demo_graph_tables(tmp_path):
    t0 = time.perf_counter()
    rc = cli.main(["--problem", "laplacian_demo", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    weights = {}
    for i, j, w in read_table(tmp_path / "weights.csv"):
        weights[(int(i), int(j))] = float(w)
    degrees = [float(row[1]) for row in read_table(tmp_path / "degrees.csv")]
    pinned_w = {(0, 1): 0.3679, (0, 2): 0.0001, (1, 3): 0.0183, (2, 3): 0.0000}
    # Rounded to four places; degree[1] = exp(-1) + exp(-4) = 0.3861951.
    pinned_d = [0.3680, 0.3862, 0.0001, 0.0183]
    mismatches = []
    for (a, b), pin in pinned_w.items():
        for key in ((a, b), (b, a)):
            err = abs(weights[key] - pin)
            if err > 5e-5:
                mismatches.append(f"weight{key} = {weights[key]:.7f} vs pinned {pin} (err {err:.2e})")
    for idx, pin in enumerate(pinned_d):
        err = abs(degrees[idx] - pin)
        if err > 5e-5:
            mismatches.append(f"degree[{idx}] = {degrees[idx]:.7f} vs pinned {pin} (err {err:.2e})")
    ok = rc == 0 and elapsed < 1.0 and not mismatches
    detail = (f"all 8 weights and 4 degrees within 5e-5 of the pinned table, {elapsed:.2f}s"
              if ok else "; ".join(mismatches + [f"rc={rc}", f"{elapsed:.2f}s"]))
    record_criterion(1, ok, detail)
    assert rc == 0
    assert elapsed < 1.0
    assert not mismatches, detail


def test_criterion_02_graph_invariant_suite():
    t0 = time.perf_counter()
    configs = [gl.GraphConfig(radius=r, sigma=s, metric=m)
               for m in ("manhattan", "chebyshev")
               for r in (1.0, 2.0, 6.0)
               for s in (0.005, 0.05)]
    rng = np.random.Generator(np.random.Philox(201))
    ones = gl.ImageGrid(np.ones((16, 16)))
    failures = []
    for i in range(100):
        cfg = configs[i % len(configs)]
        u = gl.ImageGrid(rng.random((16, 16)))
        lap = gl.build_laplacian(u, cfg)
        if np.max(np.abs(lap.apply(ones).values)) > 1e-12:
            failures.append(f"sample {i}: constants not annihilated")
        x = gl.ImageGrid(rng.random((16, 16)))
        y = gl.ImageGrid(rng.random((16, 16)))
        lhs, rhs = gl.dot(lap.apply(x), y), gl.dot(x, lap.apply(y))
        if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs), 1e-30):
            failures.append(f"sample {i}: not symmetric")
        rows, cols, vals = lap.triplets()
        flat = u.values.ravel()
        form = 0.5 * float(np.sum(vals * (flat[rows] - flat[cols]) ** 2))
        quad = gl.dot(lap.apply(u), u)
        if abs(quad - form) > 1e-10 * max(abs(form), 1e-30):
            failures.append(f"sample {i}: quadratic form mismatch")
        if np.max(lap.degrees) > gl.neighbor_bound(cfg):
            failures.append(f"sample {i}: degree bound exceeded")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    record_criterion(2, ok, f"100 images x 12 configs, {len(failures)} violations, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 10.0


def test_criterion_03_laplacian_map_lipschitz_bound():
    t0 = time.perf_counter()
    cfg = gl.GraphConfig()
    bound = gl.lipschitz_constant(cfg, 16, 16)
    rng = np.random.Generator(np.random.Philox(202))
    violations = 0
    worst = 0.0
    for _ in range(1000):
        u = gl.ImageGrid(rng.random((16, 16)))
        up = gl.ImageGrid(rng.random((16, 16)))
        lhs = gl.norm(gl.sub(gl.build_laplacian(up, cfg).apply(u),
                             gl.build_laplacian(u, cfg).apply(u)))
        rhs = bound * gl.norm(u) * gl.norm(gl.sub(up, u))
        worst = max(worst, lhs / rhs)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    record_criterion(3, ok, f"1000 pairs, 0 violations, worst ratio {worst:.3f}, {elapsed:.1f}s"
                     if ok else f"{violations} violations, worst ratio {worst:.4f}")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_04_adjoint_exactness():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(203))
    operators = [gl.RadonTransform(gl.RadonGeometry(8, 6)),
                 gl.RadonTransform(gl.RadonGeometry(16, 10)),
                 gl.GaussianBlur(gl.BlurKernel(rho=1.5), 32)]
    worst = 0.0
    for A in operators:
        for _ in range(20):
            u = gl.ImageGrid(rng.standard_normal(A.domain_shape))
            v_vals = rng.standard_normal(A.range_shape)
            v = gl.Sinogram(v_vals) if isinstance(A, gl.RadonTransform) else gl.ImageGrid(v_vals)
            lhs = gl.dot(A.apply(u), v)
            rhs = gl.dot(u, A.adjoint(v))
            scale = gl.norm(A.apply(u)) * gl.norm(v) + 1e-300
            worst = max(worst, abs(lhs - rhs) / scale)
    A8 = operators[0]
    fwd = np.zeros((A8.range_shape[0] * A8.range_shape[1], 64))
    for j in range(64):
        e = np.zeros(64)
        e[j] = 1.0
        fwd[:, j] = A8.apply(gl.ImageGrid(e.reshape(8, 8))).values.ravel()
    adj = np.zeros((64, fwd.shape[0]))
    for j in range(fwd.shape[0]):
        e = np.zeros(fwd.shape[0])
        e[j] = 1.0
        adj[:, j] = A8.adjoint(gl.Sinogram(e.reshape(A8.range_shape))).values.ravel()
    dense_gap = float(np.max(np.abs(fwd.T - adj)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and dense_gap <= 1e-12 and elapsed < 10.0
    record_criterion(4, ok, f"60 dot-product pairs worst rel {worst:.2e}, dense transpose gap "
                            f"{dense_gap:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert dense_gap <= 1e-12
    assert elapsed < 10.0


def test_criterion_05_monotone_error_decay():
    t0 = time.perf_counter()
    truth = gl.shepp_logan(32)
    A = gl.RadonTransform(gl.RadonGeometry(32, 20))
    noisy, delta = gl.add_noise(A.apply(truth), gl.NoiseSpec(delta_rel=0.05, seed=0))
    res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(), truth=truth)
    elapsed = time.perf_counter() - t0
    slack = 1e-12 * gl.norm(truth)
    increases = sum(1 for a, b in zip(res.trace, res.trace[1:])
                    if b.error_to_truth > a.error_to_truth + slack)
    ok = res.stop_reason == gl.DISCREPANCY_MET and increases == 0 and elapsed < 60.0
    record_criterion(5, ok, f"stopped at k={res.stop_index} ({res.stop_reason}), "
                            f"{increases} error increases over the trace, {elapsed:.1f}s")
    assert res.stop_reason == gl.DISCREPANCY_MET
    assert increases == 0
    assert elapsed < 60.0


def test_criterion_06_finite_termination_all_starts():
    t0 = time.perf_counter()
    truth = gl.shepp_logan(64)
    A = gl.RadonTransform(gl.RadonGeometry(64, 30))
    clean = A.apply(truth)
    outcomes = []
    for delta_rel in (0.2, 0.1, 0.05, 0.03, 0.01):
        noisy, delta = gl.add_noise(clean, gl.NoiseSpec(delta_rel=delta_rel, seed=0))
        for kind in PSI_KINDS:
            res = gl.solve(A, noisy, delta, gl.ReconstructorSpec(kind=kind), gl.SolverParams())
            outcomes.append((delta_rel, kind, res.stop_reason, res.stop_index))
    elapsed = time.perf_counter() - t0
    bad = [o for o in outcomes if o[2] != gl.DISCREPANCY_MET or o[3] >= 2000]
    ok = not bad and elapsed < 600.0
    record_criterion(6, ok, f"20/20 runs met the discrepancy stop below 2000 steps "
                            f"(max k = {max(o[3] for o in outcomes)}), {elapsed:.1f}s"
                     if ok else f"failed runs: {bad}")
    assert not bad, bad
    assert elapsed < 600.0


def test_criterion_07_noise_trend_and_pinned_quality(ct128_sweep):
    truth, A, clean, runs, elapsed = ct128_sweep
    levels = sorted(runs, reverse=True)
    res = [runs[dr][1].re for dr in levels]
    trend_ok = all(a >= b for a, b in zip(res, res[1:]))
    re_mid = runs[0.05][1].re
    ssim_mid = runs[0.05][1].ssim
    quality_ok = re_mid <= 0.15 and ssim_mid >= 0.93
    ok = trend_ok and quality_ok and elapsed < 600.0
    mid = runs[0.05][0]
    trend_str = ", ".join(f"{dr}: {re:.4f}" for dr, re in zip(levels, res))
    zero_str = ("no better than the zero image (RE 1)" if re_mid >= 1.0
                else "better than the zero image (RE 1)")
    detail = (f"RE {'non-increasing' if trend_ok else 'not monotone'} across noise levels "
              f"({trend_str}); at 0.05 RE={re_mid:.4f} (pinned <= 0.15), "
              f"SSIM={ssim_mid:.4f} (pinned >= 0.93), stopped at k={mid.stop_index} "
              f"({mid.stop_reason}), {zero_str}, {elapsed:.0f}s")
    record_criterion(7, ok, detail)
    assert trend_ok, detail
    assert elapsed < 600.0
    assert re_mid <= 0.15, detail
    assert ssim_mid >= 0.93, detail


def test_criterion_08_initializer_ordering(ct128_sweep):
    truth, A, clean, runs, _ = ct128_sweep
    k_adjoint = runs[0.05][0].stop_index
    noisy, delta = gl.add_noise(clean, gl.NoiseSpec(delta_rel=0.05, seed=0))
    ks = {"adjoint": k_adjoint}
    for kind in ("tikhonov", "tv"):
        ks[kind] = gl.solve(A, noisy, delta, gl.ReconstructorSpec(kind=kind),
                            gl.SolverParams()).stop_index
    ok = ks["adjoint"] > ks["tikhonov"] and ks["adjoint"] > ks["tv"]
    record_criterion(8, ok, f"k(adjoint)={ks['adjoint']} > k(tikhonov)={ks['tikhonov']} "
                            f"and > k(tv)={ks['tv']}")
    assert ok, ks


def test_criterion_09_deblurring_run():
    t0 = time.perf_counter()
    truth = gl.shepp_logan(256)
    A = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 256)
    noisy, delta = gl.add_noise(A.apply(truth), gl.NoiseSpec(delta_rel=0.001, seed=0))
    params = gl.SolverParams()
    res = gl.solve(A, noisy, delta, ADJOINT, params)
    elapsed = time.perf_counter() - t0
    quality = gl.evaluate(res.final_iterate, truth)
    final_residual = res.trace[-1].residual
    ok = (res.stop_reason == gl.DISCREPANCY_MET and final_residual <= params.tau * delta
          and quality.ssim >= 0.80 and elapsed < 300.0)
    record_criterion(9, ok, f"stopped at k={res.stop_index} ({res.stop_reason}), residual "
                            f"{final_residual:.4f} <= {params.tau * delta:.4f}, "
                            f"SSIM={quality.ssim:.4f}, {elapsed:.0f}s")
    assert res.stop_reason == gl.DISCREPANCY_MET
    assert final_residual <= params.tau * delta
    assert quality.ssim >= 0.80
    assert elapsed < 300.0


def test_criterion_10_stability_in_the_noise():
    truth = gl.shepp_logan(32)
    A = gl.RadonTransform(gl.RadonGeometry(32, 20))
    clean = A.apply(truth)
    params = gl.SolverParams(max_iter=10)
    # delta == 0 disables the discrepancy stop so every run takes exactly
    # ten steps; the noise enters through the data only
    exact = gl.solve(A, clean, 0.0, ADJOINT, params).final_iterate
    distances = []
    for delta_rel in (0.1, 0.05, 0.025, 0.0125):
        noisy, _ = gl.add_noise(clean, gl.NoiseSpec(delta_rel=delta_rel, seed=7))
        u10 = gl.solve(A, noisy, 0.0, ADJOINT, params).final_iterate
        distances.append(gl.norm(gl.sub(u10, exact)))
    ok = all(a > b for a, b in zip(distances, distances[1:]))
    record_criterion(10, ok, "distance to the exact-data iterate after 10 steps: "
                             + ", ".join(f"{d:.4f}" for d in distances))
    assert ok, distances


def test_criterion_11_landweber_degeneration():
    rng = np.random.Generator(np.random.Philox(204))
    v = gl.ImageGrid(rng.random((16, 16)))
    params = gl.SolverParams(nu0=0.0, nu1=0.0, wp=1.0, max_iter=20)
    psi = gl.ReconstructorSpec(kind="tikhonov", tikhonov_weight=1.0)
    res = gl.solve(gl.ScaledIdentity(1.0, 16), v, 0.0, psi, params)
    r0 = gl.norm(v) / 2.0
    worst = max(abs(rec.residual - (0.8 ** rec.k) * r0) / ((0.8 ** rec.k) * r0)
                for rec in res.trace)
    betas_zero = all(rec.beta == 0.0 for rec in res.trace)
    ok = worst <= 1e-10 and betas_zero and len(res.trace) == 21
    record_criterion(11, ok, f"beta identically zero, residual matches 0.8^k decay to "
                             f"rel {worst:.2e} over 20 steps")
    assert betas_zero
    assert worst <= 1e-10


def test_criterion_12_byte_identical_reruns(tmp_path):
    args = ["--problem", "ct", "--size", "16", "--angles", "10",
            "--delta-rel", "0.05", "--max-iter", "80"]
    for sub in ("a", "b"):
        proc = subprocess.run([sys.executable, "-m", "graphlap.cli", *args,
                               "--out", str(tmp_path / sub)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    same_trace = (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
    same_report = (tmp_path / "a" / "report.csv").read_bytes() == (tmp_path / "b" / "report.csv").read_bytes()
    ok = same_trace and same_report
    record_criterion(12, ok, f"two fresh CLI runs: trace.csv identical={same_trace}, "
                             f"report.csv identical={same_report}")
    assert same_trace
    assert same_report


def test_criterion_13_initializer_stability_suite():
    A = gl.RadonTransform(gl.RadonGeometry(16, 10))
    rng = np.random.Generator(np.random.Philox(205))
    worst_tv = 0.0
    for _ in range(50):
        v1 = gl.Sinogram(rng.standard_normal(A.range_shape))
        v2 = gl.Sinogram(rng.standard_normal(A.range_shape))
        tv_dist = gl.norm(gl.sub(gl.psi_tv(A, v1), gl.psi_tv(A, v2)))
        fbp_dist = gl.norm(gl.sub(gl.psi_fbp(A, v1), gl.psi_fbp(A, v2)))
        worst_tv = max(worst_tv, tv_dist / fbp_dist)
    superposition_ok = True
    for kind, tol in (("adjoint", 1e-10), ("fbp", 1e-10), ("tikhonov", 1e-6)):
        spec = gl.ReconstructorSpec(kind=kind)
        v1 = gl.Sinogram(rng.standard_normal(A.range_shape))
        v2 = gl.Sinogram(rng.standard_normal(A.range_shape))
        combo = gl.Sinogram(1.5 * v1.values - 0.5 * v2.values)
        lhs = gl.initial_reconstruction(A, combo, spec)
        rhs = gl.axpy(1.5, gl.initial_reconstruction(A, v1, spec),
                      gl.scale(-0.5, gl.initial_reconstruction(A, v2, spec)))
        gap = gl.norm(gl.sub(lhs, rhs)) / max(gl.norm(rhs), 1e-30)
        superposition_ok = superposition_ok and gap <= tol
    ok = worst_tv <= 1.0 + 1e-8 and superposition_ok
    record_criterion(13, ok, f"TV shrinks distances after filtered back projection (worst factor "
                             f"{worst_tv:.4f} <= 1+1e-8); linear starts superpose")
    assert worst_tv <= 1.0 + 1e-8
    assert superposition_ok
