"""Outer iteration: adaptive steps, discrepancy stopping, trace bookkeeping."""

import contextlib
import logging
import math
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.sparse import _sparsetools

import graphlap as gl
from graphlap import graph, operators, solver
from graphlap.graph import SparseLaplacian
from graphlap.solver import (
    DISCREPANCY_MET,
    MAX_ITER_REACHED,
    constant_c,
    eta_floor,
    step_alpha,
    step_beta,
    write_trace_csv,
)

ADJOINT = gl.ReconstructorSpec(kind="adjoint")
TIK1 = gl.ReconstructorSpec(kind="tikhonov", tikhonov_weight=1.0)


def ct16_problem(delta_rel=0.05, seed=0):
    truth = gl.shepp_logan(16)
    A = gl.RadonTransform(gl.RadonGeometry(16, 10))
    clean = A.apply(truth)
    noisy, delta = gl.add_noise(clean, gl.NoiseSpec(delta_rel=delta_rel, seed=seed))
    return A, truth, clean, noisy, delta


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(tau=1.0), dict(tau=0.5), dict(eta0=0.0), dict(eta1=-1.0),
        dict(nu0=-0.1), dict(nu1=-0.1), dict(nu2=0.0), dict(wp=-1.0),
        dict(max_iter=-1), dict(graph_update_period=0),
        dict(nu0=math.nan), dict(nu1=math.nan), dict(wp=math.nan), dict(eta1=math.inf),
        dict(tau=math.inf), dict(max_iter=2.5), dict(graph_update_period=1.5),
    ], ids=["tau-one", "tau-below-one", "zero-eta0", "negative-eta1", "negative-nu0", "negative-nu1", "zero-nu2",
            "negative-wp", "negative-max-iter", "zero-update-period", "nan-nu0", "nan-nu1", "nan-wp",
            "infinite-eta1", "infinite-tau", "fractional-max-iter", "fractional-update-period"])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(gl.ConfigurationError):
            gl.SolverParams(**kwargs)

    def test_boundary_values_accepted(self):
        p = gl.SolverParams(nu0=0.0, nu1=0.0, wp=0.0, max_iter=0)
        assert p.max_iter == 0


def alpha_at(A, u, v, params):
    r = gl.sub(A.apply(u), v)
    g = A.adjoint(r)
    return step_alpha(gl.dot(r, r), gl.dot(g, g), params)


class TestStepSizes:
    def test_alpha_is_eta0_for_identity(self):
        rng = np.random.Generator(np.random.Philox(80))
        u = gl.ImageGrid(rng.random((8, 8)))
        v = gl.ImageGrid(rng.random((8, 8)))
        got = alpha_at(gl.ScaledIdentity(1.0, 8), u, v, gl.SolverParams())
        assert got == pytest.approx(0.2, abs=1e-15)

    def test_alpha_is_eta1_at_zero_residual(self):
        u = gl.ImageGrid(np.ones((8, 8)))
        assert alpha_at(gl.ScaledIdentity(1.0, 8), u, u, gl.SolverParams()) == 0.5

    def test_alpha_is_eta1_when_gradient_vanishes(self):
        rng = np.random.Generator(np.random.Philox(81))
        u = gl.ImageGrid(rng.random((8, 8)))
        v = gl.ImageGrid(rng.random((8, 8)))
        assert alpha_at(gl.ScaledIdentity(0.0, 8), u, v, gl.SolverParams()) == 0.5

    def test_beta_zero_when_laplacian_term_vanishes(self):
        zero = gl.ImageGrid(np.zeros((8, 8)))
        assert step_beta(gl.norm(zero), 1.0, gl.SolverParams()) == 0.0

    def test_beta_matches_closed_form(self):
        rng = np.random.Generator(np.random.Philox(82))
        lap = gl.ImageGrid(rng.standard_normal((8, 8)))
        p = gl.SolverParams()
        r = 1.3
        q = gl.norm(lap)
        assert step_beta(q, r, p) == min(p.nu0 * r * r / q, p.nu1 / q, p.nu2)

    def test_beta_capped_by_nu2(self):
        tiny = np.zeros((8, 8))
        tiny[0, 0] = 1e-9
        assert step_beta(gl.norm(gl.ImageGrid(tiny)), 1.0, gl.SolverParams()) == 1.0


class TestDiagnostics:
    def test_eta_floor_formula(self):
        p = gl.SolverParams()
        padded = 1.01 * 2.0
        assert eta_floor(p, 2.0) == min(p.eta0 / (padded * padded), p.eta1)
        assert eta_floor(p, 0.0) == p.eta1
        assert eta_floor(p, 0.1) == p.eta1

    def test_constant_c_pinned_value(self):
        # eta1/tau = 0.25 and eta0*eta1 = 0.1 leave C = 0.15 when nu0 = 0
        assert constant_c(gl.SolverParams(nu0=0.0), eta=0.5, wp=3.0) == pytest.approx(0.15, rel=1e-12)

    def test_constant_c_with_coupling_term(self):
        p = gl.SolverParams()
        got = constant_c(p, eta=0.5, wp=3.0)
        assert got == pytest.approx(0.5 - 0.25 - 0.05 * 3.05 - 0.1, rel=1e-12)

    def test_one_info_line_when_wp_defaulted(self, caplog):
        A, truth, clean, noisy, delta = ct16_problem()
        with caplog.at_level(logging.INFO, logger="graphlap.solver"):
            res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=1))
        records = [r for r in caplog.records if r.name == "graphlap.solver"]
        assert [r.levelno for r in records] == [logging.INFO]
        message = records[0].getMessage()
        assert "defaulted to ||u0||" in message
        assert f"C = {res.constant_c:.6g}" in message
        assert f"||A|| estimate = {res.operator_norm.value:.6g}" in message

    def test_c_not_positive_is_info_not_warning(self, caplog):
        A, truth, clean, noisy, delta = ct16_problem()
        with caplog.at_level(logging.INFO, logger="graphlap.solver"):
            res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(wp=10.0, max_iter=1))
        assert res.constant_c <= 0
        assert res.operator_norm.converged
        records = [r for r in caplog.records if r.name == "graphlap.solver"]
        assert [r.levelno for r in records] == [logging.INFO]
        message = records[0].getMessage()
        assert "wp = 10 (given)" in message
        assert "(not positive)" in message

    def test_warns_when_norm_estimate_not_converged(self, caplog):
        # 1024 singular values evenly spaced on [1 - width, 1]: the top one is
        # no better separated than the rest, and the top Ritz pair's
        # eigen-residual stays above 1e-8 for all 100 Lanczos steps.  (A
        # spectrum of two values is resolved exactly in two steps.)
        class Spread(gl.LinearOperator):
            domain_shape = range_shape = (32, 32)

            def __init__(self, width):
                self.scales = np.linspace(1.0 - width, 1.0, 1024).reshape(32, 32)

            def apply(self, u):
                return gl.ImageGrid(self.scales * u.values)

            adjoint = apply

        rng = np.random.Generator(np.random.Philox(84))
        v = gl.ImageGrid(rng.random((32, 32)))
        for width in (1e-2, 1e-4):
            A = Spread(width)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="graphlap.solver"):
                for _ in range(2):  # the second solve reuses the estimate and warns again
                    res = gl.solve(A, v, 0.0, ADJOINT, gl.SolverParams(wp=1.0, max_iter=1))
            assert not res.operator_norm.converged, width
            warnings = [r for r in caplog.records if r.name == "graphlap.solver"]
            assert [r.levelno for r in warnings] == [logging.WARNING, logging.WARNING], width
            assert all("did not converge" in w.getMessage() for w in warnings)

    def test_norm_estimated_once_per_operator(self, caplog, monkeypatch):
        calls = []
        estimate = operators.estimate_operator_norm

        def counting(*args, **kwargs):
            calls.append(args[0])
            return estimate(*args, **kwargs)

        # rebinding the module-global name is how a tracer sees the estimate
        monkeypatch.setattr(operators, "estimate_operator_norm", counting)
        A, truth, clean, noisy, delta = ct16_problem()
        with caplog.at_level(logging.INFO, logger="graphlap.solver"):
            first = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=1))
            second = gl.solve(A, noisy, delta, TIK1, gl.SolverParams(max_iter=1))
        assert calls == [A]
        assert second.operator_norm == first.operator_norm
        records = [r for r in caplog.records if r.name == "graphlap.solver"]
        assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
        assert all("||A|| estimate" in r.getMessage() for r in records)

    def test_default_deblur_solve_logs_no_warning(self, caplog):
        # the blur norm is exact; 41 Lanczos steps would reach it at 64^2, and
        # 100 fall short at 256^2
        truth = gl.shepp_logan(64)
        B = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 64)
        noisy, delta = gl.add_noise(B.apply(truth), gl.NoiseSpec(delta_rel=0.001, seed=0))
        with caplog.at_level(logging.WARNING, logger="graphlap.solver"):
            res = gl.solve(B, noisy, delta, ADJOINT, gl.SolverParams(max_iter=2))
        assert res.operator_norm.converged
        assert not [r for r in caplog.records if r.name == "graphlap.solver"]

    def test_silent_when_wp_given_and_c_positive(self, caplog):
        rng = np.random.Generator(np.random.Philox(83))
        v = gl.ImageGrid(rng.random((8, 8)))
        params = gl.SolverParams(nu0=0.0, wp=1.0, max_iter=2)
        with caplog.at_level(logging.WARNING, logger="graphlap.solver"):
            res = gl.solve(gl.ScaledIdentity(0.1, 8), v, 0.0, ADJOINT, params)
        assert res.constant_c == pytest.approx(0.15, rel=1e-10)
        assert not [r for r in caplog.records if r.name == "graphlap.solver"]


def diverging_case():
    """A ScaledIdentity solve whose steps overflow within a few iterates."""
    rng = np.random.Generator(np.random.Philox(85))
    v = gl.ImageGrid(rng.random((8, 8)))
    params = gl.SolverParams(eta0=1e12, eta1=1e12, nu0=0.0, nu1=0.0, wp=1.0, max_iter=500)
    return gl.ScaledIdentity(1.0, 8), v, params


class TestSolve:
    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_rejects_negative_delta(self, bad):
        A, truth, clean, noisy, delta = ct16_problem()
        with pytest.raises(gl.ConfigurationError, match="delta must be >= 0 and finite"):
            gl.solve(A, noisy, bad, ADJOINT, gl.SolverParams())

    def test_rejects_shape_mismatch(self):
        A = gl.RadonTransform(gl.RadonGeometry(16, 10))
        bad = gl.Sinogram(np.zeros((10, 5)))
        with pytest.raises(gl.ConfigurationError):
            gl.solve(A, bad, 0.1, ADJOINT, gl.SolverParams())

    def test_rejects_truth_off_the_domain_before_any_work(self, monkeypatch):
        A = gl.RadonTransform(gl.RadonGeometry(32, 16))
        v = A.apply(gl.shepp_logan(32))
        started = []
        monkeypatch.setattr(solver, "initial_reconstruction", lambda *args: started.append(args))
        with pytest.raises(gl.ConfigurationError, match=r"truth shape \(16, 16\) does not match operator domain"):
            gl.solve(A, v, 0.1, ADJOINT, gl.SolverParams(), truth=gl.shepp_logan(16))
        assert not started
        assert "norm_estimate" not in vars(A)

    def test_stops_at_index_zero_when_data_already_explained(self):
        A, truth, clean, noisy, delta = ct16_problem()
        u0 = gl.initial_reconstruction(A, clean, ADJOINT)
        r0 = gl.norm(gl.sub(A.apply(u0), clean))
        res = gl.solve(A, clean, r0, ADJOINT, gl.SolverParams())
        assert res.stop_reason == DISCREPANCY_MET
        assert res.stop_index == 0
        assert len(res.trace) == 1
        assert np.array_equal(res.final_iterate.values, u0.values)

    def test_discrepancy_stopping_contract(self):
        A, truth, clean, noisy, delta = ct16_problem()
        res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(), truth=truth)
        assert res.stop_reason == DISCREPANCY_MET
        assert res.trace[-1].residual <= res.trace[-1].k * 0 + gl.SolverParams().tau * delta
        for rec in res.trace[:-1]:
            assert rec.residual > gl.SolverParams().tau * delta
        assert res.stop_index == res.trace[-1].k == len(res.trace) - 1

    def test_step_sizes_within_bounds_along_trajectory(self):
        A, truth, clean, noisy, delta = ct16_problem()
        p = gl.SolverParams()
        res = gl.solve(A, noisy, delta, ADJOINT, p)
        assert res.eta_floor == eta_floor(p, res.operator_norm.value)
        for rec in res.trace:
            assert res.eta_floor - 1e-15 <= rec.alpha <= p.eta1
            q = rec.laplacian_term_norm
            expected = 0.0 if q == 0.0 else min(p.nu0 * rec.residual * rec.residual / q,
                                                p.nu1 / q, p.nu2)
            assert rec.beta == expected

    def test_sparser_graph_rebuild_still_converges(self):
        A, truth, clean, noisy, delta = ct16_problem()
        res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(graph_update_period=5))
        assert res.stop_reason == DISCREPANCY_MET
        assert all(math.isfinite(rec.residual) for rec in res.trace)

    def test_exact_data_runs_to_max_iter(self):
        A, truth, clean, noisy, delta = ct16_problem()
        res = gl.solve(A, clean, 0.0, ADJOINT, gl.SolverParams(max_iter=30), truth=truth)
        assert res.stop_reason == MAX_ITER_REACHED
        assert res.stop_index == 30
        assert len(res.trace) == 31
        assert res.trace[-1].error_to_truth is not None

    def test_max_iter_zero_records_initial_state_only(self):
        A, truth, clean, noisy, delta = ct16_problem()
        res = gl.solve(A, clean, 0.0, ADJOINT, gl.SolverParams(max_iter=0))
        assert res.stop_reason == MAX_ITER_REACHED
        assert len(res.trace) == 1
        assert res.trace[0].error_to_truth is None

    def test_plain_gradient_descent_matches_closed_form(self):
        # identity operator with the Laplacian pull switched off contracts the
        # residual by exactly (1 - eta0) per step from u0 = v/2
        rng = np.random.Generator(np.random.Philox(84))
        v = gl.ImageGrid(rng.random((16, 16)))
        params = gl.SolverParams(nu0=0.0, nu1=0.0, wp=1.0, max_iter=20)
        res = gl.solve(gl.ScaledIdentity(1.0, 16), v, 0.0, TIK1, params)
        r0 = gl.norm(v) / 2.0
        for rec in res.trace:
            assert rec.alpha == pytest.approx(0.2, abs=1e-15)
            assert rec.beta == 0.0
            expected = (0.8 ** rec.k) * r0
            assert abs(rec.residual - expected) <= 1e-10 * expected

    def test_divergence_raises_with_partial_trace(self):
        A, v, params = diverging_case()
        with np.errstate(all="ignore"), pytest.raises(gl.DivergenceError) as err:
            gl.solve(A, v, 0.0, TIK1, params)
        trace = err.value.trace
        assert len(trace) > 1
        assert trace[-1].residual > trace[0].residual


class TestGraphTermWorker:
    def test_graph_term_overlaps_the_forward_operator(self, monkeypatch):
        # A.apply waits for the graph term to start; evaluated one after the
        # other on one thread, the wait times out on every iterate.
        started = threading.Event()
        apply = SparseLaplacian.apply

        def signalling(self, x):
            started.set()
            return apply(self, x)

        class Waiting(gl.ScaledIdentity):
            seen = None

            def apply(self, u):
                if self.seen is not None:
                    self.seen.append(started.wait(2.0))
                return super().apply(u)

            def adjoint(self, s):
                started.clear()
                return super().apply(s)

        monkeypatch.setattr(SparseLaplacian, "apply", signalling)
        rng = np.random.Generator(np.random.Philox(86))
        v = gl.ImageGrid(rng.random((8, 8)))
        A = Waiting(0.5, 8)
        A.norm_estimate  # estimated before the waits are armed
        A.seen = []
        res = gl.solve(A, v, 0.0, ADJOINT, gl.SolverParams(max_iter=2))
        assert len(res.trace) == 3
        assert A.seen == [True] * len(res.trace)

    @pytest.mark.parametrize("problem", ["blur", "radon"])
    def test_graph_term_runs_on_the_worker(self, monkeypatch, problem):
        # one worker path for every operator: the graph term never runs on
        # the calling thread, whatever the forward model is
        threads = []
        apply = SparseLaplacian.apply

        def recording(self, x):
            threads.append(threading.get_ident())
            return apply(self, x)

        monkeypatch.setattr(SparseLaplacian, "apply", recording)
        if problem == "radon":
            A, truth, clean, noisy, delta = ct16_problem()
        else:
            A = gl.GaussianBlur(gl.BlurKernel(rho=1.0), 12)
            noisy, delta = A.apply(gl.shepp_logan(12)), 0.0
        res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=3))
        assert len(res.trace) == 4
        assert len(threads) == len(res.trace)
        assert threading.get_ident() not in threads

    def test_callers_errstate_reaches_the_worker(self):
        A, v, params = diverging_case()
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(gl.DivergenceError):
                gl.solve(A, v, 0.0, TIK1, params)
        assert [str(w.message) for w in caught] == []

    def test_no_thread_outlives_solve(self):
        before = threading.active_count()
        A, truth, clean, noisy, delta = ct16_problem()
        gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=3))
        assert threading.active_count() == before
        A, v, params = diverging_case()
        with np.errstate(all="ignore"), pytest.raises(gl.DivergenceError):
            gl.solve(A, v, 0.0, TIK1, params)
        assert threading.active_count() == before

    def test_non_finite_graph_term_raises_divergence_with_partial_trace(self, monkeypatch):
        calls = []
        apply = SparseLaplacian.apply

        def failing_third(self, x):
            calls.append(x)
            if len(calls) == 3:
                raise gl.NonFiniteError("graph term is not finite")
            return apply(self, x)

        monkeypatch.setattr(SparseLaplacian, "apply", failing_third)
        before = threading.active_count()
        A, truth, clean, noisy, delta = ct16_problem()
        with pytest.raises(gl.DivergenceError) as err:
            gl.solve(A, clean, 0.0, ADJOINT, gl.SolverParams(max_iter=10))
        assert str(err.value) == "iteration diverged at step 2: graph term is not finite"
        assert [rec.k for rec in err.value.trace] == [0, 1]
        assert threading.active_count() == before


def record_matvec_threads(monkeypatch):
    """Log (kernel, thread) for every call of scipy's two sparse matvec kernels."""
    calls = []
    for name in ("csr_matvec", "csc_matvec"):
        def recording(*args, _name=name, _kernel=getattr(_sparsetools, name)):
            calls.append((_name, threading.get_ident()))
            return _kernel(*args)

        monkeypatch.setattr(_sparsetools, name, recording)
    return calls


class TestMatvecHalves:
    def test_tikhonov_start_runs_its_halves_on_two_threads(self, monkeypatch):
        A, truth, clean, noisy, delta = ct16_problem()
        A.norm_estimate  # estimated before the calls are recorded
        calls = record_matvec_threads(monkeypatch)
        before = threading.active_count()
        gl.solve(A, noisy, delta, TIK1, gl.SolverParams(max_iter=0))
        main = threading.get_ident()
        workers = {t for _, t in calls if t != main}
        assert len(workers) == 1
        for kernel in ("csr_matvec", "csc_matvec"):
            assert {t for name, t in calls if name == kernel} == workers | {main}, kernel
        assert threading.active_count() == before

    def test_loop_halves_stay_on_the_calling_thread(self, monkeypatch):
        # the loop's fork holds the worker for the graph term, so A and A*
        # run both their halves where the loop runs
        A, truth, clean, noisy, delta = ct16_problem()
        A.norm_estimate
        u0 = A.adjoint(noisy)
        monkeypatch.setattr(solver, "initial_reconstruction", lambda A, v, spec: u0)
        calls = record_matvec_threads(monkeypatch)
        graph_threads = []
        apply = SparseLaplacian.apply

        def recording(self, x):
            graph_threads.append(threading.get_ident())
            return apply(self, x)

        monkeypatch.setattr(SparseLaplacian, "apply", recording)
        res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=3))
        main = threading.get_ident()
        # A and A*: one call per row block each
        assert len(calls) == 4 * len(res.trace)
        assert {t for _, t in calls} == {main}
        assert len(graph_threads) == len(res.trace) and main not in graph_threads

    def test_worker_half_error_surfaces_after_the_join(self, monkeypatch):
        main = threading.get_ident()
        on_main = []
        csc = _sparsetools.csc_matvec

        def failing_off_main(*args):
            if threading.get_ident() != main:
                time.sleep(0.05)  # the calling thread's half is done long before
                raise RuntimeError("worker half failed")
            on_main.append(csc(*args))

        monkeypatch.setattr(_sparsetools, "csc_matvec", failing_off_main)
        before = threading.active_count()
        A, truth, clean, noisy, delta = ct16_problem()
        with pytest.raises(RuntimeError, match="worker half failed"):
            gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=3))
        # the adjoint start's own half ran, and nothing after the failed fork
        assert len(on_main) == 1
        assert threading.active_count() == before


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path):
        A, truth, clean, noisy, delta = ct16_problem()
        params = gl.SolverParams()
        first = gl.solve(A, noisy, delta, ADJOINT, params, truth=truth)
        second = gl.solve(A, noisy, delta, ADJOINT, params, truth=truth)
        assert np.array_equal(first.final_iterate.values, second.final_iterate.values)
        assert first.trace == second.trace
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(first.trace, pa)
        write_trace_csv(second.trace, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_deblur_worker_matches_one_thread(self, tmp_path, monkeypatch):
        # the same calls on the same values: evaluating the graph term on the
        # worker changes no byte of the trace or of the final iterate
        A = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 32)
        truth = gl.shepp_logan(32)
        noisy, delta = gl.add_noise(A.apply(truth), gl.NoiseSpec(delta_rel=0.01, seed=3))
        params = gl.SolverParams(max_iter=30, graph_update_period=3)
        results = []
        for name in ("worker", "serial"):
            if name == "serial":
                monkeypatch.setattr(solver, "second_core", contextlib.nullcontext)
            res = gl.solve(A, noisy, delta, ADJOINT, params, truth=truth)
            write_trace_csv(res.trace, tmp_path / f"{name}.csv")
            results.append(res)
        worker, serial = results
        assert len(worker.trace) > 10
        assert (tmp_path / "worker.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert worker.final_iterate.values.tobytes() == serial.final_iterate.values.tobytes()

    def test_last_rebuild_keeps_no_bands(self, tmp_path, monkeypatch):
        # the graph rebuilt at k = max_iter is applied once, so it stores no
        # bands; storing them would give the same bytes
        A = gl.GaussianBlur(gl.BlurKernel(rho=1.5), 24)
        truth = gl.shepp_logan(24)
        noisy, _ = gl.add_noise(A.apply(truth), gl.NoiseSpec(delta_rel=0.01, seed=4))
        params = gl.SolverParams(max_iter=60, graph_update_period=10)
        build = solver.build_laplacian
        flags = []

        def recording(image, config, reuse=False):
            flags.append(reuse)
            return build(image, config, reuse=reuse or force_last)

        monkeypatch.setattr(solver, "build_laplacian", recording)
        for force_last in (False, True):
            flags.clear()
            res = gl.solve(A, noisy, 0.0, ADJOINT, params, truth=truth)
            assert res.stop_index == 60
            write_trace_csv(res.trace, tmp_path / f"{force_last}.csv")
        assert flags == [True] * 6 + [False]
        assert (tmp_path / "False.csv").read_bytes() == (tmp_path / "True.csv").read_bytes()

    def test_underflowing_weights_match_plain_exp(self, tmp_path, monkeypatch):
        # at the adjoint start's native scale most graph weights underflow, so
        # the clamped evaluation runs; with every band sent through plain
        # np.exp instead, no byte of the trace or of the final iterate moves
        truth = gl.shepp_logan(32)
        A = gl.RadonTransform(gl.RadonGeometry(32, 16))
        noisy, delta = gl.add_noise(A.apply(truth), gl.NoiseSpec(delta_rel=0.05, seed=0))
        clamped = []
        clamped_exp = graph._clamped_exp

        def counted(t, low):
            clamped.append(t.size)
            clamped_exp(t, low)

        monkeypatch.setattr(graph, "_clamped_exp", counted)
        results = []
        for name in ("clamped", "plain"):
            if name == "plain":
                monkeypatch.setattr(graph, "CLAMP_SHARE", 0)
            clamped.clear()
            res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(), truth=truth)
            write_trace_csv(res.trace, tmp_path / f"{name}.csv")
            results.append((res, len(clamped)))
        (fast, fast_bands), (plain, plain_bands) = results
        assert fast_bands > 0 and plain_bands == 0
        assert len(fast.trace) > 10
        assert (tmp_path / "clamped.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert fast.final_iterate.values.tobytes() == plain.final_iterate.values.tobytes()

    def test_trace_csv_round_trips(self, tmp_path):
        A, truth, clean, noisy, delta = ct16_problem()
        res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=5), truth=truth)
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,residual,alpha,beta,laplacian_term_norm,error_to_truth"
        assert len(lines) == len(res.trace) + 1
        for rec, line in zip(res.trace, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == rec.k
            assert float(cells[1]) == rec.residual
            assert float(cells[5]) == rec.error_to_truth

    def test_trace_csv_empty_error_column_without_truth(self, tmp_path):
        A, truth, clean, noisy, delta = ct16_problem()
        res = gl.solve(A, noisy, delta, ADJOINT, gl.SolverParams(max_iter=2))
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        for line in path.read_text().splitlines()[1:]:
            assert line.endswith(",")
