"""The outer iteration: gradient steps plus an adaptive graph-Laplacian pull.

Starting from an initial reconstruction u0 = Psi(v), each step applies

    u_{k+1} = u_k - alpha_k A*(A u_k - v) - beta_k Delta_{u_k} u_k,

where Delta_{u_k} is the graph Laplacian rebuilt from the current iterate
(every ``graph_update_period``-th step; in between the last one is reused).
On a rebuild step Delta_{u_k} u_k comes from one pass over the weight bands,
which are stored only when a later step will reuse the graph (period > 1
and k < max_iter); the old graph is released before the new one is
evaluated.
The graph term is forked beside A u_k - v and A* r_k, with the same bytes
as a serial evaluation; ``graphlap.forkjoin`` says which thread runs what.
Both step sizes adapt to the residual r_k = A u_k - v:

    alpha_k = min(eta0 ||r||^2 / ||A* r||^2, eta1)
    beta_k  = min(nu0 ||r||^2 / q, nu1 / q, nu2),   q = ||Delta_{u_k} u_k||,

with alpha_k = eta1 when A* r vanishes and beta_k = 0 when q does.  The run
stops at the first k with ||r_k|| <= tau * delta (checked before the update,
so index 0 can already satisfy it) or after ``max_iter`` updates.

The diagnostic constant C = eta - eta1/tau - nu0 (wp + nu1) - eta0 eta1, with
eta = min(eta0 / ||A||^2, eta1) computed from the safety-padded norm
``A.norm_estimate`` (computed once per operator and reused by every solve on
it), guarantees monotone error decay when positive.  Every solve logs one INFO
line with wp (and whether it was defaulted), C and the norm estimate; a
non-positive C is routine at the defaults and is reported there, not warned
about.  A norm estimate that did not converge logs a WARNING.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError, DivergenceError, NonFiniteError
from .forkjoin import fork_join, second_core
from .graph import GraphConfig, build_laplacian
from .grid import ImageGrid, axpy, dot, norm, sub, write_table
from .operators import LinearOperator, NormEstimate
from .recon import ReconstructorSpec, initial_reconstruction

logger = logging.getLogger(__name__)

DISCREPANCY_MET = "discrepancy_met"
MAX_ITER_REACHED = "max_iter_reached"


@dataclass(frozen=True)
class SolverParams:
    """Step-size, stopping and graph-rebuild configuration."""

    eta0: float = 0.2
    eta1: float = 0.5
    nu0: float = 0.05
    nu1: float = 0.05
    nu2: float = 1.0
    tau: float = 2.0
    wp: float | None = None  # radius of the ball the iterates live in; defaults to ||u0||
    max_iter: int = 2000
    graph_update_period: int = 1
    graph: GraphConfig = field(default_factory=GraphConfig)

    def __post_init__(self):
        for name in ("eta0", "eta1", "nu0", "nu1", "nu2", "tau") + (("wp",) if self.wp is not None else ()):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if not (self.eta0 > 0 and self.eta1 > 0):
            raise ConfigurationError("eta0 and eta1 must be positive")
        if self.nu0 < 0 or self.nu1 < 0:
            raise ConfigurationError("nu0 and nu1 must be >= 0")
        if not (self.nu2 > 0):
            raise ConfigurationError("nu2 must be positive")
        if not (self.tau > 1):
            raise ConfigurationError(f"tau must exceed 1, got {self.tau}")
        if self.wp is not None and self.wp < 0:
            raise ConfigurationError("wp must be >= 0")
        for name, low in (("max_iter", 0), ("graph_update_period", 1)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ConfigurationError(f"{name} must be >= {low} and an integer, got {value!r}")


@dataclass(frozen=True)
class IterateRecord:
    """One trace row; error_to_truth is ||u_k - truth|| when truth is known."""

    k: int
    residual: float
    alpha: float
    beta: float
    laplacian_term_norm: float
    error_to_truth: float | None = None


@dataclass(frozen=True, eq=False)
class SolveResult:
    final_iterate: ImageGrid
    stop_index: int
    stop_reason: str
    trace: tuple[IterateRecord, ...]
    constant_c: float
    eta_floor: float
    operator_norm: NormEstimate


def step_alpha(residual_sq: float, gradient_sq: float, params: SolverParams) -> float:
    """Adaptive gradient step length from ||r||^2 and ||A* r||^2."""
    if gradient_sq == 0.0:
        return params.eta1
    return min(params.eta0 * residual_sq / gradient_sq, params.eta1)


def step_beta(q: float, residual_norm: float, params: SolverParams) -> float:
    """Adaptive Laplacian step length; q is ||Delta_u u||."""
    if q == 0.0:
        return 0.0
    return min(params.nu0 * residual_norm * residual_norm / q, params.nu1 / q, params.nu2)


def eta_floor(params: SolverParams, operator_norm: float) -> float:
    """Lower bound on every alpha_k, from a safety-padded norm estimate."""
    padded = 1.01 * operator_norm
    if padded == 0.0:
        return params.eta1
    return min(params.eta0 / (padded * padded), params.eta1)


def constant_c(params: SolverParams, eta: float, wp: float) -> float:
    """Diagnostic monotonicity constant C = eta - eta1/tau - nu0 (wp + nu1) - eta0 eta1."""
    return eta - params.eta1 / params.tau - params.nu0 * (wp + params.nu1) - params.eta0 * params.eta1


def _residual_and_gradient(A: LinearOperator, u: ImageGrid, v_data):
    """||A u - v||^2 and A*(A u - v); raises before A* when the residual is not finite."""
    r = sub(A.apply(u), v_data)
    residual_sq = dot(r, r)
    if not math.isfinite(residual_sq):
        raise NonFiniteError("residual is not finite")
    return residual_sq, A.adjoint(r)


def solve(
    A: LinearOperator,
    v_data,
    delta: float,
    psi: ReconstructorSpec,
    params: SolverParams,
    truth: ImageGrid | None = None,
) -> SolveResult:
    """Run the iteration until the discrepancy principle or max_iter stops it.

    ``delta`` is the absolute noise level; with delta == 0 the threshold is
    zero and the run goes the full ``max_iter`` (exact-data mode).  Every
    visited iterate contributes one trace record (the stopping one included),
    so the final record's residual is the stopping residual.
    """
    if not (0 <= delta < math.inf):
        raise ConfigurationError(f"delta must be >= 0 and finite, got {delta}")
    if v_data.shape != A.range_shape:
        raise ConfigurationError(f"data shape {v_data.shape} does not match operator range {A.range_shape}")
    if truth is not None and truth.shape != A.domain_shape:
        raise ConfigurationError(f"truth shape {truth.shape} does not match operator domain {A.domain_shape}")

    with second_core():
        u = initial_reconstruction(A, v_data, psi)
        norm_est = A.norm_estimate
        eta = eta_floor(params, norm_est.value)
        if not norm_est.converged:
            logger.warning("operator norm estimate %.6g did not converge in %d Lanczos steps",
                           norm_est.value, norm_est.iterations)
        wp = params.wp if params.wp is not None else norm(u)
        c_value = constant_c(params, eta, wp)
        logger.info("wp = %.6g (%s), C = %.6g (%s), ||A|| estimate = %.6g",
                    wp, "given" if params.wp is not None else "defaulted to ||u0||",
                    c_value, "positive" if c_value > 0 else "not positive", norm_est.value)

        threshold = params.tau * delta
        trace: list[IterateRecord] = []
        try:
            k = 0
            while True:
                if k % params.graph_update_period == 0:
                    # the graph of step max_iter is applied once, to u itself
                    laplacian = build_laplacian(u, params.graph,
                                                reuse=params.graph_update_period > 1 and k < params.max_iter)
                # a non-finite residual takes precedence over anything the graph
                # term raises: the fork drops that and joins the worker
                (residual_sq, g), lap_term = fork_join(functools.partial(_residual_and_gradient, A, u, v_data),
                                                       functools.partial(laplacian.apply, u))
                residual = math.sqrt(residual_sq)
                q = norm(lap_term)
                alpha = step_alpha(residual_sq, dot(g, g), params)
                beta = step_beta(q, residual, params)
                err = norm(sub(u, truth)) if truth is not None else None
                trace.append(
                    IterateRecord(k=k, residual=residual, alpha=alpha, beta=beta,
                                  laplacian_term_norm=q, error_to_truth=err)
                )
                if residual <= threshold:
                    reason = DISCREPANCY_MET
                    break
                if k >= params.max_iter:
                    reason = MAX_ITER_REACHED
                    break
                u = axpy(-alpha, g, u)
                if beta != 0.0:
                    u = axpy(-beta, lap_term, u)
                k += 1
        except NonFiniteError as exc:
            raise DivergenceError(f"iteration diverged at step {len(trace)}: {exc}", trace=tuple(trace)) from exc

    return SolveResult(
        final_iterate=u,
        stop_index=k,
        stop_reason=reason,
        trace=tuple(trace),
        constant_c=c_value,
        eta_floor=eta,
        operator_norm=norm_est,
    )


def write_trace_csv(trace, path):
    """One row per visited iterate; the columns are exactly ``IterateRecord``'s fields."""
    columns = [f.name for f in fields(IterateRecord)]
    write_table(path, ([getattr(rec, name) for name in columns] for rec in trace), columns)
