"""Command-line experiment harness.

Three problems: ``ct`` (parallel-beam tomography of the head phantom),
``deblur`` (Gaussian blur of the same phantom) and ``laplacian_demo`` (dump
the graph matrices of a fixed 2x2 example image).  Parameters come from flags,
optionally seeded from a ``key=value`` config file that flags override.  Each
parameter is declared once, as a field of ``ExperimentConfig``; the solver and
graph fields default to ``SolverParams`` and ``GraphConfig``'s values.

Each reconstruction run writes into --out: trace.csv (per-iteration log),
recon.pgm / recon.csv (the final image), report.csv (one summary row, appended
so sweeps collect a table) and meta.txt (every parameter needed to repeat the
run).  Exit codes: 0 success, 2 bad configuration, 3 diverged iteration.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .errors import ConfigurationError, ConvergenceError, DivergenceError
from .graph import METRICS, GraphConfig, build_laplacian, write_degrees_csv, write_weights_csv
from .grid import ImageGrid, format_cell, write_csv, write_pgm, write_table
from .metrics import SSIM_WINDOW, evaluate
from .operators import BlurKernel, GaussianBlur, LinearOperator, RadonGeometry, RadonTransform
from .phantoms import NoiseSpec, add_noise, shepp_logan
from .recon import PROJECTION_PSI, PSI_KINDS, ReconstructorSpec
from .solver import SolverParams, solve, write_trace_csv

PROBLEMS = ("ct", "deblur", "laplacian_demo")

# 2x2 image whose graph matrices the demo dumps, and the graph it dumps them for
DEMO_PIXELS = ((0.2, 0.3), (0.5, 0.1))
DEMO_GRAPH = {"radius": 1.0, "sigma": 0.01, "metric": "manhattan"}


def _param(default, phrase, choices=None):
    return field(default=default, metadata={"help": phrase, "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every run parameter, each one flag, one config-file key and one meta.txt line."""

    problem: str = _param(MISSING, "experiment to run", PROBLEMS)
    size: int = _param(64, "image side length E")
    angles: int = _param(30, "number of ct projection angles")
    rho: float = _param(1.5, "width of the deblur kernel")
    psi: str = _param(ReconstructorSpec.kind, "initial reconstruction", PSI_KINDS)
    delta_rel: float = _param(0.05, "relative noise level")
    seed: int = _param(NoiseSpec.seed, "noise seed")
    tau: float = _param(SolverParams.tau, "discrepancy factor > 1")
    eta0: float = _param(SolverParams.eta0, "gradient step scale")
    eta1: float = _param(SolverParams.eta1, "gradient step cap")
    nu0: float = _param(SolverParams.nu0, "Laplacian step scale")
    nu1: float = _param(SolverParams.nu1, "Laplacian step cap")
    nu2: float = _param(SolverParams.nu2, "absolute beta cap")
    radius: float = _param(GraphConfig.radius, "graph neighborhood radius")
    sigma: float = _param(GraphConfig.sigma, "graph similarity scale")
    metric: str = _param(GraphConfig.metric, "graph lattice metric", METRICS)
    graph_period: int = _param(SolverParams.graph_update_period, "rebuild the graph every p-th step")
    max_iter: int = _param(SolverParams.max_iter, "iteration cap")
    out: str = _param("out", "output directory")


_TYPES = get_type_hints(ExperimentConfig)


def _read_config_file(path: str) -> dict:
    settings = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            settings[key] = _TYPES[key](value.strip())
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return settings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlap",
        description="Graph-Laplacian regularized iterative reconstruction experiments.",
    )
    parser.add_argument("--config", help="key=value file supplying defaults; flags override it")
    for f in fields(ExperimentConfig):
        text = f.metadata["help"]
        if f.default is not MISSING:
            demo = f"; laplacian_demo {DEMO_GRAPH[f.name]}" if f.name in DEMO_GRAPH else ""
            text += f" (default {f.default}{demo})"
        parser.add_argument("--" + f.name.replace("_", "-"), type=_TYPES[f.name],
                            choices=f.metadata["choices"], help=text)
    return parser


def parse_config(argv) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)
    settings = _read_config_file(args.config) if args.config else {}
    settings.update((k, v) for k, v in vars(args).items() if k != "config" and v is not None)
    problem = settings.get("problem")
    if not problem:
        raise ConfigurationError(f"--problem is required ({', '.join(PROBLEMS)})")
    if problem not in PROBLEMS:
        raise ConfigurationError(f"unknown problem {problem!r}")
    if problem == "laplacian_demo":
        settings = {**DEMO_GRAPH, **settings}
    config = ExperimentConfig(**settings)
    if config.problem == "deblur" and config.psi in PROJECTION_PSI:
        raise ConfigurationError(f"psi {config.psi!r} needs projection data; use adjoint or tikhonov for deblur")
    if config.problem != "laplacian_demo" and config.size < SSIM_WINDOW:
        raise ConfigurationError(f"size must be >= {SSIM_WINDOW} for {config.problem}, got {config.size}: "
                                 f"ssim needs a {SSIM_WINDOW}x{SSIM_WINDOW} window")
    out = Path(config.out)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"--out {config.out}: {existing} exists and is not a directory")
    # built here only for their checks, so that a bad value fails before any output is written
    _solver_params(config)
    NoiseSpec(delta_rel=config.delta_rel, seed=config.seed)
    ReconstructorSpec(kind=config.psi)
    if config.problem == "ct":
        RadonGeometry(image_size=config.size, num_angles=config.angles)
    elif config.problem == "deblur":
        GaussianBlur(BlurKernel(rho=config.rho), size=config.size)
    return config


def _solver_params(config: ExperimentConfig) -> SolverParams:
    return SolverParams(
        eta0=config.eta0, eta1=config.eta1,
        nu0=config.nu0, nu1=config.nu1, nu2=config.nu2,
        tau=config.tau, max_iter=config.max_iter,
        graph_update_period=config.graph_period,
        graph=GraphConfig(radius=config.radius, sigma=config.sigma, metric=config.metric),
    )


def _write_meta(path: Path, config: ExperimentConfig, extra: dict):
    values = {"version": __version__, **asdict(config), **extra}
    path.write_text("".join(f"{key}={format_cell(value)}\n" for key, value in values.items()), encoding="ascii")


REPORT_COLUMNS = ("psi", "delta_rel", "iterations", "residual", "re", "psnr_standard", "psnr_paper", "ssim",
                  "constant_C", "eta_floor", "stop_reason")


def _append_report(path: Path, config: ExperimentConfig, result, quality):
    row = (config.psi, config.delta_rel, result.stop_index, result.trace[-1].residual, quality.re,
           quality.psnr_standard, quality.psnr_paper, quality.ssim, result.constant_c, result.eta_floor,
           result.stop_reason)
    write_table(path, [row], REPORT_COLUMNS, append=True)


def _run_reconstruction(config: ExperimentConfig, A, truth: ImageGrid, extra_meta: dict, out_dir: Path) -> int:
    clean = A.apply(truth)
    noisy, delta = add_noise(clean, NoiseSpec(delta_rel=config.delta_rel, seed=config.seed))
    psi = ReconstructorSpec(kind=config.psi)
    params = _solver_params(config)
    meta = {**extra_meta, "delta": delta}
    try:
        result = solve(A, noisy, delta, psi, params, truth=truth)
    except DivergenceError as exc:
        write_trace_csv(exc.trace, out_dir / "trace.csv")
        meta["stop_reason"] = "diverged"
        _write_meta(out_dir / "meta.txt", config, meta)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    quality = evaluate(result.final_iterate, truth)
    write_trace_csv(result.trace, out_dir / "trace.csv")
    write_pgm(result.final_iterate, out_dir / "recon.pgm")
    write_csv(result.final_iterate, out_dir / "recon.csv")
    _append_report(out_dir / "report.csv", config, result, quality)
    meta.update({
        "operator_norm_estimate": result.operator_norm.value,
        "operator_norm_converged": result.operator_norm.converged,
        "eta_floor": result.eta_floor,
        "constant_C": result.constant_c,
        "iterations": result.stop_index,
        "stop_reason": result.stop_reason,
    })
    _write_meta(out_dir / "meta.txt", config, meta)
    print(f"{config.problem}: psi={config.psi} delta_rel={config.delta_rel} "
          f"stopped at k={result.stop_index} ({result.stop_reason}), re={quality.re:.4f}")
    return 0


def build_problem(config: ExperimentConfig) -> tuple[LinearOperator, ImageGrid, dict]:
    """The forward operator of a ct or deblur run, the phantom it images and its meta.txt lines."""
    truth = shepp_logan(config.size)
    if config.problem == "ct":
        geometry = RadonGeometry(image_size=config.size, num_angles=config.angles)
        return RadonTransform(geometry), truth, {"num_detectors": geometry.num_detectors}
    blur = GaussianBlur(BlurKernel(rho=config.rho), size=config.size)
    return blur, truth, {"kernel_radius": blur.kernel.radius}


def run_laplacian_demo(config: ExperimentConfig, out_dir: Path) -> int:
    image = ImageGrid(DEMO_PIXELS)
    graph = GraphConfig(radius=config.radius, sigma=config.sigma, metric=config.metric)
    laplacian = build_laplacian(image, graph)
    write_weights_csv(laplacian, out_dir / "weights.csv")
    write_degrees_csv(laplacian, out_dir / "degrees.csv")
    _write_meta(out_dir / "meta.txt", config, {})
    print(f"laplacian_demo: wrote {laplacian.weights.nnz} weights and {laplacian.degrees.size} degrees")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = parse_config(argv)
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if config.problem == "laplacian_demo":
            return run_laplacian_demo(config, out_dir)
        return _run_reconstruction(config, *build_problem(config), out_dir)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
