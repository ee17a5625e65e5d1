#!/usr/bin/env python3
"""Compare the adaptive graph with a fixed graph and with plain Landweber.

For each noise level, initializer Psi and noise seed, one problem is solved
three ways:

    adaptive   the graph is rebuilt from the iterate (the flags as given)
    fixed      the graph is built once, from Psi(v), and kept
    landweber  no graph term (nu0 = nu1 = 0), graph kept as in fixed

Every other flag (--problem, --size, --angles, --max-iter, --tau, --sigma,
...) is a ``graphlap`` flag, with its default and its checks (see ``graphlap
--help``); --delta-rel, --psi and --seed are set by the sweep axes.  Every cell
is checked before the first solve.  The operator is built, and its norm
estimated, once; the noise is drawn once per (level, seed).  The table is
printed and written to <out>/ablation.csv.  Exit codes as for ``graphlap``.

    python3 scripts/ablation.py --problem ct --size 64 --angles 30 --levels 0.05 --seeds 0,1,2,3,4
    python3 scripts/ablation.py --problem deblur --psis adjoint,tikhonov
"""

import argparse
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

from graphlap import cli
from graphlap.errors import ConfigurationError, ConvergenceError, DivergenceError
from graphlap.grid import norm, write_table
from graphlap.metrics import evaluate
from graphlap.phantoms import NoiseSpec, add_noise
from graphlap.recon import PSI_KINDS, ReconstructorSpec
from graphlap.solver import solve

COLUMNS = ("problem", "psi", "arm", "delta_rel", "seed", "stop_k", "stop_reason", "re", "ssim", "best_re",
           "constant_C")


def arms(config: cli.ExperimentConfig) -> dict:
    """Solver parameters of the three arms; a graph period past max_iter never rebuilds."""
    adaptive = cli._solver_params(config)
    fixed = replace(adaptive, graph_update_period=adaptive.max_iter + 1)
    return {"adaptive": adaptive, "fixed": fixed, "landweber": replace(fixed, nu0=0.0, nu1=0.0)}


def parse_cells(argv) -> list:
    """One config per (level, seed, psi), in that order, all checked by ``cli.parse_config``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", default="0.2,0.1,0.05,0.03,0.01", help="comma-separated delta_rel values")
    parser.add_argument("--psis", default=",".join(PSI_KINDS),
                        help="comma-separated initializers (deblur takes adjoint,tikhonov)")
    parser.add_argument("--seeds", default=str(cli.ExperimentConfig.seed), help="comma-separated noise seeds")
    args, rest = parser.parse_known_args(argv)
    cells = [cli.parse_config([*rest, "--delta-rel", level, "--seed", seed, "--psi", psi])
             for level, seed, psi in itertools.product(args.levels.split(","), args.seeds.split(","),
                                                       args.psis.split(","))]
    if cells[0].problem == "laplacian_demo":
        raise ConfigurationError("the ablation needs a reconstruction problem: ct or deblur")
    return cells


def run(cells) -> list:
    """One row per (cell, arm), solved on one operator."""
    A, truth, _ = cli.build_problem(cells[0])
    clean = A.apply(truth)
    truth_norm = norm(truth)
    rows = []
    for (level, seed), group in itertools.groupby(cells, key=lambda c: (c.delta_rel, c.seed)):
        noisy, delta = add_noise(clean, NoiseSpec(delta_rel=level, seed=seed))
        for config in group:
            for arm, params in arms(config).items():
                try:
                    result = solve(A, noisy, delta, ReconstructorSpec(kind=config.psi), params, truth=truth)
                except DivergenceError as exc:
                    trace, k, reason = exc.trace, len(exc.trace), "diverged"
                    re = ssim = constant_c = math.nan
                else:
                    quality = evaluate(result.final_iterate, truth)
                    trace, k, reason = result.trace, result.stop_index, result.stop_reason
                    re, ssim, constant_c = quality.re, quality.ssim, result.constant_c
                best = min((r.error_to_truth for r in trace), default=math.nan) / truth_norm
                rows.append((config.problem, config.psi, arm, level, seed, k, reason, re, ssim, best, constant_c))
    return rows


def print_table(rows):
    cells = [[f"{c:.4f}" if isinstance(c, float) else str(c) for c in row] for row in rows]
    widths = [max(len(name), *(len(row[i]) for row in cells)) for i, name in enumerate(COLUMNS)]
    for row in [COLUMNS, *cells]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    try:
        cells = parse_cells(argv)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run(cells)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out_dir = Path(cells[0].out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "ablation.csv", rows, COLUMNS)
    print_table(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
