#!/usr/bin/env python3
"""Sweep noise levels and initializers on one problem, print a summary table.

Each (delta_rel, psi) cell is a full reconstruction run written to its own
subdirectory of --out; the table collects the report rows.  Any other flag
(--size, --angles, --max-iter, --tau, ...) goes to every run unchanged, and
unset ones take the ``graphlap`` defaults (see ``graphlap --help``).  At the
default size the whole sweep takes well under a minute.

    python3 scripts/noise_sweep.py --size 64 --angles 30
    python3 scripts/noise_sweep.py --problem deblur --psis adjoint,tikhonov
"""

import argparse
import sys
from pathlib import Path

from graphlap import cli

COLUMNS = ("psi", "delta_rel", "iterations", "residual", "re", "ssim", "stop_reason")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problem", default="ct", choices=("ct", "deblur"))
    parser.add_argument("--levels", default="0.2,0.1,0.05,0.03,0.01",
                        help="comma-separated delta_rel values")
    parser.add_argument("--psis", default="adjoint,fbp,tikhonov,tv",
                        help="comma-separated initializers (deblur supports adjoint,tikhonov)")
    parser.add_argument("--out", default="out/sweep")
    args, passthrough = parser.parse_known_args()

    levels = args.levels.split(",")
    psis = args.psis.split(",")
    rows = []
    for delta_rel in levels:
        for psi in psis:
            out = Path(args.out) / f"d{delta_rel}_{psi}"
            rc = cli.main(["--problem", args.problem, *passthrough, "--delta-rel", delta_rel,
                           "--psi", psi, "--out", str(out)])
            if rc != 0:
                print(f"run delta_rel={delta_rel} psi={psi} failed with exit code {rc}",
                      file=sys.stderr)
                return rc
            report = (out / "report.csv").read_text().splitlines()
            record = dict(zip(report[0].split(","), report[-1].split(",")))
            rows.append([_shorten(record[c]) for c in COLUMNS])

    widths = [max(len(c), *(len(r[i]) for r in rows)) for i, c in enumerate(COLUMNS)]
    print()
    print("  ".join(c.ljust(w) for c, w in zip(COLUMNS, widths)))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def _shorten(cell: str) -> str:
    try:
        return f"{float(cell):.4f}" if "." in cell else cell
    except ValueError:
        return cell


if __name__ == "__main__":
    sys.exit(main())
