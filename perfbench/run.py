"""graphlap benchmark: one workload per process, end-to-end or per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ct128_adjoint --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer metrics from a run whose repeats alternate
untraced and traced.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the environment block and a human-readable table.  The full record
(environment, trace digests, problems) is written to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``, and a traced run also
writes its spans there.  ``--workload all`` runs every workload in a fresh
process of its own and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 170


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _table(record: dict) -> list[str]:
    lines = [f"{record['workload']:<16} {name:<36} {m['value']!r:>24} {m['unit']}"
             for name, m in record["metrics"].items()]
    lines.append(f"{record['workload']:<16} {'failed_frac':<36} {record['failed_frac']!r:>24} "
                 f"({record['failed']} of {record['attempted']} solves)")
    return lines


def _finite_or_none(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def run_one(args, spec: dict) -> int:
    import logging

    logging.getLogger("graphlap").addHandler(logging.NullHandler())
    import graphlap

    if not Path(graphlap.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported graphlap from {graphlap.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import runner
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    record = runner.run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                 traced=bool(args.trace), scratch=SCRATCH)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in record["metrics"]]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 2
    record["metrics"] = {m["name"]: {"value": _finite_or_none(record["metrics"][m["name"]]), "unit": m["unit"]}
                         for m in listed}
    out = SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print("problem " + problem)
    print("\n".join(_table(record)))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in a fresh process; one table and a combined result."""
    names = [w["name"] for w in spec["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{key}": m for key, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "graphlap" / "__init__.py").is_file():
        print(f"error: no graphlap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload == "all":
        return run_all(args, spec)
    # one BLAS/OpenMP thread: the workload is a single sequential caller
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
