"""The benchmark's own self-test, run from the module suite.

The benchmark tracer hooks ``graph.build_laplacian`` and the ``apply`` method
of every class defined in ``graphlap.graph``; a change there that silently
loses a span would pass every module oracle.  ``perfbench``'s self-test runs
each workload at a tiny size with tracing on and checks the per-layer figures.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]



TRACED_SOLVE = """
import numpy as np
import graphlap as gl
import tracing

rng = np.random.Generator(np.random.Philox(5))
v = gl.ImageGrid(rng.random((12, 12)))
params = gl.SolverParams(max_iter=7, graph_update_period=3)
tracer = tracing.Tracer()
tracer.install()
try:
    result = gl.solve(gl.GaussianBlur(gl.BlurKernel(rho=1.0), 12), v, 0.0,
                      gl.ReconstructorSpec(kind="adjoint"), params)
finally:
    tracer.uninstall()
values = tracing.summarize(tracer.spans, 0, len(tracer.spans))
print(len(result.trace), values["graph.apply.calls"], values["graph.build.calls"],
      int(values["graph.apply.ms"] > 0.0))
"""


def test_tracer_sees_every_graph_build_and_apply():
    # one apply of the Laplacian per visited iterate, one build per period;
    # a fresh interpreter keeps the tracer's modules out of this process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_SOLVE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    visited, applies, builds, timed = map(int, proc.stdout.split())
    assert visited == applies == 8
    assert builds == 3
    assert timed == 1
