"""Workload definitions: the generated inputs and the solves run on them.

Every workload is built through the same public calls ``graphlap.cli`` makes
(phantom, operator, clean data, noise, ``solve``, ``evaluate``,
``write_trace_csv``).  The benchmark seed becomes ``NoiseSpec.seed``; the
program only ever sees the generated inputs.  Calls go through the ``graphlap``
package namespace at call time so that the tracer's wrappers are picked up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import graphlap as gl


@dataclass(frozen=True)
class Case:
    """One solve of a repeat: a noise level and an initializer."""

    delta_rel: float
    psi: str

    @property
    def label(self) -> str:
        return f"{self.psi}@{self.delta_rel!r}"


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "ct" or "deblur"
    size: int
    cases: tuple[Case, ...]
    expected_stop: str
    angles: int = 0
    rho: float = 0.0
    graph_update_period: int = 1
    max_iter: int = 2000

    def params(self) -> gl.SolverParams:
        return gl.SolverParams(max_iter=self.max_iter, graph_update_period=self.graph_update_period)


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP's acceptance workload; a graph rebuild on every iteration
        # dominates, so the graph layer moves it first.
        Workload(
            name="ct128_adjoint", problem="ct", size=128, angles=60,
            cases=(Case(0.05, "adjoint"),), expected_stop=gl.DISCREPANCY_MET,
        ),
        # Four times the pixels and each graph reused for 10 steps, so the
        # apply carries a real share next to the build; a fixed budget keeps
        # a repeat short (the full period-1 solve is about 214 s).
        Workload(
            name="deblur256_reuse", problem="deblur", size=256, rho=1.5,
            cases=(Case(0.001, "adjoint"),), expected_stop=gl.MAX_ITER_REACHED,
            graph_update_period=10, max_iter=60,
        ),
        # Six solves on one operator; every start meets tau*delta at k=0, so
        # the initializers, A/A* and the norm estimate do the work and the
        # graph is nearly idle.
        Workload(
            name="ct128_starts", problem="ct", size=128, angles=180,
            cases=tuple(Case(d, p) for d in (0.1, 0.05) for p in ("fbp", "tikhonov", "tv")),
            expected_stop=gl.DISCREPANCY_MET,
        ),
    )
}


@dataclass
class Inputs:
    """What one set-up produces: the truth, the operator and noisy data per level."""

    truth: object
    operator: object
    data: dict = field(default_factory=dict)  # delta_rel -> (noisy, delta)


def make_operator(w: Workload):
    if w.problem == "ct":
        return gl.RadonTransform(gl.RadonGeometry(image_size=w.size, num_angles=w.angles))
    return gl.GaussianBlur(gl.BlurKernel(rho=w.rho), size=w.size)


def setup(w: Workload, seed: int) -> Inputs:
    """Phantom, operator, clean data and one noise draw per noise level."""
    truth = gl.shepp_logan(w.size)
    operator = make_operator(w)
    clean = operator.apply(truth)
    inputs = Inputs(truth=truth, operator=operator)
    for delta_rel in dict.fromkeys(c.delta_rel for c in w.cases):
        inputs.data[delta_rel] = gl.add_noise(clean, gl.NoiseSpec(delta_rel=delta_rel, seed=seed))
    return inputs


def solve_case(w: Workload, inputs: Inputs, case: Case):
    noisy, delta = inputs.data[case.delta_rel]
    return gl.solve(inputs.operator, noisy, delta, gl.ReconstructorSpec(kind=case.psi), w.params(),
                    truth=inputs.truth)


def graph_edges(w: Workload) -> int:
    """Ordered pixel pairs within the graph radius on this workload's grid.

    This is the number of weights one graph build evaluates, independent of
    how the graph module stores them.
    """
    config = w.params().graph
    r = math.floor(config.radius)
    n = w.size
    edges = 0
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            dist = abs(di) + abs(dj) if config.metric == "manhattan" else max(abs(di), abs(dj))
            if 0 < dist <= r:
                edges += max(0, n - abs(di)) * max(0, n - abs(dj))
    return edges
