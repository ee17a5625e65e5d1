"""Spans around the public entry points of each graphlap module.

The tracer wraps functions and methods from the benchmark's side and touches
no source file: module-level functions are rebound in every ``graphlap``
module that holds them (``solver`` imports ``build_laplacian``,
``estimate_operator_norm`` and ``initial_reconstruction`` by name), methods
are replaced on their classes.  ``uninstall`` puts every original back, so
untraced repeats of a traced run pay nothing.

Spans live in memory as (name, start, end, parent, solve) rows and are
written out once, when the run ends.  Layer of a span is the part of its name
before the first dot; self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from graphlap import grid, graph, metrics, operators, phantoms, recon, solver

# layers whose spans run inside a solve; metrics and phantoms run outside
SOLVE_LAYERS = ("graph", "operators", "recon", "solver", "grid")


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "info")

    def __init__(self, name, start, parent, solve):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.solve = solve
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _module_functions():
    """(function, span name, info extractor) for every traced free function."""
    return [
        (graph.build_laplacian, "graph.build", None),
        (operators.estimate_operator_norm, "operators.norm_estimate", lambda est: est.iterations),
        (recon.initial_reconstruction, lambda args, kwargs: "recon." + (kwargs.get("spec") or args[2]).kind, None),
        (solver.solve, "solver.solve", None),
        (metrics.evaluate, "metrics.evaluate", None),
        (phantoms.shepp_logan, "phantoms", None),
        (phantoms.add_noise, "phantoms", None),
    ] + [(getattr(grid, name), "grid.algebra", None) for name in ("add", "sub", "scale", "axpy", "dot", "norm")]


def _methods():
    """(class, attribute, span name) for every traced method."""
    out = [(grid.ImageGrid, "__post_init__", "grid.images"), (grid.Sinogram, "__post_init__", "grid.images")]
    for cls in vars(graph).values():
        if isinstance(cls, type) and cls.__module__ == graph.__name__ and "apply" in vars(cls):
            out.append((cls, "apply", "graph.apply"))
    for cls in vars(operators).values():
        if (isinstance(cls, type) and issubclass(cls, operators.LinearOperator)
                and cls is not operators.LinearOperator):
            for attr in ("__init__", "apply", "adjoint"):
                if attr in vars(cls):
                    out.append((cls, attr, "operators.setup" if attr == "__init__" else "operators." + attr))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solves = 0
        self._saved: list[tuple[object, str, object]] = []
        self.installed = False

    def _wrap(self, fn, name, info=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            if span_name == "solver.solve":
                self._solves += 1
                solve_id = self._solves
            else:
                solve_id = spans[parent].solve if parent >= 0 else None
            span = Span(span_name, clock(), parent, solve_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return wrapper

    def install(self):
        if self.installed:
            return
        self.installed = True
        modules = [m for key, m in sys.modules.items() if key == "graphlap" or key.startswith("graphlap.")]
        for fn, name, info in _module_functions():
            wrapper = self._wrap(fn, name, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for cls, attr, name in _methods():
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self):
        self.installed = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "solve": s.solve}) + "\n")


def self_times(spans: list[Span], lo: int, hi: int) -> list[float]:
    """Self time of spans[lo:hi]; children always follow their parent."""
    own = [s.duration for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i].parent
        if parent >= lo:
            own[parent - lo] -= spans[i].duration
    return own


def summarize(spans: list[Span], lo: int, hi: int) -> dict:
    """Per-layer figures of one traced repeat, spans[lo:hi].

    Everything but ``metrics.evaluate`` counts only spans inside a solve, so
    the benchmark's own output checks do not show up as program work.
    """
    window = spans[lo:hi]
    own = self_times(spans, lo, hi)
    inside = [(lo + i, s) for i, s in enumerate(window) if s.solve is not None]

    def named(name):
        return [s for _, s in inside if s.name == name]

    def ms(name):
        return 1e3 * sum(s.duration for s in named(name))

    builds = named("graph.build")
    norm_estimates = named("operators.norm_estimate")
    tikhonov = {i for i, s in inside if s.name == "recon.tikhonov"}
    out = {
        "graph.build.calls": len(builds),
        "graph.build.ms": ms("graph.build"),
        "graph.build.first_ms": 1e3 * builds[0].duration if builds else 0.0,
        "graph.apply.calls": len(named("graph.apply")),
        "graph.apply.ms": ms("graph.apply"),
        "operators.apply.calls": len(named("operators.apply")),
        "operators.apply.ms": ms("operators.apply"),
        "operators.adjoint.calls": len(named("operators.adjoint")),
        "operators.adjoint.ms": ms("operators.adjoint"),
        "operators.norm_estimate.calls": len(norm_estimates),
        "operators.norm_estimate.ms": ms("operators.norm_estimate"),
        "operators.norm_estimate.iterations": sum(s.info for s in norm_estimates),
        "recon.tikhonov.cg_iterations": sum(
            1 for _, s in inside if s.name == "operators.apply" and s.parent in tikhonov),
        "solver.graph_rebuilds": len(builds),
        "grid.images.calls": len(named("grid.images")),
        "grid.images.ms": ms("grid.images"),
        "grid.algebra.calls": len(named("grid.algebra")),
        "grid.algebra.ms": ms("grid.algebra"),
        "metrics.evaluate.ms": 1e3 * sum(s.duration for s in window if s.name == "metrics.evaluate"),
        "trace.self_sum_s": sum(own[i - lo] for i, _ in inside),
    }
    for kind in ("adjoint", "fbp", "tikhonov", "tv"):
        out[f"recon.{kind}.ms"] = ms("recon." + kind)
    for layer in SOLVE_LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * sum(
            own[i - lo] for i, s in inside if s.name.split(".")[0] == layer)
    return out


def summarize_setup(spans: list[Span], lo: int, hi: int) -> dict:
    window = spans[lo:hi]
    return {
        "operators.setup_ms": 1e3 * sum(s.duration for s in window if s.name == "operators.setup"),
        "phantoms.ms": 1e3 * sum(s.duration for s in window if s.name == "phantoms"),
    }

