"""Span tracing of bfflow, installed from outside the package.

While `Tracer.installed()` is active, every public function of a bfflow
module and every public method of a class that module defines is replaced by
a wrapper that records a span: name, start, end and the span that called it.
The private functions and classes in BOUNDARIES, which other modules call by
name (`dyn._rk4_full` in analysis), are wrapped too.
Span names are `<module>.<function>` or `<module>.<Class>.<method>`; the
module is the layer. Names bound by `from .x import f` in other modules (for
example `conjugate_gradient` in analysis, dynamics and physics) are rebound
too, otherwise those calls would bypass the wrapper.

Spans are kept in memory, in flat arrays, until `report()` derives the
per-layer numbers or `write()` stores them. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from contextlib import contextmanager

import numpy as np

# grid-layer spans whose argument and result sizes give grid.bytes_computed
BYTES_COUNTED = ("grid.lap_array", "grid.grad_array", "grid.div_array",
                 "grid.sine_coefficients_array", "grid.sine_synthesis_array")
SINE_TRANSFORMS = ("grid.sine_coefficients_array", "grid.sine_synthesis_array")
# private functions and classes that another module calls as `module._name`
# (dynamics._rk4_full from analysis): layer boundaries, wrapped like public ones
BOUNDARIES = ("dynamics._rk4_full", "dynamics._FullSystem", "dynamics._as_forcing",
              "dynamics._elliptic_residual", "grid._shifted")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts; wrappers stay valid."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"cg_iters": 0, "cg_failures": 0, "newton_steps": 0,
                       "bytes_computed": 0}

    # -- span recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        if name == "krylov.conjugate_gradient":
            return self._wrap_cg(nid, fn)
        if name == "dynamics.solve_elliptic_arrays":
            return self._wrap_newton(nid, fn)
        sized = name in BYTES_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if sized:
                self.counts["bytes_computed"] += out.nbytes + sum(
                    a.nbytes for a in args if isinstance(a, np.ndarray))
            return out

        return traced

    def _wrap_cg(self, nid: int, fn):
        """CG iterations are counted on the operator passed in: every
        application is one iteration, except the initial-residual one that
        a given x0 costs."""
        from bfflow.krylov import CGError

        @functools.wraps(fn)
        def traced(apply_op, b, *args, **kwargs):
            applied = 0

            def counted(x):
                nonlocal applied
                applied += 1
                return apply_op(x)

            x0 = args[0] if args else kwargs.get("x0")
            i = self._open(nid)
            try:
                return fn(counted, b, *args, **kwargs)
            except CGError:
                self.counts["cg_failures"] += 1
                raise
            finally:
                self._close(i)
                self.counts["cg_iters"] += applied - (x0 is not None)

        return traced

    def _wrap_newton(self, nid: int, fn):
        """Newton steps come from the residual history the solver returns
        (or carries on its NewtonError)."""
        from bfflow.dynamics import NewtonError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                u, history = fn(*args, **kwargs)
            except NewtonError as err:
                self.counts["newton_steps"] += len(err.history) - 1
                raise
            finally:
                self._close(i)
            self.counts["newton_steps"] += len(history) - 1
            return u, history

        return traced

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self, package: str = "bfflow"):
        """Wrap the package's public functions and methods; restore on exit."""
        pkg = importlib.import_module(package)
        modules = [importlib.import_module(f"{package}.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        wrapped = {}
        patches = []
        try:
            for mod in modules:
                layer = mod.__name__.rsplit(".", 1)[1]
                for attr, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if attr.startswith("_") and f"{layer}.{attr}" not in BOUNDARIES:
                        continue
                    if inspect.isfunction(obj):
                        wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                    elif inspect.isclass(obj):
                        for meth, fn in list(vars(obj).items()):
                            if not meth.startswith("_") and inspect.isfunction(fn):
                                patches.append((obj, meth, fn))
                                setattr(obj, meth, self._wrap(
                                    f"{layer}.{attr}.{meth}", fn))
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        patches.append((mod, attr, obj))
                        setattr(mod, attr, wrapped[obj])
            yield self
        finally:
            for owner, attr, obj in reversed(patches):
                setattr(owner, attr, obj)

    # -- derived numbers ----------------------------------------------------

    def report(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per
        layer: self seconds."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        # inclusive time counts a span only when no ancestor has its name,
        # so nested CG (bogovski's inner solves) is not counted twice
        outer = np.ones(dur.size, dtype=bool)
        names_above = [0] * dur.size
        for i, (n, p) in enumerate(zip(self.name_id, self.parent)):
            above = names_above[p] if p >= 0 else 0
            outer[i] = not (above >> n) & 1
            names_above[i] = above | (1 << n)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        selft = np.bincount(nid, weights=own, minlength=k)
        spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(selft[i])}
                 for i, name in enumerate(self.names) if calls[i]}
        layers: dict[str, float] = {}
        for name, s in spans.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s["self_s"]
        return {"spans": spans, "layers": layers, "span_count": int(dur.size)}

    def write(self, path) -> None:
        """Store the spans as CSV: index, name, start, end, parent index."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.name_id, self.start,
                                                 self.end, self.parent)):
                fh.write(f"{i},{self.names[n]},{s - t0:.9f},{e - t0:.9f},{p}\n")


def per_layer_metrics(rep: dict, counts: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced invocation."""
    spans = rep["spans"]
    layers = rep["layers"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    solves = calls("krylov.conjugate_gradient")
    laps = calls("grid.lap_array")
    return {
        "krylov.cg.solves": solves,
        "krylov.cg.iters": counts["cg_iters"],
        "krylov.cg.iters_per_solve": counts["cg_iters"] / solves if solves else 0.0,
        "krylov.cg.self_s": self_s("krylov.conjugate_gradient"),
        "krylov.cg.total_s": total_s("krylov.conjugate_gradient"),
        "krylov.cg.failures": counts["cg_failures"],
        "dynamics.newton.solves": calls("dynamics.solve_elliptic_arrays"),
        "dynamics.newton.steps": counts["newton_steps"],
        "physics.fprime_apply_array.calls": calls("physics.fprime_apply_array"),
        "physics.bogovski.calls": calls("physics.bogovski"),
        "physics.bogovski.total_s": total_s("physics.bogovski"),
        "grid.sine_transform.calls": sum(calls(n) for n in SINE_TRANSFORMS),
        "grid.sine_transform.self_s": sum(self_s(n) for n in SINE_TRANSFORMS),
        "physics.medium_apply.calls": calls("physics.MediumMatrix.apply_array"),
        "grid.lap_array.calls": laps,
        "grid.lap_array.us_per_call": 1e6 * self_s("grid.lap_array") / laps if laps else 0.0,
        "grid.grad_array.calls": calls("grid.grad_array"),
        "grid.div_array.calls": calls("grid.div_array"),
        "grid.self_s": layers.get("grid", 0.0),
        "grid.bytes_computed": counts["bytes_computed"],
        "physics.f_apply_array.calls": calls("physics.f_apply_array"),
        "physics.self_s": layers.get("physics", 0.0),
        "dynamics.self_s": layers.get("dynamics", 0.0),
        "analysis.self_s": layers.get("analysis", 0.0),
        "analysis.ensemble_report.total_s": total_s("analysis.ensemble_report_from_snaps"),
        "analysis.energy_audit.total_s": total_s("analysis.energy_audit"),
        "cli.self_s": layers.get("cli", 0.0),
        "rng.self_s": layers.get("rng", 0.0),
        "trace.spans": rep["span_count"],
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"grid.lap_array.us_per_call": "us",
            "krylov.cg.iters_per_solve": "iters/solve",
            "grid.bytes_computed": "bytes"}.get(metric, "count")
