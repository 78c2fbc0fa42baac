"""Span tracing of the biharm layers, installed from outside the package.

`install()` runs inside one CLI process.  It wraps the entry points listed in
`_targets` and rebinds every biharm module attribute that refers to one of
them, so calls made inside the package (`solvers` calling
`fourier_rearrange`, `cli` calling what it imported by name) are traced too.
Each call records a span: its name, start, end, parent span and one number
that explains the work (nodes, iterations, bytes).  Spans stay in memory and
are written once, when the process ends.

`pass_metrics()` runs in run.py and turns the span files of one
pass into the per-layer metrics of `PER_LAYER`.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from array import array

import numpy as np

# (metric, unit, better): the per-layer metrics of a traced pass, in print order.
PER_LAYER = [
    ("solvers.minimize.calls", "count", "lower"),
    ("solvers.minimize.s", "s", "lower"),
    ("solvers.minimize.self_s", "s", "lower"),
    ("solvers.minimize.iterations", "count", "lower"),
    ("solvers.project.calls", "count", "lower"),
    ("solvers.project.s", "s", "lower"),
    ("solvers.factor.calls", "count", "lower"),
    ("solvers.factor.s", "s", "lower"),
    ("solvers.residual_weak.s", "s", "lower"),
    ("rearrangement.fourier_rearrange.calls", "count", "lower"),
    ("rearrangement.fourier_rearrange.s", "s", "lower"),
    ("rearrangement.fourier_rearrange.first_s", "s", "lower"),
    ("grid.laplacian_matrix.calls", "count", "lower"),
    ("grid.laplacian_matrix.s", "s", "lower"),
    ("grid.laplacian_matrix.nodes", "count", "lower"),
    ("grid.apply_stencil.calls", "count", "lower"),
    ("grid.apply_stencil.s", "s", "lower"),
    ("sequences.moser_estimates.calls", "count", "lower"),
    ("sequences.moser_estimates.s", "s", "lower"),
    ("sequences.moser_estimates.nodes", "count", "lower"),
    ("sequences.moser_field.calls", "count", "lower"),
    ("sequences.moser_field.s", "s", "lower"),
    ("sequences.moser_field.nodes", "count", "lower"),
    ("model.F.nodes", "count", "lower"),
    ("model.adaptive_simpson.calls", "count", "lower"),
    ("model.adaptive_simpson.s", "s", "lower"),
    ("model.F.cache_hit_ratio", "1", "higher"),
    ("model.check_conditions.s", "s", "lower"),
    ("expressions.parse.calls", "count", "lower"),
    ("expressions.eval.calls", "count", "lower"),
    ("expressions.eval.s", "s", "lower"),
    ("expressions.eval.scalar_frac", "1", "lower"),
    ("functionals.adams_ratio_search.calls", "count", "lower"),
    ("functionals.adams_ratio_search.s", "s", "lower"),
    ("functionals.evaluate_all.calls", "count", "lower"),
    ("functionals.evaluate_all.s", "s", "lower"),
    ("diagnostics.classify_growth.calls", "count", "lower"),
    ("diagnostics.classify_growth.s", "s", "lower"),
    ("cli.io.s", "s", "lower"),
    ("cli.io.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
]

# Span names whose per-span number is reported under another suffix.
_VALUE_SUFFIX = {
    "solvers.minimize": "iterations",
    "grid.laplacian_matrix": "nodes",
    "sequences.moser_estimates": "nodes",
    "sequences.moser_field": "nodes",
    "model.F": "nodes",
    "cli.io": "bytes",
}


class Tracer:
    """In-memory span log of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = [-1]
        return st

    def wrap(self, span: str, fn, measure=None):
        """Return fn recording one span per call; measure(args, kwargs, out) -> float."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(stack[-1])
                self.start.append(clock())
                self.end.append(0.0)
                self.value.append(0.0)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if measure is not None:
                self.value[idx] = float(measure(args, kwargs, out))
            return out

        return traced

    def dump(self, path: str):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 value=np.frombuffer(self.value))


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _targets():
    from biharm import (cli, diagnostics, functionals, grid, model,
                        rearrangement, sequences, solvers)

    iterations = lambda a, k, out: out.iterations        # noqa: E731
    return [
        (solvers, "minimize_pohozaev", "solvers.minimize", iterations),
        (solvers, "minimize_nehari", "solvers.minimize", iterations),
        (solvers, "project_pohozaev", "solvers.project", None),
        (solvers, "project_nehari", "solvers.project", None),
        (solvers, "residual_weak", "solvers.residual_weak", None),
        (rearrangement, "fourier_rearrange", "rearrangement.fourier_rearrange", None),
        (grid, "laplacian_matrix", "grid.laplacian_matrix",
         lambda a, k, out: out.shape[0]),
        (grid, "apply_stencil", "grid.apply_stencil", None),
        (sequences, "moser_estimates", "sequences.moser_estimates",
         lambda a, k, out: out["n_points"]),
        (sequences, "moser_field", "sequences.moser_field",
         lambda a, k, out: len(out.values)),
        (model, "adaptive_simpson", "model.adaptive_simpson", None),
        (model, "check_conditions", "model.check_conditions", None),
        (functionals, "adams_ratio_search", "functionals.adams_ratio_search", None),
        (functionals, "evaluate_all", "functionals.evaluate_all", None),
        (diagnostics, "classify_growth", "diagnostics.classify_growth", None),
        (cli, "atomic_write", "cli.io", lambda a, k, out: len(a[1])),
        (cli, "save_field_csv", "cli.io", None),
        (cli, "load_field_csv", "cli.io", lambda a, k, out: os.path.getsize(a[0])),
    ]


def _rebind(orig, wrapped):
    """Point every biharm module attribute bound to orig at wrapped."""
    for name, mod in list(sys.modules.items()):
        if name == "biharm" or name.startswith("biharm."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)


def install() -> Tracer:
    """Trace the biharm layers in this process (imports biharm.cli)."""
    import biharm.cli  # noqa: F401  (binds the names the CLI imports)
    from biharm import expressions, model, solvers

    tr = Tracer()
    for mod, attr, span, measure in _targets():
        orig = getattr(mod, attr)
        _rebind(orig, tr.wrap(span, orig, measure))

    # Scipy factorizations, as solvers calls them.
    spla = solvers.spla
    solvers.spla = _ModuleProxy(spla, splu=tr.wrap("solvers.factor", spla.splu))
    # The residual a solver reports is computed by the operator bundle.
    solvers._Ops.residual_weak = tr.wrap("solvers.residual_weak",
                                         solvers._Ops.residual_weak)

    # Parsed expressions: count parses and every evaluation, scalar or not.
    parse = expressions.parse_expression
    scalar = lambda a, k, out: np.ndim(a[0]) == 0           # noqa: E731

    @functools.wraps(parse)
    def parse_traced(src):
        return tr.wrap("expressions.eval", parse(src), scalar)

    _rebind(parse, tr.wrap("expressions.parse", parse_traced))

    # A user F: count the nodes requested from it.
    user_nl = model.user_nonlinearity
    nodes = lambda a, k, out: np.size(a[0])                 # noqa: E731

    @functools.wraps(user_nl)
    def user_nl_traced(*args, **kwargs):
        spec = user_nl(*args, **kwargs)
        spec.F = tr.wrap("model.F", spec.F, nodes)
        return spec

    _rebind(user_nl, user_nl_traced)
    return tr


# --- run.py side -------------------------------------------------------------------

def pass_metrics(span_files: list[str], overhead_s: float,
                 untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, from the span files of its ops."""
    acc: dict[str, float] = {}

    def add(key, v):
        acc[key] = acc.get(key, 0.0) + float(v)

    for path in span_files:
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            nid, parent = z["name"], z["parent"]
            dur, value = z["end"] - z["start"], z["value"]
        if len(nid) == 0:
            continue
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        outermost = parent_nid != nid          # same-name nesting counts once
        for i, name in enumerate(names):
            sel = nid == i
            add(f"{name}.calls", np.count_nonzero(sel))
            add(f"{name}.s", dur[sel & outermost].sum())
            add(f"{name}.self_s", (dur - covered)[sel].sum())
            add(f"{name}.{_VALUE_SUFFIX.get(name, 'value')}", value[sel].sum())
            if name == "rearrangement.fourier_rearrange" and sel.any():
                add(f"{name}.first_s", dur[np.argmax(sel)])

    evals = acc.get("expressions.eval.calls", 0.0)
    acc["expressions.eval.scalar_frac"] = (
        acc.get("expressions.eval.value", 0.0) / evals if evals else 0.0)
    f_nodes = acc.get("model.F.nodes", 0.0)
    acc["model.F.cache_hit_ratio"] = (
        1.0 - acc.get("model.adaptive_simpson.calls", 0.0) / f_nodes if f_nodes else 0.0)
    acc["trace.overhead_s"] = overhead_s
    acc["trace.overhead_frac"] = overhead_s / untraced_wall_s
    return {name: acc.get(name, 0.0) for name, _, _ in PER_LAYER}
