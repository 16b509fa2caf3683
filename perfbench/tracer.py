"""Span and count recorder wrapped around recipkit from the outside.

``Tracer.install`` replaces the public functions and methods of every
recipkit module by wrappers that record a span (name, layer, start, end,
parent, verdict id).  Field and metric evaluations are counted, not spanned:
each call increments a counter of the innermost non-core layer on the span
stack, so ``legendre.grad_evals`` counts the gradients Newton asked for.
Spans stay in memory; ``dump`` writes them when the run ends.

Nothing here edits recipkit's files: the wrappers live only in the traced
process, and a run with tracing off never imports this module's hooks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import Counter

MODULES = ("core", "linear", "legendre", "reciprocity", "geometry", "dynamics",
           "models", "schema", "cli")

# Hot one-line helpers: a span each would cost more than the work they do.
# Field and metric classes are counted instead of spanned.
SKIP = {
    "core": {"as_vector", "as_matrix", "symmetry_residual", "gauss_legendre_panels",
             "BoxDomain.contains", "BoxDomain.shrink", "BoxDomain.product",
             "BoxDomain.cube", "ScalarField.*", "MetricField.*",
             "SignatureMatrix.*", "Polynomial.*"},
}

# Layer metrics whose time is inclusive of the nested spans of other layers.
INCLUSIVE = {"models.build_s": "models", "schema.load_s": "schema"}


class Tracer:
    """In-memory span list plus per-layer counters for one process."""

    def __init__(self, verdict: int = 0):
        self.spans: list = []      # [name, layer, start_ns, end_ns, parent, verdict]
        self.counts: Counter = Counter()
        self.stack: list = []      # open span indices; a root span has parent -1
        self.layers: list = []     # innermost non-core layer per open span
        self.verdict = verdict

    # -- recording ---------------------------------------------------------

    def _layer(self) -> str:
        return self.layers[-1] if self.layers else "bench"

    def wrap(self, fn, name: str, layer: str, on_return=None, on_args=None):
        """Return fn recording a span per call; hooks may count or rewrap."""
        spans, stack, layers = self.spans, self.stack, self.layers
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            idx = len(spans)
            rec = [name, layer, clock(), 0, stack[-1] if stack else -1, self.verdict]
            spans.append(rec)
            stack.append(idx)
            layers.append(layer if layer != "core" else self._layer())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                layers.pop()
            return out if on_return is None else on_return(out)

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A harness-side span around the ``with`` body."""
        rec = [name, layer, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
               self.verdict]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.layers.append(layer)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self.stack.pop()
            self.layers.pop()

    # -- installation ------------------------------------------------------

    def _counted(self, fn, kind: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts["core.field_evals"] += 1
            tracer.counts[f"{tracer._layer()}.{kind}_evals"] += 1
            return fn(*args, **kwargs)

        return counted

    def _arg_counter(self, fn, key: str):
        if fn is None:
            return None
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _hooks(self, layer: str, qual: str):
        """Per-function counters read from arguments or results."""
        if qual == "integrate_implicit_midpoint":
            def on_args(args, kwargs):
                args = list(args)
                args[0] = self._arg_counter(args[0], "dynamics.rhs_evals")
                if "mass" in kwargs:
                    kwargs["mass"] = self._arg_counter(kwargs["mass"], "dynamics.metric_evals")
                return args, kwargs

            def on_return(out):
                self.counts["dynamics.steps"] += len(out[0]) - 1
                return out
            return on_args, on_return
        if qual == "integrate_segment":
            def on_args(args, kwargs):
                self.counts["core.integrate_segment.calls"] += 1
                args = list(args)
                args[0] = self._arg_counter(args[0], "core.integrate_segment.integrand_evals")
                return args, kwargs
            return on_args, None
        if qual == "simulate_ltv":
            def on_return(out):
                self.counts["geometry.ltv_steps"] += len(out[0]) - 1
                return out
            return None, on_return
        if layer == "reciprocity" and qual.startswith("check_reciprocity"):
            def on_return(out):
                self.counts["reciprocity.points"] += int(out.points_tested)
                return out
            return None, on_return
        # fields built by a layer keep doing that layer's work when evaluated later
        if qual == "make_legendre_pair":
            return None, self._wrap_pair
        if qual == "reconstruct_K":
            return None, lambda K: self._wrap_field(K, "reciprocity.K", "reciprocity")
        if qual == "reconstruct_potential":
            return None, lambda pot: dataclasses.replace(
                pot, V=self._wrap_field(pot.V, "reciprocity.V", "reciprocity"))
        return None, None

    def _wrap_field(self, fld, prefix: str, layer: str):
        from recipkit.core import ScalarField

        def wrap(fn, what):
            return None if fn is None else self.wrap(fn, f"{prefix}.{what}", layer)

        return ScalarField(fld.dim, wrap(fld.value, "value"), fld.domain,
                           gradient=wrap(fld.gradient, "grad"),
                           hessian=wrap(fld.hessian, "hess"))

    def _wrap_pair(self, pair):
        """Route later uses of a pair's inverse and K* through legendre spans."""
        return dataclasses.replace(
            pair, Kstar=self._wrap_field(pair.Kstar, "legendre.Kstar", "legendre"),
            forward=self.wrap(pair.forward, "legendre.forward", "legendre"),
            inverse=self.wrap(pair.inverse, "legendre.inverse", "legendre"))

    def install(self):
        """Wrap recipkit in place; every module namespace sees the wrappers."""
        import recipkit

        mods = {m: importlib.import_module(f"recipkit.{m}") for m in MODULES}
        from recipkit.core import MetricField, ScalarField

        ScalarField.__call__ = self._counted(ScalarField.__call__, "value")
        ScalarField.grad = self._counted(ScalarField.grad, "grad")
        ScalarField.hess = self._counted(ScalarField.hess, "hess")
        MetricField.__call__ = self._counted(MetricField.__call__, "metric")

        replaced = {}
        for layer, mod in mods.items():
            skip = SKIP.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and name not in skip:
                    on_args, on_return = self._hooks(layer, name)
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{name}", layer,
                                                  on_return, on_args)
                elif inspect.isclass(obj) and f"{name}.*" not in skip:
                    self._wrap_methods(obj, layer, skip)
        for mod in [recipkit, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in obj.items():
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]

    def _wrap_methods(self, cls, layer: str, skip: set):
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if name.startswith("_") or qual in skip:
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(attr.__func__, f"{layer}.{qual}", layer)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, f"{layer}.{qual}", layer))

    # -- aggregation -------------------------------------------------------

    def mark(self) -> tuple:
        return len(self.spans), Counter(self.counts)

    def aggregate(self, since: tuple) -> dict:
        """Layer times and counts recorded after ``since`` (from ``mark``)."""
        first, counts0 = since
        return aggregate(self.spans[first:], first, self.counts - counts0)

    def write_child(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge_child(self, path: str):
        """Append a child process's spans under the open span, add its counts.

        perf_counter_ns reads the system-wide monotonic clock, so the child's
        timestamps share the parent's time line.
        """
        with open(path) as fh:
            child = json.load(fh)
        os.unlink(path)
        base = len(self.spans)
        here = self.stack[-1] if self.stack else -1
        for rec in child["spans"]:
            rec[4] = rec[4] + base if rec[4] >= 0 else here
            self.spans.append(rec)
        self.counts.update(child["counts"])

    def dump(self, path: str):
        with gzip.open(path, "wt") as fh:
            fh.write('["name", "layer", "start_ns", "end_ns", "parent", "verdict"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def aggregate(rows: list, offset: int, counts: Counter) -> dict:
    """Self time per layer and per span name; inclusive time per layer.

    ``rows`` are spans whose index in the full list is ``offset + i``.
    Spans nest properly (one thread), so a span's self time is its duration
    minus the durations of its direct children.
    """
    child = [0] * len(rows)
    for rec in rows:
        p = rec[4] - offset
        if 0 <= p < len(rows):
            child[p] += rec[3] - rec[2]
    out = Counter()
    for i, rec in enumerate(rows):
        name, layer, start, end, parent = rec[:5]
        self_ns = (end - start) - child[i]
        out[f"{layer}.self_s"] += self_ns * 1e-9
        if name == "core.integrate_segment":
            out["core.integrate_segment.self_s"] += self_ns * 1e-9
        elif name == "core.BoxDomain.sample":
            out["core.sample.self_s"] += self_ns * 1e-9
        elif name.startswith("cli.cmd_"):
            out["cli.handler_s"] += (end - start) * 1e-9
        elif name == "import.recipkit":
            out["cli.import_s"] += (end - start) * 1e-9
        for metric, lay in INCLUSIVE.items():
            if layer == lay and not _has_ancestor(rows, offset, parent, lay):
                out[metric] += (end - start) * 1e-9
    for key, val in counts.items():
        out[key] += val
    return dict(out)


def _has_ancestor(rows: list, offset: int, parent: int, layer: str) -> bool:
    while 0 <= parent - offset < len(rows):
        rec = rows[parent - offset]
        if rec[1] == layer:
            return True
        parent = rec[4]
    return False
