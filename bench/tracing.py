"""The traced run's instrumentation, applied from outside the library.

``Tracer.install`` wraps every public function of each layer module (and a
few class methods) and rebinds the wrappers wherever tropmat binds the
originals: in the defining module, in every consumer module that imported
the name, and in the ``tropmat`` package namespace.  ``uninstall`` puts the
originals back.

A span wrapper records (name, start, end, parent, op) and keeps a running
self time per layer: a span's duration minus the time its child spans
cover.  Hot scalar-level calls (scalar and point constructions, and the
residual of two scalars) are only counted, never spanned, so the callers'
self times stay meaningful.
"""

from __future__ import annotations

import functools
import json
import types
from collections import Counter
from time import perf_counter_ns

LAYERS = ("semiring", "matrix", "geometry", "green", "structure", "ideals", "sampling", "verify", "cli")

# Class methods that carry a layer's work but are not module-level functions.
SPANNED_METHODS = {
    "matrix": {"TropMatrix": ("__matmul__", "__add__", "transpose"), "ResidualMatrix": ("witness", "transpose")},
}
COUNTED_METHODS = {
    "semiring": {"TropScalar": ("__init__",), "ProjPoint": ("__init__",), "ExtDistance": ("__init__",)},
}
COUNTED_FUNCTIONS = {"matrix": ("residual_scalar",)}


class Tracer:
    def __init__(self, tm, record_ops: int):
        self.tm = tm
        self.record_ops = record_ops  # spans and counts cover ops [0, record_ops)
        self.self_ns = Counter()  # layer -> self time over every traced op
        self.calls = Counter()  # qualified name -> calls during counted ops
        self.errors = Counter()  # layer -> exceptions that left the layer
        self.proj_inputs = set()  # distinct proj_column_space inputs in counted ops
        self.spans = []
        self.op = -1
        self.counting = False
        self._stack = []
        self._patches = []

    def begin_op(self, i: int):
        self.op = i
        self.counting = i < self.record_ops

    def end_ops(self):
        self.op = -1
        self.counting = False

    def _error(self, layer, exc):
        # Count an exception once, at the innermost layer it leaves.
        if not getattr(exc, "_bench_counted", False):
            self.errors[layer] += 1
            try:
                exc._bench_counted = True
            except AttributeError:
                pass

    def _spanned(self, layer, name, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        is_proj = name == "geometry.proj_column_space"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.counting:
                calls[name] += 1
                if is_proj:
                    tracer.proj_inputs.add(args[0])
                idx = len(spans)
                spans.append([name, 0, 0, stack[-1][1] if stack else -1, tracer.op])
            else:
                idx = -1
            frame = [0, idx]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(layer, exc)
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if tracer.op >= 0:
                    self_ns[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    spans[idx][1] = t0
                    spans[idx][2] = t1

        return wrapper

    def _counted(self, layer, name, fn):
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.counting:
                calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(layer, exc)
                raise

        return wrapper

    def install(self):
        tm = self.tm
        modules = [getattr(tm, layer) for layer in LAYERS]
        rebinds = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            counted = COUNTED_FUNCTIONS.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__ or id(obj) in rebinds:
                    continue
                name = f"{layer}.{attr}"
                if attr in counted or layer == "semiring":
                    rebinds[id(obj)] = (obj, self._counted(layer, name, obj))
                else:
                    rebinds[id(obj)] = (obj, self._spanned(layer, name, obj))
        for namespace in [tm, *modules]:
            for attr, obj in list(vars(namespace).items()):
                hit = rebinds.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        for table, make in ((SPANNED_METHODS, self._spanned), (COUNTED_METHODS, self._counted)):
            for layer, classes in table.items():
                mod = getattr(tm, layer)
                for cls_name, methods in classes.items():
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        fn = cls.__dict__[meth]
                        self._patch(cls, meth, make(layer, f"{layer}.{cls_name}.{meth}", fn))

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}) + "\n")
