"""Outside-in span tracer for the kleinwiman layers.

The tracer wraps public engine functions from outside the package: each
listed function is replaced, in every ``kleinwiman.*`` module namespace that
binds it (``from x import f`` makes a second binding), by a wrapper that
times the call.  Bindings are found by identity, so no call path keeps the
unwrapped function.  Methods are patched on their class.

A span stack gives self time: a span's duration minus the time covered by
the spans it caused.  Coarse spans are kept in memory as
``(id, parent, name, start, end)`` and written out when the run ends; the
per-call field operations (``AGGREGATE_ONLY``) are only summed, since a
traced run makes millions of them.
"""

import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name): layer boundaries, L0 to L4.
FUNCTIONS = [
    # L1: polynomials
    ("kleinwiman.poly", "local_expand", "poly.local_expand"),
    ("kleinwiman.poly", "hessian_det", "poly.det"),
    ("kleinwiman.poly", "bordered_hessian_det", "poly.det"),
    ("kleinwiman.poly", "jacobian_det", "poly.det"),
    ("kleinwiman.groups", "act_on_poly", "groups.act_on_poly"),
    # L2: linear algebra
    ("kleinwiman.kernels", "rref_mod", "kernels.rref_mod"),
    ("kleinwiman.kernels", "trunc_mul_mod", "kernels.trunc_mul_mod"),
    ("kleinwiman.kernels", "kernel_mod", "kernels.kernel_mod"),
    ("kleinwiman.linalg", "rref_field", "linalg.rref_field"),
    ("kleinwiman.linalg", "kernel_field", "linalg.kernel_field"),
    ("kleinwiman.linalg", "kernel_certified", "linalg.kernel_certified"),
    # L3: engine tasks
    ("kleinwiman.groups", "generate_group", "groups.generate_group"),
    ("kleinwiman.groups", "reynolds", "groups.reynolds"),
    ("kleinwiman.configs", "classify_points", "configs.classify_points"),
    ("kleinwiman.series", "series_basis", "series.series_basis"),
    ("kleinwiman.fatideals", "symbolic_piece", "fatideals.symbolic_piece"),
    ("kleinwiman.fatideals", "point_conditions_matrix",
     "fatideals.point_conditions_matrix"),
    ("kleinwiman.fatideals", "minimal_generators", "fatideals.minimal_generators"),
    # L4: CLI
    ("kleinwiman.cli", "dispatch", "cli.dispatch"),
    ("kleinwiman.cli", "jsonable", "cli.jsonable"),
]

# (module, class, method, span name): L0 field arithmetic.
METHODS = [
    ("kleinwiman.fields", "SimpleExtension", "mul", "fields.ext_mul"),
    ("kleinwiman.fields", "SimpleExtension", "inv", "fields.ext_inv"),
    ("kleinwiman.fields", "RationalField", "add", "fields.rational_ops"),
    ("kleinwiman.fields", "RationalField", "sub", "fields.rational_ops"),
    ("kleinwiman.fields", "RationalField", "mul", "fields.rational_ops"),
    ("kleinwiman.fields", "RationalField", "inv", "fields.rational_ops"),
]

AGGREGATE_ONLY = {"fields.ext_mul", "fields.ext_inv", "fields.rational_ops"}


def _cells(matrix):
    shape = getattr(matrix, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    rows = len(matrix)
    return rows * len(matrix[0]) if rows else 0


def _count_cells(tracer, stat, args):
    stat.cells += _cells(args[0])


def _count_fallback(tracer, stat, args):
    """kernel_certified fell back: it called kernel_field over the extension
    field on a non-empty matrix."""
    rows, _, field = args
    if rows and tracer.open_span() == "linalg.kernel_certified" \
            and getattr(field, "kind", None) == "extension":
        tracer.stat("linalg.kernel_certified").fallbacks += 1


BEFORE = {
    "kernels.rref_mod": _count_cells,
    "linalg.rref_field": _count_cells,
    "linalg.kernel_field": _count_fallback,
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "cells", "fallbacks")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.cells = 0
        self.fallbacks = 0


class Tracer:
    """Span stack, per-name totals and the recorded spans of one process."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self._stack = []      # [span id, name, seconds covered by children]
        self._next_id = 0

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def open_span(self):
        return self._stack[-1][1] if self._stack else None

    def span(self, name, fn):
        """Return fn wrapped in a span called `name`."""
        st = self.stat(name)
        stack = self._stack
        spans = self.spans if name not in AGGREGATE_ONLY else None
        before = BEFORE.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, st, args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if spans is not None:
                    spans.append((sid, parent, name, t0, t0 + dur))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every listed function and method in place."""
        for modname, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            self._patch_everywhere(orig, self.span(name, orig))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            setattr(cls, meth, self.span(name, cls.__dict__[meth]))

    def _patch_everywhere(self, orig, wrapper):
        bound = [(mod, attr) for modname, mod in list(sys.modules.items())
                 if modname.startswith("kleinwiman.") and mod is not None
                 for attr, val in vars(mod).items() if val is orig]
        if not bound:
            raise RuntimeError(f"no kleinwiman module binds {orig!r}")
        for mod, attr in bound:
            setattr(mod, attr, wrapper)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
