"""In-memory span tracer wrapped around kustab's public functions.

``Tracer.install`` replaces each public function of the kustab modules,
and the public methods of ``QuadNumber`` and ``RatMatrix``, with a wrapper
that records a span (id, name, start, end, parent id, operation id).  The
wrapper is rebound in every kustab module that imported the function by
name, so calls between modules are traced too.  A layer's self time is
its spans' duration minus the time covered by their child spans.

``QuadNumber`` methods run hundreds of thousands of times per pass: they
are counted and timed like the others, but not kept as spans.  The scalar
coercions ``exact.rat`` and ``exact.is_square`` and the ``ChernVector``
value type are not wrapped; their time counts in the caller's layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("exact", "variety", "semiorth", "tilt", "walls", "config",
           "report", "svg", "cli")
UNWRAPPED = {"rat", "is_square", "main"}
QUAD_METHODS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                "__neg__", "__mul__", "__rmul__", "__truediv__", "sign",
                "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "floor",
                "rational_value")
QUAD_ORDER = {"QuadNumber.sign", "QuadNumber.__eq__", "QuadNumber.__lt__",
              "QuadNumber.__le__", "QuadNumber.__gt__", "QuadNumber.__ge__",
              "exact.quad_compare"}
MATRIX_METHODS = ("from_rows", "identity", "transpose", "__matmul__", "apply",
                  "rref", "rank", "inverse", "solve")
LATTICE_CALLS = {"RatMatrix.rref", "RatMatrix.inverse", "RatMatrix.solve",
                 "exact.int_kernel", "exact.hnf_rows"}


def _layer(module: str, name: str) -> str:
    if module == "exact":
        return "exact.quad" if name in ("quad_compare", "QuadNumber") else "exact.lattice"
    if module == "cli" and name in ("build_parser", "_Parser"):
        return "cli.parse"
    return module


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.layer_calls: Counter[str] = Counter()
        self.boundary_calls: Counter[str] = Counter()  # calls from another layer
        self.witnesses = 0
        self.circles = 0
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"kustab.{m}") for m in MODULES}
        package = importlib.import_module("kustab")
        replaced = {}
        for m, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    replaced[fn] = self._wrap(f"{m}.{name}", _layer(m, name), fn,
                                              keep=True)
        for cls, methods, module, keep in (
                (mods["exact"].QuadNumber, QUAD_METHODS, "exact", False),
                (mods["exact"].RatMatrix, MATRIX_METHODS, "exact", True),
                (mods["variety"].VarietyDesc, ("check_class",), "variety", True),
                (mods["tilt"].AlphaInterval, ("contains", "text"), "tilt", True),
                (mods["cli"]._Parser, ("parse_args",), "cli", True)):
            for name in methods:
                self._patch_method(cls, name, _layer(module, cls.__name__), keep)
        for mod in (package, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    setattr(mod, attr, replaced[val])
                    self._undo.append((mod, attr, val))

    def _patch_method(self, cls, name, layer, keep) -> None:
        own = cls.__dict__.get(name)
        if isinstance(own, classmethod):
            wrapped = classmethod(self._wrap(f"{cls.__name__}.{name}", layer,
                                             own.__func__, keep))
        else:
            wrapped = self._wrap(f"{cls.__name__}.{name}", layer,
                                 getattr(cls, name), keep)
        setattr(cls, name, wrapped)
        self._undo.append((cls, name, own))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            if val is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, val)
        self._undo.clear()

    def _wrap(self, name, layer, fn, keep):
        stack, perf = self._stack, time.perf_counter
        self_time, inclusive = self.self_time, self.inclusive
        calls, layer_calls, boundary = self.calls, self.layer_calls, self.boundary_calls
        spans = self.spans
        is_scan = name == "walls.wall_scan"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[2] != layer:
                boundary[name] += 1
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = None
            frame = [0.0, span_id, layer]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_time[layer] += dur - frame[0]
                inclusive[name] += dur
                calls[name] += 1
                layer_calls[layer] += 1
                if parent is not None:
                    parent[0] += dur
                if keep:
                    spans.append((span_id, name, start, end,
                                  parent[1] if parent else None, self.op))
            if is_scan:
                self.circles += len(result)
                self.witnesses += sum(len(w.witnesses) for w in result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------------

    def metrics(self, ops: int, overhead: float, import_ms: float) -> dict:
        """Per-operation averages of the per-layer metrics."""
        ms = {layer: t * 1000 / ops for layer, t in self.self_time.items()}
        pairing = self.calls["variety.euler_pairing"]
        scans = self.calls["walls.wall_circle"]
        return {
            "exact.quad.self_ms": (ms.get("exact.quad", 0.0), "ms"),
            "exact.quad.new": (self.calls["QuadNumber.__init__"] / ops, "count"),
            "exact.quad.cmp": (sum(self.boundary_calls[n] for n in QUAD_ORDER) / ops,
                               "count"),
            "exact.quad.floor": (self.calls["QuadNumber.floor"] / ops, "count"),
            "walls.self_ms": (ms.get("walls", 0.0), "ms"),
            "walls.wall_circle.calls": (scans / ops, "count"),
            "walls.witnesses": (self.witnesses / ops, "count"),
            "walls.circles": (self.circles / ops, "count"),
            "walls.yield": (self.witnesses / scans if scans else 0.0, "ratio"),
            "variety.self_ms": (ms.get("variety", 0.0), "ms"),
            "variety.euler_pairing.calls": (pairing / ops, "count"),
            "variety.euler_pairing.us": (
                self.inclusive["variety.euler_pairing"] * 1e6 / pairing
                if pairing else 0.0, "us"),
            "exact.lattice.self_ms": (ms.get("exact.lattice", 0.0), "ms"),
            "exact.lattice.calls": (sum(self.calls[n] for n in LATTICE_CALLS) / ops,
                                    "count"),
            "semiorth.self_ms": (ms.get("semiorth", 0.0), "ms"),
            "semiorth.calls": (self.layer_calls["semiorth"] / ops, "count"),
            "tilt.self_ms": (ms.get("tilt", 0.0), "ms"),
            "tilt.calls": (self.layer_calls["tilt"] / ops, "count"),
            "cli.import_ms": (import_ms, "ms"),
            "cli.parse_ms": (ms.get("cli.parse", 0.0), "ms"),
            "config.load_ms": (ms.get("config", 0.0), "ms"),
            "report.render_ms": (ms.get("report", 0.0), "ms"),
            "svg.render_ms": (ms.get("svg", 0.0), "ms"),
            "cli.self_ms": (ms.get("cli", 0.0), "ms"),
            "trace.overhead": (overhead, "ratio"),
        }

    def counts(self) -> dict:
        """Every count the trace makes; two traced runs must agree on them."""
        return {"calls": dict(self.calls), "boundary": dict(self.boundary_calls),
                "witnesses": self.witnesses, "circles": self.circles,
                "spans": len(self.spans)}

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of totals per layer."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"self_s": self.self_time, "calls": self.calls}) + "\n")
