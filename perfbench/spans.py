"""Span tracer for the benchmark's traced run.

The tracer wraps each triholo module's public functions at their module
attributes, and at every other module attribute that re-binds the same
function through `from .x import y` (for example `solver.holonomy_generators`
or `io.build_surface`).  Calls made inside the library resolve those
attributes at call time, so nested calls are traced as well.  Each call
becomes one span, kept in memory: (job, function, parent span, start, duration,
self time, exception leaving the layer, count).  A span's self time is its
duration minus the time its child spans cover, wrapper bookkeeping included.

Nothing under `src/` changes; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# Called once per matrix entry or lattice point: a span each would cost more
# than the work it times, so their time stays in the caller's self time.
PER_ENTRY = {"ratmat": {"frac"},
             "lattice": {"green", "covariant_value", "triangle_vertices"}}
# Private helpers that carry a layer the metrics name.
PRIVATE_LAYERS = {"cli": {"_emit"}}


def _rref_counts(args, kwargs, result):
    """(rows x cols of the input, largest numerator/denominator bit length
    in the reduced matrix)."""
    a = args[0] if args else kwargs["a"]
    cells = len(a) * (len(a[0]) if a else 0)
    bits = 0
    for row in result[0]:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > bits:
                bits = b
    return (cells, bits)


def _stencil_points(args, kwargs, result):
    return len(result.values)


def _probes(args, kwargs, result):
    """Delta probes equal_on_window makes: interior points x shifts.  The
    function stops at the first mismatch, so for a False result this is the
    planned count, an upper bound."""
    a, b = args[:2]
    window = args[2] if len(args) > 2 else kwargs["window"]
    la, ra, ba, ta = a.margins()
    lb, rb, bb, tb = b.margins()
    nx = window.x1 - window.x0 + 1 - max(la, lb) - max(ra, rb)
    ny = window.y1 - window.y0 + 1 - max(ba, bb) - max(ta, tb)
    return max(nx, 0) * max(ny, 0) * len(set(a.shifts) | set(b.shifts))


def _text_bytes(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


COUNTERS = {
    "ratmat.rref": _rref_counts,
    "lattice.apply_Q": _stencil_points,
    "lattice.apply_Qplus": _stencil_points,
    "opalgebra.equal_on_window": _probes,
}


def _counter(layer: str, name: str):
    if layer == "io" and name.startswith("parse_"):
        return _text_bytes
    return COUNTERS.get(f"{layer}.{name}")


class Tracer:
    """Records one span per call into the wrapped triholo functions while
    `active` is true; `job` tags the spans of the job being run."""

    def __init__(self, modules: dict):
        self.modules = modules          # layer name -> module
        self.names: list[str] = []      # function id -> "layer.function"
        self.layers: list[str] = []     # function id -> layer name
        self.spans: list = []
        self.active = False
        self.job = -1
        self._stack: list = []          # [function id, span index, child ns]
        self._patched: list = []        # (module, attribute, original)

    def install(self) -> None:
        wrapped = {}                    # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for name, fn in sorted(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE_LAYERS.get(layer, ()):
                    continue
                if name in PER_ENTRY.get(layer, ()):
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                self.layers.append(layer)
                wrapped[id(fn)] = self._wrap(fid, fn, _counter(layer, name))
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                w = wrapped.get(id(value))
                if w is not None and inspect.isfunction(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fid: int, fn, count):
        tracer = self
        stack = self._stack
        spans = self.spans
        layers = self.layers
        layer = layers[fid]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [fid, index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                leaves = parent is None or layers[parent[0]] != layer
                spans[index] = (tracer.job, fid, parent[1] if parent else -1, start,
                                end - start, end - start - frame[2], leaves, 0)
                if parent is not None:
                    parent[2] += clock() - start
                raise
            end = clock()
            stack.pop()
            n = count(args, kwargs, result) if count is not None else 0
            spans[index] = (tracer.job, fid, parent[1] if parent else -1, start,
                            end - start, end - start - frame[2], False, n)
            if parent is not None:
                parent[2] += clock() - start
            return result

        return traced

    def write(self, path) -> None:
        """One JSON line per span: job, function, parent, start_ns, dur_ns,
        self_ns, error, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for job, fid, parent, start, dur, self_ns, err, n in self.spans:
                fh.write(json.dumps([job, self.names[fid], parent, start, dur,
                                     self_ns, int(err), n]) + "\n")

    def metrics(self, scales: list) -> dict:
        """Per-layer sums over the recorded spans; see LAYER_METRICS.  Self
        times are multiplied by scales[job], the host-speed factor of the
        job the span belongs to."""
        self_ns: dict = {}
        calls: dict = {}
        counts: dict = {}
        errors = {layer: 0 for layer in self.modules}
        for job, fid, _, _, _, own, err, n in self.spans:
            name = self.names[fid]
            self_ns[name] = self_ns.get(name, 0) + own * scales[job]
            calls[name] = calls.get(name, 0) + 1
            if n:
                counts.setdefault(name, []).append(n)
            if err:
                errors[self.layers[fid]] += 1

        def secs(pred) -> float:
            return sum(v for k, v in self_ns.items() if pred(k)) / 1e9

        def ncalls(pred) -> int:
            return sum(v for k, v in calls.items() if pred(k))

        def layer(prefix):
            return lambda k: k.startswith(prefix + ".")

        def named(*names):
            return lambda k: k in names

        rref = counts.get("ratmat.rref", [])
        out = {
            "ratmat.elim_s": secs(named("ratmat.rref")),
            "ratmat.elim_calls": ncalls(named("ratmat.rref")),
            "ratmat.elim_cells": sum(c for c, _ in rref),
            "ratmat.max_bits": max((b for _, b in rref), default=0),
            "ratmat.self_s": secs(layer("ratmat")),
            "solver.self_s": secs(layer("solver")),
            "solver.calls": ncalls(layer("solver")),
            "simplicial.self_s": secs(layer("simplicial")),
            "simplicial.calls": ncalls(layer("simplicial")),
            "connection.holonomy_s": secs(layer("connection")),
            "connection.calls": ncalls(layer("connection")),
            "mesh.build_s": secs(named("mesh.build_surface")),
            "mesh.coloring_s": secs(named("mesh.bw_face_coloring",
                                          "mesh.three_vertex_coloring")),
            "mesh.self_s": secs(layer("mesh")),
            "lattice.basis_s": secs(named(*BASIS_FUNCTIONS)),
            "lattice.stencil_s": secs(named(*STENCIL_FUNCTIONS)),
            "lattice.stencil_points": sum(counts.get("lattice.apply_Q", []))
            + sum(counts.get("lattice.apply_Qplus", [])),
            "lattice.extend_s": secs(named(*EXTEND_FUNCTIONS)),
            "lattice.cauchy_s": secs(named(*CAUCHY_FUNCTIONS)),
            "lattice.self_s": secs(layer("lattice")),
            "opalgebra.equal_s": secs(named("opalgebra.equal_on_window")),
            "opalgebra.probes": sum(counts.get("opalgebra.equal_on_window", [])),
            "opalgebra.factorize_s": secs(named("opalgebra.factorize")),
            "opalgebra.self_s": secs(layer("opalgebra")),
            "io.parse_s": secs(lambda k: k.startswith("io.parse_")),
            "io.bytes_in": sum(sum(v) for k, v in counts.items()
                               if k.startswith("io.parse_")),
            "cli.cmd_s": secs(lambda k: layer("cli")(k) and k != "cli._emit"),
            "cli.emit_s": secs(named("cli._emit")),
            "svgplot.self_s": secs(layer("svgplot")),
            "trace.self_s": secs(lambda k: True),
            "trace.spans": len(self.spans),
        }
        for name, n in errors.items():
            out[f"{name}.errors"] = n
        return out


# Polynomial-space construction: side polynomials and the affine solves and
# covariant corrections they are built from.
BASIS_FUNCTIONS = (
    "lattice.poly_space_basis", "lattice.side_polynomial", "lattice.solve_q_affine",
    "lattice.holomorphic_antiderivative", "lattice.pin_covariant",
    "lattice.covariant_constant", "lattice.interpolate_polynomial",
    "lattice.prescribed_values",
)
STENCIL_FUNCTIONS = ("lattice.apply_Q", "lattice.apply_Qplus", "lattice.q_power",
                     "lattice.is_holomorphic")
EXTEND_FUNCTIONS = ("lattice.extend_holomorphic", "lattice.random_holomorphic",
                    "lattice.required_trefoil", "lattice.trefoil_points")
CAUCHY_FUNCTIONS = ("lattice.cauchy_reconstruct", "lattice.build_green",
                    "lattice.convolution_vanishing")

# name -> (unit, better) for every metric `Tracer.metrics` returns, plus the
# three the runner adds: cli.bytes_out, trace.job_s and trace.overhead_frac.
LAYER_METRICS = {
    "ratmat.elim_s": ("s", "lower"),
    "ratmat.elim_calls": ("count", "lower"),
    "ratmat.elim_cells": ("count", "lower"),
    "ratmat.max_bits": ("bit", "lower"),
    "ratmat.self_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.calls": ("count", "lower"),
    "simplicial.self_s": ("s", "lower"),
    "simplicial.calls": ("count", "lower"),
    "connection.holonomy_s": ("s", "lower"),
    "connection.calls": ("count", "lower"),
    "mesh.build_s": ("s", "lower"),
    "mesh.coloring_s": ("s", "lower"),
    "mesh.self_s": ("s", "lower"),
    "lattice.basis_s": ("s", "lower"),
    "lattice.stencil_s": ("s", "lower"),
    "lattice.stencil_points": ("count", "lower"),
    "lattice.extend_s": ("s", "lower"),
    "lattice.cauchy_s": ("s", "lower"),
    "lattice.self_s": ("s", "lower"),
    "opalgebra.equal_s": ("s", "lower"),
    "opalgebra.probes": ("count", "lower"),
    "opalgebra.factorize_s": ("s", "lower"),
    "opalgebra.self_s": ("s", "lower"),
    "io.parse_s": ("s", "lower"),
    "io.bytes_in": ("B", "lower"),
    "cli.cmd_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "svgplot.self_s": ("s", "lower"),
    "ratmat.errors": ("count", "lower"),
    "mesh.errors": ("count", "lower"),
    "connection.errors": ("count", "lower"),
    "solver.errors": ("count", "lower"),
    "lattice.errors": ("count", "lower"),
    "opalgebra.errors": ("count", "lower"),
    "simplicial.errors": ("count", "lower"),
    "io.errors": ("count", "lower"),
    "cli.errors": ("count", "lower"),
    "svgplot.errors": ("count", "lower"),
    "trace.self_s": ("s", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
