"""Per-layer span tracer for the benchmark.

A span is one call into a public rfspectral function.  The tracer replaces
the function at *every* binding that refers to it: the defining module, the
package namespace and each module that imported it under its own name (for
example `evolve.matrix_apply` and `operators.matrix_apply` both point at
`opmatrix.apply`).  Patching only the defining module would miss those
calls.  Spans are aggregated in memory per name:

- calls, busy time (inclusive) and self time (busy minus the time covered by
  nested spans);
- minor page faults and system CPU time, as `getrusage(RUSAGE_SELF)` deltas
  over the span (inclusive of nested spans), only for the spans in
  RUSAGE_SPANS: the two getrusage calls fall outside the span's own clock
  but inside its caller's, so on hot leaf spans they would inflate the
  caller's self time;
- optional counters from a meter, e.g. computed bytes of a matvec.

The benchmark runs single-threaded, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from contextlib import contextmanager

from rfspectral.closedform import OperatorKind


def _matvec_meter(matrix, coeffs):
    # One complex128 N x N matvec reads 16 N^2 bytes of matrix and does
    # 8 N^2 real flops.  Computed from the sizes, not measured.
    n2 = matrix.n * matrix.n
    return lambda result: {"bytes_computed": 16 * n2, "flops_computed": 8 * n2}


def _scale_meter(base, kind, *args, **kwargs):
    # The division reads and writes N^2 complex entries; every kind except
    # the fractional Laplacian makes a second in-place pass for the phases.
    passes = 1 if kind is OperatorKind.FRAC_LAPLACIAN else 2
    return lambda result: {"bytes_computed": passes * 32 * base.n * base.n}


def _stream_meter(position):
    # Bytes actually moved through the stream argument at `position`.
    def meter(*args, **kwargs):
        stream = args[position]
        start = stream.tell()
        return lambda result: {"bytes": stream.tell() - start}

    return meter


# Span name -> (module under rfspectral, attribute path, meter or None).
SPANS = {
    "specfun.kummer_1f1": ("specfun", "kummer_1f1", None),
    "specfun.ratio_table": ("specfun", "ratio_table", None),
    "basis.analyze": ("basis", "analyze", None),
    "basis.synthesize": ("basis", "synthesize", None),
    "closedform.reference_operator": ("closedform", "reference_operator", None),
    "opmatrix.build_base_matrix": ("opmatrix", "build_base_matrix", None),
    "opmatrix.scale_to_operator": ("opmatrix", "scale_to_operator", _scale_meter),
    "opmatrix.apply": ("opmatrix", "apply", _matvec_meter),
    "opmatrix.serialize": ("opmatrix", "serialize", _stream_meter(1)),
    "opmatrix.deserialize": ("opmatrix", "deserialize", _stream_meter(0)),
    "operators.apply_with_aux": ("operators", "apply_with_aux", None),
    "evolve.rhs": ("evolve", "FisherSystem.rhs", None),
    "evolve.rk4_step": ("evolve", "rk4_step", None),
    "evolve.front_position": ("evolve", "front_position", None),
}


# Spans whose minflt and sys_ms are reported; the others skip getrusage.
RUSAGE_SPANS = {"opmatrix.build_base_matrix", "opmatrix.scale_to_operator"}


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s", "minflt", "sys_s", "counters")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.minflt = 0
        self.sys_s = 0.0
        self.counters = {}


def resolve(module: str, path: str):
    """(owner, attribute name) of a dotted attribute path in a module."""
    owner = importlib.import_module(f"rfspectral.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def bindings(owner, attr):
    """Every (namespace, name) pair in the rfspectral package that refers to
    the object at owner.attr, the defining one included."""
    target = getattr(owner, attr)
    found = [(owner, attr)]
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "rfspectral" and not mod_name.startswith("rfspectral."):
            continue
        for name, value in list(vars(module).items()):
            if value is target and (module, name) != (owner, attr):
                found.append((module, name))
    return found


class Tracer:
    """Patches the SPANS functions while installed and aggregates spans."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self.active = True
        self._open = []  # time covered by children, one entry per open span
        self._patches = []

    def _wrap(self, name, fn, meter):
        stats = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter
        rusage = resource.getrusage
        who = resource.RUSAGE_SELF
        with_rusage = name in RUSAGE_SPANS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            finish = meter(*args, **kwargs) if meter is not None else None
            r0 = rusage(who) if with_rusage else None
            t0 = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - children
                if with_rusage:
                    r1 = rusage(who)
                    stats.minflt += r1.ru_minflt - r0.ru_minflt
                    stats.sys_s += r1.ru_stime - r0.ru_stime
            if finish is not None:
                for key, amount in finish(result).items():
                    stats.counters[key] = stats.counters.get(key, 0) + amount
            return result

        return span

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, (module, path, meter) in SPANS.items():
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, meter)
            for namespace, binding in bindings(owner, attr):
                self._patches.append((namespace, binding, original))
                setattr(namespace, binding, wrapper)

    def uninstall(self):
        while self._patches:
            namespace, binding, original = self._patches.pop()
            setattr(namespace, binding, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Calls made inside run untraced, e.g. a benchmark's own checks."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous


def wrapper_cost_ns(calls: int = 20000) -> dict:
    """Time a span adds to one call, without and with getrusage, as the best
    of five loops over a function that does nothing.  Part of it falls
    outside the span's own clock and inside its caller's self time."""

    def leaf(x):
        return x

    def per_call(fn):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(1.0)
            best = min(best, time.perf_counter() - t0)
        return best / calls * 1e9

    tracer = Tracer()
    plain = per_call(leaf)
    return {
        "lean": per_call(tracer._wrap("specfun.kummer_1f1", leaf, None)) - plain,
        "getrusage": per_call(tracer._wrap("opmatrix.build_base_matrix", leaf, None)) - plain,
    }


# Per-layer metrics reported from a traced run: (span, field, unit).
PER_LAYER = [
    ("opmatrix.apply", "calls", "count"),
    ("opmatrix.apply", "busy_ms", "ms"),
    ("opmatrix.apply", "bytes_computed", "B"),
    ("opmatrix.apply", "flops_computed", "flop"),
    ("opmatrix.build_base_matrix", "calls", "count"),
    ("opmatrix.build_base_matrix", "busy_ms", "ms"),
    ("opmatrix.build_base_matrix", "minflt", "count"),
    ("opmatrix.build_base_matrix", "sys_ms", "ms"),
    ("opmatrix.scale_to_operator", "calls", "count"),
    ("opmatrix.scale_to_operator", "busy_ms", "ms"),
    ("opmatrix.scale_to_operator", "bytes_computed", "B"),
    ("opmatrix.scale_to_operator", "minflt", "count"),
    ("opmatrix.serialize", "calls", "count"),
    ("opmatrix.serialize", "busy_ms", "ms"),
    ("opmatrix.serialize", "bytes", "B"),
    ("opmatrix.deserialize", "calls", "count"),
    ("opmatrix.deserialize", "busy_ms", "ms"),
    ("opmatrix.deserialize", "bytes", "B"),
    ("closedform.reference_operator", "calls", "count"),
    ("closedform.reference_operator", "busy_ms", "ms"),
    ("closedform.reference_operator", "self_ms", "ms"),
    ("specfun.kummer_1f1", "calls", "count"),
    ("specfun.kummer_1f1", "busy_ms", "ms"),
    ("specfun.ratio_table", "calls", "count"),
    ("specfun.ratio_table", "busy_ms", "ms"),
    ("basis.analyze", "calls", "count"),
    ("basis.analyze", "busy_ms", "ms"),
    ("basis.synthesize", "calls", "count"),
    ("basis.synthesize", "busy_ms", "ms"),
    ("evolve.front_position", "calls", "count"),
    ("evolve.front_position", "busy_ms", "ms"),
    ("evolve.front_position", "self_ms", "ms"),
    ("evolve.rhs", "calls", "count"),
    ("evolve.rhs", "busy_ms", "ms"),
    ("evolve.rhs", "self_ms", "ms"),
    ("evolve.rk4_step", "calls", "count"),
    ("evolve.rk4_step", "busy_ms", "ms"),
    ("evolve.rk4_step", "self_ms", "ms"),
    ("operators.apply_with_aux", "calls", "count"),
    ("operators.apply_with_aux", "busy_ms", "ms"),
    ("operators.apply_with_aux", "self_ms", "ms"),
]


def per_layer_metrics(tracer: Tracer) -> dict:
    """The PER_LAYER metrics as {name: {"value", "unit"}}."""
    out = {}
    for span, field, unit in PER_LAYER:
        stats = tracer.stats[span]
        if field == "calls":
            value = stats.calls
        elif field == "busy_ms":
            value = stats.busy_s * 1e3
        elif field == "self_ms":
            value = stats.self_s * 1e3
        elif field == "sys_ms":
            value = stats.sys_s * 1e3
        elif field == "minflt":
            value = stats.minflt
        else:
            value = stats.counters.get(field, 0)
        out[f"{span}.{field}"] = {"value": value, "unit": unit}
    return out
