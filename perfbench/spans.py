"""Spans recorded around psikern's public functions, from outside the library.

A Tracer replaces each traced function, in every psikern module namespace
that holds it, by a wrapper that records one span per call: name, start,
end, parent span and pass id.  Callers inside psikern look the function up
in their own module namespace (harness calls bounds.tail_sum through
harness.tail_sum), so patching the namespaces that call a function is
enough to see nested calls as child spans.  The library itself is not
changed.  Spans stay in memory until write_spans() is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

# traced function -> psikern layer (module) that defines it
LAYER_OF = {
    "best_l1": "bestapprox",
    "best_uniform": "bestapprox",
    "duality_sup_batch": "bounds",
    "duality_sup": "bounds",
    "thm2_sup_bracket": "bounds",
    "tail_sum": "psi",
    "weighted_tail": "psi",
    "double_tail": "psi",
    "psi_from_dict": "psi",
    "interpolate": "interp",
    "lebesgue_fn": "interp",
    "psi_integral": "trig",
    "verify_lebesgue": "harness",
    "classical_lebesgue_check": "harness",
    "sharpness_probe": "harness",
}

# namespaces whose module-level names callers resolve at call time
NAMESPACES = ("psikern", "psikern.harness", "psikern.bounds", "psikern.psi",
              "psikern.interp", "psikern.trig", "psikern.bestapprox")

# the benchmark's own code inside a traced pass (loops, output checks)
BENCH_LAYER = "bench"
COUNTED = [name for name in LAYER_OF if name != "psi_from_dict"]
APPROX_N = {"best_l1": (4, 8, 16), "best_uniform": (4, 8)}

# every per-layer metric the traced pass reports, with its unit
PER_LAYER = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in COUNTED},
    **{f"{name}.n{n}.self_s": "s"
       for name, ns in APPROX_N.items() for n in ns},
    **{f"{layer}.self_s": "s"
       for layer in sorted(set(LAYER_OF.values()) | {BENCH_LAYER})},
    "best_l1.iterations": "count",
    "best_uniform.iterations": "count",
    "bestapprox.errors": "count",
    "duality_sup_batch.points": "count",
    "psi.terms_used_max": "count",
    "psi.cache_terms_max": "count",
    "psi.errors": "count",
    "harness.rows": "count",
    "harness.csv_bytes": "bytes",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a pass root
    pass_id: int
    error: str | None = None
    info: dict | None = None


class Tracer:
    """Holds the spans of the traced pass and the results the output
    checks need (best-approximation results with their inputs, and the
    family objects built during the pass)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.pass_id = -1
        self.approx: list[tuple[str, object, int, object]] = []
        self.families: list = []

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in NAMESPACES]
        originals = {name: getattr(importlib.import_module(
            f"psikern.{layer}"), name) for name, layer in LAYER_OF.items()}
        wrappers = {name: self._wrap(name, fn)
                    for name, fn in originals.items()}
        for mod in mods:
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, wrappers[name])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.pass_id)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._record(span, name, args, result)
            return result
        return traced

    def _record(self, span: Span, name: str, args, result) -> None:
        if name in ("best_l1", "best_uniform"):
            f, n = args[0], int(args[1])
            span.info = {"n": n, "iterations": int(result.iterations)}
            self.approx.append((name, f, n, result))
        elif name == "duality_sup_batch":
            span.info = {"points": len(args[3])}
        elif name in ("tail_sum", "weighted_tail", "double_tail"):
            span.info = {"terms_used": int(result.terms_used)}
        elif name == "psi_from_dict":
            self.families.append(result)
        elif name in ("verify_lebesgue", "classical_lebesgue_check",
                      "sharpness_probe"):
            span.info = {"rows": len(result[0])}

    # -- pass roots ----------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans.append(Span("pass", time.perf_counter(), 0.0, -1, pass_id))
        self._stack.append(len(self.spans) - 1)

    def end_pass(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children.
        Calls are nested and single-threaded, so children never overlap."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "pass": s.pass_id, "error": s.error,
                    "info": s.info}) + "\n")


def layer_metrics(tracer: Tracer, csv_bytes: int, untraced_s: float) -> dict:
    """Reduce the traced pass's spans to the PER_LAYER metrics.  Every
    span's self time is charged to its layer, the pass root's to
    BENCH_LAYER, so the layers' self times add up to trace.pass_s."""
    m = dict.fromkeys(PER_LAYER, 0)
    terms_used = [0]
    for span, own in zip(tracer.spans, tracer.self_times()):
        info = span.info or {}
        layer = LAYER_OF.get(span.name, BENCH_LAYER)
        m[f"{layer}.self_s"] += own
        if span.name == "pass":
            m["trace.pass_s"] += span.end - span.start
            continue
        if span.name in COUNTED:
            m[f"{span.name}.calls"] += 1
            m[f"{span.name}.self_s"] += own
        if span.name in APPROX_N:
            m[f"{span.name}.iterations"] += info.get("iterations", 0)
            key = f"{span.name}.n{info.get('n')}.self_s"
            if key in m:
                m[key] += own
        if span.error == "SolverStall" and layer == "bestapprox":
            m["bestapprox.errors"] += 1
        if span.error == "SlowConvergence" and layer == "psi":
            m["psi.errors"] += 1
        terms_used.append(info.get("terms_used", 0))
        m["duality_sup_batch.points"] += info.get("points", 0)
        m["harness.rows"] += info.get("rows", 0)
    m["psi.terms_used_max"] = max(terms_used)
    m["psi.cache_terms_max"] = max(
        [len(f._vals) for f in tracer.families] + [0])
    m["harness.csv_bytes"] = csv_bytes
    m["trace.overhead_s"] = m["trace.pass_s"] - untraced_s
    return m
