"""Spans and counters around the public functions of kahlergg's modules.

``patched(tracer)`` replaces, inside a ``with`` block, every public function
of the layer modules by a wrapper that records a span, and restores the
originals on exit, so untraced calls run the program unchanged.  A function
is patched in every kahlergg namespace that holds it, which is where its
caller looks it up: ``kahlergg.geometry.christoffel`` catches the calls made
inside geometry and through ``geo.christoffel`` in verify and extract, and
``kahlergg.extract.assemble_metric`` (the copy ``from .construction import``
made) catches the oracle's metric inside ``round_trip``.

Metric and J evaluators are closures stored in the objects that
``assemble_metric``, ``assemble_J`` and ``fs_metric`` return, so the
wrappers of those factories wrap the closures as well.  ``numpy.linalg.inv``
is counted, not timed.

Spans stay in memory as parallel lists (name, parent, start, end) and are
summarized once the run is over.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("config", "profiles", "surfaces", "construction", "fubini", "geometry",
          "verify", "extract")

FLOW = "geometry.integrate_gradient_flow"
METRIC_SPANS = ("construction.metric", "fubini.metric")

# Span names whose calls also count the points they are evaluated on, with
# the index of the positional argument holding the (N, n) point array.
POINTS_ARG = {
    "geometry.christoffel": 1,
    "geometry.fd_jet": 1,
    "construction.metric": 0,
    "construction.dmetric": 0,
    "fubini.metric": 0,
}


class TraceError(RuntimeError):
    """The recorded spans are inconsistent (unclosed, or children outlast a parent)."""


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise TraceError(f"span {self.names[idx]!r} closed out of order")

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording a span per call (``open``/``close`` inlined: it runs ~10^5 times)."""
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        counts, clock = self.counts, time.perf_counter
        calls_key, points_key = name + ".calls", name + ".points"
        points_arg = POINTS_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if points_arg is not None:
                counts[points_key] += len(args[points_arg])
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                if stack.pop() != idx:
                    raise TraceError(f"span {name!r} closed out of order")
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summarize(self) -> "Summary":
        """Self and inclusive times per span name, after checking the invariants."""
        if self._stack or any(e is None for e in self.ends):
            raise TraceError("a span was left open")
        n = len(self.names)
        dur = np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)
        parents = np.asarray(self.parents, dtype=int)
        nested = parents >= 0
        child = np.zeros(n)
        np.add.at(child, parents[nested], dur[nested])
        self_t = dur - child
        if n and float(np.min(self_t)) < -1e-9:
            worst = int(np.argmin(self_t))
            raise TraceError(f"children of span {self.names[worst]!r} outlast it "
                             f"by {-self_t[worst]:.3e} s")
        self_s: dict = collections.defaultdict(float)
        incl_s: dict = collections.defaultdict(float)
        in_flow = np.zeros(n, dtype=bool)
        flow_metric_calls = 0
        for i, name in enumerate(self.names):
            self_s[name] += float(self_t[i])
            incl_s[name] += float(dur[i])
            p = parents[i]
            in_flow[i] = name == FLOW or (p >= 0 and in_flow[p])
            if name in METRIC_SPANS and in_flow[i]:
                flow_metric_calls += 1
        counts = dict(self.counts)
        counts["geometry.flow.metric_calls"] = flow_metric_calls
        return Summary(dict(self_s), dict(incl_s), counts)

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        return {"names": table,
                "spans": [[index[nm], p, s - t0, e - t0] for nm, p, s, e in
                          zip(self.names, self.parents, self.starts, self.ends)],
                "counts": dict(sorted(self.counts.items()))}


@dataclass
class Summary:
    self_s: dict
    incl_s: dict
    counts: dict


def _hooks(tracer: Tracer) -> dict:
    """Per span name, what to do with the wrapped function's result."""

    def metric_fields(prefix):
        def hook(field):
            field.value = tracer.wrap(field.value, prefix + ".metric")
            if field.dvalue is not None:
                field.dvalue = tracer.wrap(field.dvalue, prefix + ".dmetric")
        return hook

    def j_field(field):
        field.value = tracer.wrap(field.value, "construction.J")
        if field.jac is not None:
            field.jac = tracer.wrap(field.jac, "construction.dJ")

    def count_grid(result):
        tracer.counts["verify.grid_points"] += len(result[0])

    def subject(subj):
        subj.grid_points = tracer.wrap(subj.grid_points, "verify.subject.grid_points", count_grid)

    def flow(path):
        tracer.counts["geometry.flow.steps"] += len(path.points)

    def fibers(traces):
        tracer.counts["extract.fibers"] += len(traces)
        tracer.counts["extract.trace_samples"] += sum(len(tr.s) for tr in traces)

    return {
        "construction.assemble_metric": metric_fields("construction"),
        "fubini.fs_metric": metric_fields("fubini"),
        "construction.assemble_J": j_field,
        "verify.subject_from_construction": subject,
        "verify.subject_from_fs": subject,
        FLOW: flow,
        "extract.trace_fibers": fibers,
    }


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every public function of the layer modules through ``tracer``."""
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "kahlergg" or n.startswith("kahlergg.")]
    hooks = _hooks(tracer)
    undo = []
    try:
        for layer in LAYERS:
            module = importlib.import_module(f"kahlergg.{layer}")
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = tracer.wrap(fn, name, hooks.get(name))
                for ns in namespaces:
                    for ns_attr in [k for k, v in vars(ns).items() if v is fn]:
                        undo.append((ns, ns_attr, fn))
                        setattr(ns, ns_attr, wrapper)
        inv = np.linalg.inv

        def counted_inv(a, *args, **kwargs):
            tracer.counts["geometry.inv.calls"] += 1
            tracer.counts["geometry.inv.matrices"] += math.prod(np.shape(a)[:-2])
            return inv(a, *args, **kwargs)

        undo.append((np.linalg, "inv", inv))
        np.linalg.inv = counted_inv
        yield tracer
    finally:
        for ns, attr, original in reversed(undo):
            setattr(ns, attr, original)


# Per-layer metrics of one traced call: (name, unit, better, value of a Summary).
CHECK_FUNCS = {
    "kaehler": "check_kaehler",
    "killing": "check_killing",
    "geodesic_gradient": "check_geodesic_gradient",
    "laplacian": "check_laplacian_identity",
    "gamma_recovery": "check_gamma_recovery",
    "ode_identities": "check_ode_identities",
    "bracket_identities": "check_bracket_identities",
    "bochner": "check_bochner",
    "boundary_limits": "check_boundary_limits",
    "flow_lengths": "check_flow_lengths",
    "oracle_equivalence": "check_oracle_equivalence",
}
EXTRACT_STAGES = {
    "trace_fibers": "trace_fibers",
    "interval_a": "estimate_interval_and_a",
    "profile": "extract_profile",
    "gamma": "extract_gamma",
}


def _self(*spans):
    return lambda s: sum(s.self_s.get(span, 0.0) for span in spans)


def _incl(span):
    return lambda s: s.incl_s.get(span, 0.0)


def _count(key):
    return lambda s: s.counts.get(key, 0)


def _ratio(num, den):
    return lambda s: s.counts.get(num, 0) / s.counts[den] if s.counts.get(den) else 0.0


PER_LAYER = (
    *[(f"verify.{c}_s", "s", "lower", _self(f"verify.{f}")) for c, f in CHECK_FUNCS.items()],
    *[(f"verify.{c}.incl_s", "s", "lower", _incl(f"verify.{f}")) for c, f in CHECK_FUNCS.items()],
    ("verify.grid_points", "count", "higher", _count("verify.grid_points")),
    *[(f"extract.{k}_s", "s", "lower", _self(f"extract.{f}")) for k, f in EXTRACT_STAGES.items()],
    *[(f"extract.{k}.incl_s", "s", "lower", _incl(f"extract.{f}"))
      for k, f in EXTRACT_STAGES.items()],
    ("extract.fibers", "count", "higher", _count("extract.fibers")),
    ("extract.trace_samples", "count", "lower", _count("extract.trace_samples")),
    ("geometry.christoffel.calls", "count", "lower", _count("geometry.christoffel.calls")),
    ("geometry.christoffel.points", "count", "lower", _count("geometry.christoffel.points")),
    ("geometry.christoffel.self_s", "s", "lower", _self("geometry.christoffel")),
    ("geometry.fd_jet.calls", "count", "lower", _count("geometry.fd_jet.calls")),
    ("geometry.fd_jet.points", "count", "lower", _count("geometry.fd_jet.points")),
    ("geometry.fd_jet.self_s", "s", "lower", _self("geometry.fd_jet")),
    ("geometry.scalar_gradient.calls", "count", "lower", _count("geometry.scalar_gradient.calls")),
    ("geometry.scalar_gradient.self_s", "s", "lower", _self("geometry.scalar_gradient")),
    ("geometry.ricci_s", "s", "lower", _self("geometry.ricci")),
    ("geometry.inv.calls", "count", "lower", _count("geometry.inv.calls")),
    ("geometry.inv.matrices", "count", "lower", _count("geometry.inv.matrices")),
    ("geometry.flow.calls", "count", "lower", _count(FLOW + ".calls")),
    ("geometry.flow.steps", "count", "lower", _count("geometry.flow.steps")),
    ("geometry.flow.s", "s", "lower", _incl(FLOW)),
    ("geometry.flow.metric_calls_per_step", "ratio", "lower",
     _ratio("geometry.flow.metric_calls", "geometry.flow.steps")),
    ("construction.metric.calls", "count", "lower", _count("construction.metric.calls")),
    ("construction.metric.points", "count", "lower", _count("construction.metric.points")),
    ("construction.metric.self_s", "s", "lower", _self("construction.metric")),
    ("construction.dmetric.calls", "count", "lower", _count("construction.dmetric.calls")),
    ("construction.dmetric.points", "count", "lower", _count("construction.dmetric.points")),
    ("construction.J.calls", "count", "lower", _count("construction.J.calls")),
    ("construction.metric.points_per_grid_point", "ratio", "lower",
     _ratio("construction.metric.points", "verify.grid_points")),
    ("fubini.metric.calls", "count", "lower", _count("fubini.metric.calls")),
    ("fubini.metric.points", "count", "lower", _count("fubini.metric.points")),
    ("fubini.metric.self_s", "s", "lower", _self("fubini.metric")),
    ("config.build_s", "s", "lower", _self("config.build_from_config")),
    ("profiles.reparams_s", "s", "lower", _self("profiles.build_reparams")),
    ("surfaces.connection_s", "s", "lower",
     _self("surfaces.solve_connection_torus", "surfaces.solve_connection_radial")),
)
