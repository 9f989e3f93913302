"""Timed and traced runs of one workload, and the result they print.

``--trace 0``: rounds of ``SETUPS_PER_CALL`` timed set-ups followed by one
pipeline call on the last set-up's context, until the next round would
overrun the time budget (at least ``MIN_CALLS`` calls).  Prints ``wall_s``
(median call, the first call left out as warm-up), ``setup_s`` (median
set-up), ``peak_rss_mb`` and ``residual_ratio_max``.

``--trace 1``: untraced calls for half the budget (at least ``MIN_CALLS``), then
traced calls, each a set-up plus a pipeline call under ``tracer.patched``,
for the other half (at least ``MIN_TRACED_CALLS``, so that their counters
can be compared).  Prints the per-layer metrics of ``tracer.PER_LAYER``
(medians of times, counters that must repeat exactly) and
``trace.overhead_s``.

Every pipeline output goes through the workload's gate.  The run is
``correct`` when no verdict fails, every call gives the same verdicts, and
traced calls give identical counters.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import kahlergg
import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# A seed not to be used while a change is written; a claimed gain is
# confirmed on it afterwards.
HELD_OUT_SEED = 7919
SETUPS_PER_CALL = 3
MIN_CALLS = 3
MIN_TRACED_CALLS = 2


class Gate:
    """Collects the verdicts of every pipeline output of one run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first: list = []
        self.repeatable = True

    def __call__(self, output) -> None:
        verdicts = self.workload.verdicts(output)
        self.attempted += len(verdicts)
        self.failed += sum(not v.passed for v in verdicts)
        if not self.first:
            self.first = verdicts
        elif verdicts != self.first:
            self.repeatable = False

    @property
    def residual_ratio_max(self) -> float:
        return max(v.ratio for v in self.first)


def _timed_calls(workload, ctx, gate: Gate, budget: float, min_calls: int) -> list:
    """Pipeline call times; stops when the next call would overrun ``budget``."""
    times: list = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = workload.run(ctx)
        times.append(time.perf_counter() - t0)
        gate(out)
        spent = time.perf_counter() - begin
        if len(times) >= min_calls and spent + statistics.median(times) > budget:
            return times


def _traced_call(workload, seed: int, gate: Gate):
    """One set-up plus pipeline call under the tracer; returns (tracer, pipeline seconds)."""
    tr = tracer.Tracer()
    with tracer.patched(tr):
        span = tr.open("bench.setup")
        ctx = workload.setup(seed)
        tr.close(span)
        span = tr.open("bench.pipeline")
        out = workload.run(ctx)
        tr.close(span)
    gate(out)
    return tr, tr.duration(span)


def measure_untraced(workload, seed: int, seconds: float) -> tuple:
    """End-to-end metrics from rounds of set-ups and one pipeline call each.

    The first call warms up and is left out of ``wall_s``.  Set-ups are
    spread over the whole run, so that ``setup_s`` sees the same host as
    the calls.
    """
    gate = Gate(workload)
    setups, walls, rounds = [], [], []
    begin = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for _ in range(SETUPS_PER_CALL):
            t0 = time.perf_counter()
            ctx = workload.setup(seed)
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = workload.run(ctx)
        walls.append(time.perf_counter() - t0)
        gate(out)
        now = time.perf_counter()
        rounds.append(now - r0)
        if len(walls) >= MIN_CALLS and now - begin + statistics.median(rounds) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls[1:]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "residual_ratio_max": (gate.residual_ratio_max, "ratio"),
    }
    return gate, metrics, {"setup_s": setups, "wall_s": walls}, []


def measure_traced(workload, seed: int, seconds: float) -> tuple:
    gate = Gate(workload)
    walls = _timed_calls(workload, workload.setup(seed), gate, 0.5 * seconds, MIN_CALLS)
    tracers, traced_walls = [], []
    begin = time.perf_counter()
    while True:
        tr, wall = _traced_call(workload, seed, gate)
        tracers.append(tr)
        traced_walls.append(wall)
        spent = time.perf_counter() - begin
        if (len(tracers) >= MIN_TRACED_CALLS
                and spent + statistics.median(traced_walls) > 0.5 * seconds):
            break
    summaries = [tr.summarize() for tr in tracers]
    counters_repeat = all(s.counts == summaries[0].counts for s in summaries)
    if not counters_repeat:
        gate.repeatable = False
        print("error: traced calls gave different counters", file=sys.stderr)
    metrics = {}
    for name, unit, _better, value_of in tracer.PER_LAYER:
        values = [value_of(s) for s in summaries]
        metrics[name] = (statistics.median(values) if unit == "s" else values[0], unit)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
    return gate, metrics, {"wall_s": walls, "traced_wall_s": traced_walls}, tracers


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def environment(args, blas_threads: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "kahlergg": kahlergg.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _json_number(x):
    return x if isinstance(x, int) or math.isfinite(x) else 1e300


def main(args, blas_threads: int) -> int:
    if Path(kahlergg.__file__).resolve().parent != ROOT / "src" / "kahlergg":
        print(f"error: kahlergg was imported from {kahlergg.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    run_measurement = measure_traced if args.trace else measure_untraced
    gate, metrics, samples, tracers = run_measurement(workload, args.seed, args.seconds)
    env = environment(args, blas_threads)
    correct = gate.failed == 0 and gate.repeatable
    metrics = {k: (_json_number(v), unit) for k, (v, unit) in metrics.items()}

    print(json.dumps({"env": env}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, values in samples.items():
        print(f"{name}: {len(values)} samples")
    print(f"checks_failed_frac = {gate.failed / gate.attempted!r} "
          f"({gate.failed} of {gate.attempted} verdicts failed)")
    for v in gate.first:
        print(f"verdict {v.name}: residual/tol = {_json_number(v.ratio)!r} "
              f"{'pass' if v.passed else 'FAIL'}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "verdicts": [[v.name, _json_number(v.ratio), v.passed] for v in gate.first],
              "samples": samples, "metrics": {k: v for k, (v, _) in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracers:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump([tr.to_json() for tr in tracers], fh)

    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": unit}
                                  for k, (v, unit) in metrics.items()}}))
    return 0
