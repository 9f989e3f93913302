"""Checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The gate must be able to fail (a documented negative control goes through
it), traced calls must repeat their counters exactly and nest their spans,
the patches must come off again, and BENCHMARK.json must name exactly the
metrics and workloads the runner prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

assert run.use_repo_source(), "the benchmark's tests need the kahlergg source next to bench/"

import kahlergg.geometry  # noqa: E402
import numpy as np  # noqa: E402

import measure  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_GRID = (4, 4, 8, 2)
NO_ORACLE_CHECK = tuple(c for c in workloads.CONSTRUCTION_CHECKS if c != "oracle_equivalence")


def _small_verify(control=None):
    # run_suite skips oracle_equivalence under a control, so the gate does not expect it there.
    return workloads.verify_workload("small", "test", "torus.json", grid=SMALL_GRID,
                                     control=control,
                                     checks=NO_ORACLE_CHECK if control else
                                     workloads.CONSTRUCTION_CHECKS)


def test_gate_passes_clean_input_and_reports_negative_control():
    clean = _small_verify()
    assert all(v.passed for v in clean.verdicts(clean.run(clean.setup(0))))
    broken = _small_verify("perturb-j")
    verdicts = broken.verdicts(broken.run(broken.setup(0)))
    failed = {v.name for v in verdicts if not v.passed}
    # The checks the perturb-j control is documented to break.
    assert {"kaehler", "bracket_identities"} <= failed
    gate = measure.Gate(broken)
    gate(broken.run(broken.setup(0)))
    assert gate.failed >= 2 and gate.residual_ratio_max > 1.0


def test_gate_fails_a_missing_check():
    (verdict,) = workloads._suite_verdicts([], ("kaehler",))
    assert not verdict.passed


def test_traced_calls_repeat_counters_and_restore_the_program():
    original = kahlergg.geometry.christoffel
    original_inv = np.linalg.inv
    wl = _small_verify()
    gate = measure.Gate(wl)
    first, _ = measure._traced_call(wl, 0, gate)
    second, _ = measure._traced_call(wl, 0, gate)
    assert kahlergg.geometry.christoffel is original and np.linalg.inv is original_inv
    assert gate.failed == 0 and gate.repeatable
    a, b = first.summarize(), second.summarize()  # raises if children outlast a parent
    assert a.counts == b.counts
    assert a.counts["construction.metric.calls"] > 0 and a.counts["geometry.inv.calls"] > 0
    # Self times partition the two root spans (set-up and pipeline).
    roots = [i for i, p in enumerate(first.parents) if p < 0]
    assert [first.names[i] for i in roots] == ["bench.setup", "bench.pipeline"]
    assert sum(a.self_s.values()) <= sum(first.duration(i) for i in roots) + 1e-9


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    per_layer = [(n, u, b) for n, u, b, _ in tracer.PER_LAYER] + [("trace.overhead_s", "s", "lower")]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb",
                                                      "residual_ratio_max"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_run_without_the_source_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify_torus",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
