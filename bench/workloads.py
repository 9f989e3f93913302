"""The benchmark's workloads and the correctness gate applied to every call.

Each workload has a set-up (timed as ``setup_s``) and a pipeline call
(timed as ``wall_s``), both made through the public functions the kahlergg
CLI uses.  Functions are called through their modules (``verify.run_suite``,
not an imported name) so that the tracer's patches on those modules see
them.

The gate turns every pipeline output into verdicts ``(name, residual /
tolerance, passed)`` against answers fixed here: every check passes on the
unperturbed configs, and the Fubini-Study extraction finds a constant
gamma (std below 1e-5).  The tolerances and the list of checks expected
from each subject are pinned in this file, so a change to the program's
own tolerances or a check that goes missing is seen as a failure, not as a
speed-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from kahlergg import config, extract, verify

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Check tolerances at the commit that introduced the benchmark.
CHECK_TOL = {
    "kaehler": 1e-6,
    "killing": 1e-6,
    "geodesic_gradient": 1e-6,
    "laplacian": 1e-5,
    "gamma_recovery": 1e-5,
    "ode_identities": 1e-5,
    "bracket_identities": 1e-5,
    "bochner": 1e-3,
    "boundary_limits": 1e-3,
    "flow_lengths": 1e-4,
    "oracle_equivalence": 1e-6,
}
CONSTRUCTION_CHECKS = tuple(CHECK_TOL)
# The projective-space subject has no horizontal lifts and no closed-form
# Christoffel table, so run_suite skips those two checks.
FS_CHECKS = tuple(c for c in CHECK_TOL if c not in ("bracket_identities", "oracle_equivalence"))
GAMMA_STD_TOL = 1e-5


@dataclass(frozen=True)
class Verdict:
    name: str
    ratio: float  # residual / tolerance
    passed: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], object]        # seed -> context
    run: Callable[[object], object]       # context -> pipeline output
    verdicts: Callable[[object], list]    # pipeline output -> [Verdict]


def _suite_verdicts(reports: list, expected: tuple) -> list:
    by_name = {r.check: r for r in reports}
    out = []
    for check in expected:
        r = by_name.get(check)
        if r is None:
            out.append(Verdict(check, math.inf, False))
            continue
        ratio = r.max / CHECK_TOL[check]
        out.append(Verdict(check, ratio, bool(r.max <= CHECK_TOL[check])))
    return out


def verify_workload(name: str, why: str, config_file: str,
                    grid: Optional[tuple] = None, control: Optional[str] = None,
                    checks: tuple = CONSTRUCTION_CHECKS) -> Workload:
    """``kahlergg verify --config <config_file> [--grid] [--control] --seed <seed>``."""

    def setup(seed: int):
        cfg = config.parse_config((CONFIGS / config_file).read_text())
        cfg.seed = seed
        cfg.grid = replace(cfg.grid, seed=seed)
        if grid is not None:
            cfg.grid = replace(cfg.grid, base=(grid[0], grid[1]), n_tau=grid[2], n_theta=grid[3])
        if control is not None:
            cfg.control = control
        subject = verify.subject_from_construction(config.build_from_config(cfg))
        return subject, cfg

    def run(ctx):
        subject, cfg = ctx
        return verify.run_suite(subject, cfg.grid, tolerances=cfg.tolerances,
                                tol_scale=cfg.tol_scale)

    return Workload(name, why, setup, run, lambda reports: _suite_verdicts(reports, checks))


def fubini_workload(name: str, why: str) -> Workload:
    """``kahlergg fubini-check --seed <seed>``: the suite, then constant-gamma extraction."""

    def setup(seed: int):
        return verify.subject_from_fs(), extract.oracle_from_fs(), verify.GridSpec(seed=seed)

    def run(ctx):
        subject, oracle, spec = ctx
        reports = verify.run_suite(subject, spec)
        return reports, extract.extract_all(oracle, with_h=False)

    def verdicts(out):
        reports, ex = out
        finite = [g.value for g in ex.gammas if not g.infinite]
        std = float(np.std(finite)) if len(finite) == len(ex.gammas) else math.inf
        return _suite_verdicts(reports, FS_CHECKS) + [
            Verdict("gamma_std", std / GAMMA_STD_TOL, bool(std < GAMMA_STD_TOL))]

    return Workload(name, why, setup, run, verdicts)


# Two workloads, so that each run can last 60 s within the benchmark's time
# limit for all runs: shorter runs spread past the bound of wall_s on a
# shared host.  Together they reach every layer module.
WORKLOADS = {w.name: w for w in (
    verify_workload(
        "verify_torus",
        "kahlergg verify on the torus config at the default grid: the command users run "
        "most; per-call overhead split between the single-point flow check and the grid checks",
        "torus.json"),
    fubini_workload(
        "fubini_check",
        "fubini-check: the only workload using the Fubini-Study metric, the numeric v/u route "
        "and the constant-gamma extraction branch"),
)}
