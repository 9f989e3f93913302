"""Command line entry points: construct, verify, extract, flow, fubini-check.

Exit codes: 0 all requested checks pass, 1 some check failed, 2 invalid
configuration (``CONFIG_ERRORS``), 3 numerical failure (``NUMERICAL_ERRORS``);
exits 2 and 3 print a JSON error to stderr.  Reports are JSON with sorted keys so
identical (config, seed) runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, build_from_config, check_grid_size, grid_count,
                     parse_config, positive_number)
from .construction import CONTROLS
from .extract import (FiberInconsistencyError, InconsistentOracleError, NotAFunctionOfTauError,
                      extract_all, oracle_from_construction, oracle_from_fs, round_trip)
from .fubini import FSChart
from .geometry import NumericalFailure, levi_civita
from .profiles import InvalidProfileError, profile_table
from .verify import (GridSpec, _flow_lengths, resolve_tolerances, run_suite,
                     subject_from_construction, subject_from_fs, suite_passed)

EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NUMERICAL = 0, 1, 2, 3

# Errors that end a run, by exit code: a configuration the construction
# cannot accept, and a numerical breakdown of a check or an extraction.
CONFIG_ERRORS = (ConfigError, InvalidProfileError)
NUMERICAL_ERRORS = (NumericalFailure, InconsistentOracleError, NotAFunctionOfTauError,
                    FiberInconsistencyError)


def _overrides(args) -> tuple:
    """(``--seed``, ``--tol-scale``), validated; None where a flag is absent."""
    return (None if args.seed is None else grid_count(args.seed, "--seed", 0),
            None if args.tol_scale is None else positive_number(args.tol_scale, "--tol-scale"))


def _load_config(args) -> RunConfig:
    cfg = parse_config(Path(args.config).read_text())
    seed, tol_scale = _overrides(args)
    if seed is not None:
        cfg.seed = seed
        cfg.grid = replace(cfg.grid, seed=seed)
    if tol_scale is not None:
        cfg.tol_scale = tol_scale
    if getattr(args, "grid", None):
        parts = args.grid.split(",")
        if len(parts) != 4:
            raise ConfigError("--grid expects 'bx,by,n_tau,n_theta'")
        bx, by, n_tau, n_theta = (grid_count(p, f"--grid[{i}]") for i, p in enumerate(parts))
        cfg.grid = check_grid_size(replace(cfg.grid, base=(bx, by), n_tau=n_tau, n_theta=n_theta),
                                   "--grid")
    if getattr(args, "control", None):
        cfg.control = args.control
    if cfg.control != "none" and cfg.oracle != "construction":
        raise ConfigError(f"$.oracle: '{cfg.oracle}' has no construction for control "
                          f"'{cfg.control}' to perturb; controls need oracle = 'construction'")
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _print_reports(reports: list) -> None:
    width = max(len(r.check) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"  {status}  {r.check:<{width}}  max={r.max:.3e}  mean={r.mean:.3e}  tol={r.tol:.1e}")


def _suite_payload(cfg_digest: dict, reports: list) -> dict:
    return {
        "config": cfg_digest,
        "all_pass": suite_passed(reports),
        "reports": [r.to_dict() for r in reports],
        "version": __version__,
    }


def _config_digest(cfg: RunConfig) -> dict:
    return {"raw": cfg.raw, "seed": cfg.seed, "tol_scale": cfg.tol_scale,
            "control": cfg.control}


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if cfg.oracle == "fubini":
        subject = subject_from_fs()
    else:
        data = build_from_config(cfg)
        subject = subject_from_construction(data)
    reports = run_suite(subject, cfg.grid, tolerances=cfg.tolerances, tol_scale=cfg.tol_scale)
    payload = _suite_payload(_config_digest(cfg), reports)
    _write_json(out / "verify_report.json", payload)
    print(f"subject: {subject.name}")
    _print_reports(reports)
    print(f"report: {out / 'verify_report.json'}")
    return EXIT_OK if payload["all_pass"] else EXIT_CHECK_FAILED


def cmd_construct(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    data = build_from_config(cfg)
    subject = subject_from_construction(data)
    pts, desc = subject.grid_points(cfg.grid)
    g = levi_civita(subject.metric, pts)[0]  # rejects a numerically singular metric
    with (out / "metric_samples.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        idx = [(i, j) for i in range(4) for j in range(i, 4)]
        w.writerow(["x1", "x2", "tau", "theta"] + [f"g_{i}{j}" for i, j in idx])
        for p, gp in zip(pts, g):
            w.writerow([repr(float(c)) for c in p] + [repr(float(gp[i, j])) for i, j in idx])
    with (out / "profile.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau", "Q", "psi", "r", "s"])
        for row in profile_table(data.profile, data.maps):
            w.writerow([repr(float(c)) for c in row])
    info = {
        "grid": desc,
        "chern": data.surface.chern,
        "chern_nearest_deviation": data.surface.chern_deviation,
        "a": data.a,
        "lambda": data.maps.lam,
        "config": _config_digest(cfg),
    }
    _write_json(out / "construct_info.json", info)
    print(f"constructed {subject.name}: {len(pts)} metric samples, "
          f"chern = {data.surface.chern:.9g} (dev {data.surface.chern_deviation:.2e}), "
          f"lambda = {data.maps.lam:.9g}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    if cfg.control != "none":
        raise ConfigError(f"$.control: extract reads the clean construction and would drop "
                          f"'{cfg.control}'; controls apply to verify, construct and flow")
    out = _out_dir(args)
    if cfg.oracle == "fubini" and not args.round_trip:
        oracle = oracle_from_fs(FSChart())
        ex = extract_all(oracle, with_h=False)
        payload = {"oracle": "fubini", "extracted": ex.to_dict(),
                   "config": _config_digest(cfg)}
        _write_json(out / "extracted.json", payload)
        print(f"fubini extraction: interval = [{ex.interval.tau_min:.6g}, "
              f"{ex.interval.tau_max:.6g}], a = {ex.a:.6g}")
        return EXIT_OK
    data = build_from_config(cfg)
    if args.round_trip:
        rep = round_trip(data)
        rep["config"] = _config_digest(cfg)
        _write_json(out / "round_trip.json", rep)
        ok = rep["max_rel_metric_dev"] < 1e-3
        print(f"round trip [{rep['surface']}]: max relative metric deviation "
              f"{rep['max_rel_metric_dev']:.3e} ({'PASS' if ok else 'FAIL'} at 1e-3)")
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    oracle = oracle_from_construction(data)
    ex = extract_all(oracle)
    payload = {"oracle": oracle.name, "extracted": ex.to_dict(),
               "config": _config_digest(cfg)}
    _write_json(out / "extracted.json", payload)
    print(f"extraction: interval = [{ex.interval.tau_min:.6g}, {ex.interval.tau_max:.6g}], "
          f"a = {ex.a:.6g}, {len(ex.gammas)} gamma samples")
    return EXIT_OK


def cmd_flow(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    data = build_from_config(cfg)
    subject = subject_from_construction(data)
    tol = resolve_tolerances(cfg.tolerances, cfg.tol_scale)["flow_lengths"]
    report, traces = _flow_lengths(subject, tol)
    # Trajectory dump for the first fiber, both halves; t and arclength are signed from its seed.
    path = traces[0]
    with (out / "trajectory.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "arclength", "x1", "x2", "tau", "theta", "s_of_tau"])
        s_vals = np.asarray(data.maps.s_of_tau(path.points[:, 2]), dtype=float)
        for t, arc, p, s in zip(path.t, path.s, path.points, s_vals):
            w.writerow([repr(float(t)), repr(float(arc))] + [repr(float(c)) for c in p]
                       + [repr(float(s))])
    payload = _suite_payload(_config_digest(cfg), [report])
    _write_json(out / "flow_report.json", payload)
    _print_reports([report])
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_fubini_check(args) -> int:
    seed, tol_scale = _overrides(args)
    out = _out_dir(args)
    spec = GridSpec(seed=0 if seed is None else seed)
    tol_scale = 1.0 if tol_scale is None else tol_scale
    subject = subject_from_fs()
    reports = run_suite(subject, spec, tol_scale=tol_scale)
    # The classification cross-check: extraction must see a constant gamma.
    oracle = oracle_from_fs()
    ex = extract_all(oracle, with_h=False)
    samples = [g.to_json() for g in ex.gammas]
    gamma_std = float("nan") if "inf" in samples else float(np.std(samples))
    payload = _suite_payload({"oracle": "fubini", "seed": spec.seed}, reports)
    payload["extraction"] = {"interval": [ex.interval.tau_min, ex.interval.tau_max],
                             "a": ex.a, "gamma_samples": samples, "gamma_std": gamma_std}
    _write_json(out / "fubini_report.json", payload)
    print(f"subject: {subject.name}")
    _print_reports(reports)
    print(f"extracted gamma std: {gamma_std:.3e} over {len(ex.gammas)} fibers")
    ok = payload["all_pass"] and gamma_std < 1e-5
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kahlergg",
        description="Construct, verify and classify Kahler surfaces with "
                    "geodesic-gradient Killing potentials.")
    parser.add_argument("--version", action="version", version=f"kahlergg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", default=None, help="override the config seed")
        p.add_argument("--tol-scale", dest="tol_scale", default=None,
                       help="multiply every tolerance by this factor")

    p = sub.add_parser("construct", help="assemble the metric and dump samples")
    common(p)
    p.add_argument("--grid", default=None, help="bx,by,n_tau,n_theta")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run the identity suite")
    common(p)
    p.add_argument("--grid", default=None, help="bx,by,n_tau,n_theta")
    p.add_argument("--control", default=None, choices=CONTROLS,
                   help="apply a documented negative control")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("extract", help="recover construction data from the metric oracle")
    common(p)
    p.add_argument("--round-trip", dest="round_trip", action="store_true",
                   help="re-construct from the extracted data and compare metrics")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("flow", help="gradient-flow arclength check and trajectory dump")
    common(p)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("fubini-check", help="run the Fubini-Study cross-check suite")
    common(p, config_required=False)
    p.set_defaults(fn=cmd_fubini_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CONFIG_ERRORS as e:
        print(json.dumps({"error": {"kind": "config", "message": str(e)}}), file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as e:
        print(json.dumps({"error": {"kind": "numerical", "message": str(e)}}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
