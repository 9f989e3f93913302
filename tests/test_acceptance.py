"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as ``pytest -v tests/test_acceptance.py``; the per-criterion lines are
collected and emitted in the terminal summary (conftest hook), so they
survive pytest's output capture.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from kahlergg import geometry as geo
from kahlergg.cli import main
from kahlergg.construction import assemble_metric, christoffel_closed_form
from kahlergg.extract import extract_all, oracle_from_fs, round_trip
from kahlergg.fubini import fs_metric, fs_random_directions, fs_tau, FSChart
from kahlergg.profiles import Interval, build_reparams, make_profile
from kahlergg.verify import (CONTROL_EXPECTATIONS, GridSpec, check_boundary_limits,
                             check_flow_lengths, run_suite, subject_from_construction,
                             subject_from_fs, suite_passed)

TORUS_CFG_SMALL = """
{
  "construction": {
    "tau_min": 0.0, "tau_max": 1.0, "a": 2.0,
    "q_factor": {"type": "constant"},
    "surface": {"type": "torus", "h_scale": 7.695298980971054},
    "gamma": {"type": "cos", "c0": 3.0, "c1": 0.5},
    "normalize": "none"
  },
  "grid": {"base": [3, 3], "n_tau": 6, "n_theta": 2, "n_random": 40},
  "seed": 0
}
"""


def test_criterion_1_construction_validity(torus_data, announce):
    t0 = time.time()
    subject = subject_from_construction(torus_data)
    reports = run_suite(subject, GridSpec())
    elapsed = time.time() - t0
    by_name = {r.check: r for r in reports}
    required = {
        "kaehler": 1e-6, "killing": 1e-6, "geodesic_gradient": 1e-6,
        "laplacian": 1e-5, "gamma_recovery": 1e-5, "ode_identities": 1e-5,
        "bracket_identities": 1e-5, "bochner": 1e-3,
    }
    ok = True
    worst = []
    for name, tol in required.items():
        rep = by_name[name]
        ok &= rep.passed and rep.tol == tol
        worst.append(f"{name}={rep.max:.1e}")
    ok &= suite_passed(reports)
    ok &= elapsed < 120.0
    announce(1, "construction validity (torus run_suite, default grid)", ok,
             f"{'; '.join(worst)}; wall={elapsed:.1f}s")
    assert ok


def test_criterion_2_oracle_equivalence(torus_data, announce):
    rng_pts = subject_from_construction(torus_data).random_points(128, seed=0)
    g_cf = christoffel_closed_form(torus_data, rng_pts)
    g_fd = geo.christoffel(replace(assemble_metric(torus_data), dvalue=None), rng_pts)
    resid = float(np.max(np.abs(g_cf - g_fd) / (1.0 + np.max(np.abs(g_cf)))))
    ok = resid < 1e-6 and len(rng_pts) >= 100
    announce(2, "closed-form vs finite-difference Christoffels", ok,
             f"max residual {resid:.2e} at {len(rng_pts)} samples (tol 1e-6)")
    assert ok


def test_criterion_3_fubini_study_cross_check(announce):
    chart = FSChart()
    m, tau = fs_metric(chart), fs_tau(chart)
    rng = np.random.default_rng(0)
    dirs = fs_random_directions(chart, 200, rng)
    s = rng.uniform(0.25, 1.3, 200)
    pts = np.tan(s)[:, None] * dirs
    grad = geo.gradient_and_q(m, tau, pts)[0]
    g = m.value(pts)
    q = np.einsum("pij,pi,pj->p", g, grad, grad)
    t = tau.value(pts)
    q_res = float(np.max(np.abs(q - 4 * t * (1 - t))))
    subject = subject_from_fs(chart)
    reports = run_suite(subject, GridSpec(), checks=["killing", "geodesic_gradient"])
    by_name = {r.check: r for r in reports}
    ex = extract_all(oracle_from_fs(chart), with_h=False)
    gamma_std = float(np.std([gm.value for gm in ex.gammas]))
    ok = (q_res < 1e-8 and by_name["killing"].passed and by_name["killing"].tol == 1e-6
          and by_name["geodesic_gradient"].passed and gamma_std < 1e-5)
    announce(3, "Fubini-Study cross-check", ok,
             f"|Q-4t(1-t)|={q_res:.2e} (200 samples), killing={by_name['killing'].max:.1e}, "
             f"geodesic={by_name['geodesic_gradient'].max:.1e}, gamma std={gamma_std:.1e}")
    assert ok


def test_criterion_4_reparametrization_laws(torus_data, announce):
    prof = make_profile(Interval(0.0, 1.0), 2.0)
    maps = build_reparams(prof)
    lam_err = abs(maps.lam - np.pi / 2)
    r_err = max(abs(maps.r_of_tau(t) - np.sqrt(t / (1 - t))) for t in (0.25, 0.5, 0.75))
    s_err = max(abs(maps.sigma(r) - np.arctan(r)) for r in (0.5, 1.0, 2.0))
    subject = subject_from_construction(torus_data)
    flow = check_flow_lengths(subject, 1e-4)
    ok = lam_err < 1e-6 and r_err < 1e-8 and s_err < 1e-8 and flow.passed
    announce(4, "reparametrization laws", ok,
             f"lambda err {lam_err:.1e}, r err {r_err:.1e}, sigma err {s_err:.1e}, "
             f"flow arclength residual {flow.max:.1e} (tol 1e-4)")
    assert ok


def test_criterion_5_boundary_structure(torus_data, announce):
    subject = subject_from_construction(torus_data)
    rep = check_boundary_limits(subject, 1e-3)
    ok = rep.passed and rep.tol == 1e-3
    announce(5, "boundary structure (Hessian eigenvalues, one-jet, slopes)", ok,
             f"max Richardson residual {rep.max:.2e} (tol 1e-3)")
    assert ok


def test_criterion_6_round_trips(torus_data, sphere_data, announce):
    rt = round_trip(torus_data)
    rs = round_trip(sphere_data)
    gamma_ok = True
    for rep in (rt, rs):
        lo, hi = rep["interval"]
        for gv in rep["extracted"]["gamma_samples"]:
            if gv != "inf":
                gamma_ok &= not (lo < float(gv) < hi)
    ok = rt["max_rel_metric_dev"] < 1e-3 and rs["max_rel_metric_dev"] < 1e-3 and gamma_ok
    announce(6, "classification round trips", ok,
             f"torus dev {rt['max_rel_metric_dev']:.2e}, sphere dev "
             f"{rs['max_rel_metric_dev']:.2e} (tol 1e-3), gamma outside I: {gamma_ok}")
    assert ok


def test_criterion_7_negative_controls(tmp_path, announce):
    cfg = tmp_path / "torus.json"
    cfg.write_text(TORUS_CFG_SMALL)
    results = {}
    ok = True
    for control in ("perturb-beta", "perturb-j", "break-symmetry"):
        out = tmp_path / control
        code = main(["verify", "--config", str(cfg), "--out", str(out),
                     "--control", control])
        payload = json.loads((out / "verify_report.json").read_text())
        failed = {r["check"] for r in payload["reports"] if not r["pass"]}
        designated = set(CONTROL_EXPECTATIONS[control])
        ok &= code == 1 and designated <= failed
        results[control] = f"exit {code}, failed {sorted(failed & designated)}"
    bad = tmp_path / "bad.json"
    bad.write_text('{"construction": {"tau_min": 0, "tau_max": 1, "a": 2,'
                   '"surface": {"type": "torus"},'
                   '"gamma": {"type": "cos", "c0": 0.7, "c1": 0.5}}}')
    code_bad = main(["verify", "--config", str(bad), "--out", str(tmp_path / "bad_out")])
    ok &= code_bad == 2
    results["gamma-in-I"] = f"exit {code_bad}"
    announce(7, "negative controls", ok,
             "; ".join(f"{k}: {v}" for k, v in results.items()))
    assert ok


def test_criterion_8_determinism(tmp_path, announce):
    cfg = tmp_path / "torus.json"
    cfg.write_text(TORUS_CFG_SMALL)
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "verify_report.json").read_bytes())
    ok = outs[0] == outs[1]
    announce(8, "determinism (identical config and seed)", ok,
             f"reports byte-identical: {ok} ({len(outs[0])} bytes)")
    assert ok
