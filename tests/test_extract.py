import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kahlergg import extract, geometry as geo
from kahlergg.config import build_from_config, parse_config
from kahlergg.extract import (ExtractionOracle, InconsistentOracleError, NotAFunctionOfTauError,
                              extract_all, extract_gamma, extract_h, extract_profile,
                              oracle_from_construction, oracle_from_fs, round_trip, trace_fibers)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def torus_oracle(torus_data):
    return oracle_from_construction(torus_data, n_x1=8, n_x2=1)


@pytest.fixture(scope="module")
def torus_extraction(torus_oracle):
    traces = trace_fibers(torus_oracle)
    profile, diag = extract_profile(traces)
    return torus_oracle, profile, diag, traces


def test_interval_and_a_roundtrip(torus_extraction):
    _, profile, diag, _ = torus_extraction
    assert abs(profile.interval.tau_min - 0.0) < 1e-12
    assert abs(profile.interval.tau_max - 1.0) < 1e-12
    assert abs(profile.a - 2.0) < 1e-12
    # both endpoints see the same Hessian constant: one-sided slopes are +-2a
    assert abs(diag["a_min_end"] - 2.0) < 1e-12
    assert abs(diag["a_max_end"] - 2.0) < 1e-12


def test_profile_recovery(torus_extraction):
    _, profile, diag, _ = torus_extraction
    tau = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(profile.Q(tau) - 4 * tau * (1 - tau))) < 1e-4
    assert diag["q_fit_degree"] == 2 and diag["q_fit_residual"] < 1e-12


def test_gamma_recovery_matches_input(torus_extraction):
    oracle, profile, _, traces = torus_extraction
    kappas, diag = extract_gamma(oracle, profile, traces)
    x1 = oracle.seeds[:, 0]
    expect = 3.0 + 0.5 * np.cos(2 * np.pi * x1)
    assert np.max(np.abs(kappas - 1.0 / (0.5 - expect))) < 1e-5
    assert diag["fiber_spread_max"] < 1e-6


def test_h_recovery_matches_input(torus_extraction):
    oracle, profile, _, traces = torus_extraction
    kappas, _ = extract_gamma(oracle, profile, traces)
    h_samples = extract_h(oracle, profile.interval, kappas)
    c2 = float(np.pi * np.sqrt(6.0))
    assert np.max(np.abs(h_samples - c2 * np.eye(2))) < 1e-12 * c2


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.9])
def test_h_recovery_off_tau_star(torus_extraction, tau):
    # Away from tau_star the horizontal block is beta h with beta != 1.
    oracle, profile, _, traces = torus_extraction
    kappas, _ = extract_gamma(oracle, profile, traces)
    seeds = oracle.seeds.copy()
    seeds[:, 2] = tau
    h_samples = extract_h(replace(oracle, seeds=seeds), profile.interval, kappas)
    c2 = float(np.pi * np.sqrt(6.0))
    assert np.max(np.abs(h_samples - c2 * np.eye(2))) < 1e-11 * c2


def test_h_recovery_theta_independent(torus_data):
    o1 = oracle_from_construction(torus_data, n_x1=3, n_x2=1, theta=0.0)
    o2 = oracle_from_construction(torus_data, n_x1=3, n_x2=1, theta=2.1)
    e1 = extract_all(o1)
    e2 = extract_all(o2)
    assert np.max(np.abs(e1.h_samples - e2.h_samples)) < 1e-6
    g1 = np.array([g.value for g in e1.gammas])
    g2 = np.array([g.value for g in e2.gammas])
    assert np.max(np.abs(g1 - g2)) < 1e-8


def test_sphere_constant_gamma(sphere_data):
    oracle = oracle_from_construction(sphere_data)
    ex = extract_all(oracle)
    got = np.array([g.value for g in ex.gammas])
    assert np.max(np.abs(got - 3.0)) < 1e-5
    assert np.ptp(got) < 1e-5


def test_fubini_special_branch():
    oracle = oracle_from_fs()
    ex = extract_all(oracle, with_h=False)
    assert abs(ex.interval.tau_min) < 1e-12
    assert abs(ex.interval.tau_max - 1.0) < 1e-12
    assert abs(ex.a - 2.0) < 1e-12
    vals = np.array([g.value for g in ex.gammas])
    assert np.std(vals) < 1e-5  # constant: the special branch
    assert ex.diagnostics["gamma_on_interval_boundary"] is True


def test_extracted_gamma_avoids_interval(torus_oracle, sphere_data):
    for oracle in (torus_oracle, oracle_from_construction(sphere_data)):
        ex = extract_all(oracle, with_h=False)
        for g in ex.gammas:
            assert g.infinite or not (ex.interval.tau_min < g.value < ex.interval.tau_max)


def test_warped_metric_rejected():
    # Q depends on the base point: tau does not have a geodesic gradient.
    def gval(p):
        n = p.shape[0]
        g = np.zeros((n, 4, 4))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = 1.0
        warp = 1.0 + 0.3 * np.sin(2 * np.pi * p[:, 0])
        g[:, 2, 2] = warp / (4.0 * p[:, 2] * (1.0 - p[:, 2]))
        g[:, 3, 3] = p[:, 2] * (1.0 - p[:, 2])
        return g

    metric = geo.MetricField(dim=4, value=gval,
                             domain=lambda p: (p[:, 2] > 0) & (p[:, 2] < 1),
                             step=np.array([1e-3, 1e-3, 1e-4, 1e-2]),
                             step_limiter=lambda p: np.column_stack(
                                 [np.full((p.shape[0], 2), np.inf),
                                  0.2 * np.minimum(p[:, 2], 1 - p[:, 2])[:, None],
                                  np.full((p.shape[0], 1), np.inf)]))
    tau = geo.ScalarField(value=lambda p: p[:, 2],
                          grad=lambda p: np.broadcast_to([0, 0, 1.0, 0], (p.shape[0], 4)).copy())
    jf = geo.MatrixField(value=lambda p: np.broadcast_to(np.eye(4), (p.shape[0], 4, 4)).copy())
    seeds = np.column_stack([np.linspace(0.1, 0.9, 5), np.zeros(5),
                             np.full(5, 0.5), np.zeros(5)])
    oracle = ExtractionOracle(name="warped", metric=metric, tau=tau, J=jf, seeds=seeds)
    traces = trace_fibers(oracle)
    with pytest.raises(NotAFunctionOfTauError):
        extract_profile(traces)


def test_rescaled_tau_oracle():
    # tau -> 2 tau on the projective-space oracle: I = [0, 2], Q = 8 t (1 - t/2),
    # endpoint slope 8 = 2a so a = 4 (chain-rule oracle worked out by hand).
    base = oracle_from_fs(n_seeds=4)
    tau2 = geo.ScalarField(value=lambda p: 2.0 * base.tau.value(p),
                           grad=lambda p: 2.0 * base.tau.grad(p))
    oracle = ExtractionOracle(name="fs-rescaled", metric=base.metric, tau=tau2,
                              J=base.J, seeds=base.seeds, base_axes=())
    profile, _ = extract_profile(trace_fibers(oracle))
    assert abs(profile.interval.tau_min - 0.0) < 2e-3
    assert abs(profile.interval.tau_max - 2.0) < 2e-3
    assert abs(profile.a - 4.0) < 4e-3
    t = np.linspace(0.1, 1.9, 10)
    assert np.max(np.abs(profile.Q(t) - 8 * t * (1 - t / 2))) < 2e-3


def test_steep_tau_oracle():
    # tau -> 10 tau on the projective-space oracle: I = [0, 10], a = 20.  Near the
    # ends sqrt(Q) falls by exp(-20 h) per t-step h, but tau and Q are exact at every
    # sample, so the one fit of Q(tau) needs no finer step.
    base = oracle_from_fs(n_seeds=4)
    tau10 = geo.ScalarField(value=lambda p: 10.0 * base.tau.value(p),
                            grad=lambda p: 10.0 * base.tau.grad(p))
    oracle = ExtractionOracle(name="fs-steep", metric=base.metric, tau=tau10,
                              J=base.J, seeds=base.seeds, base_axes=())
    profile, _ = extract_profile(trace_fibers(oracle))
    assert abs(profile.interval.tau_min) < 1e-9 * 10.0
    assert abs(profile.interval.tau_max - 10.0) < 1e-9 * 10.0
    assert abs(profile.a - 20.0) < 1e-9 * 20.0


def test_distorted_tau_is_inconsistent():
    # tau -> tau + 0.3 tau^2 gives different Hessian constants at the two ends
    base = oracle_from_fs(n_seeds=4)

    def chi(t):
        return t + 0.3 * t * t

    def dchi(t):
        return 1.0 + 0.6 * t

    tau2 = geo.ScalarField(value=lambda p: chi(base.tau.value(p)),
                           grad=lambda p: dchi(base.tau.value(p))[:, None] * base.tau.grad(p))
    oracle = ExtractionOracle(name="fs-distorted", metric=base.metric, tau=tau2,
                              J=base.J, seeds=base.seeds, base_axes=())
    traces = trace_fibers(oracle)
    with pytest.raises(InconsistentOracleError):
        extract_profile(traces)


@pytest.mark.parametrize("data, bound", [("torus_data", 1e-11), ("sphere_data", 2e-12),
                                         ("torus_inf_data", 1e-12),
                                         ("poly_profile_data", 5e-12),
                                         ("steep_torus_data", 5e-11),
                                         ("steepest_torus_data", 1e-8),
                                         ("dipped_steep_torus_data", 2e-12),
                                         ("dipped_steeper_torus_data", 5e-12),
                                         ("height_sphere_data", 1e-12),
                                         ("height_sphere_north_data", 1e-12),
                                         ("wide_sphere_data", 3e-12),
                                         ("short_torus_data", 1e-12),
                                         ("short_cos_torus_data", 1e-12)])
def test_round_trip_deviation_bounds(data, bound, request):
    # Interval, a and rho come from one fit of the exact Q(tau) samples.  What is
    # left is the rebuild's interpolation of lam2 and kappa over the 24 seed rows:
    # trigonometric in x1 on the torus, Chebyshev in sigma = |x|^2 on the sphere,
    # whose rings sit at the Lobatto nodes of sigma.
    data = request.getfixturevalue(data)
    rep = round_trip(data)
    assert rep["max_rel_metric_dev"] <= bound
    assert "h_theta_consistency" not in rep["extracted"]["diagnostics"]
    scale = max(abs(data.interval.tau_min), abs(data.interval.tau_max))
    assert np.allclose(rep["interval"], [data.interval.tau_min, data.interval.tau_max],
                       rtol=0.0, atol=1e-9 * scale)
    assert abs(rep["a"] - data.a) <= 1e-9 * data.a
    rho = rep["extracted"]["q_factor_coeffs"]
    assert len(rho) == len(data.profile.rho_coeffs)
    assert np.allclose(rho, data.profile.rho_coeffs, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("coeffs", [[0.1, 0, 0, 0, 0, 0.5], [0.1, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0.2]],
                         ids=["Q-degree-9", "Q-degree-14"])
def test_high_degree_q_factor_round_trips(coeffs):
    # n q_factor coefficients give Q a degree of n + 3.  A fit that stopped at
    # degree 8 left degree 9 at 5.8e-5 and rejected degree 14 as no function of tau.
    cfg = json.loads((ROOT / "configs" / "torus.json").read_text())
    cfg["construction"]["q_factor"] = {"type": "poly", "coeffs": coeffs}
    rep = round_trip(build_from_config(parse_config(json.dumps(cfg))))
    assert rep["extracted"]["diagnostics"]["q_fit_degree"] == len(coeffs) + 3
    assert rep["max_rel_metric_dev"] <= 1e-11
    # rho's coefficients come out of a degree-14 fit to 8.9e-8, its metric to 1.8e-12.
    assert np.allclose(rep["extracted"]["q_factor_coeffs"], coeffs, rtol=0.0, atol=1e-6)


ROUND_TRIP_DEV = """
import sys
from kahlergg.config import build_from_config, parse_config
from kahlergg.extract import round_trip
for path in sys.argv[1:]:
    print(repr(round_trip(build_from_config(parse_config(open(path).read())))["max_rel_metric_dev"]))
"""


def test_round_trip_does_not_depend_on_the_blas_thread_count():
    # The rebuild's interpolants make no BLAS call, so the round trips of the torus
    # and sphere configs (the sphere is sphere_data) read the same bits at one and
    # two BLAS threads.
    def devs(threads):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", ROUND_TRIP_DEV, "configs/torus.json",
                              "configs/sphere.json"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=300, check=True).stdout.split()
        assert len(out) == 2
        return out

    assert devs("1") == devs("2")


@pytest.mark.parametrize("data, steps", [
    ("steep_torus_data", ((geo.FLOW_STEP, "non-finite"), (geo.FLOW_STEP / 3.0, "stop"))),
    ("dipped_steep_torus_data", ((geo.FLOW_STEP, "non-finite"), (geo.FLOW_STEP / 3.0, "stop"))),
    ("dipped_steeper_torus_data", ((geo.FLOW_STEP, "singular"), (geo.FLOW_STEP / 3.0, "non-finite"),
                                   (geo.FLOW_STEP / 9.0, "stop")))],
    ids=["steep", "dipped-steep", "dipped-steeper"])
def test_trace_fibers_retraces_at_a_third_of_the_step(request, data, steps, monkeypatch):
    # At a = 30, FLOW_STEP is 1.5 times the t-step at which RK6 stages pass tau_max,
    # so every fiber ends "non-finite"; at a = 100 with a dipped q-factor a stage of
    # FLOW_STEP lands where g is singular.  The trace retraces at a third of the step
    # until every fiber ends by the stop rule, with every sample inside the interval.
    oracle = oracle_from_construction(request.getfixturevalue(data))
    runs, integrate = [], geo.integrate_gradient_flow

    def spy(*args, **kwargs):
        try:
            flow = integrate(*args, **kwargs)
        except geo.NumericalFailure:
            runs.append((kwargs["step"], "singular"))
            raise
        runs.append((kwargs["step"], "/".join(sorted(set(flow.status)))))
        return flow

    monkeypatch.setattr(geo, "integrate_gradient_flow", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = trace_fibers(oracle)
    assert runs == list(steps)
    for tr in traces:
        assert np.all(tr.q > 0.0) and np.all(np.isfinite(tr.points))
        assert 0.0 < tr.values.min() < 0.01 and 0.99 < tr.values.max() < 1.0
    monkeypatch.setattr(extract, "_RETRACES", 0)
    with pytest.raises(InconsistentOracleError):
        trace_fibers(oracle)


def test_retraces_reach_the_step_of_the_steepest_a_a_config_admits():
    # Near an end sqrt(Q) shrinks by exp(-a h) per t-step h; the last retrace holds
    # a h at or below its value 0.096 for FLOW_STEP at a = 2, up to a = 1e100.
    assert 1e100 * geo.FLOW_STEP * 3.0 ** -extract._RETRACES <= 2.0 * geo.FLOW_STEP


def test_trace_fibers_on_a_metric_singular_at_the_seeds():
    # A metric singular at the seeds is a numerical failure that names it, not a
    # step to retrace.
    base = oracle_from_fs(n_seeds=4)
    calls = []

    def value(p):
        calls.append(len(p))
        return np.zeros((len(p), base.metric.dim, base.metric.dim))

    oracle = replace(base, metric=replace(base.metric, value=value, name="zero"))
    with pytest.raises(geo.NumericalFailure, match="metric 'zero' is numerically singular"):
        trace_fibers(oracle)
    assert calls == [4]


def test_fubini_gamma_is_sampling_free():
    ex = extract_all(oracle_from_fs(), with_h=False)
    assert max(abs(g.value) for g in ex.gammas) <= 1e-9
    assert ex.diagnostics["fiber_spread_max"] <= 1e-9


def test_traces_cover_interval(torus_oracle):
    traces = trace_fibers(torus_oracle)
    for tr in traces:
        assert tr.values.min() < 0.01 and tr.values.max() > 0.99
        # base coordinates and theta never drift along a fiber
        assert np.max(np.abs(tr.points[:, [0, 1, 3]] - tr.points[0, [0, 1, 3]])) < 1e-8
