import tracemalloc
import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from kahlergg import geometry as geo
from kahlergg import verify
from kahlergg.construction import build_construction
from kahlergg.surfaces import build_surface, gamma_cos
from kahlergg.fubini import FSChart
from kahlergg.verify import (CONTROL_EXPECTATIONS, GridSpec, _bochner_jets,
                             _flow_lengths, _psi_phi, _recovered_kappa, bochner_index,
                             check_bochner, check_boundary_limits,
                             check_bracket_identities, check_flow_lengths, check_gamma_recovery,
                             check_killing, check_laplacian_identity, make_report, run_suite,
                             subject_from_construction, subject_from_fs, suite_passed)

FAST = GridSpec(base=(4, 4), n_tau=8, n_theta=2, n_random=60)


def failures(reports):
    return {r.check for r in reports if not r.passed}


def test_torus_suite_passes(torus_subject):
    reports = run_suite(torus_subject, FAST)
    assert suite_passed(reports), failures(run_suite(torus_subject, FAST))
    assert {r.check for r in reports} == {
        "kaehler", "killing", "geodesic_gradient", "laplacian", "gamma_recovery",
        "ode_identities", "bracket_identities", "bochner", "boundary_limits",
        "flow_lengths", "oracle_equivalence"}


def test_fs_suite_passes(fs_subject):
    reports = run_suite(fs_subject, FAST)
    assert suite_passed(reports), failures(reports)
    # no bracket/oracle-equivalence checks without connection data
    names = {r.check for r in reports}
    assert "bracket_identities" not in names
    assert "oracle_equivalence" not in names


def test_gamma_inf_suite_and_infinite_recovery(torus_inf_data):
    subject = subject_from_construction(torus_inf_data)
    reports = run_suite(subject, FAST)
    assert suite_passed(reports), failures(reports)
    pts, _ = subject.grid_points(FAST)
    # gamma = inf is kappa = 0: the recovery has no singular point there.
    assert np.max(np.abs(_recovered_kappa(subject, subject.frame(pts[:40])))) <= 1e-12


@pytest.mark.parametrize("name", ["short_torus_data", "short_cos_torus_data"])
def test_short_interval_suite_passes(request, name):
    # The metric's tau-step is 3e-4 min(1, |I|): an absolute 3e-4 crossed most
    # of a 2e-3 or 1e-2 interval, and oracle_equivalence failed at 1.2e-2 and 8.1e-3.
    subject = subject_from_construction(request.getfixturevalue(name))
    reports = run_suite(subject, FAST)
    assert suite_passed(reports), failures(reports)


@pytest.mark.parametrize("control", sorted(CONTROL_EXPECTATIONS))
def test_negative_controls_fail_designated_checks(torus_data, control):
    subject = subject_from_construction(replace(torus_data, control=control))
    wanted = CONTROL_EXPECTATIONS[control]
    reports = run_suite(subject, FAST, checks=list(wanted) + ["boundary_limits"])
    failed = failures(reports)
    for name in wanted:
        assert name in failed, f"{control} was expected to break {name}"
    assert not suite_passed(reports)


@pytest.mark.parametrize("surface", ["torus_data", "sphere_data"])
def test_break_symmetry_moves_d_v_tau(request, surface):
    # v = grad tau off the metric: g^tautau = Q/f under break-symmetry, so d_v tau != Q
    # where f = 1 + 0.1 sin(2 pi x1) sin(theta) != 1, which FAST's theta = 0, pi miss.
    data = replace(request.getfixturevalue(surface), control="break-symmetry")
    (report,) = run_suite(subject_from_construction(data), replace(FAST, n_theta=4),
                          checks=["ode_identities"])
    assert report.extras["d_v_tau"] > 1e-2


def test_controls_leave_other_checks_green(torus_data):
    # perturbing beta does not touch the fiber block: the Killing field and the
    # geodesic-gradient property survive (so those checks must stay green).
    subject = subject_from_construction(replace(torus_data, control="perturb-beta"))
    reports = run_suite(subject, FAST, checks=["killing", "geodesic_gradient"])
    assert suite_passed(reports)


def test_gauge_invariance(torus_data):
    # The gauge shift A -> A + df with f = sin(2 pi x1), which leaves dA unchanged.
    def df(x):
        return np.column_stack([2 * np.pi * np.cos(2 * np.pi * x[:, 0]),
                                np.zeros(x.shape[0])])

    def d2f(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x[:, 0])
        return out

    cd = torus_data.chart_data
    conn = replace(cd.connection, A=lambda x: cd.connection.A(x) + df(x),
                   dA=lambda x: cd.connection.dA(x) + d2f(x))
    surface = replace(torus_data.surface, charts=[replace(cd, connection=conn)])
    shifted = replace(torus_data, surface=surface)
    base_reports = run_suite(subject_from_construction(torus_data), FAST)
    shift_reports = run_suite(subject_from_construction(shifted), FAST)
    for rb, rs in zip(base_reports, shift_reports):
        assert rb.check == rs.check
        assert rb.passed == rs.passed
        if rb.max > 1e-12:
            assert rs.max < 10.0 * rb.max + 1e-12


def test_laplacian_spot_value(torus_subject):
    # Delta tau at (1/4, 0, 1/2, 0) = (1/2 - 3)^(-1) * 1 + 0 = -0.4
    lap = torus_subject.frame(np.array([[0.25, 0.0, 0.5, 0.0]])).laplacian
    assert abs(lap[0] + 0.4) < 1e-5


def test_killing_route_agreement(torus_subject):
    # The frame's u = J grad tau, which the check reads, is a d_theta on the grid.
    pts, desc = torus_subject.grid_points(FAST)
    frame = torus_subject.frame(pts[:200])
    rep = check_killing(torus_subject, frame, desc, 1e-6)
    assert rep.passed
    u = frame.u_jet[0]
    expect = np.zeros_like(u)
    expect[:, 3] = torus_subject.profile.a
    assert np.max(np.abs(u - expect)) < 1e-8


def test_wrong_field_is_not_killing(torus_subject):
    # negative control: d_tau in place of u has a large Lie derivative
    bad = geo.VectorField(value=lambda p: np.broadcast_to(
        [0.0, 0.0, 1.0, 0.0], (p.shape[0], 4)).copy())
    pts, _ = torus_subject.grid_points(FAST)
    frame = torus_subject.frame(pts[:50])
    dbad = geo.fd_jet(bad.value, pts[:50], torus_subject.metric.steps_at(pts[:50]))
    lie = geo.lie_derivative_metric(frame.g, geo.nabla_vector(dbad, bad.value(pts[:50]), frame.gamma))
    assert np.max(np.abs(lie)) > 1.0


def test_gamma_recovery_fiber_spread(torus_subject):
    pts, desc = torus_subject.grid_points(FAST)
    rep = check_gamma_recovery(torus_subject, torus_subject.frame(pts[:100]), desc, 1e-5)
    assert rep.passed
    assert rep.extras["fiber_spread"] < 1e-6


def test_reports_are_reproducible(torus_subject):
    r1 = run_suite(torus_subject, FAST, checks=["laplacian", "gamma_recovery"])
    r2 = run_suite(torus_subject, FAST, checks=["laplacian", "gamma_recovery"])
    assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]


def test_make_report_semantics():
    pts = np.zeros((5, 4))
    res = np.array([1e-7, 5e-7, 2e-7, 9e-7, 3e-7])
    rep = make_report("demo", "grid", pts, res, 1e-6)
    assert rep.passed and rep.max == pytest.approx(9e-7)
    rep2 = make_report("demo", "grid", pts, res, 8e-7)
    assert not rep2.passed
    assert len(rep.offenders) == 5
    assert rep.offenders[0]["residual"] == pytest.approx(9e-7)
    d = rep.to_dict()
    assert d["pass"] is True and d["check"] == "demo"


def test_nonfinite_residuals_fail():
    pts = np.zeros((3, 4))
    rep = make_report("demo", "grid", pts, np.array([1e-9, np.nan, 1e-9]), 1e-6)
    assert not rep.passed


def test_sphere_north_chart_suite(sphere_data):
    subject = subject_from_construction(replace(sphere_data, chart_index=1))
    reports = run_suite(subject, FAST, checks=["kaehler", "killing", "laplacian",
                                               "gamma_recovery", "bracket_identities"])
    assert suite_passed(reports), failures(reports)


def test_laplacian_check_on_perturbed_beta_fails(torus_data):
    subject = subject_from_construction(replace(torus_data, control="perturb-beta"))
    pts, desc = subject.grid_points(FAST)
    rep = check_laplacian_identity(subject, subject.frame(pts), desc, 1e-5)
    assert not rep.passed


def test_flow_lengths_reports_every_failing_fiber(torus_subject):
    assert "failed_fibers" not in check_flow_lengths(torus_subject, 1e-4, n_fibers=3).extras
    # Cut the domain at tau = 0.75 over x1 > 0.3: the ascending halves of the
    # fibers at x1 = 0.61 and 0.83 leave it, their descending halves from the
    # seeds at tau = 0.5 still stop, and the fiber at x1 = 0.17 ends both ways.
    metric = replace(torus_subject.metric,
                     domain=lambda p: (p[:, 0] < 0.3) | (p[:, 2] < 0.75))
    report = check_flow_lengths(replace(torus_subject, metric=metric), 1e-4, n_fibers=3)
    assert not report.passed
    assert report.extras["failed_fibers"] == [
        {"fiber": 1, "descending": "stop", "ascending": "left-domain"},
        {"fiber": 2, "descending": "stop", "ascending": "left-domain"}]
    assert [o["residual"] for o in report.offenders][2] < 1e-4


@pytest.mark.parametrize("data, bound", [("torus_data", 1e-8), ("sphere_data", 1e-8),
                                         ("torus_inf_data", 1e-8), ("fs", 1e-9),
                                         ("steep_torus_data", 1e-8),
                                         ("steepest_torus_data", 1e-8),
                                         ("flattest_torus_data", 1e-6)])
def test_flow_lengths_steps_and_residual(request, fs_subject, data, bound):
    subject = fs_subject if data == "fs" else subject_from_construction(
        request.getfixturevalue(data))
    calls = []

    def value(p, value0=subject.metric.value):
        calls.append(len(p))
        return value0(p)

    metric = replace(subject.metric, value=value)
    report, traces = _flow_lengths(replace(subject, metric=metric), 1e-4)
    # The t-step 4 FLOW_STEP / max |Q'| holds h |Q'| at its value for a = 2, so the
    # tori at a = 3e-4, 30 and 1e4 take as many steps as the rest (at a = 3e-4 a step
    # of FLOW_STEP would not reach the stop rule in 200,000 steps).  Seeded at
    # the middle, each half covers half a fiber: 85 steps and 596 calls from s = 0.01 lambda.
    steps = max(max(np.count_nonzero(tr.t < 0), np.count_nonzero(tr.t > 0)) for tr in traces)
    assert steps <= 45
    assert len(calls) <= 300  # 1 to start, 7 per RK6 step
    assert report.passed and report.max <= bound
    # Each half ends at its first sample below FLOW_END of its largest sqrt(Q).
    for tr in traces:
        assert tr.status == ("stop", "stop")
        sq = np.sqrt(tr.q)
        for half in (sq[tr.t <= 0][::-1], sq[tr.t >= 0]):
            assert half[-1] < geo.FLOW_END * np.max(half) <= half[-2]


@pytest.mark.parametrize("data, control", [("torus_data", "none"), ("sphere_data", "none"),
                                           ("torus_data", "perturb-beta"),
                                           ("sphere_data", "break-symmetry")])
def test_flows_compute_no_derivative(request, data, control, monkeypatch):
    # The flows read the metric's values alone, about 290 calls per verify: on that
    # path no derivative of kappa, lam2 or A may be computed, controls included.
    data = replace(request.getfixturevalue(data), control=control)
    subject = subject_from_construction(data)

    def forbidden(x):
        raise AssertionError("a value-only path computed a derivative")

    cd = data.chart_data
    for owner, names in ((cd.kappa, ("grad", "hess")), (cd.chart, ("dlam2", "d2lam2")),
                         (cd.connection, ("dA", "d2A"))):
        for name in names:
            monkeypatch.setattr(owner, name, forbidden)
    report = check_flow_lengths(subject, 1e-4)
    assert report.passed and "failed_fibers" not in report.extras


@pytest.mark.parametrize("data", ["torus_data", "fs"])
def test_flow_lengths_is_sixth_order(request, fs_subject, data, monkeypatch):
    # Doubling an RK6 step multiplies its error by about 2^6 = 64; an end step
    # of lower order would cap the ratio.
    subject = fs_subject if data == "fs" else subject_from_construction(
        request.getfixturevalue(data))
    base = _flow_lengths(subject, 1e-4)[0].max
    monkeypatch.setattr(geo, "FLOW_STEP", 2.0 * geo.FLOW_STEP)
    assert _flow_lengths(subject, 1e-4)[0].max >= 40.0 * base


def test_flow_lengths_is_scale_free(interval):
    # configs/torus.json with a = 30 and h-scale normalization.  tau -> c tau
    # multiplies a by c; an unscaled t-step of 4.8e-2 puts RK6 stages past
    # tau_max here, where sqrt(Q) is NaN, and 1.6e-2 gives a residual of 2.8e-5.
    kappas = {"torus": gamma_cos(3.0, 0.5, interval.tau_star)}
    surface, a = build_surface("torus", 7.695298980971054, kappas, interval, 30.0,
                               normalize="h-scale")
    report = check_flow_lengths(subject_from_construction(build_construction(interval, a, surface)),
                                1e-4)
    assert a == 30.0 and report.passed


def test_flow_freezes_a_fiber_stepped_past_the_critical_level(steep_torus_data):
    # At a = 30 the unscaled t-step puts RK6 stages past tau_max, where sqrt(Q) is
    # NaN: each fiber is frozen at the start of that step, not stepped to max_steps.
    subject = subject_from_construction(steep_torus_data)
    lam = subject.maps.lam
    seeds = np.array([subject.fiber_point(base, 0.01 * lam) for base in subject.fiber_bases[:2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = geo.integrate_gradient_flow(subject.metric, subject.tau, seeds,
                                           step=geo.FLOW_STEP, max_steps=100)
    assert flow.status == ["non-finite", "non-finite"] and len(flow.points) < 10
    assert np.all(flow.q > 0.0) and np.all(np.isfinite(flow.arclength))


def test_coarse_flow_step_still_lands_on_the_target(torus_subject):
    # A t-step of 0.1 covers up to 0.1 of arclength mid-fiber, but the steps
    # shrink with |grad tau| toward the critical set, so no stage point jumps
    # past tau_max and the fiber ends by the stop rule, on s to 1e-4.
    lam = torus_subject.maps.lam
    seed = torus_subject.fiber_point(torus_subject.fiber_bases[0], 0.01 * lam)[None, :]
    flow = geo.integrate_gradient_flow(torus_subject.metric, torus_subject.tau, seed,
                                       step=0.1, max_steps=200)
    assert flow.status == ["stop"] and len(flow.points) < 60
    s_end = float(torus_subject.maps.s_of_tau(flow.values[-1, 0]))
    assert abs(s_end - (0.01 * lam + flow.arclength[-1, 0])) < 1e-4


def _counting_metric_points(subject):
    """(the subject with its metric's value, dvalue and d2value counted, {name: [points/call]})."""
    seen = {"value": [], "dvalue": [], "d2value": []}
    m = subject.metric

    def value(pp):
        seen["value"].append(len(pp))
        return m.value(pp)

    def dvalue(pp):
        seen["dvalue"].append(len(pp))
        return m.dvalue(pp)

    def d2value(pp):
        seen["d2value"].append(len(pp))
        return m.d2value(pp)

    return replace(subject, metric=replace(m, value=value, dvalue=dvalue, d2value=d2value)), seen


def test_fused_checks_evaluate_the_metric_once_per_stencil_point(torus_subject, sphere_data):
    # Per grid point: the frame's one evaluation of g and of its derivative
    # (bracket identities, whose jets are exact); Bochner, which run_suite
    # gives the inner half of the main grid, adds one exact second derivative
    # and evaluates the metric at no stencil point (16 derivatives per point
    # with a stencil of d g, 34,816 frames on the torus when every stencil
    # point built one).
    def bracket(subject, pts, desc, tol):
        return check_bracket_identities(subject, subject.frame(pts), desc, tol)

    for subject in (torus_subject, subject_from_construction(sphere_data)):
        subject, seen = _counting_metric_points(subject)
        for check, tol, grid, per_point in ((bracket, 1e-5, FAST, (1, 1, 0)),
                                            (check_bochner, 1e-3, GridSpec(), (1, 1, 1))):
            pts, desc = subject.grid_points(grid)
            if check is check_bochner:
                pts = pts[bochner_index(subject, pts)]
            for calls in seen.values():
                calls.clear()
            report = check(subject, pts, desc, tol)
            assert report.passed
            counts = (sum(seen["value"]), sum(seen["dvalue"]), sum(seen["d2value"]))
            assert counts == tuple(k * len(pts) for k in per_point)
        assert report.max <= 1e-9


@pytest.mark.parametrize("name", ["torus_data", "sphere_data", "fs"])
def test_frame_jets_match_finite_differences(request, fs_subject, name):
    # The frame's exact dQ, d grad = g^-1 (d dtau - dg grad) and d(J grad)
    # against stencils of the pointwise values; 1e-8 is the bound the
    # analytic dg meets.
    subject = fs_subject if name == "fs" else subject_from_construction(
        request.getfixturevalue(name))
    pts, _ = subject.grid_points(FAST)
    frame = subject.frame(pts)
    steps = subject.metric.steps_at(pts)

    def q(pp):
        return geo.gradient_and_q(subject.metric, subject.tau, pp)[1]

    def v(pp):
        return geo.gradient_and_q(subject.metric, subject.tau, pp)[0]

    def jv(pp):
        return np.einsum("pij,pj->pi", subject.J.value(pp), v(pp))

    assert np.max(np.abs(frame.dq - geo.fd_jet(q, pts, steps))) < 1e-8
    assert np.max(np.abs(frame.dgrad - geo.fd_jet(v, pts, steps))) < 1e-8
    assert np.max(np.abs(frame.u_jet[1]
                         - geo.fd_jet(jv, pts, steps))) < 1e-8


MAIN_GRID_CHECKS = ["kaehler", "killing", "geodesic_gradient", "laplacian", "gamma_recovery",
                    "ode_identities", "bracket_identities"]


def test_main_grid_checks_share_one_frame(torus_subject, monkeypatch):
    # One levi_civita build and about one metric evaluation per grid point for
    # all seven checks (83 points and 8 builds before the shared frame); the
    # gamma_recovery fiber sweep adds a 21-point frame of its own.
    pts, _ = torus_subject.grid_points(GridSpec())
    seen, builds = [], []

    def value(pp):
        seen.append(len(pp))
        return torus_subject.metric.value(pp)

    def levi_civita(metric, pp, *args, lc=geo.levi_civita, **kwargs):
        builds.append(len(pp))
        return lc(metric, pp, *args, **kwargs)

    monkeypatch.setattr(geo, "levi_civita", levi_civita)
    subject = replace(torus_subject, metric=replace(torus_subject.metric, value=value))
    reports = run_suite(subject, GridSpec(), checks=MAIN_GRID_CHECKS)
    assert suite_passed(reports) and [r.check for r in reports] == MAIN_GRID_CHECKS
    assert sum(seen) <= 2 * len(pts)
    assert builds.count(len(pts)) == 1


def test_main_grid_forms_each_shared_quantity_once(torus_subject, monkeypatch):
    # A default-grid run_suite forms nabla v, Hess tau, Delta tau and (psi, phi,
    # d phi) once each on the main grid (3, 3, 3 and 4 times when each check
    # built its own), counted in points as in
    # test_fused_checks_evaluate_the_metric_once_per_stencil_point.  The one
    # nabla_vector call there is killing's nabla u; bochner's frame (the inner
    # half) and boundary_limits' (18 points) form their own nabla v.  Bochner's
    # frame is the main one at its points: no second levi_civita build there.
    pts, _ = torus_subject.grid_points(GridSpec())
    seen = {"nabla_grad": [], "hessian": [], "laplacian": [], "psi_phi": [], "nabla_vector": [],
            "levi_civita": []}

    def counting_property(name):
        func = geo.Frame.__dict__[name].func

        def counted(frame):
            seen[name].append(len(frame.points))
            return func(frame)

        prop = cached_property(counted)
        prop.__set_name__(geo.Frame, name)
        monkeypatch.setattr(geo.Frame, name, prop)

    for name in ("nabla_grad", "hessian", "laplacian"):
        counting_property(name)
    psi_phi, nabla_vector = verify._psi_phi, geo.nabla_vector

    def counted_psi_phi(subject, pp):
        seen["psi_phi"].append(len(pp))
        return psi_phi(subject, pp)

    def counted_nabla_vector(dx, xv, gamma):
        seen["nabla_vector"].append(len(xv))
        return nabla_vector(dx, xv, gamma)

    def counted_levi_civita(metric, pp, lc=geo.levi_civita):
        seen["levi_civita"].append(len(pp))
        return lc(metric, pp)

    monkeypatch.setattr(verify, "_psi_phi", counted_psi_phi)
    monkeypatch.setattr(geo, "nabla_vector", counted_nabla_vector)
    monkeypatch.setattr(geo, "levi_civita", counted_levi_civita)
    assert suite_passed(run_suite(torus_subject, GridSpec()))
    assert {k: v.count(len(pts)) for k, v in seen.items()} == {
        "nabla_grad": 1, "hessian": 1, "laplacian": 1, "psi_phi": 1, "nabla_vector": 1,
        "levi_civita": 1}
    assert 2048 in seen["nabla_grad"] and 18 in seen["nabla_grad"]
    assert 2048 not in seen["levi_civita"]


@pytest.mark.parametrize("name", ["torus_data", "sphere_data", "fs"])
def test_exact_dphi_matches_a_stencil(request, fs_subject, name):
    # d phi = [(Q' kappa d tau + Q d kappa) - 2 phi d beta]/(2 beta) from the closed-form
    # gradients of tau and kappa, against fd_jet of phi along each axis, contracted with
    # v = grad tau and u = J grad tau: the stencil is the independent reference.  v and
    # u have no base components on the constructions, so the whole jet is compared too
    # (the torus' d kappa / d x1 reads 4.0e-10 off the stencil, the largest gap).
    subject = fs_subject if name == "fs" else subject_from_construction(
        request.getfixturevalue(name))
    pts, _ = subject.grid_points(FAST)
    frame = subject.frame(pts)
    dphi = _psi_phi(subject, pts)[2]
    jet = geo.fd_jet(lambda pp: _psi_phi(subject, pp)[1], pts, subject.metric.steps_at(pts))
    assert np.max(np.abs(jet)) > 0.1 and np.max(np.abs(dphi - jet)) <= 1e-8
    for vec in (frame.grad, frame.u_jet[0]):
        exact, fd = np.einsum("pa,pa->p", vec, dphi), np.einsum("pa,pa->p", vec, jet)
        assert np.max(np.abs(exact - fd)) <= 1e-8


@pytest.mark.parametrize("name", ["torus_data", "sphere_data", "torus_inf_data"])
def test_boundary_limits_read_one_frame(request, name, monkeypatch):
    # The 18 fiber-end points share one levi_civita build.  dQ/dtau is the
    # exact dQ(grad tau)/Q; its s-stencils of the pointwise Q left 9.2e-6.
    subject = subject_from_construction(request.getfixturevalue(name))
    builds = []

    def levi_civita(metric, pp, *args, lc=geo.levi_civita, **kwargs):
        builds.append(len(pp))
        return lc(metric, pp, *args, **kwargs)

    monkeypatch.setattr(geo, "levi_civita", levi_civita)
    report = check_boundary_limits(subject, 1e-3)
    assert builds == [18]
    assert report.max <= 1e-7


def test_fubini_bochner_takes_v_jacobian_from_the_frame(fs_subject):
    # One frame and one exact second derivative of g per grid point; 349 metric
    # points per grid point when the numeric v had no Jacobian, 17 when each
    # stencil point built a frame or took the metric's derivative.
    subject, seen = _counting_metric_points(fs_subject)
    pts, desc = _bochner_subject(None, subject, "fs")[1:]
    assert check_bochner(subject, pts, desc, 1e-3).passed
    assert [sum(seen[k]) for k in ("value", "dvalue", "d2value")] == [len(pts)] * 3


def test_bochner_memory_peak_on_the_default_torus(torus_subject):
    # The contraction (d Gamma) v is (N, n, n, n): no n^5 jet of Gamma, its
    # transposes or the full Ricci tensor.  tracemalloc's peak over
    # check_bochner at the 2,048 inner points was 25.6 MiB with them; the
    # metric's d2value (4 MiB) is the one (N, n, n, n, n) array left.
    pts = torus_subject.grid_points(GridSpec())[0]
    pts = pts[bochner_index(torus_subject, pts)]
    tracemalloc.start()
    try:
        report = check_bochner(torus_subject, pts, "", 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and peak <= 20 * 2 ** 20


# The largest bochner residual of each subject when every stencil point built
# its own frame; the route from one centre frame must stay at or below it.
BOCHNER_BEFORE = {"torus_data": 1.09e-9, "sphere_data": 1.03e-9, "torus_inf_data": 8.6e-10,
                  "fs": 3.58e-10}
# With the metric's exact second derivatives and tau's exact third jet every
# subject's residual is roundoff (1.4e-15 on the constructions, 8.2e-15 on
# Fubini-Study, where a stencil of tau's Hessian left 5.7e-11 and a stencil
# of d g 8.0e-11).
BOCHNER_EXACT_D2G = {"torus_data": 1e-14, "sphere_data": 1e-14, "torus_inf_data": 1e-14,
                     "fs": 1e-13}


def _bochner_subject(request, fs_subject, name):
    """The subject and the points run_suite gives bochner at the default grid, with their desc."""
    subject = fs_subject if name == "fs" else subject_from_construction(
        request.getfixturevalue(name))
    pts, desc = subject.grid_points(GridSpec())
    return subject, pts[bochner_index(subject, pts)], desc


@pytest.mark.parametrize("chart", [None, FSChart(m=2, k=0, l=1), FSChart(m=2, k=1, l=0),
                                   FSChart(m=3, k=1, l=1, norm_index=2)],
                         ids=["construction", "fs(0,1)", "fs(1,0)", "fs-m3(1,1)"])
def test_tau_third_jet_matches_a_stencil_of_its_hessian(torus_subject, chart):
    # tau.d3 is what bochner reads for tau's third derivatives: 0 where tau is a
    # coordinate, the closed form -(2/s) sym3(grad_b delta_aj + p_b H_aj) on
    # Fubini-Study.  It must be a jet of tau.hess and symmetric in all slots.
    subject = torus_subject if chart is None else subject_from_fs(chart)
    pts, _ = subject.grid_points(FAST)
    d3 = subject.tau.d3(pts)
    assert d3.shape == (len(pts),) + (subject.metric.dim,) * 3
    # The stencil reads 2.8e-12 off at this step, 1.4e-10 at 1e-3 (h^4 truncation).
    assert np.max(np.abs(d3 - geo.fd_jet(subject.tau.hess, pts, 3e-4))) <= 1e-10
    for axes in ((0, 2, 1, 3), (0, 1, 3, 2), (0, 3, 2, 1)):
        assert np.max(np.abs(d3 - d3.transpose(axes))) <= 1e-15 * (1.0 + np.max(np.abs(d3)))
    if chart is not None:
        assert np.max(np.abs(d3)) > 1.0


def test_bochner_points_are_the_inner_half_of_the_main_grid(torus_subject, fs_subject):
    # Bochner reads the max(1, N // 2) points nearest mid-fiber: on the
    # constructions' default grid the 8 inner tau-levels of 16, s in
    # [0.196, 0.804] lambda; on Fubini-Study 128 of its 256 samples.
    pts, _ = torus_subject.grid_points(GridSpec())
    inner = pts[bochner_index(torus_subject, pts)]
    assert len(inner) == 2048
    lam = torus_subject.maps.lam
    s = torus_subject.maps.s_of_tau(inner[:, 2]) / lam
    assert 0.19 < np.min(s) and np.max(s) < 0.81 and len(np.unique(inner[:, 2])) == 8
    assert len(bochner_index(fs_subject, fs_subject.grid_points(GridSpec())[0])) == 128
    for n_tau in (1, 2):
        tiny, _ = torus_subject.grid_points(GridSpec(base=(1, 1), n_tau=n_tau, n_theta=1))
        assert len(bochner_index(torus_subject, tiny)) == 1


@pytest.mark.parametrize("name", sorted(BOCHNER_BEFORE))
def test_bochner_formula_holds_to_roundoff(request, fs_subject, name):
    # g's second jet and tau's third jet are exact, so Bochner's formula and
    # d Delta tau = -2 Ric(v) are algebra at each point: an index or sign slip
    # in Frame.second_jets breaks them at O(1).
    subject, pts, desc = _bochner_subject(request, fs_subject, name)
    report = check_bochner(subject, pts, desc, 1e-3)
    assert report.extras["bochner_max"] <= 1e-12
    assert report.max <= min(BOCHNER_BEFORE[name], BOCHNER_EXACT_D2G[name])


def _frame_bundle_jets(subject, points):
    """d Delta tau, Ric(v) and d(nabla_v v) from one stencil of [nabla v, nabla_v v, Gamma].

    The route that built a whole frame at every stencil point, at the full
    step: independent of ``Frame.second_jets``.
    """
    m, n = subject.metric, subject.metric.dim
    steps = np.minimum(m.steps_at(points), 5e-3)

    def bundle(pp):
        fr = geo.build_frame(m, subject.tau, pp)
        gv = geo.nabla_vector(fr.dgrad, fr.grad, fr.gamma)
        return np.concatenate([gv.reshape(-1, n * n), np.einsum("pki,pi->pk", gv, fr.grad),
                               fr.gamma.reshape(-1, n ** 3)], axis=1)

    jet = geo.fd_jet(bundle, points, steps)
    d_gradv = jet[..., :n * n].reshape(-1, n, n, n)
    d_gamma = jet[..., n * n + n:].reshape(-1, n, n, n, n)
    fr = geo.build_frame(m, subject.tau, points)
    ric_v = geo.ricci(np.einsum("pakij,pj->paki", d_gamma, fr.grad), fr.gamma, fr.gamma_grad)
    return np.einsum("pakk->pa", d_gradv), ric_v, jet[..., n * n:n * n + n]


@pytest.mark.parametrize("name", ["torus_data", "fs"])
def test_bochner_jets_match_a_stencil_of_whole_frames(request, fs_subject, name):
    # d(nabla v), Ric(v) from the contraction (d Gamma) v, and d(nabla_v v).
    subject, pts, _ = _bochner_subject(request, fs_subject, name)
    fr, _, _, d_gradv, d_nvv, ric_v = _bochner_jets(subject, pts)
    new = (np.einsum("pakk->pa", d_gradv), ric_v, d_nvv)
    for got, want in zip(new, _frame_bundle_jets(subject, pts)):
        assert np.max(np.abs(got - want)) <= 1e-7 * (1.0 + np.max(np.abs(want)))
