import warnings
from dataclasses import replace

import numpy as np
import pytest

from kahlergg import geometry as geo
from kahlergg.construction import build_construction
from kahlergg.surfaces import build_surface, gamma_cos
from kahlergg.verify import (_END_FRAC, CONTROL_EXPECTATIONS, GridSpec, _flow_lengths,
                             _recovered_gamma, check_bochner, check_boundary_limits,
                             check_bracket_identities, check_flow_lengths, check_gamma_recovery,
                             check_killing, check_laplacian_identity, make_report, run_suite,
                             subject_from_construction, suite_passed)

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
    assert np.all(_recovered_gamma(subject, subject.frame(pts[:40])) == np.inf)


@pytest.mark.parametrize("control", sorted(CONTROL_EXPECTATIONS))
def test_negative_controls_fail_designated_checks(torus_data, control):
    subject = subject_from_construction(replace(torus_data, control=control))
    wanted = CONTROL_EXPECTATIONS[control]
    reports = run_suite(subject, FAST, checks=list(wanted) + ["boundary_limits"])
    failed = failures(reports)
    for name in wanted:
        assert name in failed, f"{control} was expected to break {name}"
    assert not suite_passed(reports)


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
    lap = torus_subject.frame(np.array([[0.25, 0.0, 0.5, 0.0]])).laplacian()
    assert abs(lap[0] + 0.4) < 1e-5


def test_killing_route_agreement(torus_subject):
    pts, desc = torus_subject.grid_points(FAST)
    rep = check_killing(torus_subject, torus_subject.frame(pts[:200]), desc, 1e-6)
    assert rep.passed
    assert rep.extras["route_agreement_max"] < 1e-8


def test_wrong_field_is_not_killing(torus_subject):
    # negative control: d_tau in place of u has a large Lie derivative
    bad = geo.VectorField(value=lambda p: np.broadcast_to(
        [0.0, 0.0, 1.0, 0.0], (p.shape[0], 4)).copy())
    pts, _ = torus_subject.grid_points(FAST)
    frame = torus_subject.frame(pts[:50])
    dbad = geo.field_jet(bad, pts[:50], torus_subject.metric.steps_at(pts[:50]))
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
    # Cut the domain at tau = 0.5 over x1 > 0.3: the fibers at x1 = 0.61 and
    # 0.83 leave it, the one at x1 = 0.17 still reaches its target.
    metric = replace(torus_subject.metric,
                     domain=lambda p: (p[:, 0] < 0.3) | (p[:, 2] < 0.5))
    report = check_flow_lengths(replace(torus_subject, metric=metric), 1e-4, n_fibers=3)
    assert not report.passed
    assert report.extras["failed_fibers"] == [{"fiber": 1, "status": "left-domain"},
                                              {"fiber": 2, "status": "left-domain"}]
    assert [o["residual"] for o in report.offenders][2] < 1e-4


@pytest.mark.parametrize("data, bound", [("torus_data", 1e-8), ("sphere_data", 1e-8),
                                         ("torus_inf_data", 1e-8), ("fs", 1e-9)])
def test_flow_lengths_steps_and_residual(request, fs_subject, data, bound):
    subject = fs_subject if data == "fs" else subject_from_construction(
        request.getfixturevalue(data))
    calls = []

    def value(p, value0=subject.metric.value):
        calls.append(len(p))
        return value0(p)

    metric = replace(subject.metric, value=value)
    report, flow = _flow_lengths(replace(subject, metric=metric), 1e-4)
    steps = len(flow.points) - 1
    assert steps <= 90
    assert len(calls) <= 620  # 1 to start, 7 per RK6 step, 6 more for the end step in f
    assert report.passed and report.max <= bound
    # The end step in f lands on the target level.
    lam = subject.maps.lam
    target = float(subject.maps.tau_of_s((1.0 - _END_FRAC) * lam))
    assert flow.status == ["target"] * len(flow.last)
    assert np.max(np.abs(subject.tau.value(flow.points[-1]) - target)) <= 1e-12
    assert np.max(np.abs(flow.values[-1] - target)) <= 1e-12


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
    surface, a = build_surface("torus", 7.695298980971054, {"torus": gamma_cos(3.0, 0.5)}, interval,
                               30.0, normalize="h-scale")
    report = check_flow_lengths(subject_from_construction(build_construction(interval, a, surface)),
                                1e-4)
    assert a == 30.0 and report.passed


def test_flow_freezes_a_fiber_stepped_past_the_critical_level(steep_torus_data):
    # At a = 30 the unscaled t-step puts RK6 stages past tau_max, where sqrt(Q) is
    # NaN: each fiber is frozen at the start of that step, not stepped to max_steps.
    subject = subject_from_construction(steep_torus_data)
    lam = subject.maps.lam
    seeds = np.array([subject.fiber_point(base, 0.01 * lam) for base in subject.fiber_bases[:2]])
    target = float(subject.maps.tau_of_s(0.99 * lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = geo.integrate_gradient_flow(subject.metric, subject.tau, seeds,
                                           target_value=target, step=geo.FLOW_STEP,
                                           max_steps=100)
    assert flow.status == ["non-finite", "non-finite"] and len(flow.points) < 10
    assert np.all(flow.q > 0.0) and np.all(np.isfinite(flow.arclength))


def test_coarse_flow_step_still_lands_on_the_target(torus_subject):
    # A t-step of 0.1 covers up to 0.1 of arclength mid-fiber, but the steps
    # shrink with |grad tau| toward the critical set, so no stage point jumps
    # past tau_max.
    lam = torus_subject.maps.lam
    seed = torus_subject.fiber_point(torus_subject.fiber_bases[0], 0.01 * lam)[None, :]
    target = float(torus_subject.maps.tau_of_s(0.99 * lam))
    flow = geo.integrate_gradient_flow(torus_subject.metric, torus_subject.tau, seed,
                                       target_value=target, step=0.1, max_steps=200)
    assert flow.status == ["target"] and len(flow.points) < 60
    assert abs(flow.arclength[-1, 0] - 0.98 * lam) < 1e-4


def test_fused_checks_evaluate_the_metric_once_per_stencil_point(torus_subject, sphere_data):
    # Per grid point: the frame's one evaluation (bracket identities, whose
    # jets are exact), and a frame at the centre and at each of the 16 stencil
    # points (Bochner, which run_suite gives the deep-collar grid).  Ricci
    # takes dGamma from that same stencil, so its stencil error cancels that
    # of the other terms: 1e-8 holds at the default grid, where separate
    # Richardson stencils for Ricci left 5.21e-8 (torus) and 4.94e-8 (sphere).
    seen = []

    def counted(subject):
        def value(pp, value0=subject.metric.value):
            seen.append(len(pp))
            return value0(pp)

        return replace(subject, metric=replace(subject.metric, value=value))

    def bracket(subject, pts, desc, tol):
        return check_bracket_identities(subject, subject.frame(pts), desc, tol)

    spec = GridSpec()
    deep = replace(spec, collar=spec.deep_collar, n_tau=spec.n_tau // 2)
    for subject in (torus_subject, subject_from_construction(sphere_data)):
        subject = counted(subject)
        for check, tol, grid, per_point in ((bracket, 1e-5, FAST, 1),
                                            (check_bochner, 1e-3, deep, 17)):
            pts, desc = subject.grid_points(grid)
            seen.clear()
            report = check(subject, pts, desc, tol)
            assert report.passed
            assert sum(seen) == per_point * len(pts)
        assert report.max <= 1e-8


@pytest.mark.parametrize("name", ["torus_data", "sphere_data", "fs"])
def test_frame_jets_match_finite_differences(request, fs_subject, name):
    # The frame's exact dQ, dv (closed-form v.jac on the constructions, the
    # numeric g^-1 (d dtau - dg v) on Fubini-Study) and d(Jv) against stencils
    # of the pointwise values; 1e-8 is the bound the analytic dg meets.
    subject = fs_subject if name == "fs" else subject_from_construction(
        request.getfixturevalue(name))
    pts, _ = subject.grid_points(FAST)
    frame = subject.frame(pts)
    steps = subject.metric.steps_at(pts)

    def q(pp):
        return geo.gradient_and_q(subject.metric, subject.tau, pp)[1]

    def v(pp):
        if subject.v is not None:
            return subject.v.value(pp)
        return geo.gradient_and_q(subject.metric, subject.tau, pp)[0]

    def jv(pp):
        return np.einsum("pij,pj->pi", subject.J.value(pp), v(pp))

    assert np.max(np.abs(frame.dq - geo.fd_jet(q, pts, steps))) < 1e-8
    assert np.max(np.abs(frame.dv - geo.fd_jet(v, pts, steps))) < 1e-8
    assert np.max(np.abs(frame.apply_J(frame.v, frame.dv)[1] - geo.fd_jet(jv, pts, steps))) < 1e-8


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
    # A frame at the centre and at each of the 16 stencil points; 349 metric
    # points per grid point when the numeric v had no Jacobian.
    seen = []

    def value(pp):
        seen.append(len(pp))
        return fs_subject.metric.value(pp)

    subject = replace(fs_subject, metric=replace(fs_subject.metric, value=value))
    spec = GridSpec()
    pts, desc = subject.grid_points(replace(spec, collar=spec.deep_collar, n_tau=spec.n_tau // 2))
    assert check_bochner(subject, pts, desc, 1e-3).passed
    assert sum(seen) == 17 * len(pts)
