from dataclasses import replace

import numpy as np
import pytest

from kahlergg import geometry as geo
from kahlergg.extract import oracle_from_fs, trace_fibers
from kahlergg.fubini import FSChart, fs_metric
from kahlergg.surfaces import sphere_chart
from kahlergg.verify import GridSpec, run_suite, suite_passed


def flat_metric(n):
    return geo.MetricField(dim=n, value=lambda p: np.broadcast_to(np.eye(n), (p.shape[0], n, n)).copy())


def chart_metric(chart):
    """The base metric h = lam2 delta of an isothermal chart, with its analytic jet."""
    return geo.MetricField(dim=2, value=lambda x: chart.lam2(x)[:, None, None] * np.eye(2),
                           dvalue=lambda x: chart.dlam2(x)[:, :, None, None] * np.eye(2),
                           step=1e-3, name=chart.name)


def test_flat_christoffels_vanish():
    m = flat_metric(3)
    pts = np.random.default_rng(0).normal(size=(20, 3))
    assert np.max(np.abs(geo.christoffel(m, pts))) < 1e-11


def test_sphere_chart_christoffels_match_hand_formula():
    # For a conformal metric lam^2 delta with lam^2 = (2R^2/(R^2+|x|^2))^2:
    # Gamma^1_11 = d1 u, Gamma^1_22 = -d1 u, Gamma^1_12 = d2 u (u = log lam), etc.
    R = 1.3
    chart = sphere_chart(R, "south")
    m = chart_metric(chart)
    pts = np.random.default_rng(1).uniform(-0.8, 0.8, size=(25, 2))
    gam = geo.christoffel(m, pts)
    sig = np.sum(pts * pts, axis=1)
    du = -2.0 * pts / (R ** 2 + sig)[:, None]  # grad of log(lam)
    expect = np.zeros_like(gam)
    expect[:, 0, 0, 0] = du[:, 0]
    expect[:, 0, 1, 1] = -du[:, 0]
    expect[:, 0, 0, 1] = expect[:, 0, 1, 0] = du[:, 1]
    expect[:, 1, 1, 1] = du[:, 1]
    expect[:, 1, 0, 0] = -du[:, 1]
    expect[:, 1, 0, 1] = expect[:, 1, 1, 0] = du[:, 0]
    assert np.max(np.abs(gam - expect)) < 1e-8


def test_fd_christoffels_match_analytic():
    chart = sphere_chart(1.0, "south")
    m = chart_metric(chart)
    pts = np.random.default_rng(2).uniform(-0.6, 0.6, size=(20, 2))
    g_fd = geo.christoffel(replace(m, dvalue=None), pts)
    g_an = geo.christoffel(m, pts)
    assert np.max(np.abs(g_fd - g_an)) < 1e-8


def test_metric_compatibility():
    # nabla g = 0: direct consequence check of the christoffel formula.
    chart = sphere_chart(1.0, "south")
    m = chart_metric(chart)
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(10, 2))
    gam = geo.christoffel(m, pts)
    dg = m.dvalue(pts)
    g = m.value(pts)
    nabla_g = (dg - np.einsum("plki,plj->pkij", gam, g)
               - np.einsum("plkj,pil->pkij", gam, g))
    assert np.max(np.abs(nabla_g)) < 1e-11


def test_round_sphere_ricci_equals_metric(ricci_tensor):
    # radius 1: Gaussian curvature 1, Ric = K g = g in dimension 2
    chart = sphere_chart(1.0, "south")
    m = chart_metric(chart)
    pts = np.random.default_rng(4).uniform(-0.6, 0.6, size=(15, 2))
    assert np.max(np.abs(ricci_tensor(m, pts, 2e-3) - m.value(pts))) < 1e-4


def test_flat_ricci_zero(ricci_tensor):
    m = flat_metric(4)
    pts = np.random.default_rng(5).normal(size=(10, 4))
    assert np.max(np.abs(ricci_tensor(m, pts, 1e-2))) < 1e-9


def test_flat_hessian_and_laplacian():
    n = 3
    m = flat_metric(n)
    f = geo.ScalarField(value=lambda p: 0.5 * np.sum(p * p, axis=1),
                        grad=lambda p: p.copy(),
                        hess=lambda p: np.broadcast_to(np.eye(n), (len(p), n, n)))
    pts = np.random.default_rng(6).normal(size=(12, n))
    frame = geo.build_frame(m, f, pts)
    assert np.max(np.abs(frame.hessian - np.eye(n))) < 1e-9
    assert np.max(np.abs(frame.laplacian - n)) < 1e-8


def _nabla(m, x, pts):
    """(nabla X)[p,k,i] of a vector field, its jet a stencil of its values."""
    return geo.nabla_vector(geo.fd_jet(x.value, pts, m.steps_at(pts)), x.value(pts),
                            geo.christoffel(m, pts))


def test_covariant_derivative_flat_reduces_to_partials():
    m = flat_metric(2)
    x = geo.VectorField(value=lambda p: np.column_stack([p[:, 1] ** 2, 0 * p[:, 0]]))
    pts = np.array([[0.0, 2.0], [1.0, -1.0]])
    y = np.array([[0.0, 1.0], [0.0, 1.0]])
    out = np.einsum("pki,pi->pk", _nabla(m, x, pts), y)  # nabla_y x
    assert np.allclose(out, np.column_stack([2 * pts[:, 1], [0, 0]]), atol=1e-9)


def test_constant_field_flat_parallel():
    m = flat_metric(3)
    x = geo.VectorField(value=lambda p: np.broadcast_to([1.0, 2.0, 3.0], (p.shape[0], 3)).copy())
    pts = np.random.default_rng(7).normal(size=(5, 3))
    assert np.max(np.abs(_nabla(m, x, pts))) < 1e-12


def test_rotation_field_is_killing_on_flat_plane():
    m = flat_metric(2)
    rot = geo.VectorField(value=lambda p: np.column_stack([-p[:, 1], p[:, 0]]))
    pts = np.random.default_rng(8).normal(size=(10, 2))
    lie = geo.lie_derivative_metric(m.value(pts), _nabla(m, rot, pts))
    assert np.max(np.abs(lie)) < 1e-11


def test_translation_field_not_killing_on_sphere_chart():
    chart = sphere_chart(1.0, "south")
    m = chart_metric(chart)
    trans = geo.VectorField(value=lambda p: np.broadcast_to([1.0, 0.0], (p.shape[0], 2)).copy())
    pts = np.array([[0.3, 0.1]])
    lie = geo.lie_derivative_metric(m.value(pts), _nabla(m, trans, pts))
    assert np.max(np.abs(lie)) > 1e-2


def test_nabla_J_flat_standard():
    m = flat_metric(2)
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    jf = geo.MatrixField(value=lambda p: np.broadcast_to(j0, (p.shape[0], 2, 2)).copy())
    pts = np.random.default_rng(9).normal(size=(6, 2))
    dj = geo.fd_jet(jf.value, pts, m.steps_at(pts))
    assert np.max(np.abs(geo.nabla_J(dj, jf.value(pts), geo.christoffel(m, pts)))) < 1e-11


def test_nabla_J_perturbation_scales_linearly():
    # J + eps * (position-dependent symmetric part) gives residual ~ eps
    chart = sphere_chart(1.0, "south")
    m = chart_metric(chart)
    pts = np.random.default_rng(10).uniform(-0.4, 0.4, size=(8, 2))
    res = {}
    for eps in (1e-3, 1e-2):
        def jf_val(p, eps=eps):
            out = np.broadcast_to([[0.0, -1.0], [1.0, 0.0]], (p.shape[0], 2, 2)).copy()
            out[:, 0, 0] += eps * p[:, 0]
            return out
        dj = geo.fd_jet(jf_val, pts, m.steps_at(pts))
        res[eps] = np.max(np.abs(geo.nabla_J(dj, jf_val(pts), geo.christoffel(m, pts))))
    ratio = res[1e-2] / res[1e-3]
    assert 5.0 < ratio < 20.0


def test_bochner_identity_flat_linear_field():
    # d div v = div nabla v - Ric(.,v); on flat space with v linear both sides
    # reduce to constants and the residual is pure FD noise.
    m = flat_metric(2)
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    v = geo.VectorField(value=lambda p: p @ a.T)
    pts = np.random.default_rng(11).normal(size=(6, 2))
    steps = np.full((6, 2), 1e-2)
    d_div = geo.fd_jet(lambda q: np.einsum("pkk->p", _nabla(m, v, q)), pts, steps)
    div_grad = geo.divergence_endomorphism(
        geo.fd_jet(lambda q: _nabla(m, v, q), pts, steps), _nabla(m, v, pts),
        geo.christoffel(m, pts))
    assert np.max(np.abs(d_div - div_grad)) < 1e-9


def test_gradient_flow_reaches_target():
    # f = x (2 - x) on the flat plane: x' = 2 (1 - x), so 1 - x = 0.7 exp(-2 t) from
    # x = 0.3, and the fiber ends at the first sample with sqrt(Q) = 2 (1 - x) below
    # FLOW_END of its start value 1.4, next to the critical level x = 1.
    m = flat_metric(2)
    f = geo.ScalarField(value=lambda p: p[:, 0] * (2.0 - p[:, 0]), grad=lambda p: np.column_stack(
        [2.0 - 2.0 * p[:, 0], np.zeros(p.shape[0])]))
    path = geo.integrate_gradient_flow(m, f, [[0.3, 0.3]], step=1e-2).fiber(0)
    assert path.status == "stop"
    end = 1.0 - 0.7 * np.exp(-2.0 * path.params[-1])
    assert abs(path.points[-1, 0] - end) < 1e-12 and path.points[-1, 1] == 0.3
    assert abs(path.arclength[-1] - (end - 0.3)) < 1e-12
    sq = np.sqrt(path.q)
    assert sq[-1] < geo.FLOW_END * 1.4 <= sq[-2]


def _flow_cases():
    # f = x - x^3/3 on the sphere chart: its gradient (1 - x^2)/h vanishes on the
    # critical lines x = -+1, which the ascending and descending flows approach.
    m = chart_metric(sphere_chart(1.0, "south"))
    f = geo.ScalarField(value=lambda p: p[:, 0] - p[:, 0] ** 3 / 3.0,
                        grad=lambda p: np.column_stack([1.0 - p[:, 0] ** 2, np.zeros(p.shape[0])]))
    seeds = np.array([[-0.4, 0.2], [0.1, -0.5], [-0.7, 0.0]])
    left = dict(direction=1.0, step=5e-2, max_steps=400)
    stopped = dict(direction=np.array([1.0, -1.0, 1.0]), step=5e-2, max_steps=400)
    return m, f, seeds, (left, stopped)


@pytest.mark.parametrize("mode", [0, 1], ids=["plain-left-domain", "plain-stop"])
def test_gradient_flow_batch_matches_single_seeds(mode):
    m, f, seeds, cases = _flow_cases()
    if mode == 0:  # the fibers leave the domain at x = 0.8 before they can stop
        m = replace(m, domain=lambda p: p[:, 0] < 0.8)
    kw = dict(cases[mode])
    direction = np.broadcast_to(kw.pop("direction"), (len(seeds),))
    batch = geo.integrate_gradient_flow(m, f, seeds, direction, **kw)
    assert set(batch.status) == {("left-domain", "stop")[mode]}
    assert len(set(batch.last)) > 1  # the fibers stop at different steps
    for i, seed in enumerate(seeds):
        alone = geo.integrate_gradient_flow(m, f, seed[None, :], direction[i], **kw).fiber(0)
        together = batch.fiber(i)
        assert together.status == alone.status
        assert together.points.shape == alone.points.shape
        for name in ("points", "params", "arclength", "values", "q"):
            assert np.max(np.abs(getattr(together, name) - getattr(alone, name))) < 1e-12


def test_plain_flow_evaluates_the_metric_seven_times_per_step():
    m, f, seeds, (_, stopped) = _flow_cases()
    points = []

    def value(p, value0=m.value):
        points.append(len(p))
        return value0(p)

    path = geo.integrate_gradient_flow(replace(m, value=value), f, seeds, **stopped)
    assert path.status == ["stop"] * len(seeds)
    # One evaluation per seed to start, seven per fiber and step (the RK6
    # stages after the first, then the endpoint).
    assert sum(points) == len(seeds) + 7 * int(path.last.sum())
    # Every step is the same step in t, the last one included.
    dt = np.diff(path.fiber(0).params)
    assert np.allclose(dt, stopped["step"], rtol=0, atol=1e-14)


def test_gradient_flow_freezes_each_fiber_with_its_own_status():
    # f = -(x - 0.7)^2 / 2 on the flat plane cut at x = 1: fiber 0 ascends toward
    # the critical level x = 0.7 and stops, fiber 1 descends from 0.8 out of the
    # domain, and fiber 2 descends from 0 forever, 0.7 - x = 0.7 exp(t).
    m = geo.MetricField(dim=2, value=flat_metric(2).value, domain=lambda p: p[:, 0] < 1.0)
    f = geo.ScalarField(value=lambda p: -0.5 * (p[:, 0] - 0.7) ** 2, grad=lambda p: np.column_stack(
        [0.7 - p[:, 0], np.zeros(p.shape[0])]))
    seeds = np.array([[0.0, 0.3], [0.8, 0.0], [0.0, 0.0]])
    path = geo.integrate_gradient_flow(m, f, seeds, np.array([1.0, -1.0, -1.0]), step=1e-2,
                                       max_steps=400)
    assert path.status == ["stop", "left-domain", "max-steps"]
    assert len(path.points) == 401 and path.last[2] == 400
    assert abs(path.points[-1, 0, 0] - (0.7 - 0.7 * np.exp(-path.params[-1, 0]))) < 1e-12
    assert 0.99 <= path.points[-1, 1, 0] < 1.0
    assert abs(path.arclength[-1, 2] - 0.7 * (np.exp(4.0) - 1.0)) < 1e-9
    for i in range(len(seeds)):  # frozen rows repeat the fiber's final sample
        assert np.all(path.points[path.last[i]:, i] == path.points[-1, i])
        assert np.all(path.arclength[path.last[i]:, i] == path.arclength[-1, i])


def test_metric_singular_in_a_flow_is_a_numerical_failure():
    m = geo.MetricField(dim=2, value=lambda p: np.zeros((len(p), 2, 2)), name="zero")
    f = geo.ScalarField(value=lambda p: p[:, 0], grad=lambda p: np.column_stack(
        [np.ones(p.shape[0]), np.zeros(p.shape[0])]))
    with pytest.raises(geo.NumericalFailure, match="metric 'zero' is numerically singular"):
        geo.integrate_gradient_flow(m, f, [[0.0, 0.0]], step=1e-2)


def test_trace_fibers_pins_the_stop_rule():
    traces = trace_fibers(oracle_from_fs())
    assert len(traces) == 12
    assert sum(len(tr.s) for tr in traces) == 996
    # Both halves start from s = 0 at the seed.
    for tr in traces:
        assert np.count_nonzero(tr.s == 0.0) == 1
        assert np.all(np.diff(tr.s) > 0)


def test_trace_fibers_matches_a_direct_two_way_flow():
    # The shared two-way helper is one integrate_gradient_flow batch of both halves
    # and a merge; the extraction's samples are exactly that batch's.
    oracle = oracle_from_fs()
    traces = trace_fibers(oracle)
    n = len(oracle.seeds)
    flow = geo.integrate_gradient_flow(oracle.metric, oracle.tau,
                                       np.concatenate([oracle.seeds, oracle.seeds]),
                                       np.repeat([-1.0, 1.0], n), step=geo.FLOW_STEP,
                                       max_steps=int(60.0 / geo.FLOW_STEP))
    for i, tr in enumerate(traces):
        down, up = flow.fiber(i), flow.fiber(n + i)
        assert tr.status == (down.status, up.status) == ("stop", "stop")
        for got, name, sign in ((tr.s, "arclength", -1.0), (tr.t, "params", -1.0),
                                (tr.values, "values", 1.0), (tr.q, "q", 1.0),
                                (tr.points, "points", 1.0)):
            want = np.concatenate([sign * getattr(down, name)[::-1], getattr(up, name)[1:]])
            assert got.tobytes() == want.tobytes()


def test_trace_fibers_metric_evaluations():
    oracle = oracle_from_fs()
    calls = []

    def value(p, value0=oracle.metric.value):
        calls.append(len(p))
        return value0(p)

    traces = trace_fibers(replace(oracle, metric=replace(oracle.metric, value=value)))
    assert len(traces) == 12
    # 1 to check the seeds, 1 to start, 7 per RK6 step; RK4 at a third of the
    # step took 493 calls, unit-speed traces at ds = 1e-3 took 3,065.
    assert len(calls) <= 300


def _sin_exp_jets(x):
    """(jet of sin(a.x), jet of exp(b.x), jet of their product, a, b) at x (N, 3), closed forms."""
    a, b = np.array([0.3, -1.2, 0.7]), np.array([1.1, 0.4, -0.5])
    s, c, e = np.sin(x @ a), np.cos(x @ a), np.exp(x @ b)
    aa, ab, bb = np.outer(a, a), np.outer(a, b), np.outer(b, b)
    sin = (s, c[:, None] * a, -s[:, None, None] * aa)
    exp = (e, e[:, None] * b, e[:, None, None] * bb)
    prod = (s * e, e[:, None] * (c[:, None] * a + s[:, None] * b),
            e[:, None, None] * (-s[:, None, None] * aa + c[:, None, None] * (ab + ab.T)
                                + s[:, None, None] * bb))
    return sin, exp, prod, a


@pytest.mark.parametrize("entries", [1, 2, 3])
def test_jet_mul_matches_sin_times_exp(entries):
    # Jets cut after the value, the gradient or the Hessian: the product keeps the lower cut.
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (25, 3))
    sin, exp, prod, _ = _sin_exp_jets(x)
    got = geo.jet_mul(sin[:entries], exp)
    assert len(got) == entries and len(geo.jet_mul(sin, exp[:entries])) == entries
    for have, want in zip(got, prod):
        assert np.allclose(have, want, rtol=1e-14, atol=1e-14)
    if entries == 3:
        assert np.array_equal(got[2], np.swapaxes(got[2], 1, 2))


@pytest.mark.parametrize("entries", [1, 2, 3])
def test_jet_chain_matches_one_over_c_minus_sin(entries):
    # F(p) = 1/(c - p), F' = F^2, F'' = 2 F^3 through p = sin(a.x):
    # d F = F^2 cos a and d d F = (2 F^3 cos^2 - F^2 sin) a (x) a.
    x = np.random.default_rng(1).uniform(-1.0, 1.0, (25, 3))
    sin, _, _, a = _sin_exp_jets(x)
    f = 1.0 / (2.5 - sin[0])
    got = geo.jet_chain(sin[:entries], f, f * f, 2.0 * f ** 3)
    c = np.cos(x @ a)
    want = (f, (f * f * c)[:, None] * a,
            (2.0 * f ** 3 * c * c - f * f * sin[0])[:, None, None] * np.outer(a, a))
    assert len(got) == entries
    for have, w in zip(got, want):
        assert np.allclose(have, w, rtol=1e-14, atol=1e-14)
    if entries == 3:
        assert np.array_equal(got[2], np.swapaxes(got[2], 1, 2))


def test_richardson_even_exact_on_quartic():
    f = lambda h: 3.0 + 2.0 * h ** 2 - 5.0 * h ** 4
    vals = np.array([f(0.1), f(0.2), f(0.4)])
    assert geo.richardson_even(vals) == pytest.approx(3.0, abs=1e-12)


def test_fd_jet_on_known_function():
    sizes = []

    def f(p):
        sizes.append(len(p))
        return np.sin(p[:, 0]) + p[:, 1] ** 3

    pts = np.array([[0.5, 0.2], [1.0, -0.3]])
    jet = geo.fd_jet(f, pts, 1e-3)
    expect = np.column_stack([np.cos(pts[:, 0]), 3 * pts[:, 1] ** 2])
    assert np.max(np.abs(jet - expect)) < 1e-11
    assert sizes == [4 * len(pts)] * pts.shape[1]  # one axis per call


def test_step_limiter_respected():
    calls = []

    def val(p):
        calls.append(p.copy())
        return np.broadcast_to(np.eye(2), (p.shape[0], 2, 2)).copy()

    m = geo.MetricField(dim=2, value=val, step=1.0,
                        step_limiter=lambda p: np.full((p.shape[0], 2), 0.01))
    pts = np.array([[0.0, 0.0]])
    geo.christoffel(m, pts)
    seen = np.concatenate([c for c in calls])
    assert np.max(np.abs(seen)) <= 0.02 + 1e-12


def _spd_batch(n, count=40, seed=0):
    a = np.random.default_rng(seed).normal(size=(count, n, n))
    return a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(n)


def _gradient_case(source, torus_subject, fs_subject):
    """(metric, scalar field, points) with n = 4 or 6."""
    if source.startswith("spd"):
        n = int(source[3:])
        g = _spd_batch(n)
        df = np.random.default_rng(1).normal(size=(len(g), n))
        return (geo.MetricField(dim=n, value=lambda p: g), geo.ScalarField(value=None, grad=lambda p: df),
                np.zeros((len(g), n)))
    subject = torus_subject if source == "torus" else fs_subject
    pts, _ = subject.grid_points(GridSpec(base=(3, 3), n_tau=5, n_theta=2))
    return subject.metric, subject.tau, pts


@pytest.mark.parametrize("source", ["spd4", "spd6", "torus", "fubini"])
def test_gradient_and_q_match_the_inverse(source, torus_subject, fs_subject):
    metric, f, pts = _gradient_case(source, torus_subject, fs_subject)
    g, df = metric.value(pts), f.grad(pts)
    grad_ref = np.einsum("pij,pj->pi", np.linalg.inv(g), df)
    q_ref = np.einsum("pij,pi,pj->p", g, grad_ref, grad_ref)
    grad, q = geo.gradient_and_q(metric, f, pts)
    scale = np.max(np.abs(grad_ref), axis=1, keepdims=True)
    assert np.max(np.abs(grad - grad_ref) / scale) < 1e-12
    assert np.max(np.abs(q - q_ref) / np.abs(q_ref)) < 1e-12


@pytest.mark.parametrize("source", ["torus", "fubini-m3"])
def test_levi_civita_matches_the_reference_contraction(source, torus_subject):
    if source == "torus":
        metric = torus_subject.metric
        pts, _ = torus_subject.grid_points(GridSpec(base=(3, 3), n_tau=5, n_theta=2))
    else:
        chart = FSChart(m=3, k=1, l=1)
        metric = fs_metric(chart)
        pts = np.random.default_rng(2).normal(size=(30, chart.dim))
    g, dg, ginv, gamma = geo.levi_civita(metric, pts)
    assert np.array_equal(dg, metric.dvalue(pts))
    # t[p,i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    t = dg + np.swapaxes(dg, 1, 2) - np.einsum("plij->pijl", dg)
    ref = 0.5 * np.einsum("pkl,pijl->pkij", np.linalg.inv(g), t)
    assert np.array_equal(g, metric.value(pts)) and np.array_equal(ginv, np.linalg.inv(g))
    assert np.max(np.abs(gamma - ref)) < 1e-12 * (1.0 + np.max(np.abs(ref)))


def test_levi_civita_rejects_a_singular_metric():
    # An ill-conditioned g fails the condition estimate; an exactly singular
    # one fails the inversion itself.
    for last in (1e-16, 0.0):
        g = np.diag([1.0, 1.0, 1.0, last])[None]
        metric = geo.MetricField(dim=4, value=lambda p, g=g: np.repeat(g, len(p), axis=0),
                                 dvalue=lambda p: np.zeros((len(p), 4, 4, 4)), name="degenerate")
        with pytest.raises(geo.NumericalFailure, match="numerically singular"):
            geo.levi_civita(metric, np.zeros((3, 4)))


@pytest.mark.parametrize("n", [4, 6])
def test_condition_estimate_is_the_row_sum_norm_bitwise(n):
    a = np.random.default_rng(n).normal(size=(50, n, n))
    assert np.array_equal(geo._inf_norm(a), np.max(np.sum(np.abs(a), axis=2), axis=1))


def test_default_torus_suite_inverts_few_matrices(torus_subject, monkeypatch):
    # Gradients are solves; only Levi-Civita builds and boundary_limits form an
    # inverse, and J's jet forms none since J_Sigma is a constant rotation
    # (514,677 matrices before solves replaced inverses, 127,328 before the main
    # grid shared one frame, 10,574 before the charts became isothermal).
    inv, seen = np.linalg.inv, []

    def counted(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    assert suite_passed(run_suite(torus_subject, GridSpec()))
    assert sum(seen) <= 6_400
