from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from kahlergg import geometry as geo
from kahlergg.construction import (CONTROLS, assemble_J, assemble_metric,
                                   christoffel_closed_form, tau_field,
                                   with_control)
from kahlergg.fubini import FSChart, fs_metric
from kahlergg.verify import _psi_phi, check_oracle_equivalence, subject_from_construction


def torus_gamma(pts):
    """The torus fixture's input gamma = 3 + 0.5 cos(2 pi x1)."""
    return 3.0 + 0.5 * np.cos(2 * np.pi * pts[:, 0])


def rand_points(data, n, seed=0, s_range=(0.15, 0.85)):
    rng = np.random.default_rng(seed)
    (x1, x2), _ = data.chart_data.chart.bounds, None
    lam = data.maps.lam
    xs = rng.uniform(x1[0], x1[1], n)
    ys = rng.uniform(x2[0], x2[1], n)
    taus = np.asarray(data.maps.tau_of_s(rng.uniform(*(np.array(s_range) * lam), n)))
    ths = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([xs, ys, taus, ths])


def test_metric_spot_values(torus_data):
    # at (1/4, 0, 1/2, 0): Q = 1 so g_tautau = 1, g_thth = 1/4; gamma = 3 makes beta = 1
    g = assemble_metric(torus_data).value(np.array([[0.25, 0.0, 0.5, 0.0]]))[0]
    assert g[2, 2] == pytest.approx(1.0)
    assert g[3, 3] == pytest.approx(0.25)
    h = torus_data.chart_data.chart.lam2(np.array([[0.25, 0.0]]))[0] * np.eye(2)
    a_pot = torus_data.chart_data.connection.A(np.array([[0.25, 0.0]]))[0]
    expect = h + 0.25 * np.outer(a_pot, a_pot)
    assert np.allclose(g[:2, :2], expect, rtol=1e-12)


def test_block_orthogonality(torus_data):
    # g(d_theta, horizontal lift) = 0 by the block structure
    m = assemble_metric(torus_data)
    pts = rand_points(torus_data, 30)
    g = m.value(pts)
    a_pot = torus_data.chart_data.connection.A(pts[:, :2])
    for i in range(2):
        lift = np.zeros((30, 4))
        lift[:, i] = 1.0
        lift[:, 3] = a_pot[:, i]
        pair = np.einsum("pij,pi,pj->p", g, lift, np.broadcast_to([0, 0, 0, 1.0], (30, 4)))
        assert np.max(np.abs(pair)) < 1e-12


def test_tau_endpoint_outside_domain(torus_data):
    m = assemble_metric(torus_data)
    assert not m.domain(np.array([[0.1, 0.1, 0.0, 0.0]]))[0]
    assert not m.domain(np.array([[0.1, 0.1, 1.0, 0.0]]))[0]
    assert m.domain(np.array([[0.1, 0.1, 0.5, 0.0]]))[0]


def dg_residual(m, pts):
    """Max deviation between the analytic and the finite-difference metric derivatives."""
    return np.max(np.abs(m.dvalue(pts) - geo.fd_jet(m.value, pts, m.steps_at(pts))))


def test_analytic_dg_matches_fd(torus_data):
    m = assemble_metric(torus_data)
    pts = rand_points(torus_data, 50, seed=1, s_range=(0.2, 0.8))
    assert dg_residual(m, pts) < 1e-8


def test_analytic_dg_matches_fd_sphere(sphere_data):
    m = assemble_metric(sphere_data)
    pts = rand_points(sphere_data, 50, seed=2, s_range=(0.2, 0.8))
    assert dg_residual(m, pts) < 1e-8


def d2g_residual(m, pts):
    """Max deviation of the analytic d d g from a stencil of the analytic d g, per entry
    relative to 1 + |d d g|, at bochner's half step; d d g must be exactly symmetric."""
    d2 = m.d2value(pts)
    assert np.array_equal(d2, np.swapaxes(d2, 1, 2))
    fd = geo.fd_jet(m.dvalue, pts, 0.5 * np.minimum(m.steps_at(pts), 5e-3))
    return np.max(np.abs(d2 - fd) / (1.0 + np.abs(d2)))


D2G_SURFACES = ["torus_data", "poly_profile_data", "sphere_data", "height_sphere_data",
                "rebuilt_torus_data", "rebuilt_sphere_data"]


@pytest.mark.parametrize("surface,control",
                         [(s, c) for s in D2G_SURFACES for c in CONTROLS] + [("fs", "none")])
def test_analytic_d2g_matches_fd(request, surface, control):
    # d2value is the chain rule through beta, lam2, B = Q/a^2, 1/Q and A (each control
    # with its own; the polynomial profile's Q'' has a q-factor term), or Fubini-Study's
    # closed form.  The stencil's h^4 truncation reads
    # 3.6e-8 on the 1/Q entry, about 540; per entry the largest gap is 9.9e-10.  The
    # sphere points include the chart centre and points within 1e-6 R of it, where
    # d d A reads its table of (W - 2P)/rho^2.
    if surface == "fs":
        m = fs_metric(FSChart())
        pts = 0.7 * np.random.default_rng(3).normal(size=(50, 4))
    else:
        clean = request.getfixturevalue(surface)
        data = replace(clean, control=control)
        m, _ = with_control(data, assemble_metric(data), assemble_J(data))
        pts = rand_points(clean, 50, seed=1, s_range=(0.2, 0.8))
        if clean.surface.surface_type == "sphere":  # every sphere fixture has radius sqrt(0.625)
            pts[:4, :2] = np.sqrt(0.625) * np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, 1e-6],
                                                      [7e-7, -7e-7]])
    assert d2g_residual(m, pts) < 3e-9


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("surface,seed,dg_tol", [("torus_data", 1, 1e-8), ("sphere_data", 2, 2e-8),
                                                  ("rebuilt_torus_data", 1, 1e-8),
                                                  ("rebuilt_sphere_data", 2, 2e-8)])
def test_wrapped_jets_match_fd(request, surface, seed, dg_tol, control):
    # Each control wraps the clean fields with an analytic jet. The sphere's lam2 varies,
    # so only there does perturb-beta's (beta^1.01 - beta) d lam2 term show; its bound is
    # wider because the stencil of break-symmetry's theta-dependent g_tautau reads 1.03e-8.
    # The rebuilt charts pin the jets of the rebuild's interpolants: d lam2 of the
    # Chebyshev interpolant in sigma on the sphere, d kappa of the trigonometric one
    # on the torus.
    clean = request.getfixturevalue(surface)
    data = replace(clean, control=control)
    m, jf = with_control(data, assemble_metric(data), assemble_J(data))
    pts = rand_points(clean, 50, seed=seed, s_range=(0.2, 0.8))
    assert dg_residual(m, pts) < dg_tol
    assert np.max(np.abs(jf.jac(pts) - geo.fd_jet(jf.value, pts, m.steps_at(pts)))) < 3e-8


@pytest.mark.parametrize("control", CONTROLS[1:])
def test_clean_evaluators_ignore_the_control_label(torus_data, control):
    pts = rand_points(torus_data, 20, seed=14)

    def arrays(data):
        m, jf = assemble_metric(data), assemble_J(data)
        return (m.value(pts), m.dvalue(pts), jf.value(pts), jf.jac(pts),
                christoffel_closed_form(data, pts))

    for clean, labelled in zip(arrays(torus_data), arrays(replace(torus_data, control=control))):
        assert np.array_equal(clean, labelled)


def test_J_structure(torus_data):
    jf = assemble_J(torus_data)
    m = assemble_metric(torus_data)
    pts = rand_points(torus_data, 40, seed=3)
    jv = jf.value(pts)
    assert np.max(np.abs(np.einsum("pij,pjk->pik", jv, jv) + np.eye(4))) < 1e-12
    g = m.value(pts)
    herm = np.einsum("pki,pkl,plj->pij", jv, g, jv) - g
    assert np.max(np.abs(herm)) < 1e-10


def test_J_maps_v_to_u(torus_data):
    # J (Q d_tau) = a d_theta
    jf = assemble_J(torus_data)
    pts = rand_points(torus_data, 20, seed=4)
    v = np.zeros((len(pts), 4))
    v[:, 2] = torus_data.profile.Q(pts[:, 2])
    u = np.zeros((len(pts), 4))
    u[:, 3] = torus_data.a
    jv = np.einsum("pij,pj->pi", jf.value(pts), v)
    assert np.max(np.abs(jv - u)) < 1e-12


def test_field_norms(torus_data):
    # g(v,v) = g(u,u) = Q and g(v,u) = 0 for v = Q d_tau and u = a d_theta
    m = assemble_metric(torus_data)
    pts = rand_points(torus_data, 25, seed=5)
    g = m.value(pts)
    q = torus_data.profile.Q(pts[:, 2])
    vv = np.zeros((len(pts), 4))
    vv[:, 2] = q
    uu = np.zeros((len(pts), 4))
    uu[:, 3] = torus_data.a
    assert np.max(np.abs(np.einsum("pij,pi,pj->p", g, vv, vv) - q)) < 1e-12
    assert np.max(np.abs(np.einsum("pij,pi,pj->p", g, uu, uu) - q)) < 1e-12
    assert np.max(np.abs(np.einsum("pij,pi,pj->p", g, vv, uu))) < 1e-12


def test_phi_spot_value(torus_data):
    # phi(x=1/4, tau=1/2) = Q/(2 (tau - gamma)) = 1/(2 (1/2 - 3)) = -0.2
    _, phi, _ = _psi_phi(subject_from_construction(torus_data), np.array([[0.25, 0.0, 0.5, 0.0]]))
    assert phi[0] == pytest.approx(-0.2, rel=1e-12)


def test_phi_times_tau_minus_gamma(torus_data):
    pts = rand_points(torus_data, 30, seed=6)
    _, phi, _ = _psi_phi(subject_from_construction(torus_data), pts)
    q = torus_data.profile.Q(pts[:, 2])
    assert np.max(np.abs(2 * phi * (pts[:, 2] - torus_gamma(pts)) - q)) < 1e-12


def test_directional_rates_closed_form(torus_data):
    # d_v tau = Q and d_v Q = 2 psi Q, psi = Q'/2, for v = grad tau read off the assembled metric
    pts = rand_points(torus_data, 20, seed=7)
    frame = geo.build_frame(assemble_metric(torus_data), tau_field(torus_data), pts)
    q = torus_data.profile.Q(pts[:, 2])
    psi = 0.5 * torus_data.profile.dQ(pts[:, 2])
    assert np.max(np.abs(frame.grad[:, 2] - q)) < 1e-14  # d_v tau = v^tau
    assert np.max(np.abs(np.einsum("pa,pa->p", frame.grad, frame.dq) - 2 * psi * q)) < 1e-12


def test_oracle_equivalence_torus(torus_data):
    pts = rand_points(torus_data, 120, seed=8)
    g_cf = christoffel_closed_form(torus_data, pts)
    g_fd = geo.christoffel(replace(assemble_metric(torus_data), dvalue=None), pts)
    scale = 1.0 + np.max(np.abs(g_cf))
    assert np.max(np.abs(g_cf - g_fd)) / scale < 1e-6


def test_oracle_equivalence_sphere(sphere_data):
    pts = rand_points(sphere_data, 120, seed=9)
    g_cf = christoffel_closed_form(sphere_data, pts)
    g_fd = geo.christoffel(replace(assemble_metric(sphere_data), dvalue=None), pts)
    scale = 1.0 + np.max(np.abs(g_cf))
    assert np.max(np.abs(g_cf - g_fd)) / scale < 1e-6


def test_oracle_equivalence_sphere_seed_sweep(sphere_data):
    # The verify suite's check at its 128 samples, on every seed from 0 to 99.
    subject = subject_from_construction(sphere_data)
    worst = max(check_oracle_equivalence(subject, 1e-6, n_samples=128, seed=seed).max
                for seed in range(100))
    assert worst < 1e-6


def test_flat_limit_vertical_block(torus_inf_data):
    # gamma = inf: surface-of-revolution fiber metric Q^{-1} dtau^2 + a^{-2} Q dtheta^2;
    # hand-derived symbols: G^t_tt = -psi/Q, G^th_t,th = psi/Q, G^t_thth = -psi Q/a^2.
    data = torus_inf_data
    pts = rand_points(data, 15, seed=10)
    gam = christoffel_closed_form(data, pts)
    q = data.profile.Q(pts[:, 2])
    psi = data.profile.psi(pts[:, 2])
    a = data.a
    assert np.max(np.abs(gam[:, 2, 2, 2] + psi / q)) < 1e-12
    assert np.max(np.abs(gam[:, 3, 2, 3] - psi / q)) < 1e-12
    assert np.max(np.abs(gam[:, 2, 3, 3] + psi * q / a ** 2)) < 1e-12
    # base block reduces to the (flat) surface symbols: all zero
    assert np.max(np.abs(gam[:, :2, :2, :2])) < 1e-12
    # no mixing between fiber and base
    assert np.max(np.abs(gam[:, 2, :2, 2:])) < 1e-12


def test_nabla_vv_is_psi_v_in_closed_form(torus_data):
    # line one of the derivative table is reproduced by the closed-form symbols:
    # v = Q d_tau, d_tau v^tau = Q' and psi = Q'/2
    pts = rand_points(torus_data, 20, seed=11)
    gam = christoffel_closed_form(torus_data, pts)
    q, dq = torus_data.profile.Q(pts[:, 2]), torus_data.profile.dQ(pts[:, 2])
    vv = np.zeros((len(pts), 4))
    vv[:, 2] = q
    dv = np.zeros((len(pts), 4, 4))
    dv[:, 2, 2] = dq
    nvv = np.einsum("pi,pik->pk", vv, dv) + np.einsum("pkij,pi,pj->pk", gam, vv, vv)
    assert np.max(np.abs(nvv - 0.5 * dq[:, None] * vv)) < 1e-10


def test_hessian_eigenvalues_are_psi_psi_phi_phi(torus_data):
    # psi = Q'/2 and phi = Q/(2 (tau - gamma))
    m = assemble_metric(torus_data)
    tf = tau_field(torus_data)
    pts = rand_points(torus_data, 12, seed=12)
    psi = 0.5 * torus_data.profile.dQ(pts[:, 2])
    phi = torus_data.profile.Q(pts[:, 2]) / (2.0 * (pts[:, 2] - torus_gamma(pts)))
    frame = geo.build_frame(m, tf, pts)
    hess, g = frame.hessian, frame.g
    for i in range(12):
        eigs = np.sort(scipy.linalg.eigh(hess[i], g[i])[0])
        expect = np.sort([psi[i]] * 2 + [phi[i]] * 2)
        assert np.max(np.abs(eigs - expect)) < 1e-6


def test_fiberwise_flow_arclength_matches_s(torus_data):
    # gradient flow of tau from tau = 0.05 until it stops near tau_max:
    # arclength = s(tau) - s(0.05) at every sample
    m = assemble_metric(torus_data)
    tf = tau_field(torus_data)
    s0 = float(torus_data.maps.s_of_tau(0.05))
    p0 = np.array([[0.2, 0.7, 0.05, 0.3]])
    path = geo.integrate_gradient_flow(m, tf, p0, step=2e-3).fiber(0)
    assert path.status == "stop" and path.values[-1] > 0.99
    s = np.asarray(torus_data.maps.s_of_tau(path.values), dtype=float)
    assert np.max(np.abs(path.arclength - (s - s0))) < 1e-4


def test_oracle_equivalence_requires_unperturbed(torus_data):
    subject = subject_from_construction(replace(torus_data, control="perturb-beta"))
    with pytest.raises(ValueError):
        check_oracle_equivalence(subject, 1e-6)


def test_gamma_inf_metric_is_product_like(torus_inf_data):
    m = assemble_metric(torus_inf_data)
    pts = rand_points(torus_inf_data, 10, seed=13)
    g = m.value(pts)
    h = torus_inf_data.chart_data.chart.lam2(pts[:, :2])[:, None, None] * np.eye(2)
    assert np.max(np.abs(g[:, :2, :2] - h)) < 1e-14  # beta = 1, A = 0
    assert np.max(np.abs(g[:, :2, 3])) < 1e-14
