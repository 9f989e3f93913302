import json

import numpy as np
import pytest

from kahlergg import geometry as geo
from kahlergg.fubini import (FSChart, fs_J, fs_metric, fs_profile, fs_random_directions,
                             fs_ray_point, fs_tau)


@pytest.fixture(scope="module")
def chart():
    return FSChart()


@pytest.fixture(scope="module")
def sample_points(chart):
    rng = np.random.default_rng(0)
    dirs = fs_random_directions(chart, 220, rng)
    s = rng.uniform(0.25, 1.3, 220)
    return np.tan(s)[:, None] * dirs


def test_chart_validation():
    with pytest.raises(ValueError):
        FSChart(m=1, k=0, l=0)
    with pytest.raises(ValueError):
        FSChart(m=3, k=1, l=0)
    FSChart(m=3, k=1, l=1)


def test_metric_positive_definite(chart, sample_points):
    g = fs_metric(chart).value(sample_points[:100])
    eig = np.linalg.eigvalsh(g)
    assert np.all(eig > 0)


def test_momentum_matches_quadratic(chart, sample_points):
    # Q = 4 tau (1 - tau) pins the normalization of the metric
    m, tau = fs_metric(chart), fs_tau(chart)
    grad = geo.gradient_and_q(m, tau, sample_points)[0]
    g = m.value(sample_points)
    q = np.einsum("pij,pi,pj->p", g, grad, grad)
    t = tau.value(sample_points)
    assert q.shape[0] >= 200
    assert np.max(np.abs(q - 4.0 * t * (1.0 - t))) < 1e-8


def test_ricci_einstein_constant(chart, sample_points, ricci_tensor):
    # curvature-4 normalization: Ric = 2(m+1) g = 6 g on CP^2
    m = fs_metric(chart)
    pts = sample_points[:30]
    assert np.max(np.abs(ricci_tensor(m, pts, 5e-3) - 6.0 * m.value(pts))) < 1e-3


def test_tau_critical_values(chart):
    tau = fs_tau(chart)
    # y = 0 (the CP^k variety) is the chart origin here
    assert tau.value(np.zeros((1, 4)))[0] == 0.0
    # |x| = |y|: |w| = 1
    w = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert tau.value(w)[0] == pytest.approx(0.5)
    # x -> 0: tau -> 1
    far = np.array([[1e8, 0.0, 0.0, 0.0]])
    assert tau.value(far)[0] == pytest.approx(1.0, abs=1e-15)


def test_tau_other_chart_split():
    # normalize a y-coordinate: the '1' counts in |y|^2
    ch = FSChart(m=2, k=0, l=1, norm_index=2)
    tau = fs_tau(ch)
    assert tau.value(np.zeros((1, 4)))[0] == pytest.approx(1.0)


def test_tau_grad_matches_fd(chart, sample_points):
    tau = fs_tau(chart)
    jet = geo.fd_jet(tau.value, sample_points[:50], 1e-4)
    assert np.max(np.abs(jet - tau.grad(sample_points[:50]))) < 1e-10


@pytest.mark.parametrize("m,k,l,norm_index", [(2, 0, 1, 0), (2, 1, 0, 0), (2, 0, 1, 1), (2, 0, 1, 2),
                                              (3, 1, 1, 0), (3, 0, 2, 3), (3, 2, 0, 1)])
def test_tau_value_and_grad_on_every_chart(m, k, l, norm_index):
    ch = FSChart(m=m, k=k, l=l, norm_index=norm_index)
    tau = fs_tau(ch)
    p = np.random.default_rng(m + 3 * k + 7 * norm_index).normal(size=(40, ch.dim))
    # tau = |y|^2 / (|x|^2 + |y|^2) in homogeneous coordinates (x = z_0..z_k, y = the rest).
    z = np.ones((len(p), m + 1), dtype=complex)
    z[:, ch.homogeneous_positions()] = p[:, 0::2] + 1j * p[:, 1::2]
    az = np.abs(z) ** 2
    assert np.max(np.abs(tau.value(p) - az[:, k + 1:].sum(axis=1) / az.sum(axis=1))) < 1e-14
    jet = geo.fd_jet(tau.value, p, 1e-4)
    assert np.max(np.abs(tau.grad(p) - jet)) < 1e-9
    assert np.max(np.abs(tau.hess(p) - geo.fd_jet(tau.grad, p, 1e-4))) < 1e-9


def test_metric_dvalue_matches_fd(chart, sample_points):
    m, pts = fs_metric(chart), sample_points[:50]
    assert np.max(np.abs(m.dvalue(pts) - geo.fd_jet(m.value, pts, m.steps_at(pts)))) < 1e-8


def test_unitary_invariance(chart):
    # pull g back through the chart map of a random unitary rotation of the
    # homogeneous coordinates; it must agree with g at the mapped points.
    rng = np.random.default_rng(5)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(z)
    m = fs_metric(chart)

    def chart_map(p):
        w = p[:, 0::2] + 1j * p[:, 1::2]
        hom = np.concatenate([np.ones((p.shape[0], 1)), w], axis=1)
        zz = hom @ u.T
        wnew = zz[:, 1:] / zz[:, :1]
        out = np.empty_like(p)
        out[:, 0::2] = wnew.real
        out[:, 1::2] = wnew.imag
        return out

    pts = rng.normal(size=(15, 4)) * 0.4
    jac = geo.fd_jet(chart_map, pts, 1e-5)  # (N, a, k) = d_a F^k
    g_at_image = m.value(chart_map(pts))
    pulled = np.einsum("pia,pab,pjb->pij", jac, g_at_image, jac)
    assert np.max(np.abs(pulled - m.value(pts))) < 1e-8


def test_rays_are_unit_speed_flow_lines(chart):
    # tau(tan(s) w_hat) = sin^2 s and the ray parameter is g-arclength
    d = fs_random_directions(chart, 1, np.random.default_rng(7))[0]
    s = np.linspace(0.2, 1.2, 11)
    pts = fs_ray_point(chart, d, s)
    tau = fs_tau(chart)
    assert np.max(np.abs(tau.value(pts) - np.sin(s) ** 2)) < 1e-12
    m = fs_metric(chart)
    # tangent d/ds of the ray has unit g-norm
    jet = (fs_ray_point(chart, d, s + 1e-6) - fs_ray_point(chart, d, s - 1e-6)) / 2e-6
    g = m.value(pts)
    speed = np.einsum("pij,pi,pj->p", g, jet, jet)
    assert np.max(np.abs(speed - 1.0)) < 1e-7


def test_profile_lambda(chart):
    _, maps = fs_profile()
    assert abs(maps.lam - np.pi / 2) < 1e-6


def test_J_constant_and_compatible(chart, sample_points):
    jf, m = fs_J(chart), fs_metric(chart)
    pts = sample_points[:20]
    jv = jf.value(pts)
    assert np.max(np.abs(np.einsum("pij,pjk->pik", jv, jv) + np.eye(4))) == 0.0
    g = m.value(pts)
    herm = np.einsum("pki,pkl,plj->pij", jv, g, jv) - g
    assert np.max(np.abs(herm)) < 1e-14


def test_general_m_supported():
    ch = FSChart(m=3, k=1, l=1)
    m, tau = fs_metric(ch), fs_tau(ch)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10, 6)) * 0.5
    g = m.value(pts)
    assert np.all(np.linalg.eigvalsh(g) > 0)
    grad = geo.gradient_and_q(m, tau, pts)[0]
    q = np.einsum("pij,pi,pj->p", g, grad, grad)
    t = tau.value(pts)
    assert np.max(np.abs(q - 4 * t * (1 - t))) < 1e-10


def test_fubini_check_cli(tmp_path):
    from kahlergg.cli import main
    assert main(["fubini-check", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fubini_report.json").read_text())
    assert payload["all_pass"] is True
    assert payload["extraction"]["gamma_std"] < 1e-5
