import numpy as np
import pytest
from scipy.integrate import quad

from kahlergg import geometry as geo
from kahlergg.profiles import Interval
from kahlergg.surfaces import (GammaRangeError, GaugeInconsistencyWarning, SurfaceChart,
                               build_surface, curvature_form, gamma_constant, gamma_cos,
                               gamma_height, solve_connection_torus, sphere_chart, torus_chart,
                               validate_gamma_range)

H_SCALE = float(np.pi * np.sqrt(6.0))
SPHERE_RADIUS = float(np.sqrt(0.625))
IV = Interval(0.0, 1.0)


def _both(gamma):
    return {"south": gamma, "north": gamma}


def _heights(c0, c1, radius):
    return {w: gamma_height(c0, c1, radius, w) for w in ("south", "north")}


def _quadrature_chern(surface, a, tau_star):
    """integral(Omega)/2pi by 2-D quadrature, independent of the connection: the
    midpoint rule over the torus square, polar Gauss-Legendre over each hemisphere."""
    if surface.surface_type == "torus":
        xs = (np.arange(256) + 0.5) / 256
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        cd = surface.charts[0]
        return float(np.mean(curvature_form(a, tau_star, cd.chart, cd.gamma, grid))) / (2 * np.pi)
    radius, n_phi = surface.params["radius"], 64
    nodes, wts = np.polynomial.legendre.leggauss(96)
    rr, pp = np.meshgrid(0.5 * radius * (nodes + 1.0), 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi)
    x = np.column_stack([(rr * np.cos(pp)).ravel(), (rr * np.sin(pp)).ravel()])
    total = 0.0
    for cd in surface.charts:
        w = curvature_form(a, tau_star, cd.chart, cd.gamma, x).reshape(rr.shape)
        total += float(np.sum(w * rr * 0.5 * radius * wts) * (2 * np.pi / n_phi))
    return total / (2 * np.pi)


@pytest.mark.filterwarnings("ignore::kahlergg.surfaces.GaugeInconsistencyWarning")
@pytest.mark.parametrize("surface_type, size, gammas, normalize, chern", [
    ("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5)}, "none", 1.0),
    ("torus", H_SCALE, {"torus": gamma_constant("inf")}, "none", 0.0),
    ("sphere", SPHERE_RADIUS, _both(gamma_constant(3.0)), "none", 1.0),
    ("sphere", SPHERE_RADIUS, _heights(-2.0, 0.5, SPHERE_RADIUS), "none", -1.00846),
    ("sphere", 2.0, _heights(5.0, 1.0, 2.0), "a", None),
], ids=["torus-cos", "torus-inf", "sphere-constant", "sphere-height", "sphere-wide-normalize-a"])
def test_chern_read_off_the_connection_matches_quadrature(surface_type, size, gammas, normalize,
                                                          chern):
    surface, a = build_surface(surface_type, size, gammas, IV, 2.0, normalize=normalize)
    assert surface.chern == pytest.approx(_quadrature_chern(surface, a, IV.tau_star), abs=1e-12)
    if chern is None:
        assert surface.chern_deviation < 1e-9 and a != 2.0
    else:
        assert surface.chern == pytest.approx(chern, abs=1e-5)


def test_torus_chern_is_one_with_cosine_normalization():
    # oracle: (1/2pi) int Omega = (a c^2 / 2pi) int dx/(2.5 + 0.5 cos 2 pi x)
    #        = (a c^2 / 2pi) / sqrt(6); c^2 = pi sqrt(6), a = 2 makes it 1.
    oracle, _ = quad(lambda x: 1.0 / (2.5 + 0.5 * np.cos(2 * np.pi * x)), 0.0, 1.0)
    assert abs(oracle - 1.0 / np.sqrt(6.0)) < 1e-12
    surface, _ = build_surface("torus", H_SCALE, {"torus": gamma_cos(3.0, 0.5)}, IV, 2.0)
    assert round(surface.chern) == 1
    assert surface.chern_deviation < 1e-12


def test_chern_zero_for_infinite_gamma():
    surface, _ = build_surface("torus", H_SCALE, {"torus": gamma_constant("inf")}, IV, 2.0)
    assert surface.chern == 0.0 and surface.chern_deviation == 0.0


def test_generic_data_reports_noninteger_deviation():
    with pytest.warns(GaugeInconsistencyWarning):
        surface, _ = build_surface("torus", 3.0, {"torus": gamma_cos(3.0, 0.5)}, IV, 2.0)
    assert surface.chern_deviation > 1e-3  # no quantization imposed


def test_normalize_a_hits_integer():
    surface, a = build_surface("torus", 3.0, {"torus": gamma_cos(3.0, 0.5)}, IV, 2.0,
                               normalize="a")
    assert surface.chern_deviation < 1e-9
    assert a != 2.0 and surface.params["h_scale"] == 3.0


def test_normalize_h_scale_hits_integer():
    surface, a = build_surface("torus", 3.0, {"torus": gamma_cos(3.0, 0.5)}, IV, 2.0,
                               normalize="h-scale")
    assert surface.chern_deviation < 1e-9
    assert a == 2.0
    # params records the h_scale the chart was built with, not the one asked for.
    h_scale = surface.charts[0].chart.h(np.zeros((1, 2)))[0, 0, 0]
    assert surface.params["h_scale"] == h_scale != 3.0


def test_sphere_h_scale_normalization_rejected():
    with pytest.raises(ValueError):
        build_surface("sphere", 1.0, _both(gamma_constant(3.0)), IV, 2.0, normalize="h-scale")


def test_curvature_form_spot_value():
    # Omega = -2 (1/2 - 3)^(-1) c^2 dx dy = 0.8 c^2 dx dy at gamma(1/4) = 3
    chart = torus_chart(H_SCALE)
    w = curvature_form(2.0, 0.5, chart, gamma_cos(3.0, 0.5), np.array([[0.25, 0.0]]))
    assert w[0] == pytest.approx(0.8 * H_SCALE, rel=1e-12)


def test_curvature_vanishes_for_infinite_gamma():
    chart = torus_chart(H_SCALE)
    w = curvature_form(2.0, 0.5, chart, gamma_constant("inf"), np.array([[0.1, 0.2]]))
    assert np.all(w == 0.0)


def test_curvature_constant_multiple_for_constant_gamma():
    chart = sphere_chart(1.0, "south")
    gam = gamma_constant(3.0)
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(20, 2))
    ratio = curvature_form(2.0, 0.5, chart, gam, pts) / chart.area_form(pts)
    assert np.ptp(ratio) < 1e-14


def test_flat_curvature_gives_zero_potential():
    conn = solve_connection_torus(lambda x: np.zeros(x.shape[0]))
    pts = np.random.default_rng(1).uniform(0, 1, (10, 2))
    assert np.max(np.abs(conn.A(pts))) < 1e-14
    assert conn.gauge_jump == pytest.approx(0.0, abs=1e-15)


def test_torus_connection_da_equals_omega(torus_data):
    cd = torus_data.chart_data
    pts = np.random.default_rng(2).uniform(0, 1, (60, 2))
    omega = curvature_form(torus_data.a, 0.5, cd.chart, cd.gamma, pts)
    # analytic route
    dA = cd.connection.dA(pts)
    assert np.max(np.abs(dA[:, 0, 1] - dA[:, 1, 0] - omega)) < 1e-12
    # finite-difference route on the potential values
    dA_fd = geo.fd_jet(cd.connection.A, pts, 1e-3)
    assert np.max(np.abs(dA_fd[:, 0, 1] - dA_fd[:, 1, 0] - omega)) < 1e-8


def test_torus_gauge_jump_is_total_flux(torus_data):
    assert torus_data.chart_data.connection.gauge_jump == pytest.approx(2 * np.pi, abs=1e-9)


def test_sphere_connection_da_equals_omega(sphere_data):
    for cd in sphere_data.surface.charts:
        pts = np.random.default_rng(3).uniform(-0.5, 0.5, (40, 2)) * np.sqrt(0.625)
        omega = curvature_form(2.0, 0.5, cd.chart, cd.gamma, pts)
        dA_fd = geo.fd_jet(cd.connection.A, pts, 1e-4)
        assert np.max(np.abs(dA_fd[:, 0, 1] - dA_fd[:, 1, 0] - omega)) < 1e-8


@pytest.mark.parametrize("chart", [0, 1])
def test_sphere_connection_at_and_near_the_chart_centre(sphere_data, chart):
    # One formula from x = 0 outward: the analytic dA must match the
    # potential's own derivatives at, next to and away from the centre.
    cd = sphere_data.surface.charts[chart]
    radius = np.sqrt(0.625)
    rho = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1.5e-4, 2e-4, 1e-3, 0.1, 0.5 * radius])
    phi = np.array([0.0, 0.7, 2.9])
    pts = (rho[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)[None]).reshape(-1, 2)
    dA = cd.connection.dA(pts)
    assert np.max(np.abs(dA - geo.fd_jet(cd.connection.A, pts, 1e-4))) < 1e-10
    omega = curvature_form(2.0, 0.5, cd.chart, cd.gamma, pts)
    assert np.max(np.abs(dA[:, 0, 1] - dA[:, 1, 0] - omega)) < 1e-12


def test_sphere_chern_is_one(sphere_data):
    assert sphere_data.surface.chern == pytest.approx(1.0, abs=1e-9)


def test_gamma_range_validation():
    with pytest.raises(GammaRangeError):
        validate_gamma_range(gamma_cos(0.7, 0.5), IV)
    validate_gamma_range(gamma_cos(3.0, 0.5), IV)  # fine
    with pytest.raises(GammaRangeError):
        validate_gamma_range(gamma_constant(0.5), IV)


def test_height_gamma_range_uses_radius():
    g = gamma_height(3.0, 0.5, 2.0, "south")
    assert g.value_range == (2.0, 4.0)
    with pytest.raises(GammaRangeError):
        validate_gamma_range(gamma_height(2.0, 0.8, 2.0, "south"), IV)


def test_area_form_orthonormal_frame_property():
    # omega_h(e1, e2) = 1 for an oriented h-orthonormal frame
    chart = sphere_chart(1.2, "south")
    pts = np.random.default_rng(4).uniform(-0.4, 0.4, (10, 2))
    h = chart.h(pts)
    w = chart.area_form(pts)
    lam = np.sqrt(h[:, 0, 0])
    e1 = np.column_stack([1.0 / lam, np.zeros(10)])
    e2 = np.column_stack([np.zeros(10), 1.0 / lam])
    pairing = w * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.max(np.abs(pairing - 1.0)) < 1e-12


def test_complex_structure_squares_to_minus_id():
    chart = sphere_chart(0.9, "north")
    pts = np.random.default_rng(5).uniform(-0.4, 0.4, (15, 2))
    js = chart.complex_structure(pts)
    assert np.max(np.abs(np.einsum("pij,pjk->pik", js, js) + np.eye(2))) < 1e-12
    h = chart.h(pts)
    herm = np.einsum("pki,pkl,plj->pij", js, h, js) - h
    assert np.max(np.abs(herm)) < 1e-12


@pytest.mark.parametrize("orientation", [1, -1])
def test_complex_structure_closed_form_equals_h_inverse_omega(orientation):
    # A non-diagonal h, so every entry of the closed form is exercised.
    def h(x):
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = 2.0 + x[:, 0] ** 2
        out[:, 1, 1] = 1.5 + np.sin(x[:, 1]) ** 2
        out[:, 0, 1] = out[:, 1, 0] = 0.7 * np.cos(x[:, 0] - x[:, 1])
        return out

    chart = SurfaceChart(name="skew", h=h, dh=None, domain=None, bounds=((-1, 1), (-1, 1)),
                         orientation=orientation)
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, (25, 2))
    hh = h(pts)
    omega = np.zeros_like(hh)
    omega[:, 0, 1] = chart.area_form(pts)
    omega[:, 1, 0] = -omega[:, 0, 1]
    js = chart.complex_structure(pts)
    # J^k_j = h^ki omega_ji, i.e. h(J w, w') = omega(w, w')
    assert np.max(np.abs(js - np.einsum("pki,pji->pkj", np.linalg.inv(hh), omega))) < 1e-14
    assert np.max(np.abs(np.swapaxes(js, 1, 2) @ hh - omega)) < 1e-14


def test_x2_dependent_torus_curvature_rejected():
    with pytest.raises(ValueError):
        solve_connection_torus(lambda x: np.sin(2 * np.pi * x[:, 1]))


def test_nonquantized_flux_warns():
    with pytest.warns(GaugeInconsistencyWarning):
        build_surface("torus", 3.0, {"torus": gamma_cos(3.0, 0.5)}, IV, 2.0, normalize="none")


def test_nonquantized_sphere_flux_warns():
    with pytest.warns(GaugeInconsistencyWarning, match="sphere"):
        build_surface("sphere", SPHERE_RADIUS, _heights(-2.0, 0.5, SPHERE_RADIUS), IV, 2.0)
