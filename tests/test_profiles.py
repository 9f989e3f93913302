import numpy as np
import pytest
from scipy.integrate import quad

from kahlergg.profiles import (Interval, InvalidProfileError, build_reparams, make_profile,
                               profile_table)


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture(scope="module")
def canonical():
    prof = make_profile(Interval(0.0, 1.0), 2.0)
    return prof, build_reparams(prof)


def test_canonical_is_logistic_shape(canonical):
    prof, _ = canonical
    tau = np.linspace(0, 1, 11)
    assert np.allclose(prof.Q(tau), 4.0 * tau * (1.0 - tau), atol=1e-14)


def test_endpoint_zeros_exact(canonical):
    prof, _ = canonical
    assert prof.Q(0.0) == 0.0
    assert prof.Q(1.0) == 0.0


def test_endpoint_slopes(canonical):
    prof, _ = canonical
    assert prof.dQ(0.0) == pytest.approx(4.0, abs=1e-14)
    assert prof.dQ(1.0) == pytest.approx(-4.0, abs=1e-14)


def test_psi_examples(canonical):
    prof, _ = canonical
    assert prof.psi(0.0) == pytest.approx(2.0)
    assert prof.psi(0.5) == pytest.approx(0.0, abs=1e-15)
    assert prof.psi(1.0) == pytest.approx(-2.0)


def test_negative_bump_rejected():
    # A bump deep enough to push q (and so Q) negative in the interior.
    with pytest.raises(InvalidProfileError):
        make_profile(Interval(0.0, 1.0), 2.0, q_interior=(-70.0,))


def test_nonpositive_a_rejected():
    with pytest.raises(InvalidProfileError):
        make_profile(Interval(0.0, 1.0), -1.0)


def test_lambda_quadrature_vs_arcsin_oracle(canonical):
    _, maps = canonical
    # oracle: integral of (4 tau(1-tau))^(-1/2) = arcsin(sqrt(tau)); adaptive quadrature
    oracle, _ = quad(lambda t: 1.0 / np.sqrt(4.0 * t * (1.0 - t)), 0.0, 1.0,
                     points=[0.0, 1.0], limit=200)
    assert abs(oracle - np.pi / 2) < 1e-9
    assert abs(maps.lam - np.pi / 2) < 1e-6


def test_r_closed_form(canonical):
    # r^2 = tau/(1-tau), verified by hand from dr/dtau = a r / Q
    _, maps = canonical
    for tau in (0.25, 0.5, 0.75):
        assert abs(maps.r_of_tau(tau) - np.sqrt(tau / (1.0 - tau))) < 1e-11


def test_sigma_closed_form(canonical):
    # sigma(r) = arctan r; sigma(1) = s(1/2) = arcsin(sqrt(1/2)) = pi/4
    _, maps = canonical
    assert abs(maps.sigma(1.0) - np.pi / 4) < 1e-12
    for r in (0.4, 1.7, 3.0):
        assert abs(maps.sigma(r) - np.arctan(r)) < 1e-12


def test_arclength_maps_are_exact_on_the_closed_interval(canonical):
    # tau = sin^2 s on the canonical profile; the tables carry the ODE's own
    # slopes, so they hold to roundoff up to and including both ends.
    _, maps = canonical
    s = np.linspace(0.0, maps.lam, 4001)
    assert np.max(np.abs(maps.tau_of_s(s) - np.sin(s) ** 2)) <= 1e-13
    tau = np.linspace(0.0, 1.0, 4001)
    assert np.max(np.abs(maps.s_of_tau(tau) - np.arcsin(np.sqrt(tau)))) <= 1e-12


def test_dsigma_dr_matches_rate(canonical):
    prof, maps = canonical
    tau = np.linspace(0.1, 0.9, 9)
    r = maps.r_of_tau(tau)
    lhs = central_difference(maps.sigma, r)
    rhs = np.sqrt(prof.Q(tau)) / (prof.a * r)
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_chain_rule_consistency(canonical):
    prof, maps = canonical
    tau = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(central_difference(maps.s_of_tau, tau) - prof.Q(tau) ** -0.5)) < 1e-5


def test_inverse_maps(canonical):
    _, maps = canonical
    s = np.linspace(0.02, maps.lam - 0.02, 41)
    assert np.max(np.abs(maps.s_of_tau(maps.tau_of_s(s)) - s)) < 1e-11
    lo, hi = maps.tabulated_tau_range
    tau = np.linspace(lo + 0.01, hi - 0.01, 41)
    assert np.max(np.abs(maps.tau_of_r(maps.r_of_tau(tau)) - tau)) < 1e-11


def test_asymmetric_interval_and_slopes():
    prof = make_profile(Interval(-1.0, 3.0), 0.7)
    assert prof.Q(-1.0) == 0.0 and prof.Q(3.0) == 0.0
    assert prof.dQ(-1.0) == pytest.approx(1.4, abs=1e-13)
    assert prof.dQ(3.0) == pytest.approx(-1.4, abs=1e-13)
    maps = build_reparams(prof)
    tau = np.linspace(-0.5, 2.5, 7)
    assert np.max(np.abs(central_difference(maps.s_of_tau, tau) - prof.Q(tau) ** -0.5)) < 1e-4


def test_bumped_profile_still_consistent():
    prof = make_profile(Interval(0.0, 1.0), 2.0, q_interior=(1.5, -0.8))
    taus = np.linspace(0.0, 1.0, 101)
    assert np.all(prof.Q(taus[1:-1]) > 0)
    assert prof.dQ(0.0) == pytest.approx(4.0)
    assert prof.dQ(1.0) == pytest.approx(-4.0)
    maps = build_reparams(prof)
    tau = np.linspace(0.1, 0.9, 9)
    assert np.max(np.abs(central_difference(maps.s_of_tau, tau) - prof.Q(tau) ** -0.5)) < 1e-5


def test_profile_table_columns(canonical):
    prof, maps = canonical
    table = profile_table(prof, maps, n=33)
    assert table.shape == (33, 5)
    tau, q, psi, r, s = table.T
    assert np.allclose(q, prof.Q(tau))
    assert np.allclose(psi, prof.psi(tau))
    assert np.all(np.diff(r) > 0) and np.all(np.diff(s) > 0)
