import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kahlergg.construction import _beta
from kahlergg.profiles import Interval
from kahlergg.rp1 import INFINITY, RP1Value, recover_kappa
from kahlergg.surfaces import GammaRangeError, gamma_constant, validate_gamma_range


def beta_at(tau: float, tau_star: float, kappa: float) -> float:
    """The construction's beta = 1 + kappa (tau - tau_star) at one point, kappa constant."""
    field = SimpleNamespace(value=lambda x: np.full(x.shape[0], kappa))
    data = SimpleNamespace(chart_data=SimpleNamespace(kappa=field),
                           interval=SimpleNamespace(tau_star=tau_star))
    return float(_beta(data, np.zeros((1, 2)), np.array([tau]))[0])


def test_div_by_infinity_is_zero():
    # gamma = inf is kappa = 1/(tau_star - inf) = 0, in the config family and in RP1Value.
    assert INFINITY.kappa(0.5) == 0.0
    assert np.all(gamma_constant("inf", 0.5).value(np.zeros((3, 2))) == 0.0)
    assert RP1Value(3.0).kappa(0.5) == pytest.approx(-0.4)


def test_equality_is_tag_and_value():
    assert RP1Value(1.5) == RP1Value(1.5)
    assert RP1Value(1.5) != RP1Value(2.5)
    assert INFINITY == RP1Value(infinite=True)
    assert INFINITY != RP1Value(0.0)


def test_finite_value_must_be_finite():
    with pytest.raises(ValueError):
        RP1Value(math.inf)


def test_serialization_round_trip():
    assert RP1Value.of(INFINITY.to_json()) == INFINITY
    assert RP1Value.of(RP1Value(2.5).to_json()) == RP1Value(2.5)
    assert RP1Value.of("inf") == INFINITY


def test_beta_at_base_point_is_one():
    for gamma in (RP1Value(3.0), RP1Value(-7.0), INFINITY):
        assert beta_at(0.5, 0.5, gamma.kappa(0.5)) == 1.0


def test_beta_infinite_gamma_is_one():
    # kappa = 0 makes beta = 1 at every tau: one formula, no branch at gamma = inf.
    for tau in (0.0, 0.2, 0.9, 1.0):
        assert beta_at(tau, 0.5, 0.0) == 1.0


def test_beta_direct_arithmetic():
    # gamma = 3: kappa = 1/(1/2 - 3) = -0.4, and beta(0) = (0 - 3)/(1/2 - 3) = 1.2
    assert beta_at(0.0, 0.5, RP1Value(3.0).kappa(0.5)) == pytest.approx(1.2)


def test_beta_singular_cases():
    # beta degenerates where gamma meets the segment between tau and tau_star; the
    # construction rejects every gamma that meets the closed interval.
    for gamma in (0.3, 0.4, 0.5, 1.0):
        with pytest.raises(GammaRangeError):
            validate_gamma_range(gamma_constant(gamma, 0.5), Interval(0.0, 1.0))


@given(t=st.floats(0.0, 1.0), kl=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       tau_min=st.floats(-10.0, 10.0), length=st.floats(1e-3, 10.0))
@example(t=0.0, kl=0.9999999999999998, tau_min=4.0, length=0.001)  # beta = -8.9e-13 in floats
@example(t=0.0, kl=0.9999999999999998, tau_min=0.9999999999999998, length=2.0)  # beta = 0.0
@example(t=0.0, kl=1.0 - 1e-10, tau_min=10.0, length=0.001)
@example(t=1.0, kl=-(1.0 - 1e-10), tau_min=-10.0, length=0.001)
def test_beta_positive_off_segment(t, kl, tau_min, length):
    # |kappa| l < 1 with l = |I|/2 is gamma off the closed interval: beta > 0 on all of I,
    # for every kappa the construction accepts. It refuses only a roundoff band below 1.
    iv = Interval(tau_min, tau_min + length)
    tau = iv.tau_min + t * iv.length
    kappa = kl / (0.5 * iv.length)
    try:
        validate_gamma_range(SimpleNamespace(value_range=(kappa, kappa)), iv)
    except GammaRangeError:
        assert 1.0 - abs(kl) < 1e-10
        return
    assert beta_at(tau, iv.tau_star, kappa) > 0.0


def test_recovery_regular_at_infinity():
    # m = (Delta tau - 2 psi)/Q = 1/(tau - gamma) is 0 at gamma = inf, and so is kappa.
    tau = np.array([0.1, 0.5, 0.9])
    q, psi = np.ones(3), np.zeros(3)
    assert np.all(recover_kappa(tau, 0.5, q, 2.0 * psi, psi) == 0.0)


@pytest.mark.parametrize("gamma", [3.0, -7.0, 1.0 + 1e-9, -1e-9])
def test_recovery_inverts_phi(gamma):
    # Delta tau = 2 (psi + phi) with phi = Q/(2 (tau - gamma)) gives back 1/(tau_star - gamma).
    tau = np.array([0.05, 0.3, 0.5, 0.8, 0.95])
    q, psi = 4.0 * tau * (1.0 - tau), 2.0 - 4.0 * tau
    lap = 2.0 * (psi + q / (2.0 * (tau - gamma)))
    kappa = recover_kappa(tau, 0.5, q, lap, psi)
    assert np.max(np.abs(kappa * (0.5 - gamma) - 1.0)) < 1e-12
