import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kahlergg.construction import _beta
from kahlergg.profiles import Interval
from kahlergg.rp1 import INFINITY, RP1Value, rp1_angle, rp1_distance
from kahlergg.surfaces import (GammaRangeError, gamma_constant, inv_tau_star_minus_gamma,
                               validate_gamma_range)


def beta_at(tau: float, tau_star: float, gamma) -> float:
    """The construction's beta = (tau - gamma)/(tau_star - gamma) at one point, gamma constant."""
    data = SimpleNamespace(chart_data=SimpleNamespace(gamma=gamma_constant(gamma)),
                           tau_star=tau_star)
    return float(_beta(data, np.zeros((1, 2)), np.array([tau]))[0])


def test_div_by_infinity_is_zero():
    # The convention q / inf = 0, where the construction divides by tau_star - gamma.
    assert np.all(inv_tau_star_minus_gamma(0.5, gamma_constant("inf"), np.zeros((3, 2))) == 0.0)


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
        assert beta_at(0.5, 0.5, gamma) == pytest.approx(1.0)


def test_beta_infinite_gamma_is_one():
    assert beta_at(0.2, 0.5, INFINITY) == 1.0


def test_beta_direct_arithmetic():
    assert beta_at(0.0, 0.5, RP1Value(3.0)) == pytest.approx(1.2)


def test_beta_singular_cases():
    # beta degenerates where gamma meets the segment between tau and tau_star; the
    # construction rejects every gamma that meets the closed interval.
    for gamma in (0.3, 0.4):
        with pytest.raises(GammaRangeError):
            validate_gamma_range(gamma_constant(gamma), Interval(0.0, 1.0))


@given(tau=st.floats(0.0, 1.0), tau_star=st.floats(0.0, 1.0),
       gamma=st.one_of(st.floats(min_value=1.5, max_value=100.0),
                       st.floats(min_value=-100.0, max_value=-0.5)))
def test_beta_positive_off_segment(tau, tau_star, gamma):
    assert beta_at(tau, tau_star, RP1Value(gamma)) > 0.0


def test_distance_regular_at_infinity():
    assert rp1_distance(INFINITY, INFINITY) == 0.0
    big = rp1_distance(1e9, INFINITY)
    assert 0.0 < big < 1e-8
    assert rp1_distance(0.0, INFINITY) == pytest.approx(math.pi / 2)


def test_angle_chart():
    assert rp1_angle(0.0) == 0.0
    assert rp1_angle(INFINITY) == pytest.approx(math.pi / 2)
    assert rp1_angle(1.0) == pytest.approx(math.pi / 4)
