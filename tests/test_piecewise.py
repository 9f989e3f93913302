"""The Hermite tables against scipy's, and the spectral interpolants against closed forms."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from kahlergg.piecewise import (chebyshev_interpolant, hermite_table, lobatto_nodes,
                                trig_interpolant)

NODES = {
    "uniform": np.linspace(-0.3, 1.2, 4097),
    "nonuniform": 0.5 * np.linspace(0.0, 1.0, 1025) ** 2,
}


def _probes(x: np.ndarray) -> np.ndarray:
    """Random points around [x0, xn], every node, and the edge cases of the NaN rule."""
    rng = np.random.default_rng(5)
    edges = [x[0], x[-1], np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
             x[0] - 1.0, x[-1] + 1.0, np.nan, np.inf, -np.inf]
    span = x[-1] - x[0]
    return np.concatenate([rng.uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span, 5000), x, edges])


@pytest.mark.parametrize("nodes", sorted(NODES))
def test_hermite_table_matches_cubic_hermite_spline(nodes):
    x = NODES[nodes]
    y, dydx = np.sin(3.0 * x) + x, 3.0 * np.cos(3.0 * x) + 1.0
    ours, ref = hermite_table(x, y, dydx), CubicHermiteSpline(x, y, dydx, extrapolate=False)
    t = _probes(x)
    with np.errstate(all="raise"):   # inf, NaN and points outside raise no warning either
        got = ours(t)
    want = ref(t)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert np.nanmax(np.abs(got - want)) <= 1e-14
    np.testing.assert_array_equal(ours.x, x)
    assert np.ndim(ours(float(x[7]))) == 0
    assert ours(np.reshape(t[:6], (2, 3))).shape == (2, 3)


def test_trig_interpolant_matches_closed_form():
    # The torus rebuild's nodes: 24 evenly spaced in one unit period, here from u0 = 0.1.
    u0 = 0.1
    u = u0 + np.arange(24) / 24.0

    def f(t):
        w = 2.0 * np.pi
        c, s = 3.0 + np.cos(w * t), np.sin(w * t)
        return 1.0 / c, w * s / c ** 2, w * w * (np.cos(w * t) / c ** 2 + 2.0 * s * s / c ** 3)

    fit = trig_interpolant(f(u)[0], u0)
    t = np.random.default_rng(5).uniform(-0.5, 1.5, 2001)   # two periods, off the nodes
    (value, slope, curve), (want, want_slope, want_curve) = fit(t), f(t)
    # The poles of f at cos(2 pi t) = -3 bound the error by about exp(-1.76 n/2).
    assert np.max(np.abs(value - want)) <= 1e-9
    assert np.max(np.abs(slope - want_slope)) <= 1e-7
    assert np.max(np.abs(curve - want_curve)) <= 5e-6
    assert np.max(np.abs(fit(u)[0] - f(u)[0])) <= 1e-14
    assert np.ndim(fit(0.3)[0]) == 0


def test_chebyshev_interpolant_matches_closed_form():
    # The sphere rebuild's nodes: 24 Chebyshev-Lobatto nodes of sigma in [0, 0.6^2].
    s_max = 0.36
    s = lobatto_nodes(24, s_max)
    assert s[0] == 0.0 and s[-1] == s_max and np.all(np.diff(s) > 0)

    def f(t):
        e, c, s = np.exp(t), np.cos(5.0 * t), np.sin(5.0 * t)
        return e * c, e * (c - 5.0 * s), e * (-24.0 * c - 10.0 * s)

    fit = chebyshev_interpolant(f(s)[0], s_max)
    t = np.linspace(0.0, s_max, 2003)[1:-1]        # off the nodes
    (value, slope, curve), (want, want_slope, want_curve) = fit(t), f(t)
    assert np.max(np.abs(value - want)) <= 1e-14
    assert np.max(np.abs(slope - want_slope)) <= 5e-12
    assert np.max(np.abs(curve - want_curve)) <= 2e-9
    assert np.max(np.abs(fit(s)[0] - f(s)[0])) <= 1e-14


BAD_TABLES = {
    "nan node": ([0.0, np.nan, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
    "inf value": ([0.0, 0.5, 1.0], [0.0, np.inf, 2.0], [1.0, 1.0, 1.0]),
    "nan slope": ([0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
    "repeated node": ([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]),
    "decreasing nodes": ([1.0, 0.5, 0.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
    "one node": ([0.0], [0.0], [1.0]),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_hermite_table_rejects_bad_nodes(case):
    with pytest.raises(ValueError):
        hermite_table(*BAD_TABLES[case])
