"""The package's piecewise-polynomial tables against scipy's, as an independent reference."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PPoly, make_interp_spline

from kahlergg.piecewise import hermite_table, quintic_spline

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


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "not-a-knot"])
def test_quintic_spline_matches_make_interp_spline(periodic):
    # The torus rebuild's nodes (25, the period closing them; here not starting at 0)
    # and the sphere's (sigma = rho^2 for 24 evenly spaced rho).
    if periodic:
        u = np.linspace(0.1, 1.1, 25)
        y = 1.0 / (3.0 + np.cos(2.0 * np.pi * u))
        y[-1] = y[0]
        t = np.linspace(u[0], u[-1], 2001)
    else:
        u = np.linspace(0.0, 0.6, 24) ** 2
        y = np.exp(u) * np.cos(5.0 * u)
        t = np.linspace(u[0], u[-1] + (u[-1] - u[-2]), 2001)   # one interval past the end
    ref = PPoly.from_spline(make_interp_spline(u, y, k=5,
                                               bc_type="periodic" if periodic else "not-a-knot"))
    ours = quintic_spline(u, y, periodic=periodic)
    assert np.max(np.abs(ours(t) - ref(t))) <= 1e-12
    assert np.max(np.abs(ours.derivative()(t) - ref.derivative()(t))) <= 1e-12
    assert np.max(np.abs(ours(u) - y)) <= 1e-14


def test_quintic_spline_is_c4_and_periodic():
    u = np.linspace(0.0, 1.0, 25)
    y = np.sin(2.0 * np.pi * u) + 0.3 * np.cos(4.0 * np.pi * u)
    y[-1] = y[0]
    table = quintic_spline(u, y, periodic=True)
    for _ in range(5):
        left = np.array([np.polyval(c, h) for c, h in zip(table.c, np.diff(u))])
        right = table.c[:, -1]
        assert np.max(np.abs(left - np.roll(right, -1))) <= 1e-9 * (1.0 + np.max(np.abs(right)))
        table = table.derivative()


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


@pytest.mark.parametrize("case", ["nan value", "repeated node", "too few nodes", "open period"])
def test_quintic_spline_rejects_bad_nodes(case):
    u, y, periodic = np.linspace(0.0, 1.0, 9), np.cos(2.0 * np.pi * np.linspace(0.0, 1.0, 9)), True
    if case == "nan value":
        y[3] = np.nan
    elif case == "repeated node":
        u[4] = u[3]
    elif case == "too few nodes":
        u, y = u[:5], y[:5]
        periodic = False
    else:
        y[-1] += 1e-12
    with pytest.raises(ValueError):
        quintic_spline(u, y, periodic=periodic)
