"""Piecewise-polynomial tables: cubic Hermite interpolants and quintic splines.

A :class:`PiecewisePoly` stores, per interval [x_i, x_{i+1}], the power-basis
coefficients of its polynomial in (t - x_i), highest power first, and
evaluates by an index lookup and Horner's rule.  On uniform nodes the index
is arithmetic; otherwise it is a binary search.  A table either is NaN
outside [x_0, x_n] and at NaN, or extrapolates: its end intervals'
polynomials continue past the ends (and NaN stays NaN).

Two constructors build every table of the package:

  * ``hermite_table(x, y, dydx)``: the cubic with the given node values and
    slopes on each interval (NaN outside);
  * ``quintic_spline(x, y, periodic)``: the C^4 quintic interpolating spline
    with knots at the nodes, periodic (y[-1] closes the period) or
    not-a-knot (a continuous fifth derivative at the two nodes next to each
    end), which extrapolates.  Its coefficients come from one dense solve of
    the interpolation and continuity conditions, with the data on the
    right-hand side only: no divided differences, so graded nodes such as
    sigma = rho^2 lose no digits to cancellation.
"""

from __future__ import annotations

import numpy as np


def _checked(x, *values) -> tuple:
    """x and values as float arrays; ValueError unless finite with x strictly increasing."""
    x = np.asarray(x, dtype=float)
    values = tuple(np.asarray(v, dtype=float) for v in values)
    if x.ndim != 1 or x.size < 2 or any(v.shape != x.shape for v in values):
        raise ValueError("a table needs at least two nodes and one value of each kind per node")
    if not (np.all(np.isfinite(x)) and all(np.all(np.isfinite(v)) for v in values)):
        raise ValueError("a table's nodes, values and slopes must be finite")
    if not np.all(np.diff(x) > 0):
        raise ValueError("a table's nodes must be strictly increasing")
    return x, values


class PiecewisePoly:
    """Polynomials c[i] in (t - x[i]) on [x[i], x[i+1]], highest power first."""

    def __init__(self, x: np.ndarray, c: np.ndarray, extrapolate: bool) -> None:
        self.x = x
        self.c = c
        self.extrapolate = extrapolate
        self._rows = np.column_stack([x[:-1], c])      # one gather gives x[i] and c[i]
        n = x.size - 1
        step = (x[-1] - x[0]) / n
        uniform = np.max(np.abs(x - (x[0] + step * np.arange(n + 1)))) <= 1e-12 * (x[-1] - x[0])
        # np.interp(t, xp, fp) is t's fractional interval index: from the two end
        # nodes alone on uniform nodes (arithmetic), by binary search otherwise.
        # It is NaN at NaN, and outside [x0, xn] for a table that does not extrapolate.
        self._xp, self._fp = ((x[[0, -1]], np.array([0.0, n])) if uniform
                              else (x, np.arange(n + 1.0)))
        self._outside = None if extrapolate else np.nan

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = np.interp(t, self._xp, self._fp, left=self._outside, right=self._outside)
        row = self._rows.take(np.fmin(s, self._rows.shape[0] - 1).astype(np.intp), axis=0)
        dt = t - row[..., 0]
        if not self.extrapolate:
            dt = dt + 0.0 * s                          # NaN wherever s is
        out = row[..., 1]
        for j in range(2, row.shape[-1]):
            out = out * dt + row[..., j]
        return out

    def derivative(self) -> "PiecewisePoly":
        deg = self.c.shape[1] - 1
        return PiecewisePoly(self.x, self.c[:, :-1] * np.arange(deg, 0, -1), self.extrapolate)


def hermite_table(x, y, dydx) -> PiecewisePoly:
    """The C^1 piecewise cubic with values y and slopes dydx at the nodes x; NaN outside."""
    x, (y, dydx) = _checked(x, y, dydx)
    h = np.diff(x)
    slope = np.diff(y) / h
    t = (dydx[:-1] + dydx[1:] - 2.0 * slope) / h
    c = np.column_stack([t / h, (slope - dydx[:-1]) / h - t, dydx[:-1], y[:-1]])
    return PiecewisePoly(x, c, extrapolate=False)


def _derivative_rows(z: float) -> np.ndarray:
    """Row j: the j-th derivative at z of sum_k a_k z^k (k <= 5), as a row acting on a."""
    k = np.arange(6)
    return np.array([np.prod(k[:, None] - np.arange(j), axis=1) * z ** np.maximum(k - j, 0)
                     for j in range(6)])             # k!/(k - j)! z^(k - j), 0 for k < j


def quintic_spline(x, y, periodic: bool) -> PiecewisePoly:
    """The C^4 quintic spline through (x, y), periodic or not-a-knot; it extrapolates.

    Periodic: y[-1] must equal y[0], and x[-1] - x[0] is the period.  The
    unknowns are each interval's coefficients in z = (t - x_i)/h_i, with h_i
    in units of the mean spacing, so every row of the solve is O(1).
    """
    x, (y,) = _checked(x, y)
    if x.size < 6:
        raise ValueError("a quintic spline needs at least six nodes")
    if periodic and y[-1] != y[0]:
        raise ValueError("a periodic spline needs y[-1] == y[0]")
    m = x.size - 1                                      # intervals
    unit = (x[-1] - x[0]) / m
    h = np.diff(x) / unit
    at0, at1 = _derivative_rows(0.0), _derivative_rows(1.0)

    def jump(node: int, order: int) -> np.ndarray:
        """Left minus right order-th derivative at a node, as a row over the coefficients."""
        row = np.zeros((m, 6))
        row[(node - 1) % m] = at1[order] / h[(node - 1) % m] ** order
        row[node % m] -= at0[order] / h[node % m] ** order
        return row.ravel()

    nodes = range(m) if periodic else range(1, m)
    jumps = [(k, order) for k in nodes for order in (1, 2, 3, 4)]
    if not periodic:
        jumps += [(k, 5) for k in (1, 2, m - 2, m - 1)]
    rows = np.vstack([np.kron(np.eye(m), at0[0]),     # p_i(x_i) = y_i
                      np.kron(np.eye(m), at1[0]),     # p_i(x_{i+1}) = y_{i+1}
                      [jump(k, order) for k, order in jumps]])
    rhs = np.concatenate([y[:-1], y[1:], np.zeros(len(jumps))])
    a = np.linalg.solve(rows, rhs).reshape(m, 6)
    c = a / (h * unit)[:, None] ** np.arange(6)
    return PiecewisePoly(x, np.ascontiguousarray(c[:, ::-1]), extrapolate=True)
