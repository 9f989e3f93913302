"""Interpolants of tabulated data: cubic Hermite tables and two spectral interpolants.

A :class:`PiecewisePoly` stores, per interval [x_i, x_{i+1}], the power-basis
coefficients of its polynomial in (t - x_i), highest power first, and
evaluates by an index lookup and Horner's rule.  On uniform nodes the index
is arithmetic; otherwise it is a binary search.  It is NaN outside
[x_0, x_n] and at NaN.  ``hermite_table`` builds every such table.

The round trip's rebuild uses ``trig_interpolant`` (periodic data at evenly
spaced nodes) and ``chebyshev_interpolant`` (data at Chebyshev-Lobatto
nodes): closed forms whose coefficients come from one ``np.fft.rfft``, with
no linear solve, each returning a function t -> (value, first and second
t-derivatives).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev


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
    """Polynomials c[i] in (t - x[i]) on [x[i], x[i+1]], highest power first; NaN outside."""

    def __init__(self, x: np.ndarray, c: np.ndarray) -> None:
        self.x = x
        self._rows = np.column_stack([x[:-1], c])      # one gather gives x[i] and c[i]
        n = x.size - 1
        step = (x[-1] - x[0]) / n
        uniform = np.max(np.abs(x - (x[0] + step * np.arange(n + 1)))) <= 1e-12 * (x[-1] - x[0])
        # np.interp(t, xp, fp) is t's fractional interval index: from the two end
        # nodes alone on uniform nodes (arithmetic), by binary search otherwise.
        # It is NaN at NaN and outside [x0, xn].
        self._xp, self._fp = ((x[[0, -1]], np.array([0.0, n])) if uniform
                              else (x, np.arange(n + 1.0)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = np.interp(t, self._xp, self._fp, left=np.nan, right=np.nan)
        row = self._rows.take(np.fmin(s, self._rows.shape[0] - 1).astype(np.intp), axis=0)
        dt = t - row[..., 0] + 0.0 * s                 # NaN wherever s is
        out = row[..., 1]
        for j in range(2, row.shape[-1]):
            out = out * dt + row[..., j]
        return out


def hermite_table(x, y, dydx) -> PiecewisePoly:
    """The C^1 piecewise cubic with values y and slopes dydx at the nodes x; NaN outside."""
    x, (y, dydx) = _checked(x, y, dydx)
    h = np.diff(x)
    slope = np.diff(y) / h
    t = (dydx[:-1] + dydx[1:] - 2.0 * slope) / h
    c = np.column_stack([t / h, (slope - dydx[:-1]) / h - t, dydx[:-1], y[:-1]])
    return PiecewisePoly(x, c)


def trig_interpolant(y, u0: float):
    """t -> (p(t), p'(t), p''(t)) for the trigonometric interpolant p of y at u0 + k/n, period 1.

    p(t) = sum_j a_j cos(2 pi j (t - u0)) + b_j sin(2 pi j (t - u0)) over
    j <= n/2, with the coefficients read off rfft(y)/n; the j = 0 term, and
    for an even n the Nyquist term, count once rather than twice.
    """
    y = np.asarray(y, dtype=float)
    f = np.fft.rfft(y) / y.size
    a, b = 2.0 * f.real, -2.0 * f.imag
    a[0] *= 0.5
    if y.size % 2 == 0:
        a[-1] *= 0.5
    freq = 2.0 * np.pi * np.arange(f.size)

    def evaluate(t):
        phase = freq * (np.asarray(t, dtype=float)[..., None] - u0)
        c, s = np.cos(phase), np.sin(phase)
        p = a * c + b * s
        return (np.sum(p, axis=-1), np.sum(freq * (b * c - a * s), axis=-1),
                np.sum(-freq * freq * p, axis=-1))

    return evaluate


def lobatto_nodes(n: int, x_max: float) -> np.ndarray:
    """The n Chebyshev-Lobatto nodes x_max (1 - cos(pi k/(n - 1)))/2 of [0, x_max], increasing."""
    return 0.5 * x_max * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))


def chebyshev_interpolant(y, x_max: float):
    """t -> (p(t), p'(t), p''(t)), p the polynomial through y at ``lobatto_nodes(y.size, x_max)``.

    p's Chebyshev coefficients in z = 2 t/x_max - 1 are the DCT-I of y,
    taken as the rfft of its even extension, with the two end ones halved.
    """
    y = np.asarray(y, dtype=float)
    m = y.size - 1
    c = np.fft.rfft(np.concatenate([y[::-1], y[1:-1]])).real / m  # y[::-1] sits at cos(pi k/m)
    c[[0, -1]] *= 0.5
    dc = chebyshev.chebder(c) * (2.0 / x_max)
    d2c = chebyshev.chebder(dc) * (2.0 / x_max)

    def evaluate(t):
        z = 2.0 * np.asarray(t, dtype=float) / x_max - 1.0
        return chebyshev.chebval(z, c), chebyshev.chebval(z, dc), chebyshev.chebval(z, d2c)

    return evaluate
