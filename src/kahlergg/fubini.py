"""Fubini-Study oracle: CP^m in an affine chart, with its quadratic-ratio potential.

The chart normalizes one homogeneous coordinate to 1 and uses the remaining
m complex coordinates w as 2m real ones, packed (Re w_0, Im w_0, Re w_1, ...).
The metric comes from the Kahler potential (1/2) log(1 + |w|^2); that
normalization is pinned by requiring

    Q = g(grad tau, grad tau) = 4 tau (1 - tau)

for tau([x, y]) = |y|^2 / (|x|^2 + |y|^2), and it makes Ric = 2(m+1) g
(Ric = 6 g on CP^2).  The critical sets of tau are the linear varieties
CP^k (tau = 0) and CP^l (tau = 1); radial rays w = tan(s) * w_hat are
unit-speed gradient-flow lines, which the boundary checks exploit.

Everything is independent of the bundle construction: this module supplies
the external cross-check for the identity suite and the extraction round
trip (the recovered gamma must come out constant, the special branch of
the classification).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import MatrixField, MetricField, ScalarField
from .profiles import Interval, build_reparams, make_profile


@dataclass(frozen=True)
class FSChart:
    m: int = 2
    k: int = 0
    l: int = 1
    norm_index: int = 0

    def __post_init__(self) -> None:
        if self.k < 0 or self.l < 0 or self.m != self.k + self.l + 1 or self.m < 2:
            raise ValueError(f"need k,l >= 0 and m = k+l+1 >= 2, got (k,l,m)=({self.k},{self.l},{self.m})")
        if not 0 <= self.norm_index <= self.m:
            raise ValueError("normalized homogeneous index out of range")

    @property
    def dim(self) -> int:
        return 2 * self.m

    def homogeneous_positions(self) -> np.ndarray:
        """Homogeneous index of each free complex coordinate."""
        return np.array([a if a < self.norm_index else a + 1 for a in range(self.m)])


def _to_complex(p: np.ndarray, m: int) -> np.ndarray:
    return p[:, 0::2] + 1j * p[:, 1::2]


def _hermitian_to_real(h: np.ndarray) -> np.ndarray:
    """Real symmetric metric of the Hermitian form: ds^2 = 2 Re(h_ab w^a conj(w^b)).

    The last two axes of h are (a, b); any leading axes are kept.
    """
    m = h.shape[-1]
    out = np.empty(h.shape[:-2] + (2 * m, 2 * m))
    re, im = 2.0 * h.real, 2.0 * h.imag
    out[..., 0::2, 0::2] = re
    out[..., 1::2, 1::2] = re
    out[..., 0::2, 1::2] = im
    out[..., 1::2, 0::2] = -im
    return out


def fs_metric(chart: FSChart) -> MetricField:
    m = chart.m

    def hermitian(p: np.ndarray):
        w = _to_complex(p, m)
        d = 1.0 + np.sum(p * p, axis=1)
        outer = np.conj(w)[:, :, None] * w[:, None, :]
        return 0.5 * (np.eye(m)[None] * d[:, None, None] - outer) / d[:, None, None] ** 2, w, d

    def value(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        h, _, _ = hermitian(p)
        return _hermitian_to_real(h)

    # d w_b / d p_r as a (2m, m) complex table.
    e = np.zeros((2 * m, m), dtype=complex)
    for b in range(m):
        e[2 * b, b] = 1.0
        e[2 * b + 1, b] = 1.0j

    def dvalue(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        n = p.shape[0]
        w = _to_complex(p, m)
        d = 1.0 + np.sum(p * p, axis=1)
        wbar = np.conj(w)
        outer = wbar[:, :, None] * w[:, None, :]
        dd = 2.0 * p  # (n, 2m)
        dh = np.empty((n, 2 * m, m, m), dtype=complex)
        for r in range(2 * m):
            douter = (np.conj(e[r])[None, :, None] * w[:, None, :]
                      + wbar[:, :, None] * e[r][None, None, :])
            dh[:, r] = 0.5 * (
                -np.eye(m)[None] * (dd[:, r] / d ** 2)[:, None, None]
                - douter / d[:, None, None] ** 2
                + 2.0 * outer * (dd[:, r] / d ** 3)[:, None, None])
        out = np.empty((n, 2 * m, 2 * m, 2 * m))
        for r in range(2 * m):
            out[:, r] = _hermitian_to_real(dh[:, r])
        return out

    def d2value(p: np.ndarray) -> np.ndarray:
        # h = (delta/d - wbar (x) w/d^2)/2, with d_r d = 2 p_r and d_s d_r d = 2 delta_rs:
        # d_s d_r (1/d) = -2 delta_rs/d^2 + 8 p_r p_s/d^3, d_r (1/d^2) = -4 p_r/d^3 and
        # d_s d_r (1/d^2) = -4 delta_rs/d^3 + 24 p_r p_s/d^4.
        p = np.asarray(p, dtype=float)
        # d_s d_r (wbar_a w_b) = conj(e[r,a]) e[s,b] + conj(e[s,a]) e[r,b], constant in p.
        d2outer = np.conj(e)[:, None, :, None] * e[None, :, None, :]
        d2outer = d2outer + np.swapaxes(d2outer, 0, 1)
        eye2m = np.eye(2 * m)
        w = _to_complex(p, m)
        d = 1.0 + np.sum(p * p, axis=1)
        wbar = np.conj(w)
        outer = wbar[:, :, None] * w[:, None, :]
        douter = (np.conj(e)[None, :, :, None] * w[:, None, None, :]
                  + wbar[:, None, :, None] * e[None, :, None, :])       # [r,a,b]
        pp = p[:, :, None] * p[:, None, :]
        dd_inv = -2.0 * eye2m / d[:, None, None] ** 2 + 8.0 * pp / d[:, None, None] ** 3
        dd_inv2 = -4.0 * eye2m / d[:, None, None] ** 3 + 24.0 * pp / d[:, None, None] ** 4
        cross = douter[:, :, None] * (-4.0 * p / d[:, None] ** 3)[:, None, :, None, None]
        d2h = 0.5 * (np.eye(m) * dd_inv[..., None, None]
                     - (d2outer / d[:, None, None, None, None] ** 2
                        + (cross + np.swapaxes(cross, 1, 2))
                        + outer[:, None, None] * dd_inv2[..., None, None]))
        return _hermitian_to_real(d2h)

    return MetricField(dim=2 * m, value=value, dvalue=dvalue, d2value=d2value,
                       domain=lambda p: np.ones(p.shape[0], dtype=bool),
                       step=3e-3, name=f"fubini-study[m={m}]")


def fs_tau(chart: FSChart) -> ScalarField:
    # tau = (|p_y|^2 + y0) / (1 + |p|^2): wy weights the real coordinates of the free
    # y-coordinates, y0 = 1 when the normalized homogeneous coordinate is a y-coordinate.
    wy = np.repeat(chart.homogeneous_positions() > chart.k, 2).astype(float)
    y0 = 1.0 if chart.norm_index > chart.k else 0.0

    def tau_and_s(p: np.ndarray):
        sq = p * p
        s = 1.0 + sq.sum(axis=1)
        return (sq @ wy + y0) / s, s

    def value(p: np.ndarray) -> np.ndarray:
        return tau_and_s(np.asarray(p, dtype=float))[0]

    def grad(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        tau, s = tau_and_s(p)
        return (2.0 / s)[:, None] * (p * wy - tau[:, None] * p)

    def grad_hess(p: np.ndarray):
        # d_a grad_j = (2/s) ((wy_j - tau) delta_aj - p_a grad_j - grad_a p_j)
        tau, s = tau_and_s(p)
        gr = (2.0 / s)[:, None] * (p * wy - tau[:, None] * p)
        pg = p[:, :, None] * gr[:, None, :]
        out = -(pg + np.swapaxes(pg, 1, 2))
        out += (wy[None, :] - tau[:, None])[:, :, None] * np.eye(p.shape[1])
        return gr, (2.0 / s)[:, None, None] * out, s

    def hess(p: np.ndarray) -> np.ndarray:
        return grad_hess(np.asarray(p, dtype=float))[1]

    def d3(p: np.ndarray) -> np.ndarray:
        # Three derivatives of s tau = |p_y|^2 + y0, with d_j s = 2 p_j, give
        # d_b H_aj = -(2/s) sym3(grad_b delta_aj + p_b H_aj), sym3 the sum over the slot
        # the b-factor takes in (b, a, j).
        p = np.asarray(p, dtype=float)
        gr, h, s = grad_hess(p)
        t = gr[:, :, None, None] * np.eye(p.shape[1]) + p[:, :, None, None] * h[:, None]
        t += t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)
        return (-2.0 / s)[:, None, None, None] * t

    return ScalarField(value=value, grad=grad, hess=hess, d3=d3, name="fs-tau")


def fs_J(chart: FSChart) -> MatrixField:
    m = chart.m
    j0 = np.zeros((2 * m, 2 * m))
    for b in range(m):
        j0[2 * b + 1, 2 * b] = 1.0
        j0[2 * b, 2 * b + 1] = -1.0

    def value(p: np.ndarray) -> np.ndarray:
        return np.broadcast_to(j0, (p.shape[0], 2 * m, 2 * m)).copy()

    def jac(p: np.ndarray) -> np.ndarray:
        return np.zeros((p.shape[0], 2 * m, 2 * m, 2 * m))

    return MatrixField(value=value, jac=jac, name="fs-J")


def fs_profile():
    """The momentum data Q = 4 tau (1 - tau): interval [0,1], slope constant a = 2."""
    prof = make_profile(Interval(0.0, 1.0), 2.0)
    return prof, build_reparams(prof)


def fs_ray_point(chart: FSChart, direction: np.ndarray, s) -> np.ndarray:
    """Point(s) at arclength s from the tau = 0 variety along a radial ray.

    Valid on the default chart (k = 0, normalized x-coordinate): all free
    coordinates are y-coordinates, tau = |w|^2/(1+|w|^2), and w = tan(s) w_hat
    is a unit-speed gradient-flow line with tau = sin^2 s.
    """
    if chart.k != 0 or chart.norm_index != 0:
        raise ValueError("radial rays are set up for the chart normalizing the x-coordinate")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return np.tan(s)[:, None] * np.asarray(direction, dtype=float)[None, :]


def fs_random_directions(chart: FSChart, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions in R^(2m), uniform on the sphere."""
    d = rng.normal(size=(n, chart.dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)

