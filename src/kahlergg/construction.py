"""The total-space Kahler metric on a punctured line bundle, in coordinates.

Chart coordinates are q = (x1, x2, tau, theta): (x1, x2) ranges over a base
chart of (Sigma, h), tau over the open profile interval, and theta over the
fiber angle of the unit-frame trivialization xi = r(tau) e^(i theta).
Substituting dr/dtau = a r / Q into the fiber metric removes r from every
runtime formula and gives the block form

    g = beta * h + Q^(-1) dtau^2 + a^(-2) Q (dtheta - A)^2,

with beta = (tau - gamma)/(tau_star - gamma) = 1 + kappa (tau - tau_star), read
off the chart's kappa = 1/(tau_star - gamma) field (see ``rp1``; gamma = inf is
kappa = 0, with no branch), and A the chart connection potential with dA = Omega.
Base charts are isothermal (see ``surfaces``): h = lam2 * delta, so the
horizontal block is beta lam2 delta + a^(-2) Q A (x) A, and the lifted J_Sigma
is the constant rotation ``J_SIGMA``.  Nothing here inverts a matrix.

Orientation note: theta rotates so that u = a d_theta = J(grad tau).  With
that choice the horizontal distribution is ker(dtau) n ker(dtheta - A) and
the horizontal lift of w is w + A(w) d_theta; the vertical part of a bracket
of lifts is then +dA(w,w') d_theta, which is what makes the prescribed
curvature sign close up with the Kahler condition (the torsion check in the
closed-form Christoffels cancels exactly iff dA = Omega).

Two independent routes to the Levi-Civita connection are exposed: the
assembled metric field (with exact analytic first and second derivatives,
differentiable by the generic engine), and ``christoffel_closed_form``, reconstructed from
the covariant-derivative table of the construction (radial/angular fields
are eigenfields of nabla v; horizontal covariant derivatives reduce to
those of the conformally flat base block beta lam2 delta plus
phi-corrections).  Their agreement at random points is the main
oracle-equivalence gate of the test suite.

Neither route knows the documented negative controls.  ``with_control``
wraps the clean metric and J in the perturbation that ``data.control``
names, each wrapper with analytic jets (the metric ones add p E, with p's
jet), and the verification subject is its only caller; the closed-form
Christoffels describe the clean metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import MatrixField, MetricField, ScalarField, jet_chain, jet_mul
from .profiles import Interval, MomentumProfile, ReparamMaps, build_reparams, make_profile
from .surfaces import J_SIGMA, BaseSurfaceData, ChartData

CONTROLS = ("none", "perturb-beta", "perturb-j", "break-symmetry")

_EYE2 = np.eye(2)


@dataclass
class ConstructionData:
    interval: Interval
    a: float
    profile: MomentumProfile
    maps: ReparamMaps
    surface: BaseSurfaceData
    chart_index: int = 0
    control: str = "none"  # a label: only ``with_control`` and the verify subject read it

    @property
    def chart_data(self) -> ChartData:
        return self.surface.charts[self.chart_index]


def _beta(data: ConstructionData, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """beta = 1 + kappa (tau - tau_star)."""
    return 1.0 + data.chart_data.kappa.value(x) * (tau - data.interval.tau_star)


def _coordinate(P: np.ndarray, i: int, order: int) -> tuple:
    """The jet of the chart coordinate q_i at the points, to ``order``."""
    e = np.zeros(P.shape)
    e[:, i] = 1.0
    return (P[:, i], e, np.zeros(P.shape + (P.shape[1],)))[:order + 1]


def _on_base(fns: tuple, x: np.ndarray, n: int) -> tuple:
    """Each f(x) of a base field's chart jet (f, d f, ...), padded with zeros to the n coordinates."""
    out = []
    for f in fns:
        v = f(x)
        d = np.zeros(v.shape[:1] + (n,) * (v.ndim - 1))
        d[(slice(None),) + (slice(0, 2),) * (v.ndim - 1)] = v
        out.append(d)
    return tuple(out)


def _beta_lam2(data: ConstructionData, P: np.ndarray, order: int) -> tuple:
    """The jets of beta = 1 + kappa (tau - tau_star) and of lam2 over the chart coordinates
    (x1, x2, tau) or (x1, x2, tau, theta) that P holds, to ``order``."""
    cd, x, n = data.chart_data, P[:, :2], P.shape[1]
    kappa = _on_base((cd.kappa.value, cd.kappa.grad, cd.kappa.hess)[:order + 1], x, n)
    dt = _coordinate(P, 2, order)
    beta = jet_mul(kappa, (dt[0] - data.interval.tau_star,) + dt[1:])
    return ((1.0 + beta[0],) + beta[1:],
            _on_base((cd.chart.lam2, cd.chart.dlam2, cd.chart.d2lam2)[:order + 1], x, n))


def assemble_metric(data: ConstructionData) -> MetricField:
    """The coordinate metric with exact analytic first and second derivatives."""
    prof, a = data.profile, data.a
    iv = data.interval
    cd = data.chart_data
    # Steps shrink with a chart narrower than 1 (a small sphere) and with an interval
    # shorter than 1, so stencils stay in scale.
    (x1lo, x1hi), _ = cd.chart.bounds
    x_step = 1.5e-3 * min(1.0, x1hi - x1lo)
    tau_step = 3e-4 * min(1.0, iv.length)

    def value(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        x, tau = P[:, :2], P[:, 2]
        n = P.shape[0]
        A = cd.connection.A(x)
        Q = prof.Q(tau)
        beta = _beta(data, x, tau)
        B = Q / a ** 2
        g = np.zeros((n, 4, 4))
        g[:, :2, :2] = ((beta * cd.chart.lam2(x))[:, None, None] * _EYE2
                        + B[:, None, None] * A[:, :, None] * A[:, None, :])
        g[:, :2, 3] = -B[:, None] * A
        g[:, 3, :2] = g[:, :2, 3]
        g[:, 3, 3] = B
        g[:, 2, 2] = 1.0 / Q
        return g

    def dvalue(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        x, tau = P[:, :2], P[:, 2]
        n = P.shape[0]
        A = cd.connection.A(x)
        dA = cd.connection.dA(x)
        Q = prof.Q(tau)
        dQ = prof.dQ(tau)
        dF = jet_mul(*_beta_lam2(data, P[:, :3], 1))[1]  # d (beta lam2), the base block's diagonal
        B = Q / a ** 2
        dB = dQ / a ** 2
        out = np.zeros((n, 4, 4, 4))
        dAA = dA[:, :, :, None] * A[:, None, None, :]  # [a,i,j] = d_a A_i A_j
        out[:, :2, :2, :2] = (dF[:, :2, None, None] * _EYE2
                              + B[:, None, None, None] * (dAA + np.swapaxes(dAA, 2, 3)))
        out[:, :2, :2, 3] = -B[:, None, None] * dA
        out[:, :2, 3, :2] = out[:, :2, :2, 3]
        out[:, 2, :2, :2] = (dF[:, 2, None, None] * _EYE2
                             + dB[:, None, None] * A[:, :, None] * A[:, None, :])
        out[:, 2, :2, 3] = -dB[:, None] * A
        out[:, 2, 3, :2] = out[:, 2, :2, 3]
        out[:, 2, 3, 3] = dB
        out[:, 2, 2, 2] = -dQ / Q ** 2
        return out

    def d2value(P: np.ndarray) -> np.ndarray:
        # Every factor depends on (x1, x2, tau) alone, so only those derivatives are
        # nonzero: F = beta lam2 on the base diagonal, B = Q/a^2 along tau, A along the base.
        P = np.asarray(P, dtype=float)
        x, tau = P[:, :2], P[:, 2]
        n = P.shape[0]
        A, dA, d2A = cd.connection.A(x), cd.connection.dA(x), cd.connection.d2A(x)
        Q, dQ, d2Q = prof.Q(tau), prof.dQ(tau), prof.d2Q(tau)
        d2f = jet_mul(*_beta_lam2(data, P[:, :3], 2))[2]
        B, dB, d2B = Q / a ** 2, dQ / a ** 2, d2Q / a ** 2
        AA = A[:, :, None] * A[:, None, :]
        dAA = dA[:, :, :, None] * A[:, None, None, :]  # [a,i,j] = d_a A_i A_j
        dAA = dAA + np.swapaxes(dAA, 2, 3)
        d2AA = d2A[:, :, :, :, None] * A[:, None, None, None, :]  # [b,a,i,j] = d_b d_a A_i A_j
        cross = dA[:, None, :, :, None] * dA[:, :, None, None, :]  # [b,a,i,j] = d_a A_i d_b A_j
        d2AA = (d2AA + np.swapaxes(d2AA, 3, 4)) + (cross + np.swapaxes(cross, 1, 2))
        out = np.zeros((n, 4, 4, 4, 4))
        # Over (x1, x2, tau): d_b d_a of B A_i A_j + F delta_ij in the base block, of -B A_i
        # in the mixed one.
        base, mixed = out[:, :3, :3, :2, :2], out[:, :3, :3, :2, 3]
        base[:, :2, :2] = B[:, None, None, None, None] * d2AA
        base[:, :2, 2] = base[:, 2, :2] = dB[:, None, None, None] * dAA
        base[:, 2, 2] = d2B[:, None, None] * AA
        base[..., 0, 0] += d2f
        base[..., 1, 1] += d2f
        mixed[:, :2, :2] = -B[:, None, None, None] * d2A
        mixed[:, :2, 2] = mixed[:, 2, :2] = -dB[:, None, None] * dA
        mixed[:, 2, 2] = -d2B[:, None] * A
        out[:, :3, :3, 3, :2] = mixed
        out[:, 2, 2, 3, 3] = d2B
        out[:, 2, 2, 2, 2] = 2.0 * dQ ** 2 / Q ** 3 - d2Q / Q ** 2
        return out

    def domain(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        return iv.contains(P[:, 2]) & cd.chart.domain(P[:, :2])

    def step_limiter(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        n = P.shape[0]
        h = np.full((n, 4), np.inf)
        gap = np.minimum(P[:, 2] - iv.tau_min, iv.tau_max - P[:, 2])
        h[:, 2] = 0.2 * gap
        return h

    return MetricField(dim=4, value=value, dvalue=dvalue, d2value=d2value, domain=domain,
                       step=np.array([x_step, x_step, tau_step, 1e-2]),
                       step_limiter=step_limiter,
                       name=f"construction[{data.surface.surface_type}:{cd.chart.name}]")


def assemble_J(data: ConstructionData) -> MatrixField:
    """Fiber rotation plus the lifted base complex structure, with analytic dJ.

    J_Sigma is the constant ``J_SIGMA``, so only A and Q vary along the jet.
    """
    prof, a = data.profile, data.a
    cd = data.chart_data

    def value(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        x, tau = P[:, :2], P[:, 2]
        n = P.shape[0]
        A = cd.connection.A(x)
        Q = prof.Q(tau)
        J = np.zeros((n, 4, 4))
        J[:, :2, :2] = J_SIGMA
        J[:, 2, :2] = (Q / a)[:, None] * A
        J[:, 3, :2] = A @ J_SIGMA
        J[:, 3, 2] = a / Q
        J[:, 2, 3] = -Q / a
        return J

    def jac(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        x, tau = P[:, :2], P[:, 2]
        n = P.shape[0]
        A = cd.connection.A(x)
        dA = cd.connection.dA(x)
        Q = prof.Q(tau)
        dQ = prof.dQ(tau)
        out = np.zeros((n, 4, 4, 4))
        out[:, :2, 2, :2] = (Q / a)[:, None, None] * dA
        out[:, :2, 3, :2] = dA @ J_SIGMA
        out[:, 2, 2, :2] = (dQ / a)[:, None] * A
        out[:, 2, 3, 2] = -a * dQ / Q ** 2
        out[:, 2, 2, 3] = -dQ / a
        return out

    return MatrixField(value=value, jac=jac, name="J")


def with_control(data: ConstructionData, metric: MetricField, J: MatrixField):
    """The (metric, J) pair of ``data.control``: the clean pair itself for "none".

    perturb-j flips J_Sigma in J; the two metric controls add p E to the
    clean metric (``_plus``), so the clean evaluators carry no control code.
    """
    if data.control == "none":
        return metric, J
    if data.control == "perturb-j":
        return metric, _flip_j(J)
    e, p = {"perturb-beta": (_BASE_DIAGONAL, _perturb_beta),
            "break-symmetry": (_TAU_TAU, _break_symmetry)}[data.control]
    return _plus(metric, e, lambda P, g: p(data, P, g), f"{metric.name}+{data.control}"), J


def _plus(metric: MetricField, e: np.ndarray, p, name: str) -> MetricField:
    """The metric g + p E for a constant matrix E and a scalar p whose jet at the points is
    ``p(P, g)``, to the order of g's jet ``g`` (g, d g, d d g cut after the entry read)."""
    fns = (metric.value, metric.dvalue, metric.d2value)

    def at_order(order):
        def evaluate(P):
            P = np.asarray(P, dtype=float)
            g = tuple(f(P) for f in fns[:order + 1])
            return g[order] + p(P, g)[order][..., None, None] * e
        return evaluate

    return replace(metric, value=at_order(0), dvalue=at_order(1), d2value=at_order(2), name=name)


# Rows (x1, x2, theta) x columns (x1, x2): the entries of J and of its jet
# that are linear in J_Sigma.
_J_SIGMA_ROWS = [0, 1, 3]


def _flip_j(J: MatrixField) -> MatrixField:
    """perturb-j: J_Sigma -> -J_Sigma in the lifted structure."""

    def value(P):
        out = J.value(P)
        out[:, _J_SIGMA_ROWS, :2] *= -1.0
        return out

    def jac(P):
        out = J.jac(P)
        out[:, :, _J_SIGMA_ROWS, :2] *= -1.0
        return out

    return replace(J, value=value, jac=jac, name=f"{J.name}-flipped")


_BASE_DIAGONAL = np.diag([1.0, 1.0, 0.0, 0.0])
_TAU_TAU = np.diag([0.0, 0.0, 1.0, 0.0])
_BREAK_AMP = 0.1


def _break_symmetry(data: ConstructionData, P: np.ndarray, g: tuple) -> tuple:
    """break-symmetry: g_tautau times f = 1 + 0.1 sin(2 pi x1) sin theta, p = (f - 1) g_tautau."""
    order, w = len(g) - 1, 2.0 * np.pi
    s1, st = np.sin(w * P[:, 0]), np.sin(P[:, 3])
    f_minus_1 = jet_mul(jet_chain(_coordinate(P, 0, order), _BREAK_AMP * s1,
                                  _BREAK_AMP * w * np.cos(w * P[:, 0]), -_BREAK_AMP * w * w * s1),
                        jet_chain(_coordinate(P, 3, order), st, np.cos(P[:, 3]), -st))
    return jet_mul(f_minus_1, tuple(t[..., 2, 2] for t in g))


def _perturb_beta(data: ConstructionData, P: np.ndarray, g: tuple) -> tuple:
    """perturb-beta: beta -> beta^1.01 in the horizontal block, p = (beta^1.01 - beta) lam2."""
    beta, lam2 = _beta_lam2(data, P, len(g) - 1)
    b = beta[0]
    return jet_mul(jet_chain(beta, b ** 1.01 - b, 1.01 * b ** 0.01 - 1.0, (1.01 * 0.01) * b ** -0.99),
                   lam2)


def tau_field(data: ConstructionData) -> ScalarField:
    def value(P):
        return np.asarray(P, dtype=float)[:, 2]

    def grad(P):
        P = np.asarray(P, dtype=float)
        out = np.zeros((P.shape[0], 4))
        out[:, 2] = 1.0
        return out

    def hess(P):
        return np.zeros((np.asarray(P).shape[0], 4, 4))

    def d3(P):
        return np.zeros((np.asarray(P).shape[0], 4, 4, 4))

    return ScalarField(value=value, grad=grad, hess=hess, d3=d3, name="tau")


def kappa_field(data: ConstructionData) -> ScalarField:
    """The input kappa = 1/(tau_star - gamma) as a function of the chart point, with its gradient."""
    kappa = data.chart_data.kappa
    return ScalarField(value=lambda P: kappa.value(np.asarray(P, dtype=float)[:, :2]),
                       grad=lambda P: _on_base((kappa.grad,), np.asarray(P, dtype=float)[:, :2], 4)[0],
                       name="kappa")


def christoffel_closed_form(data: ConstructionData, P: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols reconstructed from the covariant-derivative table.

    Independent of assemble_metric: only the base geometry (lam2, J_Sigma),
    the potential A, kappa, and the profile enter.  The base block
    beta lam2 delta is conformally flat: with w = log(beta lam2)/2 its symbols
    are delta^k_i d_j w + delta^k_j d_i w - delta_ij d_k w, and along the base
    d w = d lam2/(2 lam2) + (tau - tau_star) d kappa/(2 beta).
    """
    P = np.asarray(P, dtype=float)
    x, tau = P[:, :2], P[:, 2]
    n = P.shape[0]
    prof, a = data.profile, data.a
    cd = data.chart_data

    Q = prof.Q(tau)
    if np.any(Q <= 0):
        raise ValueError("closed-form Christoffels need interior points (Q > 0)")
    psi = prof.psi(tau)
    beta = _beta(data, x, tau)
    phi = 0.5 * Q * cd.kappa.value(x) / beta
    lam2 = cd.chart.lam2(x)
    A = cd.connection.A(x)
    dA = cd.connection.dA(x)

    dw = (0.5 * cd.chart.dlam2(x) / lam2[:, None]
          + ((tau - data.interval.tau_star) / (2.0 * beta))[:, None] * cd.kappa.grad(x))
    ghat = (_EYE2[None, :, :, None] * dw[:, None, None, :]
            + _EYE2[None, :, None, :] * dw[:, None, :, None]
            - _EYE2[None, None, :, :] * dw[:, :, None, None])

    G = np.zeros((n, 4, 4, 4))
    # Vertical block.
    G[:, 2, 2, 2] = -psi / Q
    G[:, 3, 2, 3] = G[:, 3, 3, 2] = psi / Q
    G[:, 2, 3, 3] = -psi * Q / a ** 2
    # tau-base mixed.
    for i in range(2):
        G[:, i, 2, i] = G[:, i, i, 2] = phi / Q
        G[:, 3, 2, i] = G[:, 3, i, 2] = (phi - psi) * A[:, i] / Q
    # theta-base mixed.
    G[:, :2, 3, :2] = G[:, :2, :2, 3] = (phi / a)[:, None, None] * J_SIGMA
    G[:, 2, 3, :2] = G[:, 2, :2, 3] = (psi * Q)[:, None] * A / a ** 2
    G[:, 3, 3, :2] = G[:, 3, :2, 3] = (phi / a)[:, None] * (A @ J_SIGMA)
    # Base-base.
    cross = J_SIGMA[None, :, :, None] * A[:, None, None, :]  # cross[p,k,i,j] = A_j J_Sigma^k_i
    cross = cross + np.swapaxes(cross, 2, 3)
    G[:, :2, :2, :2] = ghat - (phi / a)[:, None, None, None] * cross
    G[:, 2, :2, :2] = (-(phi * beta * lam2)[:, None, None] * _EYE2
                       - (psi * Q / a ** 2)[:, None, None] * A[:, :, None] * A[:, None, :])
    # omega_h = lam2 dx1 ^ dx2 is -lam2 J_SIGMA as a matrix.
    G[:, 3, :2, :2] = (np.einsum("pkij,pk->pij", ghat, A)
                       + (a * phi * beta / Q * lam2)[:, None, None] * J_SIGMA
                       - dA
                       - (phi / a)[:, None, None] * np.einsum("pkij,pk->pij", cross, A))
    return G


def fiber_point(data: ConstructionData, base_xy, s: float, theta: float = 0.0) -> np.ndarray:
    tau = float(data.maps.tau_of_s(s))
    return np.array([base_xy[0], base_xy[1], tau, theta])


def build_construction(interval: Interval, a: float, surface: BaseSurfaceData,
                       profile: Optional[MomentumProfile] = None,
                       q_interior=(), chart_index: int = 0,
                       control: str = "none") -> ConstructionData:
    if profile is None:
        profile = make_profile(interval, a, q_interior)
    maps = build_reparams(profile)
    return ConstructionData(interval=interval, a=a, profile=profile, maps=maps,
                            surface=surface, chart_index=chart_index, control=control)
