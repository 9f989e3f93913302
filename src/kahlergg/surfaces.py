"""Base surfaces (Sigma, h), the kappa field, and unitary connection data.

Every chart is isothermal: a holomorphic coordinate, which every Riemann
surface admits, puts h = lam2 * euclidean, so a chart carries only the
conformal factor lam2 and its gradient, omega_h = lam2 dx1 ^ dx2, and J_Sigma
is multiplication by i, the constant rotation ``J_SIGMA``.  Charts, kappa
fields and connections carry their second jets too (``d2lam2``, ``hess``,
``d2A``), which the metric's exact second derivatives are built from; kappa
chains through gamma's jet and W = -a kappa lam2 is one jet (``geometry.jet_chain``,
``geometry.jet_mul``), while values compute no derivative.  Two built-ins
cover the needs of the suite:

  * the flat torus R^2/Z^2 with h = c^2 * euclidean, a single periodic chart
    (all fields are evaluated on the universal cover, so stencils never
    wrap: the connection potential F is smooth on R and picks up the gauge
    jump integral(Omega) per period);
  * the round sphere of radius R in two stereographic charts with the
    holomorphic transition w = R^2 / z, h = (2R^2/(R^2+|z|^2))^2 * euclidean.

gamma maps the surface into RP1 minus the profile interval, and is carried
as kappa = 1/(tau_star - gamma) (see ``rp1``): gamma = inf is kappa = 0, and
gamma avoids the closed interval exactly when |kappa| |I|/2 < 1.  The
families ``gamma_constant``, ``gamma_cos`` and ``gamma_height`` are where a
config's gamma becomes a kappa field, once; nothing downstream sees gamma.

The prescribed curvature 2-form is

    Omega = -a kappa omega_h,

and connection potentials A with dA = Omega are produced per chart:
an antiderivative in x1 on the torus (with the canonical gauge F(0) = 0),
and the rotationally symmetric potential A = P(rho)(x dy - y dx) on the
sphere charts, with P obtained from the radial ODE d/d(rho)[rho^2 P] = rho W.
Both are cubic Hermite tables with the slopes their ODEs give exactly; the
sphere adds a table of D = (W - 2P)/rho^2 = P'/rho, which the second jet of
A needs and which is 0/0 at the chart centre as a quotient.
Line-bundle existence forces integral(Omega) in 2*pi*Z.  By Stokes the
connections carry that integral: the torus gauge jump, and the sum of the
sphere charts' loop integrals around the equator.  ``build_surface`` reads
the Chern number there, warns where it is not an integer, and ``normalize``
can rescale a (or the torus h) to land on the nearest one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import jet_chain, jet_mul
from .piecewise import hermite_table
from .profiles import Interval, _cumulative_gl
from .rp1 import RP1Value


class GammaRangeError(ValueError):
    """gamma takes values inside the closed profile interval."""


class GaugeInconsistencyWarning(UserWarning):
    """Curvature data whose total flux is not quantized."""


# ----------------------------------------------------------------------------
# Charts
# ----------------------------------------------------------------------------

# J_Sigma in an isothermal chart: multiplication by i, the rotation by +90 degrees.
J_SIGMA = np.array([[0.0, -1.0], [1.0, 0.0]])
_EYE2 = np.eye(2)


@dataclass
class SurfaceChart:
    """An isothermal chart, h = lam2 * euclidean: omega_h = lam2 dx1 ^ dx2 and J_Sigma = J_SIGMA."""

    name: str
    lam2: Callable[[np.ndarray], np.ndarray]         # (N,2) -> (N,)
    dlam2: Callable[[np.ndarray], np.ndarray]        # (N,2) -> (N,2), [a] = d_a lam2
    d2lam2: Callable[[np.ndarray], np.ndarray]       # (N,2) -> (N,2,2), [b,a] = d_b d_a lam2
    domain: Callable[[np.ndarray], np.ndarray]
    bounds: tuple                                    # sampling box ((x1lo,x1hi),(x2lo,x2hi))


def torus_chart(h_scale: float) -> SurfaceChart:
    c2 = float(h_scale)
    return SurfaceChart(
        name="torus",
        lam2=lambda x: np.full(x.shape[0], c2),
        dlam2=lambda x: np.zeros((x.shape[0], 2)),
        d2lam2=lambda x: np.zeros((x.shape[0], 2, 2)),
        domain=lambda x: np.ones(x.shape[0], dtype=bool),
        bounds=((0.0, 1.0), (0.0, 1.0)),
    )


def sphere_chart(radius: float, which: str) -> SurfaceChart:
    r2 = float(radius) ** 2
    rho_max2 = 4.0 * r2  # chart reaches past the equator with margin

    def lam2(x):
        sig = np.sum(x * x, axis=1)
        return (2.0 * r2 / (r2 + sig)) ** 2

    def lam2_jet(x, order):
        # lam2 of sigma = |x|^2: lam2' = -2 lam2/(R^2 + sigma), lam2'' = 6 lam2/(R^2 + sigma)^2.
        s = r2 + np.sum(x * x, axis=1)
        l2 = (2.0 * r2 / s) ** 2
        return _radial_jet(x, s, l2, -2.0 * l2 / s, 6.0 * l2, order)

    half = 0.75 * float(radius)
    return SurfaceChart(
        name=f"sphere-{which}",
        lam2=lam2,
        dlam2=lambda x: lam2_jet(x, 1)[1],
        d2lam2=lambda x: lam2_jet(x, 2)[2],
        domain=lambda x: np.sum(x * x, axis=1) < rho_max2,
        bounds=((-half, half), (-half, half)),
    )


def _radial_jet(x: np.ndarray, s: np.ndarray, f: np.ndarray, f1: np.ndarray, c: np.ndarray,
                order: int) -> tuple:
    """The jet (f, 2 f' x, 2 delta f' + 4 x (x) x f'') of f(|x|^2) at chart points, to ``order``.

    Takes s = R^2 + |x|^2, f' and c = s^2 f'', and scales x by 1/s in the
    Hessian, so that no factor overflows on a tiny chart (f'' alone is about 1/R^4).
    """
    out = (f, (f1 * 2.0)[:, None] * x)
    if order < 2:
        return out[:order + 1]
    y = x / s[:, None]
    yy = y[:, :, None] * y[:, None, :]
    return out + ((2.0 * f1)[:, None, None] * _EYE2 + (4.0 * c)[:, None, None] * yy,)


def sphere_height(radius: float, which: str, x: np.ndarray) -> np.ndarray:
    """Embedding height of a stereographic chart point (south chart has z(0) = -R)."""
    r2 = radius ** 2
    sig = np.sum(x * x, axis=1)
    z = radius * (sig - r2) / (sig + r2)
    return z if which == "south" else -z


# ----------------------------------------------------------------------------
# kappa fields
# ----------------------------------------------------------------------------

@dataclass
class KappaField:
    """Chart-local kappa = 1/(tau_star - gamma), its first two coordinate jets and its range."""

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]   # (N,2) -> (N,2), d kappa
    hess: Callable[[np.ndarray], np.ndarray]   # (N,2) -> (N,2,2), d d kappa
    value_range: tuple


def gamma_constant(value: "float | RP1Value | str", tau_star: float) -> KappaField:
    """A constant gamma, "inf" included (kappa = 0)."""
    k = RP1Value.of(value).kappa(tau_star)
    return KappaField(value=lambda x: np.full(x.shape[0], k),
                      grad=lambda x: np.zeros((x.shape[0], 2)),
                      hess=lambda x: np.zeros((x.shape[0], 2, 2)),
                      value_range=(k, k))


def _kappa_family(gamma: tuple, lo: float, hi: float, tau_star: float) -> KappaField:
    """kappa = 1/(tau_star - gamma) for gamma = (gamma, d gamma, d d gamma), finite in [lo, hi]:
    kappa's jet chains through gamma's, with kappa' = kappa^2 and kappa'' = 2 kappa^3.

    Where [lo, hi] holds tau_star, kappa passes through infinity and its
    range is the whole line: both its end values may satisfy |kappa| l < 1,
    but gamma crosses the interval in between.
    """
    if lo <= tau_star <= hi:
        kappa_range = (-math.inf, math.inf)
    else:
        kappa_range = tuple(sorted((1.0 / (tau_star - lo), 1.0 / (tau_star - hi))))

    def jet(x, order):
        g = _jet(gamma, x, order)
        k = 1.0 / (tau_star - g[0])
        k2 = k * k
        return jet_chain(g, k, k2, 2.0 * k2 * k)

    return KappaField(value=lambda x: 1.0 / (tau_star - gamma[0](x)),
                      grad=lambda x: jet(x, 1)[1], hess=lambda x: jet(x, 2)[2],
                      value_range=kappa_range)


def gamma_cos(c0: float, c1: float, tau_star: float) -> KappaField:
    """gamma = c0 + c1 cos(2 pi x1) on the torus chart."""
    w = 2.0 * np.pi

    def d2gamma(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = -w * w * c1 * np.cos(w * x[:, 0])
        return out

    return _kappa_family(
        (lambda x: c0 + c1 * np.cos(w * x[:, 0]),
         lambda x: np.column_stack([-w * c1 * np.sin(w * x[:, 0]), np.zeros(x.shape[0])]),
         d2gamma), c0 - abs(c1), c0 + abs(c1), tau_star)


def gamma_height(c0: float, c1: float, radius: float, which: str, tau_star: float) -> KappaField:
    """gamma = c0 + c1 * (embedding height) on a sphere chart."""
    r2, sign = radius ** 2, (1.0 if which == "south" else -1.0)

    def height_jet(x, order):  # z' = 2 R^3/s^2 and s^2 z'' = -4 R^3/s, s = R^2 + |x|^2
        s = np.sum(x * x, axis=1) + r2
        return _radial_jet(x, s, sphere_height(radius, which, x),
                           sign * (2.0 * radius * r2 / s ** 2), sign * (-4.0 * radius * r2 / s), order)

    return _kappa_family((lambda x: c0 + c1 * sphere_height(radius, which, x),
                          lambda x: c1 * height_jet(x, 1)[1], lambda x: c1 * height_jet(x, 2)[2]),
                         c0 - abs(c1) * radius, c0 + abs(c1) * radius, tau_star)


def _jet(fns: tuple, x: np.ndarray, order: int) -> tuple:
    """The jet (f, d f, d d f) at chart points to ``order``, from a field's callables ``fns``."""
    return tuple(f(x) for f in fns[:order + 1])


def validate_gamma_range(kappa: KappaField, interval: Interval) -> None:
    """gamma must avoid the closed interval: |kappa| l < 1 over kappa's range, l = |I|/2.

    1 - |kappa| l is the least beta = 1 + kappa (tau - tau_star) on I, and it
    must also clear the roundoff of that sum, 4 eps (|kappa| |tau_star| + 1):
    tau_star - tau_min is differenced from floats of size |tau_star|, so a
    gamma within roundoff of an end of I gives beta <= 0 there in floats.
    """
    lo, hi = kappa.value_range
    k = max(-lo, hi)
    reach = k * 0.5 * interval.length
    roundoff = 4.0 * np.finfo(float).eps * (k * abs(interval.tau_star) + 1.0)
    if not reach < 1.0 - roundoff:
        raise GammaRangeError(
            f"kappa = 1/(tau_star - gamma) ranges over [{lo}, {hi}], so |kappa| |I|/2 reaches "
            f"{reach:.6g}, not below 1 by the roundoff {roundoff:.2g} of beta: the gamma range "
            "intersects the interval "
            f"[{interval.tau_min}, {interval.tau_max}]; the construction requires "
            "gamma to avoid the closed interval")


# ----------------------------------------------------------------------------
# Curvature form and connection potentials
# ----------------------------------------------------------------------------

def curvature_form(a: float, chart: SurfaceChart, kappa: KappaField, x: np.ndarray) -> np.ndarray:
    """Coefficient W(p) with Omega = W dx1 ^ dx2 = -a kappa omega_h = -a kappa lam2 dx1 ^ dx2."""
    return -a * kappa.value(x) * chart.lam2(x)


def _curvature_jet(a: float, chart: SurfaceChart, kappa: KappaField) -> Callable:
    """(x, order) -> the jet of ``curvature_form``'s W = -a kappa lam2 at chart points, to ``order``."""

    def jet(x, order):
        k = tuple(-a * t for t in _jet((kappa.value, kappa.grad, kappa.hess), x, order))
        return jet_mul(k, _jet((chart.lam2, chart.dlam2, chart.d2lam2), x, order))

    return jet


@dataclass
class ConnectionForm:
    """Chart potential A = A_1 dx1 + A_2 dx2 with dA = Omega, plus gauge data."""

    A: Callable[[np.ndarray], np.ndarray]            # (N,2) -> (N,2)
    dA: Callable[[np.ndarray], np.ndarray]           # (N,2) -> (N,2,2), [a,i] = d_a A_i
    d2A: Callable[[np.ndarray], np.ndarray]          # (N,2) -> (N,2,2,2), [b,a,i] = d_b d_a A_i
    gauge_jump: float = 0.0                          # torus seam jump F(1) - F(0)


def solve_connection_torus(w_jet: Callable) -> ConnectionForm:
    """A = F(x1) dx2 with F' = W and F(0) = 0, for Omega = W(x1) dx1 ^ dx2.

    ``w_jet(x, order)`` is the jet (W, d W, d d W) at chart points to ``order``,
    and d_1 d_1 A_2 = F'' = d_1 W.  W must not depend on x2 (checked by sampling);
    the gauge jump across the periodic seam is the full flux integral(W) over one period.
    """
    probe = np.linspace(0.0, 1.0, 17)

    def w_of_x1(t):
        pts = np.column_stack([np.asarray(t, dtype=float), np.zeros(np.size(t))])
        return w_jet(pts, 0)[0]

    rows = [w_jet(np.column_stack([probe, np.full(probe.size, x2)]), 0)[0] for x2 in (0.1, 0.5, 0.9)]
    rows = np.array(rows)
    if np.ptp(rows, axis=0).max() > 1e-10 * (1.0 + np.max(np.abs(rows))):
        raise ValueError("torus curvature coefficient depends on x2; "
                         "only x1-dependent built-in data is supported")

    # 4,097 nodes put the Hermite error of F at roundoff (1e-14).
    grid = np.linspace(0.0, 1.0, 4097)
    f_vals = _cumulative_gl(w_of_x1, grid)
    jump = float(f_vals[-1])
    f_interp = hermite_table(grid, f_vals, w_of_x1(grid))

    def f_eval(t):
        t = np.asarray(t, dtype=float)
        n = np.floor(t)
        return f_interp(t - n) + n * jump

    def a_fn(x):
        out = np.zeros((x.shape[0], 2))
        out[:, 1] = f_eval(x[:, 0])
        return out

    def da_fn(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1] = w_of_x1(x[:, 0])
        return out

    def d2a_fn(x):
        out = np.zeros((x.shape[0], 2, 2, 2))
        out[:, 0, 0, 1] = w_jet(x, 1)[1][:, 0]
        return out

    return ConnectionForm(A=a_fn, dA=da_fn, d2A=d2a_fn, gauge_jump=jump)


def solve_connection_radial(w_jet: Callable, sigma_max: float) -> ConnectionForm:
    """Rotationally symmetric potential A = P(rho)(x dy - y dx), rho = |x|.

    dA = W dx ^ dy is the ODE d/d(rho)[rho^2 P] = rho W for a radial W, so
    P' = (W - 2P)/rho, which is 0 at rho = 0, where P = W/2.  P is even and
    smooth in rho and is tabulated against it up to rho^2 = sigma_max, with
    those slopes.  dA comes from the ODE, not the table's slope: with
    x^perp = (-y, x), d_a A_i = P d_a x^perp_i + (x_a x^perp_i / sigma)(W - 2P).

    The second jet needs d_a P = D x_a with D = (W - 2P)/rho^2, even and
    smooth in rho.  As a quotient D is 0/0 at the centre, so it has a table of
    its own: integrating by parts, rho^4 D = int_0^rho r^2 W'(r) dr, with no
    cancellation, D(0) = (d_1 d_1 W)(0)/4 and D' = (W'/rho - 4 D)/rho (0 at
    rho = 0).  Then, with sigma D_sigma = W_sigma - 2 D and 2 W_sigma = x.dW/sigma,

        d_b d_a A_i = D (x_a d_b x^perp_i + x_b d_a x^perp_i + delta_ab x^perp_i)
                      + (x.dW/sigma - 4 D)(x_a x_b/sigma) x^perp_i.

    ``w_jet(x, order)`` is the jet (W, d W, d d W) at chart points to ``order``.
    """
    def w_of_rho(rho):
        return w_jet(np.column_stack([rho, np.zeros(rho.size)]), 0)[0]

    def dw_of_rho(rho):  # W'(rho) = d_1 W on the x1-axis
        return w_jet(np.column_stack([rho, np.zeros(rho.size)]), 1)[1][:, 0]

    rho = np.linspace(0.0, math.sqrt(sigma_max), 4097)
    w = w_of_rho(rho)
    u = _cumulative_gl(lambda r: r * w_of_rho(r), rho)  # rho^2 P
    p = np.concatenate([[0.5 * w[0]], u[1:] / rho[1:] ** 2])
    slope = np.concatenate([[0.0], (w[1:] - 2.0 * p[1:]) / rho[1:]])
    p_table = hermite_table(rho, p, slope)
    # D is tabulated as rho_max^2 D against rho/rho_max, in range on a tiny chart.
    rho_max = rho[-1]
    v = _cumulative_gl(lambda r: r * r * dw_of_rho(r), rho)  # rho^4 D
    d = np.concatenate([[0.25 * w_jet(np.zeros((1, 2)), 2)[2][0, 0, 0]],
                        v[1:] / rho[1:] ** 2 / rho[1:] ** 2])
    d_slope = np.concatenate([[0.0], (dw_of_rho(rho[1:]) / rho[1:] - 4.0 * d[1:]) / rho[1:]])
    d_table = hermite_table(rho / rho_max, d * rho_max ** 2, d_slope * rho_max ** 3)

    def a_fn(x):
        p = p_table(np.hypot(x[:, 0], x[:, 1]))
        return np.column_stack([-x[:, 1] * p, x[:, 0] * p])

    def quotient(num, sig):  # num/sigma, taken as 0 at sigma = 0
        return np.divide(num, sig, out=np.zeros(num.shape), where=sig > 0)

    def da_fn(x):
        sig = np.sum(x * x, axis=1)
        p = p_table(np.sqrt(sig))
        # (x_a x_b / sigma)(W - 2P), the quotient taken as 0 at sigma = 0.
        xx = quotient(x[:, :, None] * x[:, None, :], sig[:, None, None])
        m = xx * (w_jet(x, 0)[0] - 2.0 * p)[:, None, None]
        out = np.stack([-m[:, :, 1], m[:, :, 0]], axis=2)     # x^perp_i d_a P, then P d_a x^perp_i
        out[:, 1, 0] -= p
        out[:, 0, 1] += p
        return out

    def d2a_fn(x):
        sig = np.sum(x * x, axis=1)
        d = d_table(np.sqrt(sig) / rho_max) / rho_max ** 2
        xp = np.column_stack([-x[:, 1], x[:, 0]])
        # e[a,i] = d_a x^perp_i, and s[b,a,i] = x_b e[a,i] + x_a e[b,i] + delta_ab x^perp_i.
        xe = x[:, :, None, None] * _DXPERP[None, None]
        s = xe + np.swapaxes(xe, 1, 2) + _EYE2[None, :, :, None] * xp[:, None, None, :]
        radial = ((quotient(np.einsum("pa,pa->p", x, w_jet(x, 1)[1]), sig) - 4.0 * d)[:, None, None]
                  * quotient(x[:, :, None] * x[:, None, :], sig[:, None, None]))
        return d[:, None, None, None] * s + radial[:, :, :, None] * xp[:, None, None, :]

    return ConnectionForm(A=a_fn, dA=da_fn, d2A=d2a_fn)


# d_a x^perp_i for x^perp = (-x2, x1).
_DXPERP = np.array([[0.0, 1.0], [-1.0, 0.0]])


# ----------------------------------------------------------------------------
# Assembled surface data
# ----------------------------------------------------------------------------

@dataclass
class ChartData:
    chart: SurfaceChart
    kappa: KappaField
    connection: ConnectionForm


@dataclass
class BaseSurfaceData:
    surface_type: str
    charts: list
    params: dict
    chern: float = 0.0            # integral(Omega) / 2 pi
    chern_deviation: float = 0.0


def _assemble(surface_type: str, size: float, kappas: dict, a: float) -> tuple:
    """(chart data, integral(Omega)/2pi), the flux read off the connections by Stokes:
    the torus seam jump F(1) - F(0), or the sum of the sphere charts' loop
    integrals of A around the equator |x| = R, 2 pi R A_2(R, 0)."""
    if surface_type == "torus":
        chart, kappa = torus_chart(size), kappas["torus"]
        conn = solve_connection_torus(_curvature_jet(a, chart, kappa))
        return [ChartData(chart, kappa, conn)], conn.gauge_jump / (2.0 * np.pi)
    chart_data, chern = [], 0.0
    for which in ("south", "north"):
        chart, kappa = sphere_chart(size, which), kappas[which]
        conn = solve_connection_radial(_curvature_jet(a, chart, kappa), sigma_max=4.0 * size ** 2)
        chart_data.append(ChartData(chart, kappa, conn))
        chern += size * float(conn.A(np.array([[size, 0.0]]))[0, 1])   # 2 pi R A_2(R, 0) / 2 pi
    return chart_data, chern


def build_surface(surface_type: str, size: float, kappas: dict, interval: Interval,
                  a: float, normalize: str = "none") -> tuple:
    """Returns (BaseSurfaceData, possibly adjusted a).

    ``size`` is the torus h_scale or the sphere radius, and ``kappas`` maps
    each chart name ("torus", or "south" and "north") to its kappa field.
    Omega is linear in a and in the torus h, so ``normalize`` ("a" or
    "h-scale") rescales one of them by (nearest nonzero integer)/chern and
    assembles once more.
    """
    for k in kappas.values():
        validate_gamma_range(k, interval)
    if normalize == "h-scale" and surface_type != "torus":
        raise ValueError("h-scale normalization is torus-only; rescaling the sphere "
                         "metric re-parametrizes its radius and any height-based gamma")
    chart_data, chern = _assemble(surface_type, size, kappas, a)
    nearest = round(chern)
    if normalize != "none" and abs(chern - nearest) > 1e-9 and chern != 0.0:
        target = nearest or int(math.copysign(1, chern))
        if normalize == "a":
            a = a * target / chern
        else:
            size = size * target / chern
        chart_data, chern = _assemble(surface_type, size, kappas, a)
    dev = abs(chern - round(chern))
    if dev > 1e-6:
        warnings.warn(
            f"{surface_type} curvature flux is not quantized (integral/2pi = {chern:.6g}); "
            "no line bundle carries this connection globally and verification is "
            "only meaningful chart by chart",
            GaugeInconsistencyWarning, stacklevel=2)
    params = {"h_scale" if surface_type == "torus" else "radius": size}
    return BaseSurfaceData(surface_type, chart_data, params, chern, dev), a
