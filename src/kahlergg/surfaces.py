"""Base surfaces (Sigma, h), the gamma field, and unitary connection data.

Two built-ins cover the needs of the suite:

  * the flat torus R^2/Z^2 with h = c^2 * euclidean, a single periodic chart
    (all fields are evaluated on the universal cover, so stencils never
    wrap: the connection potential F is smooth on R and picks up the gauge
    jump integral(Omega) per period);
  * the round sphere of radius R in two stereographic charts with the
    holomorphic transition w = R^2 / z, h = (2R^2/(R^2+|z|^2))^2 * euclidean.

gamma maps the surface into RP1 minus the profile interval; the supported
families keep a single branch (entirely finite or identically infinite),
so the h-gradient dichotomy "D gamma = 0 on the infinity locus" never has
to mix branches on a connected chart.

The prescribed curvature 2-form is

    Omega = -a (tau_star - gamma)^(-1) omega_h,      Omega = 0 where gamma = inf,

and connection potentials A with dA = Omega are produced per chart:
an antiderivative in x1 on the torus (with the canonical gauge F(0) = 0),
and the rotationally symmetric potential A = P(rho)(x dy - y dx) on the
sphere charts, with P obtained from the radial ODE d/d(rho)[rho^2 P] = rho W.
Both are cubic Hermite tables with the slopes their ODEs give exactly.
Line-bundle existence forces integral(Omega) in 2*pi*Z; the Chern integral
reports the deviation and ``normalize`` can rescale a (or the torus h) to
land on the nearest integer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .profiles import Interval, _cumulative_gl
from .rp1 import RP1Value


class GammaRangeError(ValueError):
    """gamma takes values inside the closed profile interval."""


class GaugeInconsistencyWarning(UserWarning):
    """Periodic curvature data whose total flux is not quantized."""


# ----------------------------------------------------------------------------
# Charts
# ----------------------------------------------------------------------------

@dataclass
class SurfaceChart:
    name: str
    h: Callable[[np.ndarray], np.ndarray]            # (N,2) -> (N,2,2)
    dh: Callable[[np.ndarray], np.ndarray]           # (N,2) -> (N,2,2,2), [a,i,j] = d_a h_ij
    domain: Callable[[np.ndarray], np.ndarray]
    bounds: tuple                                    # sampling box ((x1lo,x1hi),(x2lo,x2hi))
    orientation: int = 1

    def sqrt_det_h(self, x: np.ndarray) -> np.ndarray:
        h = self.h(x)
        return np.sqrt(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2)

    def area_form(self, x: np.ndarray) -> np.ndarray:
        """Coefficient W with omega_h = W dx1 ^ dx2 on the oriented chart."""
        return self.orientation * self.sqrt_det_h(x)

    def complex_structure(self, x: np.ndarray) -> np.ndarray:
        """J_Sigma[k,j] with h(Jw, w') = omega_h(w, w') (rotation by +90 deg).

        In closed form J = h^-1 omega^T = (orientation / sqrt(det h)) [[-h01, -h11], [h00, h01]].
        """
        h = self.h(x)
        c = self.orientation / np.sqrt(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2)
        out = np.empty_like(h)
        out[:, 0, 0] = -c * h[:, 0, 1]
        out[:, 0, 1] = -c * h[:, 1, 1]
        out[:, 1, 0] = c * h[:, 0, 0]
        out[:, 1, 1] = c * h[:, 0, 1]
        return out


def torus_chart(h_scale: float) -> SurfaceChart:
    c2 = float(h_scale)

    def h(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = c2
        out[:, 1, 1] = c2
        return out

    def dh(x):
        return np.zeros((x.shape[0], 2, 2, 2))

    return SurfaceChart(
        name="torus",
        h=h,
        dh=dh,
        domain=lambda x: np.ones(x.shape[0], dtype=bool),
        bounds=((0.0, 1.0), (0.0, 1.0)),
    )


def sphere_chart(radius: float, which: str) -> SurfaceChart:
    r2 = float(radius) ** 2
    rho_max2 = 4.0 * r2  # chart reaches past the equator with margin

    def lam2(x):
        sig = np.sum(x * x, axis=1)
        return (2.0 * r2 / (r2 + sig)) ** 2

    def h(x):
        out = np.zeros((x.shape[0], 2, 2))
        l2 = lam2(x)
        out[:, 0, 0] = l2
        out[:, 1, 1] = l2
        return out

    def dh(x):
        sig = np.sum(x * x, axis=1)
        dl2_dsig = -2.0 * (2.0 * r2 / (r2 + sig)) ** 2 / (r2 + sig)
        out = np.zeros((x.shape[0], 2, 2, 2))
        for a in range(2):
            out[:, a, 0, 0] = dl2_dsig * 2.0 * x[:, a]
            out[:, a, 1, 1] = out[:, a, 0, 0]
        return out

    half = 0.75 * float(radius)
    return SurfaceChart(
        name=f"sphere-{which}",
        h=h,
        dh=dh,
        domain=lambda x: np.sum(x * x, axis=1) < rho_max2,
        bounds=((-half, half), (-half, half)),
    )


def sphere_height(radius: float, which: str, x: np.ndarray) -> np.ndarray:
    """Embedding height of a stereographic chart point (south chart has z(0) = -R)."""
    r2 = radius ** 2
    sig = np.sum(x * x, axis=1)
    z = radius * (sig - r2) / (sig + r2)
    return z if which == "south" else -z


def sphere_height_grad(radius: float, which: str, x: np.ndarray) -> np.ndarray:
    r2 = radius ** 2
    sig = np.sum(x * x, axis=1)
    dz_dsig = 2.0 * radius * r2 / (sig + r2) ** 2
    g = 2.0 * x * dz_dsig[:, None]
    return g if which == "south" else -g


# ----------------------------------------------------------------------------
# gamma fields
# ----------------------------------------------------------------------------

@dataclass
class GammaField:
    """Chart-local RP1-valued map; a single branch (all finite or all infinite)."""

    infinite: bool
    value: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None   # coordinate differential d gamma
    value_range: tuple = (0.0, 0.0)


def gamma_constant(value: "float | RP1Value | str") -> GammaField:
    v = RP1Value.of(value)
    if v.infinite:
        return GammaField(infinite=True)
    c = v.value
    return GammaField(
        infinite=False,
        value=lambda x, c=c: np.full(x.shape[0], c),
        grad=lambda x: np.zeros((x.shape[0], 2)),
        value_range=(c, c),
    )


def gamma_cos(c0: float, c1: float) -> GammaField:
    """c0 + c1 cos(2 pi x1) on the torus chart."""
    return GammaField(
        infinite=False,
        value=lambda x: c0 + c1 * np.cos(2.0 * np.pi * x[:, 0]),
        grad=lambda x: np.column_stack(
            [-2.0 * np.pi * c1 * np.sin(2.0 * np.pi * x[:, 0]), np.zeros(x.shape[0])]),
        value_range=(c0 - abs(c1), c0 + abs(c1)),
    )


def gamma_height(c0: float, c1: float, radius: float, which: str) -> GammaField:
    """c0 + c1 * (embedding height) on a sphere chart."""
    return GammaField(
        infinite=False,
        value=lambda x: c0 + c1 * sphere_height(radius, which, x),
        grad=lambda x: c1 * sphere_height_grad(radius, which, x),
        value_range=(c0 - abs(c1) * radius, c0 + abs(c1) * radius),
    )


def validate_gamma_range(gamma: GammaField, interval: Interval) -> None:
    if gamma.infinite:
        return
    lo, hi = gamma.value_range
    if not (hi < interval.tau_min or lo > interval.tau_max):
        raise GammaRangeError(
            f"gamma range [{lo}, {hi}] intersects the interval "
            f"[{interval.tau_min}, {interval.tau_max}]; the construction requires "
            "gamma to avoid the closed interval")


# ----------------------------------------------------------------------------
# Curvature form and connection potentials
# ----------------------------------------------------------------------------

def inv_tau_star_minus_gamma(tau_star: float, gamma: GammaField, x: np.ndarray) -> np.ndarray:
    """1/(tau_star - gamma) with the RP1 convention q/inf = 0."""
    if gamma.infinite:
        return np.zeros(x.shape[0])
    return 1.0 / (tau_star - gamma.value(x))


def curvature_form(a: float, tau_star: float, chart: SurfaceChart, gamma: GammaField,
                   x: np.ndarray) -> np.ndarray:
    """Coefficient W(p) with Omega = W dx1 ^ dx2 = -a (tau_star-gamma)^(-1) omega_h."""
    return -a * inv_tau_star_minus_gamma(tau_star, gamma, x) * chart.area_form(x)


@dataclass
class ConnectionForm:
    """Chart potential A = A_1 dx1 + A_2 dx2 with dA = Omega, plus gauge data."""

    A: Callable[[np.ndarray], np.ndarray]            # (N,2) -> (N,2)
    dA: Callable[[np.ndarray], np.ndarray]           # (N,2) -> (N,2,2), [a,i] = d_a A_i
    gauge_jump: float = 0.0                          # torus seam jump F(1) - F(0)


def solve_connection_torus(w_fn: Callable) -> ConnectionForm:
    """A = F(x1) dx2 with F' = W and F(0) = 0, for Omega = W(x1) dx1 ^ dx2.

    W must not depend on x2 (checked by sampling); the gauge jump across the
    periodic seam is the full flux integral(W) over one period.
    """
    probe = np.linspace(0.0, 1.0, 17)

    def w_of_x1(t):
        pts = np.column_stack([np.asarray(t, dtype=float), np.zeros(np.size(t))])
        return w_fn(pts)

    rows = [w_fn(np.column_stack([probe, np.full(probe.size, x2)])) for x2 in (0.1, 0.5, 0.9)]
    rows = np.array(rows)
    if np.ptp(rows, axis=0).max() > 1e-10 * (1.0 + np.max(np.abs(rows))):
        raise ValueError("torus curvature coefficient depends on x2; "
                         "only x1-dependent built-in data is supported")

    # 4,097 nodes put the Hermite error of F at roundoff (1e-14).
    grid = np.linspace(0.0, 1.0, 4097)
    f_vals = _cumulative_gl(w_of_x1, grid)
    jump = float(f_vals[-1])
    f_interp = CubicHermiteSpline(grid, f_vals, w_of_x1(grid), extrapolate=False)

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

    return ConnectionForm(A=a_fn, dA=da_fn, gauge_jump=jump)


def solve_connection_radial(w_fn: Callable, sigma_max: float) -> ConnectionForm:
    """Rotationally symmetric potential A = P(rho)(x dy - y dx), rho = |x|.

    dA = W dx ^ dy is the ODE d/d(rho)[rho^2 P] = rho W for a radial W, so
    P' = (W - 2P)/rho, which is 0 at rho = 0, where P = W/2.  P is even and
    smooth in rho and is tabulated against it up to rho^2 = sigma_max, with
    those slopes.  dA comes from the ODE, not the table's slope: with
    x^perp = (-y, x), d_a A_i = P d_a x^perp_i + (x_a x^perp_i / sigma)(W - 2P).
    """
    def w_of_rho(rho):
        return w_fn(np.column_stack([rho, np.zeros(rho.size)]))

    rho = np.linspace(0.0, math.sqrt(sigma_max), 4097)
    w = w_of_rho(rho)
    u = _cumulative_gl(lambda r: r * w_of_rho(r), rho)  # rho^2 P
    p = np.concatenate([[0.5 * w[0]], u[1:] / rho[1:] ** 2])
    slope = np.concatenate([[0.0], (w[1:] - 2.0 * p[1:]) / rho[1:]])
    p_table = CubicHermiteSpline(rho, p, slope, extrapolate=False)

    def a_fn(x):
        p = p_table(np.hypot(x[:, 0], x[:, 1]))
        return np.column_stack([-x[:, 1] * p, x[:, 0] * p])

    def da_fn(x):
        sig = np.sum(x * x, axis=1)
        p = p_table(np.sqrt(sig))
        # (x_a x_b / sigma)(W - 2P), the quotient taken as 0 at sigma = 0.
        xx = np.divide(x[:, :, None] * x[:, None, :], sig[:, None, None],
                       out=np.zeros((x.shape[0], 2, 2)), where=sig[:, None, None] > 0)
        m = xx * (w_fn(x) - 2.0 * p)[:, None, None]
        out = np.stack([-m[:, :, 1], m[:, :, 0]], axis=2)     # x^perp_i d_a P, then P d_a x^perp_i
        out[:, 1, 0] -= p
        out[:, 0, 1] += p
        return out

    return ConnectionForm(A=a_fn, dA=da_fn)


# ----------------------------------------------------------------------------
# Assembled surface data
# ----------------------------------------------------------------------------

@dataclass
class ChartData:
    chart: SurfaceChart
    gamma: GammaField
    connection: ConnectionForm


@dataclass
class BaseSurfaceData:
    surface_type: str
    charts: list
    params: dict
    chern: float = 0.0            # integral(Omega) / 2 pi
    chern_deviation: float = 0.0


def chern_integral_torus(chart: SurfaceChart, a: float, tau_star: float,
                         gamma: GammaField, n: int = 256) -> float:
    xs = (np.arange(n) + 0.5) / n
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    w = curvature_form(a, tau_star, chart, gamma, grid)
    return float(np.mean(w))


def chern_integral_sphere(radius: float, a: float, tau_star: float,
                          gammas: dict, charts: dict, n_r: int = 96, n_phi: int = 64) -> float:
    total = 0.0
    nodes, wts = np.polynomial.legendre.leggauss(n_r)
    rho = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * wts
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    for which in ("south", "north"):
        pp, rr = np.meshgrid(phi, rho, indexing="ij")
        x = np.column_stack([(rr * np.cos(pp)).ravel(), (rr * np.sin(pp)).ravel()])
        w = curvature_form(a, tau_star, charts[which], gammas[which], x).reshape(n_phi, n_r)
        total += float(np.sum(w * rr * wr[None, :]) * (2.0 * np.pi / n_phi))
    return total


def chern_report(value: float) -> tuple:
    """(value/2pi, nearest integer, deviation)."""
    scaled = value / (2.0 * np.pi)
    nearest = int(round(scaled))
    return scaled, nearest, abs(scaled - nearest)


def build_torus_surface(h_scale: float, gamma_spec: GammaField, interval: Interval,
                        a: float, normalize: str = "none") -> tuple:
    """Returns (BaseSurfaceData, possibly adjusted a)."""
    validate_gamma_range(gamma_spec, interval)
    tau_star = interval.tau_star
    chart = torus_chart(h_scale)
    flux = chern_integral_torus(chart, a, tau_star, gamma_spec)
    scaled, nearest, dev = chern_report(flux)
    if normalize == "a" and dev > 1e-9 and scaled != 0.0:
        target = nearest if nearest != 0 else int(math.copysign(1, scaled))
        a = a * target / scaled
        flux = chern_integral_torus(chart, a, tau_star, gamma_spec)
        scaled, nearest, dev = chern_report(flux)
    elif normalize == "h-scale" and dev > 1e-9 and scaled != 0.0:
        target = nearest if nearest != 0 else int(math.copysign(1, scaled))
        chart = torus_chart(h_scale * target / scaled)
        flux = chern_integral_torus(chart, a, tau_star, gamma_spec)
        scaled, nearest, dev = chern_report(flux)
    if dev > 1e-6:
        warnings.warn(
            f"torus curvature flux is not quantized (integral/2pi = {scaled:.6g}); "
            "no line bundle carries this connection globally and verification is "
            "only meaningful on the single fundamental-domain chart",
            GaugeInconsistencyWarning, stacklevel=2)

    def w_fn(x, ch=chart):
        return curvature_form(a, tau_star, ch, gamma_spec, x)

    conn = solve_connection_torus(w_fn)
    data = BaseSurfaceData(
        surface_type="torus",
        charts=[ChartData(chart=chart, gamma=gamma_spec, connection=conn)],
        params={"h_scale": h_scale},
        chern=scaled,
        chern_deviation=dev,
    )
    return data, a


def build_sphere_surface(radius: float, gamma_specs: dict, interval: Interval,
                         a: float, normalize: str = "none") -> tuple:
    for g in gamma_specs.values():
        validate_gamma_range(g, interval)
    tau_star = interval.tau_star
    charts = {w: sphere_chart(radius, w) for w in ("south", "north")}
    flux = chern_integral_sphere(radius, a, tau_star, gamma_specs, charts)
    scaled, nearest, dev = chern_report(flux)
    if normalize == "a" and dev > 1e-9 and scaled != 0.0:
        target = nearest if nearest != 0 else int(math.copysign(1, scaled))
        a = a * target / scaled
        flux = chern_integral_sphere(radius, a, tau_star, gamma_specs, charts)
        scaled, nearest, dev = chern_report(flux)
    elif normalize == "h-scale":
        raise ValueError("h-scale normalization is torus-only; rescaling the sphere "
                         "metric re-parametrizes its radius and any height-based gamma")

    chart_data = []
    for which in ("south", "north"):
        ch, g = charts[which], gamma_specs[which]

        def w_fn(x, ch=ch, g=g):
            return curvature_form(a, tau_star, ch, g, x)

        conn = solve_connection_radial(w_fn, sigma_max=4.0 * radius ** 2)
        chart_data.append(ChartData(chart=ch, gamma=g, connection=conn))
    data = BaseSurfaceData(
        surface_type="sphere",
        charts=chart_data,
        params={"radius": radius},
        chern=scaled,
        chern_deviation=dev,
    )
    return data, a
