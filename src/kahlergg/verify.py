"""The identity suite: residual checks for a (metric, J, tau) triple.

Every check samples a deterministic grid, computes a scale-free residual
per point, and returns a CheckReport whose pass flag is exactly
``max residual <= tolerance``.  The documented tolerance tiers:

    1e-6  first-derivative identities (analytic metric derivatives available):
          nabla J, Killing, geodesic-gradient;
    1e-5  second-derivative identities: Laplacian, gamma recovery, the
          radial ODE family, bracket identities;
    1e-3  third-derivative (Ricci/Bochner) identities, on the inner half of
          the main grid in s, from one frame, the metric's exact second
          derivatives and tau's exact third jet (they hold to roundoff), and
          boundary limits, by Richardson extrapolation along the fibers
          (finite differences of Christoffel-level poles are hopeless near
          the fiber ends at tighter tolerances);
    1e-4  flow arclength consistency.

Default grid: 8x8 base points x 16 tau-values (Chebyshev-spaced in the
arclength coordinate s, clear of the ends by a 0.02-lambda collar) x 4
theta-values.  All scalars of the construction are theta-independent, so
the sparse theta sampling guards the implementation rather than the math.
The seven main-grid checks read one frame of exact jets and take no stencil:
gamma enters as kappa = 1/(tau_star - gamma) (see ``rp1``), whose closed-form
gradient makes d phi exact, with one formula for every gamma, inf included.
What several checks read (nabla v, Hess tau, Delta tau, u = J grad tau and its
jet, and psi, phi, d phi) the frame computes once (``SubjectFrame``).
Bochner reads the half of the main grid nearest the middle of its fibers
(``bochner_index``) from the main frame at those points, and curvature only as
Ric(., v), the contraction of the jet of Gamma with v; no check but
``oracle_equivalence``, the deliberate stencil of g, differences anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import geometry as geo
from .construction import (ConstructionData, assemble_J, assemble_metric,
                           christoffel_closed_form, fiber_point, kappa_field, tau_field,
                           with_control)
from .fubini import (FSChart, fs_J, fs_metric, fs_profile, fs_random_directions,
                     fs_ray_point, fs_tau)
from .profiles import MomentumProfile, ReparamMaps
from .rp1 import recover_kappa
from .surfaces import curvature_form

DEFAULT_TOLERANCES = {
    "kaehler": 1e-6,
    "killing": 1e-6,
    "geodesic_gradient": 1e-6,
    "laplacian": 1e-5,
    "gamma_recovery": 1e-5,
    "ode_identities": 1e-5,
    "bracket_identities": 1e-5,
    "bochner": 1e-3,
    "boundary_limits": 1e-3,
    "flow_lengths": 1e-4,
    "oracle_equivalence": 1e-6,
}

# Checks each documented broken input is designated to fail (see README).
CONTROL_EXPECTATIONS = {
    "perturb-beta": ("kaehler", "laplacian", "gamma_recovery", "ode_identities",
                     "bracket_identities"),
    "perturb-j": ("kaehler", "bracket_identities"),
    "break-symmetry": ("kaehler", "killing", "geodesic_gradient"),
}


@dataclass(frozen=True)
class GridSpec:
    base: tuple = (8, 8)
    n_tau: int = 16
    n_theta: int = 4
    collar: float = 0.02
    seed: int = 0
    n_random: int = 128

    def describe(self) -> str:
        return (f"{self.base[0]}x{self.base[1]} base x {self.n_tau} tau "
                f"(Chebyshev in s, collar {self.collar}) x {self.n_theta} theta, seed {self.seed}")


@dataclass
class CheckReport:
    check: str
    grid: str
    max: float
    mean: float
    p99: float
    tol: float
    passed: bool
    offenders: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "grid": self.grid,
            "max": _finite(self.max),
            "mean": _finite(self.mean),
            "p99": _finite(self.p99),
            "tol": self.tol,
            "pass": bool(self.passed),
            "offenders": self.offenders,
            "extras": {k: _finite(v) if isinstance(v, float) else v
                       for k, v in sorted(self.extras.items())},
        }


def _finite(x: float) -> float:
    return float(x) if math.isfinite(x) else 1e300


def make_report(check: str, grid_desc: str, points: np.ndarray, residuals: np.ndarray,
                tol: float, extras: Optional[dict] = None) -> CheckReport:
    residuals = np.asarray(residuals, dtype=float)
    bad = ~np.isfinite(residuals)
    if np.any(bad):
        residuals = residuals.copy()
        residuals[bad] = np.inf
    order = np.argsort(residuals)[::-1][:10]
    offenders = [{"point": [round(float(c), 12) for c in points[i]],
                  "residual": _finite(residuals[i])} for i in order]
    mx = float(np.max(residuals)) if residuals.size else 0.0
    return CheckReport(
        check=check,
        grid=grid_desc,
        max=mx,
        mean=_finite(float(np.mean(np.minimum(residuals, 1e300)))),
        p99=_finite(float(np.percentile(np.minimum(residuals, 1e300), 99))),
        tol=tol,
        passed=bool(mx <= tol),
        offenders=offenders,
        extras=extras or {},
    )


# ----------------------------------------------------------------------------
# Subjects
# ----------------------------------------------------------------------------

@dataclass
class VerificationSubject:
    """Everything a check needs: the triple, its profile and whatever structure exists.

    v = grad tau and u = J grad tau are read off the metric's frame, never
    supplied.
    """

    name: str
    metric: geo.MetricField
    J: geo.MatrixField
    tau: geo.ScalarField
    profile: MomentumProfile
    maps: ReparamMaps
    kappa_expected: Optional[geo.ScalarField] = None  # 1/(tau_star - gamma), with its gradient
    lift_fields: Optional[tuple] = None          # (w1, w2) horizontal lifts
    omega12: Optional[Callable] = None           # Omega(d_1, d_2) at points
    fiber_point: Optional[Callable] = None       # (base, s, theta) -> chart point
    fiber_bases: list = field(default_factory=list)
    boundary_expect: dict = field(default_factory=dict)
    grid_points: Optional[Callable] = None       # GridSpec -> (points, desc)
    random_points: Optional[Callable] = None     # (n, seed, s_range) -> points
    construction: Optional[ConstructionData] = None

    def frame(self, points: np.ndarray) -> "SubjectFrame":
        """The geometry the main-grid checks read: g, Gamma, the jets of tau, v and J, and psi, phi."""
        fr = geo.build_frame(self.metric, self.tau, points, j=self.J)
        return SubjectFrame(**{f.name: getattr(fr, f.name) for f in fields(geo.Frame)}, subject=self)


@dataclass
class SubjectFrame(geo.Frame):
    """A ``geometry.Frame`` with the subject's (psi, phi, d phi) at its points, computed on first read.

    The main-grid checks share it as they share the frame's nabla v, Delta tau and u.
    """

    subject: Optional[VerificationSubject] = None

    @cached_property
    def psi_phi(self) -> tuple:
        return _psi_phi(self.subject, self.points)


def subject_from_construction(data: ConstructionData) -> VerificationSubject:
    metric, jf = with_control(data, assemble_metric(data), assemble_J(data))
    tau = tau_field(data)
    cd = data.chart_data
    chart, conn = cd.chart, cd.connection
    lam = data.maps.lam

    def lift(i: int) -> geo.VectorField:
        def val(pp):
            pp = np.asarray(pp, dtype=float)
            out = np.zeros((pp.shape[0], 4))
            out[:, i] = 1.0
            out[:, 3] = conn.A(pp[:, :2])[:, i]
            return out

        def jac(pp):
            pp = np.asarray(pp, dtype=float)
            out = np.zeros((pp.shape[0], 4, 4))
            da = conn.dA(pp[:, :2])
            out[:, 0, 3] = da[:, 0, i]
            out[:, 1, 3] = da[:, 1, i]
            return out

        return geo.VectorField(value=val, jac=jac, name=f"lift-{i}")

    def omega12(pp):
        return curvature_form(data.a, chart, cd.kappa, np.asarray(pp, dtype=float)[:, :2])

    (x1lo, x1hi), (x2lo, x2hi) = chart.bounds

    def grid_points(spec: GridSpec):
        b1 = x1lo + (x1hi - x1lo) * (np.arange(spec.base[0]) + 0.5) / spec.base[0]
        b2 = x2lo + (x2hi - x2lo) * (np.arange(spec.base[1]) + 0.5) / spec.base[1]
        j = np.arange(spec.n_tau)
        mid, halfw = 0.5 * lam, 0.5 * lam * (1.0 - 2.0 * spec.collar)
        s_vals = mid + halfw * np.cos(np.pi * (2.0 * j + 1.0) / (2.0 * spec.n_tau))
        taus = np.asarray(data.maps.tau_of_s(s_vals), dtype=float)
        thetas = 2.0 * np.pi * np.arange(spec.n_theta) / spec.n_theta
        g1, g2, gt, gth = np.meshgrid(b1, b2, taus, thetas, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel(), gt.ravel(), gth.ravel()])
        return pts, f"{data.surface.surface_type}:{chart.name} {spec.describe()}"

    def random_points(n: int, seed: int, s_range=(0.1, 0.9)):
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(x1lo, x1hi, n)
        x2 = rng.uniform(x2lo, x2hi, n)
        s = rng.uniform(s_range[0] * lam, s_range[1] * lam, n)
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        return np.column_stack([x1, x2, np.asarray(data.maps.tau_of_s(s), dtype=float), th])

    bases = [(x1lo + f1 * (x1hi - x1lo), x2lo + f2 * (x2hi - x2lo))
             for f1, f2 in ((0.17, 0.23), (0.61, 0.47), (0.83, 0.79))]
    return VerificationSubject(
        name=f"{data.surface.surface_type}:{chart.name}"
             + ("" if data.control == "none" else f"+{data.control}"),
        metric=metric, J=jf, tau=tau, profile=data.profile, maps=data.maps,
        kappa_expected=kappa_field(data),
        lift_fields=(lift(0), lift(1)),
        omega12=omega12,
        fiber_point=lambda base, s, theta=0.0: fiber_point(data, base, s, theta),
        fiber_bases=bases,
        boundary_expect={"min": (data.a, data.a, 0.0, 0.0),
                         "max": (-data.a, -data.a, 0.0, 0.0)},
        grid_points=grid_points,
        random_points=random_points,
        construction=data,
    )


def subject_from_fs(chart: Optional[FSChart] = None) -> VerificationSubject:
    chart = chart or FSChart()
    metric, tau, jf = fs_metric(chart), fs_tau(chart), fs_J(chart)
    prof, maps = fs_profile()
    # gamma = 0 (k = 0) or 1 (l = 0) is kappa = 1/(1/2 - gamma) = 2 or -2, an end of (-1/l, 1/l).
    if chart.k == 0:
        kappa, expect_min, expect_max = 2.0, (2.0, 2.0, 2.0, 2.0), (-2.0, -2.0, 0.0, 0.0)
    elif chart.l == 0:
        kappa, expect_min, expect_max = -2.0, (2.0, 2.0, 0.0, 0.0), (-2.0, -2.0, -2.0, -2.0)
    else:
        kappa, expect_min, expect_max = None, (), ()
    kappa_expected = None if kappa is None else geo.ScalarField(
        value=lambda pp: np.full(len(pp), kappa), grad=lambda pp: np.zeros(np.shape(pp)),
        name="kappa")

    rng_dirs = fs_random_directions(chart, 3, np.random.default_rng(7))

    def grid_points(spec: GridSpec):
        n = max(256, spec.base[0] * spec.base[1] * 4)
        rng = np.random.default_rng(spec.seed)
        dirs = fs_random_directions(chart, n, rng)
        lam = maps.lam
        s = rng.uniform(spec.collar * lam + 0.15, lam * (1 - spec.collar) - 0.15, n)
        pts = np.tan(s)[:, None] * dirs
        return pts, f"fubini-study m={chart.m} {n} radial samples, seed {spec.seed}"

    def random_points(n: int, seed: int, s_range=(0.1, 0.9)):
        rng = np.random.default_rng(seed)
        dirs = fs_random_directions(chart, n, rng)
        s = rng.uniform(s_range[0] * maps.lam, s_range[1] * maps.lam, n)
        return np.tan(s)[:, None] * dirs

    can_ray = chart.k == 0 and chart.norm_index == 0
    return VerificationSubject(
        name=f"fubini-study[m={chart.m},(k,l)=({chart.k},{chart.l})]",
        metric=metric, J=jf, tau=tau, profile=prof, maps=maps,
        kappa_expected=kappa_expected,
        lift_fields=None, omega12=None,
        fiber_point=(lambda base, s, theta=0.0: fs_ray_point(chart, base, s)[0]) if can_ray else None,
        fiber_bases=[d for d in rng_dirs] if can_ray else [],
        boundary_expect={"min": expect_min, "max": expect_max},
        grid_points=grid_points,
        random_points=random_points,
    )


# ----------------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------------

def _psi_phi(subject: VerificationSubject, points: np.ndarray):
    """The eigenvalues (psi, phi) of nabla v at the points and the exact differential d phi.

    psi = Q'(tau)/2 from the profile, and phi = Q kappa/(2 beta), beta = 1 + kappa (tau - tau_star),
    from the expected kappa (phi = 0 where the subject has none), with

        d phi = [(Q' kappa d tau + Q d kappa) - 2 phi d beta] / (2 beta),
        d beta = kappa d tau + (tau - tau_star) d kappa,

    from the closed-form gradients of tau and kappa.
    """
    tau, dtau = subject.tau.value(points), subject.tau.grad(points)
    prof = subject.profile
    psi = prof.psi(tau)
    if subject.kappa_expected is None:
        return psi, np.zeros(points.shape[0]), np.zeros(points.shape)
    k, dk = subject.kappa_expected.value(points), subject.kappa_expected.grad(points)
    q, dt = prof.Q(tau), tau - prof.interval.tau_star
    beta = 1.0 + k * dt
    phi = 0.5 * q * k / beta
    dbeta = k[:, None] * dtau + dt[:, None] * dk
    dphi = ((prof.dQ(tau) * k)[:, None] * dtau + q[:, None] * dk - 2.0 * phi[:, None] * dbeta)
    return psi, phi, dphi / (2.0 * beta)[:, None]


def check_kaehler(subject: VerificationSubject, frame: geo.Frame, desc: str,
                  tol: float) -> CheckReport:
    gamma, jv = frame.gamma, frame.J
    nj = geo.nabla_J(frame.dJ, jv, gamma)
    # max |nabla J| / (1 + max |Gamma| max |J|); |Gamma| reuses nj's array once it is read.
    jmax = np.max(np.abs(jv), axis=(1, 2))
    res = np.max(np.abs(nj, out=nj), axis=(1, 2, 3))
    res /= 1.0 + np.max(np.abs(gamma, out=nj), axis=(1, 2, 3)) * jmax
    gv = frame.nabla_grad
    comm = jv @ gv - gv @ jv
    res_comm = np.max(np.abs(comm), axis=(1, 2)) / (1.0 + np.max(np.abs(gv), axis=(1, 2)) * jmax)
    extras = {"commutator_J_nabla_v_max": float(np.max(res_comm))}
    extras["J_squared_plus_id_max"] = float(np.max(np.abs(jv @ jv + np.eye(subject.metric.dim))))
    g = frame.g
    herm = np.swapaxes(jv, 1, 2) @ g @ jv - g
    extras["hermitian_defect_max"] = float(np.max(np.abs(herm) / (1.0 + np.max(np.abs(g), axis=(1, 2)))[:, None, None]))
    res = np.maximum(res, res_comm)
    return make_report("kaehler", desc, frame.points, res, tol, extras)


def check_killing(subject: VerificationSubject, frame: geo.Frame, desc: str,
                  tol: float) -> CheckReport:
    """L_u g = 0 for u = J grad tau, with its exact jet from the frame."""
    g = frame.g
    u, du = frame.u_jet
    lie = geo.lie_derivative_metric(g, geo.nabla_vector(du, u, frame.gamma))
    res = np.max(np.abs(lie), axis=(1, 2)) / (1.0 + np.max(np.abs(g), axis=(1, 2)))
    return make_report("killing", desc, frame.points, res, tol)


def check_geodesic_gradient(subject: VerificationSubject, frame: geo.Frame, desc: str,
                            tol: float) -> CheckReport:
    dq, dtau = frame.dq, frame.dtau
    wedge = dq[:, :, None] * dtau[:, None, :] - dq[:, None, :] * dtau[:, :, None]
    scale = (1.0 + np.max(np.abs(dq), axis=1)) * (1.0 + np.max(np.abs(dtau), axis=1))
    res_wedge = np.max(np.abs(wedge), axis=(1, 2)) / scale
    vv = frame.grad
    nvv = (frame.nabla_grad @ vv[..., None])[..., 0]
    psi = frame.psi_phi[0]
    dev = nvv - psi[:, None] * vv
    res_geo = np.max(np.abs(dev), axis=1) / (1.0 + np.abs(psi) * np.max(np.abs(vv), axis=1))
    extras = {"wedge_max": float(np.max(res_wedge)), "nabla_vv_max": float(np.max(res_geo))}
    return make_report("geodesic_gradient", desc, frame.points, np.maximum(res_wedge, res_geo),
                       tol, extras)


def check_laplacian_identity(subject: VerificationSubject, frame: geo.Frame, desc: str,
                             tol: float) -> CheckReport:
    lap = frame.laplacian
    psi, phi, _ = frame.psi_phi
    target = 2.0 * (psi + phi)
    res = np.abs(lap - target) / (1.0 + np.abs(lap))
    return make_report("laplacian", desc, frame.points, res, tol,
                       {"max_abs_laplacian": float(np.max(np.abs(lap)))})


def _recovered_kappa(subject: VerificationSubject, frame: geo.Frame) -> np.ndarray:
    pts = frame.points
    tau = subject.tau.value(pts)
    return recover_kappa(tau, subject.profile.interval.tau_star, frame.q, frame.laplacian,
                         subject.profile.psi(tau))


def check_gamma_recovery(subject: VerificationSubject, frame: geo.Frame, desc: str,
                         tol: float) -> CheckReport:
    """l |kappa - kappa_expected| for kappa recovered from Delta tau, l = |I|/2.

    |kappa| l < 1 is RP1 minus I, so the residual is a distance on it, regular at gamma = inf.
    """
    if subject.kappa_expected is None:
        raise ValueError("subject provides no expected gamma")
    ell = 0.5 * subject.profile.interval.length
    kappa = _recovered_kappa(subject, frame)
    res = ell * np.abs(kappa - subject.kappa_expected.value(frame.points))
    extras = {}
    # Fiber constancy: sweep tau and theta over the first base point.
    if subject.fiber_point is not None and subject.fiber_bases:
        lam = subject.maps.lam
        sweep = [subject.fiber_point(subject.fiber_bases[0], s, th)
                 for s in np.linspace(0.15 * lam, 0.85 * lam, 7)
                 for th in (0.0, 1.7, 3.9)]
        extras["fiber_spread"] = ell * float(np.ptp(_recovered_kappa(
            subject, geo.build_frame(subject.metric, subject.tau, np.array(sweep)))))
    return make_report("gamma_recovery", desc, frame.points, res, tol, extras)


def check_ode_identities(subject: VerificationSubject, frame: geo.Frame, desc: str,
                         tol: float) -> CheckReport:
    points, vv = frame.points, frame.grad
    q_prof = subject.profile.Q(subject.tau.value(points))
    psi, phi, dphi = frame.psi_phi
    r1 = np.abs(np.einsum("pi,pi->p", vv, frame.dtau) - q_prof) / (1.0 + q_prof)
    r2 = (np.abs(np.einsum("pi,pi->p", vv, frame.dq) - 2.0 * psi * q_prof)
          / (1.0 + np.abs(psi) * q_prof))
    dv_phi = np.einsum("pa,pa->p", vv, dphi)
    r3 = np.abs(dv_phi - 2.0 * (psi - phi) * phi) / (1.0 + np.abs(psi * phi) + phi ** 2)
    lap = frame.laplacian
    r4 = np.abs(lap - 2.0 * (psi + phi)) / (1.0 + np.abs(lap))
    norm2 = _grad_v_norm2(frame.g, frame.ginv, frame.nabla_grad)
    r5 = np.abs(norm2 - 2.0 * (psi ** 2 + phi ** 2)) / (1.0 + psi ** 2 + phi ** 2)
    extras = {"d_v_tau": float(np.max(r1)), "d_v_Q": float(np.max(r2)),
              "d_v_phi": float(np.max(r3)), "laplacian_split": float(np.max(r4)),
              "grad_v_norm": float(np.max(r5))}
    res = np.max(np.stack([r1, r2, r3, r4, r5]), axis=0)
    return make_report("ode_identities", desc, points, res, tol, extras)


def _grad_v_norm2(g: np.ndarray, ginv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """|nabla v|^2 = g_kl g^ij (nabla v)^k_i (nabla v)^l_j at each point."""
    return np.einsum("pkl,pkl->p", g, gv @ ginv @ np.swapaxes(gv, 1, 2))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y per point."""
    return np.einsum("pi,pi->p", x, y)


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x per point, for m (N, i, j) and x (N, j)."""
    return (m @ x[..., None])[..., 0]


def check_bracket_identities(subject: VerificationSubject, frame: geo.Frame, desc: str,
                             tol: float) -> CheckReport:
    """The horizontal lifts' bracket against v, u and the curvature, and d_X [phi g(w_a, w_b) / Q].

    Every g(x, y) is a dot product with g y, lowered once per vector.
    """
    if subject.lift_fields is None:
        raise ValueError("subject provides no horizontal lifts")
    points, g, q, vv = frame.points, frame.g, frame.q, frame.grad
    w1, w2 = subject.lift_fields
    wv = (w1.value(points), w2.value(points))
    dw = (w1.jac(points), w2.jac(points))
    gw = [_apply(g, w) for w in wv]
    # [w1, w2]^k = w1^j d_j w2^k - w2^j d_j w1^k
    bracket = (wv[0][:, None] @ dw[1] - wv[1][:, None] @ dw[0])[:, 0]
    uv = frame.u_jet[0]  # u = J grad tau
    g_bracket = _apply(g, bracket)
    c_v = _dot(g_bracket, vv) / q
    c_u = _dot(g_bracket, uv) / q
    _, phi, dphi = frame.psi_phi
    g_jw_w = _dot(_apply(frame.J, wv[0]), gw[1])
    scale = 1.0 + np.abs(phi * g_jw_w)
    res_wwv = (np.abs(q * c_v) + np.abs(q * c_u + 2.0 * phi * g_jw_w)) / scale
    extras = {"wwv_max": float(np.max(res_wwv))}
    res = res_wwv
    if subject.omega12 is not None:
        om = subject.omega12(points)
        res_curv = np.abs(c_u - om / subject.profile.a) / (1.0 + np.abs(om) / subject.profile.a)
        extras["vertical_vs_curvature_max"] = float(np.max(res_curv))
        res = np.maximum(res, res_curv)

    # d_X [phi g(w_a, w_b) / Q] along X = v and X = u for every lift pair, every jet exact.
    pairs = ((0, 0), (0, 1), (1, 1))
    gab = [_dot(wv[a], gw[b]) for a, b in pairs]
    npts, n = vv.shape
    r_dvq = np.zeros(npts)
    for vec in (vv, uv):
        d_phi, d_q = _dot(vec, dphi), _dot(vec, frame.dq)
        d_g = (vec[:, None] @ frame.dg.reshape(npts, n, n * n)).reshape(npts, n, n)
        d_w = [(vec[:, None] @ jet)[:, 0] for jet in dw]
        d_gw = [_apply(d_g, w) for w in wv]
        for (a, b), g_ab in zip(pairs, gab):
            d_gab = _dot(d_w[a], gw[b]) + _dot(wv[a], d_gw[b]) + _dot(gw[a], d_w[b])
            quot = phi * g_ab / q
            d_quot = (d_phi * g_ab + phi * d_gab) / q - quot * d_q / q
            sc = (1.0 + np.abs(quot)) * (1.0 + q)
            r_dvq = np.maximum(r_dvq, np.abs(d_quot) / sc)
    extras["dvq_max"] = float(np.max(r_dvq))
    res = np.maximum(res, r_dvq)
    return make_report("bracket_identities", desc, points, res, tol, extras)


def bochner_index(subject: VerificationSubject, points: np.ndarray) -> np.ndarray:
    """The indices of the max(1, N // 2) points nearest the middle of their fibers, in grid order.

    Points are ranked by |s(tau) - lambda/2| with a stable sort, so on the
    constructions' grid they are the inner n_tau/2 tau-levels.
    """
    s = np.asarray(subject.maps.s_of_tau(subject.tau.value(points)), dtype=float)
    order = np.argsort(np.abs(s - 0.5 * subject.maps.lam), kind="stable")
    return np.sort(order[:max(1, len(points) // 2)])


def _bochner_jets(subject: VerificationSubject, points: np.ndarray,
                  frame: Optional[geo.Frame] = None):
    """(frame, nabla v, nabla_v v, the jets of those, and Ric(v)) for ``check_bochner``.

    One frame (``frame`` if the caller has it at the points), the metric's
    exact ``d2value`` and tau's exact ``d3`` at the points: nothing is
    differenced, and curvature is only the contraction Ric(., v) of the jet
    of Gamma with v.
    """
    m, tau = subject.metric, subject.tau
    fr = geo.build_frame(m, tau, points) if frame is None else frame
    d_gradv, dgamma_v = fr.second_jets(m.d2value(points), tau.d3(points))
    vv, dv, gv = fr.grad, fr.dgrad, fr.nabla_grad
    nvv = _apply(gv, vv)
    # d_b (nabla_v v)^k = d_b (nabla v)^k_i v^i + (nabla v)^k_i d_b v^i
    npts, n = vv.shape
    d_nvv = (d_gradv.reshape(npts, n * n, n) @ vv[..., None]).reshape(npts, n, n)
    d_nvv += dv @ np.swapaxes(gv, 1, 2)
    return fr, gv, nvv, d_gradv, d_nvv, geo.ricci(dgamma_v, fr.gamma, fr.gamma_grad)


def check_bochner(subject: VerificationSubject, points: np.ndarray, desc: str,
                  tol: float, frame: Optional[geo.Frame] = None) -> CheckReport:
    """Bochner's formula and d(Delta tau) = -2 Ric(v) for v = grad tau, from exact jets of g and tau.

    With v = grad tau, div v = tr nabla v = Delta tau, so d div v = d Delta tau
    is the trace of the jet of nabla v.  ``frame`` is the geometry at the
    points when the caller has built it (``run_suite``: the main grid's
    frame at the inner half); without it the check builds its own.
    """
    fr, gv, nvv, d_gradv, d_nvv, ric_v = _bochner_jets(subject, points, frame)
    d_lap = np.einsum("pakk->pa", d_gradv)  # d div v = d Delta tau
    vv = fr.grad
    div_gradv = geo.divergence_endomorphism(d_gradv, gv, fr.gamma)
    scale = 1.0 + np.max(np.abs(ric_v), axis=1) + np.max(np.abs(d_lap), axis=1)
    r_bch = np.max(np.abs(d_lap - div_gradv + ric_v), axis=1) / scale
    r_ddt = np.max(np.abs(d_lap + 2.0 * ric_v), axis=1) / scale
    div_nvv = geo.divergence_vector(d_nvv, nvv, fr.gamma)
    norm2 = _grad_v_norm2(fr.g, fr.ginv, gv)
    dv_lap = _dot(vv, d_lap)
    r_dvd = np.abs(dv_lap - 2.0 * div_nvv + 2.0 * norm2) / (1.0 + np.abs(dv_lap) + norm2)
    extras = {"bochner_max": float(np.max(r_bch)), "ddt_max": float(np.max(r_ddt)),
              "dvd_max": float(np.max(r_dvd))}
    res = np.max(np.stack([r_bch, r_ddt, r_dvd]), axis=0)
    return make_report("bochner", desc, points, res, tol, extras)


# Fiber-end offset of the boundary-limit check, in units of lambda.
_END_FRAC = 0.01


def check_boundary_limits(subject: VerificationSubject, tol: float) -> CheckReport:
    """Richardson limits along fibers at both interval ends.

    Asserts the Hessian eigenvalue limits, |E^2 - aE| -> 0 for the one-jet
    of v in an orthonormal frame, and dQ/dtau -> +-2a.  One frame at s =
    delta, 2 delta, 4 delta from each end of each fiber gives all three:
    along the unit-speed fiber d/ds = grad tau / sqrt(Q), so dQ/dtau =
    dQ(grad tau) / Q exactly.
    """
    if subject.fiber_point is None or not subject.fiber_bases:
        raise ValueError("subject provides no fiber structure")
    a, lam = subject.profile.a, subject.maps.lam
    svals = _END_FRAC * lam * np.array([1.0, 2.0, 4.0])
    ends = [(base, end, sign) for base in subject.fiber_bases
            for end, sign in (("min", 1.0), ("max", -1.0))
            if len(subject.boundary_expect.get(end, ()))]
    pts = np.array([subject.fiber_point(base, s if end == "min" else lam - s)
                    for base, end, _ in ends for s in svals])
    fr = geo.build_frame(subject.metric, subject.tau, pts)
    # With g = L L^T, the eigenvalues of Hess tau relative to g are those of
    # L^-1 Hess L^-T, and L^T E L^-T is the one-jet E in an orthonormal frame.
    lt = np.swapaxes(np.linalg.cholesky(fr.g), 1, 2)
    lt_inv = np.linalg.inv(lt)
    eigs = np.linalg.eigvalsh(np.swapaxes(lt_inv, 1, 2) @ fr.hessian @ lt_inv)[:, ::-1]
    ef = lt @ fr.nabla_grad @ lt_inv
    sign = np.array([sg for _, _, sg in ends])
    e2 = np.max(np.abs(ef @ ef - (a * np.repeat(sign, 3))[:, None, None] * ef), axis=(1, 2))
    slopes = np.einsum("pa,pa->p", fr.dq, fr.grad) / fr.q

    def limit(x):  # per (fiber, end): the Richardson limit over the three s-values
        return geo.richardson_even(np.swapaxes(x.reshape((len(ends), 3) + x.shape[1:]), 0, 1))

    targets = np.array([np.sort(subject.boundary_expect[end])[::-1] for _, end, _ in ends])
    r_eig = np.max(np.abs(limit(eigs) - targets), axis=1)
    r_slope = np.abs(limit(slopes) - 2.0 * a * sign) / (2.0 * a)
    res = np.max(np.stack([r_eig, np.abs(limit(e2)), r_slope]), axis=0)
    desc = f"{len(subject.fiber_bases)} fibers, Richardson at s = delta,2delta,4delta, delta = {_END_FRAC} lambda"
    return make_report("boundary_limits", desc, pts[::3], res, tol, {})


def check_flow_lengths(subject: VerificationSubject, tol: float,
                       n_fibers: int = 2) -> CheckReport:
    """Gradient-flow trajectories vs the arclength coordinate s."""
    return _flow_lengths(subject, tol, n_fibers)[0]


def _flow_lengths(subject: VerificationSubject, tol: float,
                  n_fibers: int = 2) -> "tuple[CheckReport, list]":
    """``check_flow_lengths`` plus its ``geometry.FiberTrace`` per fiber, fiber 0 first.

    Each fiber is seeded at its middle, s0 = lambda/2, and flows down and up
    from there in one ``geometry.flow_both_ways`` batch until each half stops
    (sqrt(Q) below ``geometry.FLOW_END`` of its largest value).  Along a fiber
    tau' = Q, so a t-step h scales Q by about exp(h Q'): h = 4 FLOW_STEP / max_I |Q'|
    holds h |Q'| at 0.192, its value at a = 2, for every a and Q.  A fiber's residual is
    |s(tau) - (s0 + arclength)| over the samples of both halves, with the
    arclength signed from the seed; a half that does not stop makes it inf.
    """
    if subject.fiber_point is None or not subject.fiber_bases:
        raise ValueError("subject provides no fiber structure")
    s0 = 0.5 * subject.maps.lam
    seeds = np.array([subject.fiber_point(base, s0) for base in subject.fiber_bases[:n_fibers]])
    iv = subject.profile.interval
    slope = np.max(np.abs(subject.profile.dQ(np.linspace(iv.tau_min, iv.tau_max, 257))))
    traces = geo.flow_both_ways(subject.metric, subject.tau, seeds, step=4.0 * geo.FLOW_STEP / slope)
    rows, failed = [], []
    drift_max = 0.0
    for i, tr in enumerate(traces):
        if tr.status != ("stop", "stop"):
            rows.append(np.inf)
            failed.append({"fiber": i, "descending": tr.status[0], "ascending": tr.status[1]})
            continue
        s_along = np.asarray(subject.maps.s_of_tau(tr.values), dtype=float)
        rows.append(float(np.max(np.abs(s_along - (s0 + tr.s)))))
        if subject.construction is not None:
            drift_max = max(drift_max, float(np.max(np.abs(tr.points[:, [0, 1, 3]] - seeds[i, [0, 1, 3]]))))
    extras = {"fiber_drift_max": drift_max}
    if failed:
        extras["failed_fibers"] = failed
    desc = (f"{len(rows)} trajectories from s = lambda/2 both ways to "
            f"sqrt(Q) < {geo.FLOW_END} max sqrt(Q)")
    return make_report("flow_lengths", desc, seeds, np.array(rows), tol, extras), traces


def check_oracle_equivalence(subject: VerificationSubject, tol: float,
                             n_samples: int = 120, seed: int = 0) -> CheckReport:
    """Closed-form Christoffels from the covariant-derivative table vs a stencil of g."""
    data = subject.construction
    if data is None or data.control != "none":
        raise ValueError("oracle equivalence applies to unperturbed constructions")
    pts = subject.random_points(n_samples, seed, s_range=(0.15, 0.85))
    g_cf = christoffel_closed_form(data, pts)
    g_fd = geo.christoffel(replace(subject.metric, dvalue=None), pts)
    scale = 1.0 + np.max(np.abs(g_cf), axis=(1, 2, 3))
    res = np.max(np.abs(g_cf - g_fd), axis=(1, 2, 3)) / scale
    return make_report("oracle_equivalence", f"{n_samples} random interior samples, seed {seed}",
                       pts, res, tol, {})


# ----------------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------------

def resolve_tolerances(overrides: Optional[dict] = None, tol_scale: float = 1.0) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    for k, v in (overrides or {}).items():
        if k not in tols:
            raise KeyError(f"unknown check '{k}'")
        tols[k] = float(v)
    return {k: v * tol_scale for k, v in tols.items()}


def run_suite(subject: VerificationSubject, spec: Optional[GridSpec] = None,
              tolerances: Optional[dict] = None, tol_scale: float = 1.0,
              checks: Optional[list] = None) -> list:
    """All checks applicable to the subject, in a stable order."""
    spec = spec or GridSpec()
    tols = resolve_tolerances(tolerances, tol_scale)
    points, desc = subject.grid_points(spec)
    reports = []

    def want(name: str) -> bool:
        return checks is None or name in checks

    grid_checks = [(name, check) for name, check, applies in (
        ("kaehler", check_kaehler, True),
        ("killing", check_killing, True),
        ("geodesic_gradient", check_geodesic_gradient, True),
        ("laplacian", check_laplacian_identity, True),
        ("gamma_recovery", check_gamma_recovery, subject.kappa_expected is not None),
        ("ode_identities", check_ode_identities, True),
        ("bracket_identities", check_bracket_identities, subject.lift_fields is not None),
    ) if applies and want(name)]
    inner = bochner_index(subject, points) if want("bochner") else None
    inner_frame = None
    if grid_checks:
        frame = subject.frame(points)
        reports += [check(subject, frame, desc, tols[name]) for name, check in grid_checks]
        if inner is not None:
            inner_frame = frame.at(inner)
        del frame  # freed before bochner builds its second jets
    if inner is not None:
        reports.append(check_bochner(subject, points[inner], desc + " (inner half in s)",
                                     tols["bochner"], frame=inner_frame))
    if want("boundary_limits") and subject.fiber_point is not None:
        reports.append(check_boundary_limits(subject, tols["boundary_limits"]))
    if want("flow_lengths") and subject.fiber_point is not None:
        reports.append(check_flow_lengths(subject, tols["flow_lengths"]))
    data = subject.construction
    if want("oracle_equivalence") and data is not None and data.control == "none":
        reports.append(check_oracle_equivalence(subject, tols["oracle_equivalence"],
                                                n_samples=spec.n_random, seed=spec.seed))
    return reports


def suite_passed(reports: list) -> bool:
    return all(r.passed for r in reports)
