"""Classification direction: recover construction data from a metric oracle.

An :class:`ExtractionOracle` exposes only pointwise evaluations of (g, J,
tau) plus seed points; the metric's analytic derivatives are deliberately
stripped so every covariant quantity here goes through the finite
difference engine, keeping the round trip non-circular.  (tau's coordinate
differential and Hessian are kept: they are data of the triple, not of the
construction.)

The pipeline follows the geometry rather than any stored closed form:

  * gradient-flow traces through each seed sweep out a fiber, stepping
    fixed increments of the flow parameter t (so the arclength steps shrink
    geometrically toward the ends), cut by three while a step goes past a
    fiber's end; tau and Q = |d tau|^2 are exact oracle values at every
    sample;
  * one polynomial fit of Q(tau) over the samples of all traces gives the
    rest of the 1-D data: the interval is where it vanishes, a is half its
    slope there, and the profile's rho is what remains after dividing out
    the interval's quadratic.  A fit residual above 1e-5 max(Q_max, 1) is
    the numerical realization of "Q is not a function of tau" and rejects
    the oracle, as do end slopes that are not +-2a for one a;
  * gamma comes per base point in the chart kappa = 1/(tau_star - gamma)
    of RP1 (see ``rp1``): m = (laplacian(tau) - dQ/dtau)/Q = 1/(tau - gamma)
    and kappa = m/(1 - m (tau - tau_star)), with dQ/dtau = 2 Hess tau(grad
    tau, grad tau)/Q from the same covariant Hessian as the Laplacian (tau's
    closed-form partials, Christoffels from a stencil of g), averaged along
    the fiber with a consistency assertion.  Only ``ExtractedData.gammas``
    turns kappa back into points of RP1;
  * h is read at each seed: the metric restricted to the orthogonal
    complement of (grad tau, J grad tau) is beta h there, with
    beta = 1 + kappa (tau - tau_star), so it is divided by beta.

``round_trip`` rebuilds a construction from the extracted data and reports
the max relative metric deviation on a common chart grid.  The oracle's seeds
lie in rows that share one base coordinate u (x1 on the torus, sigma = |x|^2
on the sphere); h and kappa are interpolated over u, trigonometrically on the
torus and by a Chebyshev polynomial on the sphere, so the one rebuild serves
both surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import geometry as geo
from .construction import (ConstructionData, assemble_metric, assemble_J,
                           build_construction, tau_field)
from .fubini import FSChart, fs_J, fs_metric, fs_random_directions, fs_tau
from .piecewise import chebyshev_interpolant, lobatto_nodes, trig_interpolant
from .profiles import MAX_Q_DEGREE, Interval, MomentumProfile, make_profile
from .rp1 import INFINITY, RP1Value, recover_kappa
from .surfaces import (BaseSurfaceData, ChartData, KappaField, SurfaceChart, _curvature_jet,
                       solve_connection_radial, solve_connection_torus)


class InconsistentOracleError(ValueError):
    """The fitted Q(tau) has no bracketing interval, or its two end slopes disagree."""


class NotAFunctionOfTauError(ValueError):
    """Q varies across base points at fixed tau: the gradient is not geodesic."""


class FiberInconsistencyError(ValueError):
    """The recovered gamma varies along a single fiber, or lies inside the interval."""


@dataclass
class ExtractionOracle:
    name: str
    metric: geo.MetricField
    tau: geo.ScalarField
    J: geo.MatrixField
    seeds: np.ndarray
    base_axes: tuple = (0, 1)
    meta: dict = field(default_factory=dict)


def oracle_from_construction(data: ConstructionData, n_x1: int = 24, n_x2: int = 2,
                             theta: float = 0.0) -> ExtractionOracle:
    """Value-only wrapper around an assembled construction, seeded at tau_star.

    The seeds are n_x1 rows of n_x2.  The seeds of a row share one base
    coordinate u, which the rebuild interpolates over: x1 on the torus, where
    the rows are evenly spaced columns of the chart, and sigma = |x|^2 on the
    sphere, where they are rings at the Chebyshev-Lobatto nodes of sigma in
    [0, (0.6 R)^2], from the chart centre out, each with n_x2 evenly spaced
    angles.
    """
    m_full = assemble_metric(data)
    metric = replace(m_full, dvalue=None, d2value=None, name=m_full.name + ":oracle")
    tau = replace(tau_field(data), name="tau:oracle")
    jf = replace(assemble_J(data), jac=None, name="J:oracle")
    if data.surface.surface_type == "torus":
        (x1lo, x1hi), (x2lo, x2hi) = data.chart_data.chart.bounds
        b1 = x1lo + (x1hi - x1lo) * np.arange(n_x1) / n_x1
        b2 = x2lo + (x2hi - x2lo) * (np.arange(n_x2) + 0.5) / n_x2
        g1, g2 = np.meshgrid(b1, b2, indexing="ij")
    else:
        rho = np.sqrt(lobatto_nodes(n_x1, (0.6 * data.surface.params["radius"]) ** 2))
        angles = 2.0 * np.pi * (np.arange(n_x2) + 0.5) / n_x2
        rr, aa = np.meshgrid(rho, angles, indexing="ij")
        g1, g2 = rr * np.cos(aa), rr * np.sin(aa)
    bases = np.column_stack([g1.ravel(), g2.ravel()])
    tau_mid = data.interval.tau_star
    seeds = np.column_stack([bases, np.full(len(bases), tau_mid), np.full(len(bases), theta)])
    return ExtractionOracle(name=metric.name, metric=metric, tau=tau, J=jf, seeds=seeds,
                            meta={"surface": data.surface.surface_type, "n_x1": n_x1})


def oracle_from_fs(chart: Optional[FSChart] = None, n_seeds: int = 12) -> ExtractionOracle:
    chart = chart or FSChart()
    metric = replace(fs_metric(chart), dvalue=None, d2value=None, name="fubini-study:oracle")
    dirs = fs_random_directions(chart, n_seeds, np.random.default_rng(11))
    seeds = dirs * np.tan(np.pi / 4.0)  # tau = 1/2 on the default chart
    return ExtractionOracle(name="fubini-study", metric=metric, tau=fs_tau(chart), J=fs_J(chart),
                            seeds=seeds, base_axes=(), meta={"surface": "fubini"})


# ----------------------------------------------------------------------------
# Fiber traces
# ----------------------------------------------------------------------------

# Fiber ends that mean a step went past the end of its fiber, and how many times
# trace_fibers retraces at a third of the step when one occurs: 3^-210 FLOW_STEP
# is the step of the steepest a a config admits, 1e100.
_OVERSHOT = frozenset({"non-finite", "left-domain"})
_RETRACES = 210


def trace_fibers(oracle: ExtractionOracle) -> list:
    """One ``geometry.FiberTrace`` per seed, in order of tau: ``geometry.flow_both_ways``.

    Both halves step ``geometry.FLOW_STEP`` in the flow parameter t, with t
    bounded by 60 in each direction, and end by the integrator's one stop
    rule.  The samples are fixed t-steps apart, so their arclength steps
    shrink geometrically toward both ends, where sqrt(Q) vanishes linearly.
    Toward the end of a fiber with a large end slope a step can go past it:
    a fiber that ends "non-finite" or "left-domain", or a stage whose metric
    is singular, makes every seed retrace at a third of the step, up to
    ``_RETRACES`` times, after which InconsistentOracleError is raised.  A
    metric singular at the seeds is a NumericalFailure of its own.  tau and
    Q are exact oracle values at every sample, wherever the step put it.
    """
    geo.gradient_and_q(oracle.metric, oracle.tau, oracle.seeds)  # singular here: NumericalFailure
    step = geo.FLOW_STEP
    for _ in range(_RETRACES + 1):
        try:
            traces = geo.flow_both_ways(oracle.metric, oracle.tau, oracle.seeds, step=step,
                                        max_steps=int(60.0 / step))
            if not any(_OVERSHOT.intersection(tr.status) for tr in traces):
                return traces
        except geo.NumericalFailure:  # a stage past a fiber's end met a singular metric
            pass
        step /= 3.0
    raise InconsistentOracleError(
        f"gradient-flow traces still step past the ends of their fibers at t-step {3.0 * step:.3g}")


def extract_profile(traces: list):
    """(profile, diagnostics) from one polynomial fit of Q(tau) over every trace sample.

    The fit takes the lowest degree from 2 to ``MAX_Q_DEGREE`` (20) whose max
    residual is at roundoff, 1e-12 max(Q_max, 1).  A residual above 1e-5
    max(Q_max, 1) means Q is not a function of tau.  The interval is where the
    fit vanishes, at the two real roots that bracket the samples, and a is the
    mean of its half end slopes, which must agree to 2e-3 a.  rho is the fit
    divided twice by w = (tau - tau_min)(tau_max - tau), as polynomials in
    t = (tau - tau_min)/L, with 2a/L taken off between the divisions.
    """
    tau = np.concatenate([tr.values for tr in traces])
    q = np.concatenate([tr.q for tr in traces])
    scale = max(float(np.max(q)), 1.0)
    for degree in range(2, MAX_Q_DEGREE + 1):
        fit = np.polynomial.Polynomial.fit(tau, q, degree)
        residual = float(np.max(np.abs(fit(tau) - q)))
        if residual <= 1e-12 * scale:
            break
    if residual > 1e-5 * scale:
        raise NotAFunctionOfTauError(
            f"Q(tau) fit residual over all base points is {residual:.3e}; "
            "the oracle's potential does not have a geodesic gradient")
    roots = fit.roots()
    roots = roots[np.isreal(roots)].real
    below, above = roots[roots < tau.min()], roots[roots > tau.max()]
    if not (below.size and above.size):
        raise InconsistentOracleError("the fitted Q(tau) has no real roots bracketing the samples")
    interval = Interval(float(below.max()), float(above.min()))
    slope = fit.deriv()
    a_min = 0.5 * float(slope(interval.tau_min))
    a_max = -0.5 * float(slope(interval.tau_max))
    a = 0.5 * (a_min + a_max)
    if abs(a_min - a_max) > 2e-3 * abs(a):
        raise InconsistentOracleError(
            f"endpoint slope estimates disagree: {a_min:.6g} vs {a_max:.6g}")
    L = interval.length
    w = L * L * np.array([0.0, 1.0, -1.0])  # w as a polynomial in t
    q_factor = npoly.polydiv(fit.convert(domain=[interval.tau_min, interval.tau_max],
                                         window=[0.0, 1.0]).coef, w)[0]
    q_factor[0] -= 2.0 * a / L
    rho = npoly.polydiv(q_factor, w)[0] if degree >= 4 else ()  # degree 2 or 3: q is constant
    diag = {"a_min_end": a_min, "a_max_end": a_max, "q_fit_degree": degree,
            "q_fit_residual": residual}
    return make_profile(interval, a, rho), diag


def extract_gamma(oracle: ExtractionOracle, profile: MomentumProfile, traces: list):
    """Recovered kappa = 1/(tau_star - gamma) per seed, averaged along its fiber.

    A fiber whose l kappa (l = |I|/2) spreads by more than 1e-3 aborts the
    recovery.

    psi = (dQ/dtau)/2 = Hess tau(grad tau, grad tau) / Q is taken at each of
    five trace points from the covariant Hessian that also gives
    laplacian(tau) there, all from one frame, rather than from the fitted
    profile polynomial: the recovery denominator amplifies psi errors by
    (tau - gamma)^2 / Q.  The result does not depend on how the traces are
    sampled.
    """
    iv = profile.interval
    lo = iv.tau_min + 0.25 * iv.length
    hi = iv.tau_min + 0.75 * iv.length
    picks = []
    for tr in traces:
        idx = np.where((tr.values > lo) & (tr.values < hi))[0]
        picks.append(idx[np.linspace(0, idx.size - 1, 5).astype(int)])
    fr = geo.build_frame(oracle.metric, oracle.tau,
                         np.concatenate([tr.points[p] for tr, p in zip(traces, picks)]))
    psi = np.einsum("pi,pij,pj->p", fr.grad, fr.hessian, fr.grad) / fr.q
    kappa = recover_kappa(np.concatenate([tr.values[p] for tr, p in zip(traces, picks)]),
                          iv.tau_star, np.concatenate([tr.q[p] for tr, p in zip(traces, picks)]),
                          fr.laplacian, psi).reshape(len(traces), -1)
    worst = 0.5 * iv.length * float(np.max(np.ptp(kappa, axis=1)))
    if not worst <= 1e-3:
        raise FiberInconsistencyError(
            f"gamma varies by {worst:.3e} (l kappa) along one fiber; recovery aborted")
    return np.mean(kappa, axis=1), {"fiber_spread_max": worst}


def extract_h(oracle: ExtractionOracle, interval: Interval, kappas: np.ndarray) -> np.ndarray:
    """h at the seed base points, read at the seeds.

    The horizontal block of g is beta h at every point of a fiber, with
    beta = 1 + kappa (tau - tau_star).  So h is the metric restricted to the
    orthogonal complement of (grad tau, J grad tau) at each seed, divided by beta there.
    """
    p = oracle.seeds
    g = oracle.metric.value(p)
    v, _ = geo.gradient_and_q(oracle.metric, oracle.tau, p, g=g)
    u = np.einsum("pij,pj->pi", oracle.J.value(p), v)

    def dot(x, y):  # g(x, y) per point; x may carry a middle axis of vectors
        return np.einsum("p...i,pij,pj->p...", x, g, y)

    ev = v / np.sqrt(dot(v, v))[:, None]
    u_perp = u - dot(u, ev)[:, None] * ev
    eu = u_perp / np.sqrt(dot(u_perp, u_perp))[:, None]
    e = np.zeros((len(p), 2, oracle.metric.dim))
    e[:, [0, 1], list(oracle.base_axes)] = 1.0
    e -= dot(e, ev)[..., None] * ev[:, None] + dot(e, eu)[..., None] * eu[:, None]
    hm = np.einsum("pri,pij,pcj->prc", e, g, e)
    beta = 1.0 + kappas * (oracle.tau.value(p) - interval.tau_star)
    return hm / beta[:, None, None]


# |kappa| l at or below which a recovered gamma is reported as the point at infinity.
_AT_INFINITY = 1e-9


@dataclass
class ExtractedData:
    interval: Interval
    a: float
    profile: MomentumProfile
    q_samples: np.ndarray
    kappas: np.ndarray            # kappa = 1/(tau_star - gamma) per seed
    h_samples: np.ndarray
    diagnostics: dict

    @property
    def gammas(self) -> list:
        """The recovered gamma per seed as points of RP1: tau_star - 1/kappa, or inf."""
        iv = self.interval
        return [INFINITY if abs(k) * 0.5 * iv.length <= _AT_INFINITY
                else RP1Value(iv.tau_star - 1.0 / k) for k in self.kappas]

    def to_dict(self) -> dict:
        return {
            "interval": [self.interval.tau_min, self.interval.tau_max],
            "a": self.a,
            "q_factor_coeffs": list(self.profile.rho_coeffs),
            "q_samples": [[float(a_), float(b_)] for a_, b_ in self.q_samples],
            "gamma_samples": [g.to_json() for g in self.gammas],
            "h_samples": [[[float(v) for v in row] for row in m] for m in self.h_samples],
            "diagnostics": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                            for k, v in sorted(self.diagnostics.items())},
        }


def extract_all(oracle: ExtractionOracle, with_h: bool = True) -> ExtractedData:
    traces = trace_fibers(oracle)
    profile, diag = extract_profile(traces)
    interval, a = profile.interval, profile.a
    tgrid = np.linspace(interval.tau_min + 0.05 * interval.length,
                        interval.tau_max - 0.05 * interval.length, 33)
    samples = np.column_stack([tgrid, profile.Q(tgrid)])
    kappas, diag_g = extract_gamma(oracle, profile, traces)
    diag.update(diag_g)
    if with_h and oracle.base_axes:
        h_samples = extract_h(oracle, interval, kappas)
    else:
        h_samples = np.empty((0, 2, 2))
    diag["kappa_range"] = [float(np.min(kappas)), float(np.max(kappas))]
    # On a compact total space gamma never enters the open interval.  Values at
    # the endpoints are legitimate (the constant-gamma special branch, e.g. the
    # projective-space oracle), so only a strict interior hit is an error: gamma lies
    # 1/|kappa| from tau_star, and a depth of -+2e-3 l in I is |kappa| l = 1/(1 +- 2e-3).
    reach = np.abs(kappas) * 0.5 * interval.length
    inside = reach * (1.0 - 2e-3) > 1.0
    if np.any(inside):
        raise FiberInconsistencyError(
            f"recovered gamma {interval.tau_star - 1.0 / kappas[inside][0]:.6g} lies inside "
            "the recovered interval")
    diag["gamma_on_interval_boundary"] = bool(np.any(reach * (1.0 + 2e-3) > 1.0))
    return ExtractedData(interval=interval, a=a, profile=profile, q_samples=samples,
                         kappas=kappas, h_samples=h_samples, diagnostics=diag)


# ----------------------------------------------------------------------------
# Rebuild and round trip
# ----------------------------------------------------------------------------

def _rebuild(ex: ExtractedData, oracle: ExtractionOracle) -> ConstructionData:
    """The construction from the extracted data, interpolated over each seed row's coordinate u.

    u is x1 on the torus and sigma = |x|^2 on the sphere, whose chart reaches
    out to the outer ring.  Each row's h is averaged to its isotropic part,
    the conformal factor lam2 of an isothermal chart, and its kappa to its
    mean.  Both are analytic in u, so spectral interpolants converge
    geometrically: the trigonometric interpolant over the torus rows, which
    are evenly spaced in one period, and the Chebyshev interpolant over the
    sphere rings, which sit at the Lobatto nodes of sigma.  du/dx and its
    jet chain their u-derivatives into the first and second jets of lam2 and
    kappa, and the connection comes from the surface's own solver.
    """
    torus = oracle.meta["surface"] == "torus"
    rows = oracle.meta["n_x1"]
    base = oracle.seeds.reshape(rows, -1, oracle.metric.dim)[:, 0, list(oracle.base_axes)]
    k_row = ex.kappas.reshape(rows, -1).mean(axis=1)
    h_row = ex.h_samples.reshape(rows, -1, 2, 2).mean(axis=1)
    lam2_row = 0.5 * (h_row[:, 0, 0] + h_row[:, 1, 1])
    if torus:
        k_fit, lam2_fit = (trig_interpolant(v, base[0, 0]) for v in (k_row, lam2_row))

        def coord(x):  # u, du/dx and d du/dx dx at chart points x
            return x[:, 0], np.broadcast_to([1.0, 0.0], x.shape), np.zeros((x.shape[0], 2, 2))

        domain, bounds = (lambda x: np.ones(x.shape[0], dtype=bool)), ((0.0, 1.0),) * 2
    else:
        sigma_max = float(np.sum(base[-1] ** 2))  # the outer ring
        k_fit, lam2_fit = (chebyshev_interpolant(v, sigma_max) for v in (k_row, lam2_row))

        def coord(x):
            return np.sum(x * x, axis=1), 2.0 * x, np.broadcast_to(2.0 * np.eye(2), (len(x), 2, 2))

        half = 0.7 * math.sqrt(sigma_max)  # the sphere's square inside its outer ring
        domain, bounds = (lambda x: coord(x)[0] < sigma_max), ((-half, half),) * 2

    def through_u(fit):  # the callables (f, d f, d d f) of f(x) = fit(u(x)): a jet_chain through u
        def jet(x, order):
            u = coord(x)[:order + 1]
            return geo.jet_chain(u, *fit(u[0]))

        return (lambda x: fit(coord(x)[0])[0], lambda x: jet(x, 1)[1], lambda x: jet(x, 2)[2])

    kappa = KappaField(*through_u(k_fit), value_range=(float(np.min(k_row)), float(np.max(k_row))))
    chart = SurfaceChart(f"{oracle.meta['surface']}-rebuilt", *through_u(lam2_fit), domain=domain,
                         bounds=bounds)
    w_jet = _curvature_jet(ex.a, chart, kappa)
    conn = (solve_connection_torus(w_jet) if torus
            else solve_connection_radial(w_jet, sigma_max=sigma_max))
    surface = BaseSurfaceData(surface_type=oracle.meta["surface"],
                              charts=[ChartData(chart=chart, kappa=kappa, connection=conn)],
                              params={"rebuilt": True})
    return build_construction(ex.interval, ex.a, surface, profile=ex.profile)


def round_trip(data: ConstructionData) -> dict:
    """construct -> oracle -> extract -> re-construct -> compare metrics at 400 random points."""
    n_compare = 400
    oracle = oracle_from_construction(data)
    ex = extract_all(oracle)
    rebuilt = _rebuild(ex, oracle)
    g_orig = assemble_metric(data)
    g_new = assemble_metric(rebuilt)
    rng = np.random.default_rng(3)
    (x1lo, x1hi), (x2lo, x2hi) = rebuilt.chart_data.chart.bounds
    lam = data.maps.lam
    pts = np.column_stack([
        rng.uniform(x1lo, x1hi, n_compare),
        rng.uniform(x2lo, x2hi, n_compare),
        np.asarray(data.maps.tau_of_s(rng.uniform(0.1 * lam, 0.9 * lam, n_compare)), dtype=float),
        rng.uniform(0, 2 * np.pi, n_compare),
    ])
    ga, gb = g_orig.value(pts), g_new.value(pts)
    dev = np.linalg.norm((ga - gb).reshape(n_compare, -1), axis=1)
    ref = np.linalg.norm(ga.reshape(n_compare, -1), axis=1)
    rel = float(np.max(dev / ref))
    return {
        "surface": oracle.meta["surface"],
        "max_rel_metric_dev": rel,
        "interval": [ex.interval.tau_min, ex.interval.tau_max],
        "a": ex.a,
        "extracted": ex.to_dict(),
        "n_compare": n_compare,
    }
