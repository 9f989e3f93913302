"""Momentum profiles Q on a closed interval and their reparametrizations.

A profile is the 1-D datum of the construction: a function Q on
I = [tau_min, tau_max] that vanishes at the endpoints, is positive inside,
and has endpoint slopes exactly +2a and -2a.  Those constraints are
enforced structurally by writing

    Q(tau) = (tau - tau_min) * (tau_max - tau) * q(tau),

with q > 0 on I and q = 2a/(tau_max - tau_min) at both endpoints.  The free
shape lives in a polynomial bump:

    q(tau) = (2a/L) + (tau - tau_min)(tau_max - tau) * rho(t),   t = (tau - tau_min)/L,

where rho is a polynomial with user-supplied coefficients (empty = the
canonical profile, q constant).

Three reparametrizations of the open interval are tabulated:

    r(tau):  dr/dtau = a r / Q, normalized by r(tau_star) = 1  (fiber radius),
    s(tau):  ds/dtau = Q^(-1/2), s(tau_min) = 0                (arclength),
    sigma(r) = s(tau(r)),

together with lambda = s(tau_max), which is finite because the endpoint
slopes +-2a turn Q^(-1/2) into an integrable inverse-square-root
singularity.  The quadrature substitutes tau = tau_min + xi^2 (and its
mirror) to remove that singularity before integrating.

Each map is a cubic Hermite table with the node slopes its ODE gives in
closed form: ds/dxi is the substituted integrand (finite at the ends),
dtau/ds = sqrt(Q), dlog r/dtau = a/Q and dtau/dlog r = Q/a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .piecewise import PiecewisePoly, hermite_table


class InvalidProfileError(ValueError):
    """The requested q-factor is not positive on the whole interval."""


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# The highest degree of Q that extraction fits; rho of n coefficients makes Q of degree n + 3.
MAX_Q_DEGREE = 20


@dataclass(frozen=True)
class Interval:
    tau_min: float
    tau_max: float

    def __post_init__(self) -> None:
        if not self.tau_min < self.tau_max:
            raise ValueError(f"need tau_min < tau_max, got [{self.tau_min}, {self.tau_max}]")

    @property
    def tau_star(self) -> float:
        """Base point: always the midpoint (an arbitrary but fixed normalization)."""
        return 0.5 * (self.tau_min + self.tau_max)

    @property
    def length(self) -> float:
        return self.tau_max - self.tau_min

    def contains(self, tau):
        """Whether tau lies in the open interval."""
        tau = np.asarray(tau, dtype=float)
        return (tau > self.tau_min) & (tau < self.tau_max)


@dataclass(frozen=True)
class MomentumProfile:
    interval: Interval
    a: float
    rho_coeffs: tuple = ()

    @property
    def q_end(self) -> float:
        return 2.0 * self.a / self.interval.length

    def _t(self, tau):
        return (np.asarray(tau, dtype=float) - self.interval.tau_min) / self.interval.length

    def _w(self, tau):
        tau = np.asarray(tau, dtype=float)
        return (tau - self.interval.tau_min) * (self.interval.tau_max - tau)

    def q_factor(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.full(tau.shape, self.q_end)
        if self.rho_coeffs:
            out = out + self._w(tau) * npoly.polyval(self._t(tau), np.asarray(self.rho_coeffs))
        return out

    def dq_factor(self, tau):
        tau = np.asarray(tau, dtype=float)
        if not self.rho_coeffs:
            return np.zeros(tau.shape)
        c = np.asarray(self.rho_coeffs)
        t = self._t(tau)
        w = self._w(tau)
        dw = self.interval.tau_min + self.interval.tau_max - 2.0 * tau
        return dw * npoly.polyval(t, c) + w * npoly.polyval(t, npoly.polyder(c)) / self.interval.length

    def d2q_factor(self, tau):
        tau = np.asarray(tau, dtype=float)
        if not self.rho_coeffs:
            return np.zeros(tau.shape)
        c = np.asarray(self.rho_coeffs)
        t = self._t(tau)
        L = self.interval.length
        dw = self.interval.tau_min + self.interval.tau_max - 2.0 * tau
        return (-2.0 * npoly.polyval(t, c) + 2.0 * dw * npoly.polyval(t, npoly.polyder(c)) / L
                + self._w(tau) * npoly.polyval(t, npoly.polyder(c, 2)) / L ** 2)

    def Q(self, tau):
        return self._w(tau) * self.q_factor(tau)

    def dQ(self, tau):
        tau = np.asarray(tau, dtype=float)
        dw = self.interval.tau_min + self.interval.tau_max - 2.0 * tau
        return dw * self.q_factor(tau) + self._w(tau) * self.dq_factor(tau)

    def d2Q(self, tau):
        """Q'' = w'' q + 2 w' q' + w q'' with w'' = -2."""
        tau = np.asarray(tau, dtype=float)
        dw = self.interval.tau_min + self.interval.tau_max - 2.0 * tau
        return (-2.0 * self.q_factor(tau) + 2.0 * dw * self.dq_factor(tau)
                + self._w(tau) * self.d2q_factor(tau))

    def psi(self, tau):
        """Half the slope of Q: the vertical Hessian eigenvalue as a function of tau."""
        return 0.5 * self.dQ(tau)


def make_profile(interval: Interval, a: float, q_interior=()) -> MomentumProfile:
    """Build a profile, rejecting shapes whose q-factor is not positive.

    ``q_interior`` are the polynomial bump coefficients rho; an empty tuple
    gives the canonical profile with constant q = 2a/L.
    """
    if a <= 0:
        raise InvalidProfileError(f"endpoint slope constant must be positive, got a={a}")
    prof = MomentumProfile(interval=interval, a=float(a), rho_coeffs=tuple(float(c) for c in q_interior))
    taus = np.linspace(interval.tau_min, interval.tau_max, 8193)
    q = prof.q_factor(taus)
    # Sampling plus a derivative bound: a sign change between samples cannot
    # hide if the dip it would need exceeds what dq allows over one cell.
    slack = np.max(np.abs(prof.dq_factor(taus))) * (taus[1] - taus[0])
    worst = int(np.argmin(q))
    if q[worst] <= slack:
        raise InvalidProfileError(
            f"q-factor not shown positive on the interval: its least sample q({taus[worst]:.6g}) = "
            f"{q[worst]:.6g} does not exceed the sampling slack max|q'| * dtau = {slack:.6g}"
        )
    return prof


def _cumulative_gl(f, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of f over a strictly increasing grid (8-pt GL per cell)."""
    lo, hi = grid[:-1], grid[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    cells = half * (vals @ _GL_WEIGHTS)
    out = np.empty(grid.shape)
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


@dataclass(frozen=True)
class ReparamMaps:
    """Monotone maps between tau, r and s as exact-slope cubic Hermite tables.

    s(tau) is one table per half: s against sqrt(tau - tau_min) and lambda - s
    against sqrt(tau_max - tau).  Every map is NaN outside its table."""

    interval: Interval
    a: float
    lam: float
    _s_left: PiecewisePoly = field(repr=False)
    _s_right: PiecewisePoly = field(repr=False)
    _tau_of_s: PiecewisePoly = field(repr=False)
    _logr_of_tau: PiecewisePoly = field(repr=False)
    _tau_of_logr: PiecewisePoly = field(repr=False)

    def s_of_tau(self, tau):
        tau = np.asarray(tau, dtype=float)
        iv = self.interval
        with np.errstate(invalid="ignore"):  # each half's sqrt is NaN on the other half
            return np.where(tau <= iv.tau_star, self._s_left(np.sqrt(tau - iv.tau_min)),
                            self.lam - self._s_right(np.sqrt(iv.tau_max - tau)))

    def tau_of_s(self, s):
        return self._tau_of_s(s)

    def r_of_tau(self, tau):
        return np.exp(self._logr_of_tau(tau))

    def tau_of_r(self, r):
        return self._tau_of_logr(np.log(r))

    def sigma(self, r):
        """s as a function of the fiber radius r."""
        return self.s_of_tau(self.tau_of_r(r))

    @property
    def tabulated_tau_range(self):
        x = self._logr_of_tau.x
        return float(x[0]), float(x[-1])


def build_reparams(profile: MomentumProfile) -> ReparamMaps:
    """Tabulate s(tau), r(tau) and their inverses for a valid profile.

    The s-integral is computed on the square-root substitution grids so the
    endpoint singularity of Q^(-1/2) never reaches the quadrature; r is
    integrated as log r (d log r / dtau = a/Q) from tau_star outward, on a
    grid uniform in s where the integrand is merely 1/s-like.
    """
    iv, a = profile.interval, profile.a
    L = iv.length
    xi_max = np.sqrt(0.5 * L)
    xi = xi_max * np.linspace(0.0, 1.0, 1025)

    def integrand_left(x):
        return 2.0 / np.sqrt((L - x * x) * profile.q_factor(iv.tau_min + x * x))

    def integrand_right(x):
        return 2.0 / np.sqrt((L - x * x) * profile.q_factor(iv.tau_max - x * x))

    s_left = _cumulative_gl(integrand_left, xi)
    s_right = _cumulative_gl(integrand_right, xi)
    lam = float(s_left[-1] + s_right[-1])

    tau_nodes = np.concatenate([iv.tau_min + xi * xi, (iv.tau_max - xi * xi)[::-1][1:]])
    s_nodes = np.concatenate([s_left, (lam - s_right)[::-1][1:]])
    tau_of_s = hermite_table(s_nodes, tau_nodes, np.sqrt(profile.Q(tau_nodes)))

    # log r on an s-uniform interior grid; cumulative quadrature of a/Q in tau.
    s_cut = 2e-4 * lam  # log r diverges at both ends
    s_grid = np.linspace(s_cut, lam - s_cut, 2048)
    tau_grid = np.asarray(tau_of_s(s_grid), dtype=float)

    def a_over_q(t):
        return a / profile.Q(t)

    logr = _cumulative_gl(a_over_q, tau_grid)
    # Anchor r(tau_star) = 1.
    j = int(np.searchsorted(tau_grid, iv.tau_star))
    anchor = logr[j - 1] + _cumulative_gl(a_over_q, np.array([tau_grid[j - 1], iv.tau_star]))[-1]
    logr = logr - anchor
    q_grid = profile.Q(tau_grid)

    if not np.isfinite(lam) or lam <= 0:
        raise ArithmeticError("arclength quadrature failed to produce a finite positive lambda")
    return ReparamMaps(
        interval=iv,
        a=a,
        lam=lam,
        _s_left=hermite_table(xi, s_left, integrand_left(xi)),
        _s_right=hermite_table(xi, s_right, integrand_right(xi)),
        _tau_of_s=tau_of_s,
        _logr_of_tau=hermite_table(tau_grid, logr, a / q_grid),
        _tau_of_logr=hermite_table(logr, tau_grid, q_grid / a),
    )


def profile_table(profile: MomentumProfile, maps: ReparamMaps, n: int = 257) -> np.ndarray:
    """Rows (tau, Q, psi, r, s) over the tabulated interior range, for CSV export."""
    lo, hi = maps.tabulated_tau_range
    tau = np.linspace(lo, hi, n)
    return np.column_stack([tau, profile.Q(tau), profile.psi(tau), maps.r_of_tau(tau), maps.s_of_tau(tau)])
