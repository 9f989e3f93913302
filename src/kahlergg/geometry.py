"""Chart-local numerical Riemannian calculus over arbitrary metric fields.

Everything here is batch-first: points are arrays of shape (N, n), metric
evaluators return (N, n, n), and finite-difference stencils are evaluated
for all points and axes in one call.  Index conventions used throughout:

    dg[p, a, i, j]   = d_a g_ij
    Gamma[p, k, i, j] = Christoffel symbol with upper index k
    gradX[p, k, i]   = (nabla X)^k_i = d_i X^k + Gamma^k_il X^l

Derivatives use 4th-order central stencils.  Steps may vary per point and
per axis; metric fields can install a limiter so stencils never cross a
domain boundary (the fiber coordinate of the constructed metrics lives on
an open interval).  Analytic first derivatives are used whenever a field
carries them; ``force_fd`` switches the Christoffel computation to pure
finite differences where an independent route is required.  ``build_frame``
gathers g, its derivative and Gamma at a batch of points together with the
exact first jets of grad tau, of Q = |grad tau|^2 and of J, for callers that
read many identities off the same points.  Curvature is a contraction of a
Gamma jet the caller takes (``ricci``), so a check can differentiate Gamma on
the same stencil as the quantities it compares Ricci with.  Richardson
extrapolation (``richardson_even``) serves only the limits at the fiber ends
in the ``boundary_limits`` check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np


class NumericalFailure(RuntimeError):
    """An integrator or solver failed to converge."""


_OFFSETS4 = np.array([-2.0, -1.0, 1.0, 2.0])
_WEIGHTS4 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

DEFAULT_STEP = 5e-3


@dataclass
class MetricField:
    """A metric given by a pointwise evaluator, with optional analytic d(g)."""

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    dvalue: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    step: "float | np.ndarray" = DEFAULT_STEP
    step_limiter: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def steps_at(self, points: np.ndarray) -> np.ndarray:
        h = np.broadcast_to(np.asarray(self.step, dtype=float), (points.shape[0], self.dim)).copy()
        if self.step_limiter is not None:
            h = np.minimum(h, self.step_limiter(points))
        return h


@dataclass
class ScalarField:
    value: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None  # (N, a, j) = d_a d_j f
    name: str = ""


@dataclass
class VectorField:
    value: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None  # (N, a, k) = d_a X^k
    name: str = ""


@dataclass
class MatrixField:
    """A (1,1)-tensor field, e.g. an almost-complex structure J."""

    value: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None  # (N, a, k, j) = d_a J^k_j
    name: str = ""


def _stencil4(vals: np.ndarray, h: np.ndarray) -> np.ndarray:
    """4th-order central difference from values at offsets (-2, -1, 1, 2)·h: (4, N, ...) -> (N, ...)."""
    deriv = np.einsum("o,op...->p...", _WEIGHTS4, vals)
    deriv /= h.reshape(h.shape + (1,) * (deriv.ndim - 1))
    return deriv


def fd_jet(f: Callable, points: np.ndarray, steps) -> np.ndarray:
    """All first partials of f at each point: output (N, axis, *value_shape).

    f maps (M, n) -> (M, *value_shape); steps broadcastable to (N, n).  The
    stencil is evaluated one axis at a time, so f sees at most 4·N points
    per call.
    """
    points = np.asarray(points, dtype=float)
    npts, n = points.shape
    h = np.broadcast_to(np.asarray(steps, dtype=float), (npts, n))
    deriv = None
    for axis in range(n):
        moved = np.repeat(points[None], 4, axis=0)
        moved[:, :, axis] += _OFFSETS4[:, None] * h[:, axis]
        vals = np.asarray(f(moved.reshape(-1, n)))
        vals = vals.reshape((4, npts) + vals.shape[1:])
        if deriv is None:
            deriv = np.empty((n, npts) + vals.shape[2:])
        deriv[axis] = _stencil4(vals, h[:, axis])
    return np.moveaxis(deriv, 0, 1)


def christoffel(metric: MetricField, points: np.ndarray, force_fd: bool = False) -> np.ndarray:
    """Levi-Civita symbols Gamma[p,k,i,j] from g and its (analytic or FD) derivatives."""
    return levi_civita(metric, points, force_fd=force_fd)[3]


def levi_civita(metric: MetricField, points: np.ndarray, force_fd: bool = False):
    """(g, dg, g^-1, Gamma) at each point from one evaluation of g and one of its derivative.

    dg is the metric's analytic ``dvalue`` unless it has none or ``force_fd``
    is set; then it is the stencil of g with the metric's own steps.
    """
    points = np.asarray(points, dtype=float)
    g = metric.value(points)
    if metric.dvalue is not None and not force_fd:
        dg = metric.dvalue(points)
    else:
        dg = fd_jet(metric.value, points, metric.steps_at(points))
    singular = f"metric '{metric.name}' is numerically singular"
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise NumericalFailure(f"{singular} (not invertible)") from None
    # Cheap infinity-norm condition estimate; SVD per point would dominate runtime.
    cond = _inf_norm(g) * _inf_norm(ginv)
    if np.any(~np.isfinite(cond)) or np.max(cond) > 1e14:
        raise NumericalFailure(f"{singular} (cond~{np.max(cond):.2e})")
    npts, n = points.shape
    # t[p, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, so Gamma^k_ij = 1/2 g^kl t_lij is one matmul.
    t = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1)
    t -= dg
    return g, dg, ginv, ((0.5 * ginv) @ t.reshape(npts, n, n * n)).reshape(npts, n, n, n)


def _inf_norm(a: np.ndarray) -> np.ndarray:
    """max_i sum_j |a_ij| per matrix, from whole-column adds (reductions over a short axis are slow)."""
    a = np.abs(a)
    rows = a[:, :, 0].copy()
    for j in range(1, a.shape[2]):
        rows += a[:, :, j]
    out = rows[:, 0]
    for i in range(1, a.shape[1]):
        out = np.maximum(out, rows[:, i])
    return out


def _differential(metric: MetricField, f: ScalarField, points: np.ndarray):
    if f.grad is not None:
        return f.grad(points)
    return fd_jet(f.value, points, metric.steps_at(points))


def _solve(g: np.ndarray, df: np.ndarray) -> np.ndarray:
    """g^-1 df per point by a batched solve (the trailing axis makes df a stack of columns)."""
    return np.linalg.solve(g, df[..., None])[..., 0]


def gradient_and_q(metric: MetricField, f: ScalarField, points: np.ndarray,
                   g: Optional[np.ndarray] = None):
    """(grad f, Q = |grad f|^2) at each point from one evaluation of g; |grad f| = sqrt(Q).

    ``g`` is the metric at the points when the caller has already evaluated it.
    """
    if g is None:
        g = metric.value(points)
    df = _differential(metric, f, points)
    grad = _solve(g, df)
    return grad, np.einsum("pi,pi->p", df, grad)  # g(grad f, grad f) = df(grad f)


def field_jet(x: "VectorField | MatrixField", points: np.ndarray, steps) -> np.ndarray:
    """The jet d_a X of a vector or matrix field: its ``jac``, else a stencil of its values."""
    return x.jac(points) if x.jac is not None else fd_jet(x.value, points, steps)


def fd_directional(f: Callable, points: np.ndarray, direction: np.ndarray, steps) -> np.ndarray:
    """df(direction) at each point from the 4-point stencil of f along the direction.

    The stencil parameter h is the largest that moves no coordinate by more
    than its step in ``steps`` (broadcastable to (N, n)) per offset, so no
    coordinate moves farther than in the axis stencils of ``fd_jet``.
    """
    points = np.asarray(points, dtype=float)
    d = np.asarray(direction, dtype=float)
    npts, n = points.shape
    h = np.min(np.broadcast_to(np.asarray(steps, dtype=float), (npts, n))
               / np.maximum(np.abs(d), 1e-300), axis=1)
    moved = points[None] + (_OFFSETS4[:, None] * h)[:, :, None] * d[None]
    vals = np.asarray(f(moved.reshape(-1, n)))
    return _stencil4(vals.reshape((4, npts) + vals.shape[1:]), h)


def nabla_vector(dx: np.ndarray, xv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla X)[p,k,i] from dx[p,i,k] = d_i X^k, X and Gamma at the points."""
    return np.swapaxes(dx, 1, 2) + np.einsum("pkil,pl->pki", gamma, xv)


def lie_derivative_metric(g: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """(L_X g)_ij = g(nabla_i X, d_j) + g(d_i, nabla_j X) from g and gx = nabla X at the points."""
    m = np.swapaxes(gx, 1, 2) @ g  # g_kj (nabla X)^k_i
    return m + np.swapaxes(m, 1, 2)


def divergence_vector(dx: np.ndarray, xv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """div X = d_k X^k + Gamma^k_kl X^l from the jet dx[p,i,k] = d_i X^k, X and Gamma."""
    return np.einsum("pkk->p", nabla_vector(dx, xv, gamma))


def divergence_endomorphism(dt: np.ndarray, tv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(div T)_j = d_k T^k_j + Gamma^k_kl T^l_j - Gamma^l_kj T^k_l for T[p,k,j].

    ``dt[p,a,k,j] = d_a T^k_j`` is the jet of T; ``tv`` and ``gamma`` are T and
    Gamma at the points.
    """
    out = np.einsum("pkkj->pj", dt)
    out += np.einsum("pkkl,plj->pj", gamma, tv)
    out -= np.einsum("plkj,pkl->pj", gamma, tv)
    return out


def nabla_J(dj: np.ndarray, jv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a J)^k_j = d_a J^k_j + Gamma^k_al J^l_j - Gamma^l_aj J^k_l.

    ``dj[p,a,k,j] = d_a J^k_j`` is the jet of J; ``jv`` and ``gamma`` are J and
    Gamma at the points.
    """
    ga = np.swapaxes(gamma, 1, 2)  # ga[p,a,k,l] = Gamma^k_al
    return dj + ga @ jv[:, None] - jv[:, None] @ ga


@dataclass
class Frame:
    """The geometry of a batch of points and the first jet of v = grad tau, built once.

    Every array has the point as leading axis.  ``grad = g^-1 dtau`` is the
    metric's own gradient of tau, with Q = dtau(grad) and the exact jets

        d_a grad = g^-1 (d_a dtau - (d_a g) grad),
        d_a Q    = 2 (d_a dtau)(grad) - g'_a(grad, grad),   g'_a = d_a g,

    from g, d g and tau's closed-form partials ``tau.grad`` and ``tau.hess``,
    computed on first read.  ``v`` and ``dv`` are the supplied field and its
    jet where one is given, else ``grad`` and ``dgrad``.  ``J`` and ``dJ`` are
    set when a J is given.
    """

    points: np.ndarray
    g: np.ndarray               # (N, i, j)
    dg: np.ndarray              # (N, a, i, j) = d_a g_ij
    ginv: np.ndarray            # (N, i, j)
    gamma: np.ndarray           # (N, k, i, j)
    dtau: np.ndarray            # (N, j) = d_j tau
    d2tau: np.ndarray           # (N, a, j) = d_a d_j tau
    grad: np.ndarray            # (N, k) = g^kj d_j tau
    q: np.ndarray               # (N,) = |grad tau|^2
    v: np.ndarray               # (N, k)
    J: Optional[np.ndarray] = None    # (N, k, j)
    dJ: Optional[np.ndarray] = None   # (N, a, k, j) = d_a J^k_j

    @cached_property
    def _dg_grad(self) -> np.ndarray:  # (N, a, i) = (d_a g) grad, shared by dgrad and dq
        return np.einsum("paij,pj->pai", self.dg, self.grad)

    @cached_property
    def dgrad(self) -> np.ndarray:  # (N, a, k) = d_a grad^k
        return np.einsum("pki,pai->pak", self.ginv, self.d2tau - self._dg_grad)

    @cached_property
    def dq(self) -> np.ndarray:  # (N, a) = d_a Q
        return (2.0 * np.einsum("paj,pj->pa", self.d2tau, self.grad)
                - np.einsum("pai,pi->pa", self._dg_grad, self.grad))

    @cached_property
    def dv(self) -> np.ndarray:  # (N, a, k) = d_a v^k; build_frame sets it when v is supplied
        return self.dgrad

    def hessian(self) -> np.ndarray:
        """The covariant Hessian (nabla d tau)_ij = d_i d_j tau - Gamma^k_ij d_k tau."""
        return self.d2tau - np.einsum("pkij,pk->pij", self.gamma, self.dtau)

    def laplacian(self) -> np.ndarray:
        """Delta tau = g^ij (nabla d tau)_ij."""
        return np.einsum("pij,pij->p", self.ginv, self.hessian())

    def apply_J(self, x: np.ndarray, dx: np.ndarray):
        """(J X, its jet d_a(J X)^k) from X and its jet dx[p,a,k] = d_a X^k."""
        jx = np.einsum("pkj,pj->pk", self.J, x)
        djx = np.einsum("pakj,pj->pak", self.dJ, x) + np.einsum("pkj,paj->pak", self.J, dx)
        return jx, djx


def build_frame(metric: MetricField, tau: ScalarField, points: np.ndarray,
                v: Optional[VectorField] = None, j: Optional[MatrixField] = None) -> Frame:
    """The ``Frame`` at the points: one ``levi_civita`` build plus the jets of tau, v and J."""
    points = np.asarray(points, dtype=float)
    g, dg, ginv, gamma = levi_civita(metric, points)
    h = metric.steps_at(points)
    dtau, d2tau = tau.grad(points), tau.hess(points)
    grad = np.einsum("pkj,pj->pk", ginv, dtau)
    frame = Frame(points=points, g=g, dg=dg, ginv=ginv, gamma=gamma, dtau=dtau, d2tau=d2tau,
                  grad=grad, q=np.einsum("pj,pj->p", dtau, grad), v=grad)
    if v is not None:
        frame.v, frame.dv = v.value(points), field_jet(v, points, h)
    if j is not None:
        frame.J, frame.dJ = j.value(points), field_jet(j, points, h)
    return frame


def ricci(dgamma: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Ric_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_im Gamma^m_jk - Gamma^i_jm Gamma^m_ik.

    ``dgamma[p,a,k,i,j] = d_a Gamma^k_ij`` is the jet of Gamma (e.g. ``fd_jet``
    of ``christoffel``) and ``gamma`` is Gamma at the points; the result is
    symmetrised.
    """
    ric = np.einsum("piijk->pjk", dgamma)
    ric -= np.einsum("pjiik->pjk", dgamma)
    ric += np.einsum("pm,pmjk->pjk", np.einsum("piim->pm", gamma), gamma)
    ric -= np.einsum("pijm,pmik->pjk", gamma, gamma)
    return 0.5 * (ric + np.swapaxes(ric, 1, 2))


# ----------------------------------------------------------------------------
# Integrators
# ----------------------------------------------------------------------------

@dataclass
class PathResult:
    points: np.ndarray          # (M, n)
    params: np.ndarray          # (M,) integration parameter
    arclength: np.ndarray       # (M,) cumulative g-arclength
    status: str
    values: np.ndarray          # (M,) flowed function along the path
    q: np.ndarray               # (M,) |grad f|^2 along the path


@dataclass
class FlowResult:
    """Integral curves of a batch of seeds; every array has the step as leading axis.

    Fiber ``i`` ends at row ``last[i]`` with ``status[i]``; later rows repeat
    that final sample (the fiber is frozen), so ``points[-1]`` holds every
    fiber's end point.
    """

    points: np.ndarray          # (M, N, n)
    params: np.ndarray          # (M, N) integration parameter
    arclength: np.ndarray       # (M, N) cumulative g-arclength
    values: np.ndarray          # (M, N) f along the curves
    q: np.ndarray               # (M, N) Q = |grad f|^2 along the curves
    status: list                # per fiber: target, stop, stationary, left-domain, non-finite,
                                # max-steps
    last: np.ndarray            # (N,) row of each fiber's final sample

    def fiber(self, i: int) -> PathResult:
        """Fiber ``i`` alone, cut at its final sample."""
        k = int(self.last[i]) + 1
        return PathResult(points=self.points[:k, i], params=self.params[:k, i],
                          arclength=self.arclength[:k, i], status=self.status[i],
                          values=self.values[:k, i], q=self.q[:k, i])


# Butcher's 7-stage, 6th-order explicit Runge-Kutta tableau: stage i is taken at
# x0 + h sum_j A[i][j] k_j, at the fractions c = (0, 1/3, 2/3, 1/3, 1/2, 1/2, 1) of the step.
_RK6_A = ((),
          (1.0 / 3.0,),
          (0.0, 2.0 / 3.0),
          (1.0 / 12.0, 1.0 / 3.0, -1.0 / 12.0),
          (-1.0 / 16.0, 9.0 / 8.0, -3.0 / 16.0, -3.0 / 8.0),
          (0.0, 9.0 / 8.0, -3.0 / 8.0, -3.0 / 4.0, 1.0 / 2.0),
          (9.0 / 44.0, -9.0 / 11.0, 63.0 / 44.0, 18.0 / 11.0, 0.0, -16.0 / 11.0))
_RK6_B = (11.0 / 120.0, 0.0, 27.0 / 40.0, 27.0 / 40.0, -4.0 / 15.0, -4.0 / 15.0, 11.0 / 120.0)


def _rk6(rates: Callable, x0: np.ndarray, first: tuple, h: np.ndarray) -> tuple:
    """One RK6 step of x' = k from x0, of length h per point: (x1, h sum_i b_i r_i for each r).

    ``rates(x)`` returns (k, r_1, r_2, ...) at the points; ``first`` is that
    tuple at x0, so a step calls ``rates`` six times.  The trailing rates
    (speed, dt/df) are integrated along with x by the same quadrature.
    """
    stages = [first]
    for row in _RK6_A[1:]:
        dx = sum(a * st[0] for a, st in zip(row, stages) if a != 0.0)
        stages.append(rates(x0 + h[:, None] * dx))
    sums = [sum(b * st[j] for b, st in zip(_RK6_B, stages) if b != 0.0) for j in range(len(first))]
    return (x0 + h[:, None] * sums[0],) + tuple(h * s for s in sums[1:])


# The t-step of fiber tracing at an unknown end slope, and the base of ``flow_step``.
FLOW_STEP = 4.8e-2


def flow_step(a: float) -> float:
    """The t-step min(FLOW_STEP, 2 FLOW_STEP / a) toward an end with Hessian constant a.

    Near an end sqrt(Q) ~ a u shrinks by exp(-a h) per step h, and tau -> c tau
    multiplies a by c, so a h is held at most at its value 0.096 for a = 2.
    An a that is zero, negative, infinite or NaN measures no end, and gives
    FLOW_STEP.
    """
    if not (0.0 < a < math.inf):
        return FLOW_STEP
    return min(FLOW_STEP, 2.0 * FLOW_STEP / a)


def integrate_gradient_flow(metric: MetricField, f: ScalarField, seeds: np.ndarray,
                            direction: "float | np.ndarray" = 1.0, *,
                            target_value: Optional[float] = None,
                            stop: Optional[Callable] = None,
                            step: float, max_steps: int = 200000) -> FlowResult:
    """RK6 integral curves of xdot = direction * grad f for a batch of seeds (N, n).

    The true gradient ODE is integrated with Butcher's 7-stage, 6th-order
    tableau in fixed steps h = ``step`` of t, so a step covers about
    ``h * |grad f|`` of g-arclength: toward a critical set, where |grad f|
    vanishes linearly, the steps shrink geometrically instead of jumping past
    it.  A step's arclength is the same tableau applied to the stage speeds,
    ``h sum_i b_i sqrt(Q_i)``.

    A step evaluates the metric at its six stages after the first and at its
    end point, which is the next step's first stage and gives Q = |grad f|^2
    there: 7 calls.  A step that crosses ``target_value`` is redone from its
    start as one RK6 step with f as the clock, from f to the target (Henon's
    trick, Physica D 5 (1982) 412): dx/df = grad f / Q, dt/df = 1/(direction Q)
    and |ds/df| = 1/sqrt(Q).  That costs six more calls for all crossing
    fibers together, and the end lands on the target to roundoff.  A fiber
    stops, and is frozen with its own status, when it reaches the target
    ("target"), when ``stop(sqrt(Q), max sqrt(Q) so far)`` fires after a step
    ("stop"), at a zero gradient ("stationary"), when a step leaves the
    metric's domain ("left-domain", the last inside point is kept), when a
    stage or the end of a step reads a Q that is negative or not finite
    ("non-finite": the step went past a critical level, where sqrt(Q) is
    NaN; the start of the step is kept), or after ``max_steps`` steps
    ("max-steps").
    """
    n = metric.dim
    x = np.array(seeds, dtype=float).reshape(-1, n)
    nf = len(x)
    sign = np.broadcast_to(np.asarray(direction, dtype=float), (nf,)).copy()

    def field(pp, idx):  # (xdot, sqrt(Q), Q); sqrt(Q) is NaN past a critical level, where Q < 0
        grad, q = gradient_and_q(metric, f, pp)
        with np.errstate(invalid="ignore"):
            return sign[idx, None] * grad, np.sqrt(q), q

    def by_f(k_, sp_, q_, idx):  # the rates with f as the clock: (dx/df, dt/df, |ds/df|)
        dt_df = 1.0 / (sign[idx] * q_)
        return k_ * dt_df[:, None], dt_df, 1.0 / sp_

    k, sp, q = field(x, np.arange(nf))
    fv = np.array(f.value(x), dtype=float)
    t, arc = np.zeros(nf), np.zeros(nf)
    ref = sp.copy()
    active = np.ones(nf, dtype=bool)
    status = ["max-steps"] * nf
    last = np.zeros(nf, dtype=int)
    rows = [(x.copy(), t.copy(), arc.copy(), fv.copy(), q.copy())]

    def freeze(which, why):
        for i in which:
            status[i] = why
        active[which] = False

    def sift(ok, why, idx, *arrays):  # freeze the fibers idx[~ok] with ``why``; keep the rest
        freeze(idx[~ok], why)
        return (idx[ok],) + tuple(arr[ok] for arr in arrays)

    for _ in range(max_steps):
        freeze(np.flatnonzero(active & (sp <= 1e-15)), "stationary")
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        x0 = x[idx]
        h = np.full(idx.size, step)
        xn, seg = _rk6(lambda pp: field(pp, idx)[:2], x0, (k[idx], sp[idx]), h)
        if metric.domain is not None:
            idx, x0, h, xn, seg = sift(np.asarray(metric.domain(xn), dtype=bool), "left-domain",
                                       idx, x0, h, xn, seg)
            if idx.size == 0:
                break
        fn = np.array(f.value(xn), dtype=float)  # a copy: f.value may return a view of xn
        hit = np.zeros(idx.size, dtype=bool)
        if target_value is not None:
            f0 = fv[idx]
            hit = ((fn - target_value) * (f0 - target_value) <= 0.0) & (f0 != target_value)
        if np.any(hit):
            c = np.flatnonzero(hit)
            ic = idx[c]
            xn[c], h[c], ds = _rk6(lambda pp: by_f(*field(pp, ic), ic), x0[c],
                                   by_f(k[ic], sp[ic], q[ic], ic), target_value - f0[c])
            seg[c] = np.abs(ds)
            fn[c] = f.value(xn[c])
        kn, spn, qn = field(xn, idx)
        idx, h, xn, seg, fn, hit, kn, spn, qn = sift(np.isfinite(seg) & np.isfinite(spn),
                                                     "non-finite", idx, h, xn, seg, fn, hit,
                                                     kn, spn, qn)
        x[idx], k[idx], q[idx], sp[idx], fv[idx] = xn, kn, qn, spn, fn
        t[idx] += h
        arc[idx] += seg
        last[idx] = len(rows)
        rows.append((x.copy(), t.copy(), arc.copy(), fv.copy(), q.copy()))
        freeze(idx[hit], "target")
        ref[idx] = np.maximum(ref[idx], spn)
        if stop is not None:
            live = idx[~hit]
            freeze(live[np.asarray(stop(sp[live], ref[live]), dtype=bool)], "stop")
    pts, params, arcs, vals, qs = (np.array(col) for col in zip(*rows))
    return FlowResult(points=pts, params=params, arclength=arcs, values=vals, q=qs,
                      status=status, last=last)


def richardson_even(values: np.ndarray) -> np.ndarray:
    """Limit h -> 0 of f(h) = f0 + c1 h^2 + c2 h^4, sampled at (h, 2h, 4h).

    ``values`` has shape (3, ...) ordered (f(h), f(2h), f(4h)).
    """
    fh, f2h, f4h = values[0], values[1], values[2]
    return (64.0 * fh - 20.0 * f2h + f4h) / 45.0
