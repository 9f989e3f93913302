"""Chart-local numerical Riemannian calculus over arbitrary metric fields.

Everything here is batch-first: points are arrays of shape (N, n), metric
evaluators return (N, n, n), and finite-difference stencils are evaluated
for all points and axes in one call.  Index conventions used throughout:

    dg[p, a, i, j]   = d_a g_ij
    Gamma[p, k, i, j] = Christoffel symbol with upper index k
    gradX[p, k, i]   = (nabla X)^k_i = d_i X^k + Gamma^k_il X^l

Finite differences (``fd_jet``) are 4th-order central stencils.  Steps may
vary per point and per axis; metric fields can install a limiter so stencils
never cross a domain boundary (the fiber coordinate of the constructed
metrics lives on an open interval).  Analytic derivatives are used whenever a
field carries them; a metric without ``dvalue`` is differentiated by a
stencil of g, which is the independent route where one is required (the
extraction oracle, the ``oracle_equivalence`` check).  ``build_frame``
gathers g, its derivative and Gamma at a batch of points together with the
exact first jets of v = grad tau, of Q = |grad tau|^2 and of J, for callers
that read many identities off the same points; whatever several of them read
(nabla v, Hess tau, Delta tau, u = J grad tau) the frame computes once.
Contractions are batched matmuls over reshaped (N, n, n, n) arrays.
Curvature enters only as Ric(., v) (``ricci``), a contraction of the jet of
Gamma with v.  ``Frame.second_jets`` gives that contraction and the jet of
nabla v by algebra at the frame's points from the metric's exact second
derivatives ``d2value`` and tau's exact third jet ``d3``: no stencil, frame,
inverse or solve at a second point, no n^5 jet of Gamma, and the identities
between the jets (Bochner's formula, d Delta tau = -2 Ric(v)) hold to
roundoff.  Scalar second jets over chart coordinates are built by one product
rule and one chain rule, ``jet_mul`` and ``jet_chain``.  Richardson extrapolation
(``richardson_even``) serves only the limits at the fiber ends in the
``boundary_limits`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
    """A metric given by a pointwise evaluator, with optional analytic first and second derivatives.

    ``dvalue`` is (N, a, i, j) = d_a g_ij and ``d2value`` (N, b, a, i, j) =
    d_b d_a g_ij, exactly symmetric in (b, a).
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    dvalue: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2value: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
    grad: Callable[[np.ndarray], np.ndarray]                    # (N, j) = d_j f
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None  # (N, a, j) = d_a d_j f
    d3: Optional[Callable[[np.ndarray], np.ndarray]] = None    # (N, b, a, j) = d_b d_a d_j f
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


def jet_mul(p: tuple, q: tuple) -> tuple:
    """The product rule: the jet of p q from the jets of p and q, to the lower of their orders.

    A jet is the tuple (f, d f, d d f) of shapes (N,), (N, n) and (N, n, n),
    cut after any entry.  The cross term d p (x) d q + d q (x) d p of the
    Hessian is exactly symmetric.
    """
    out = [p[0] * q[0]]
    if len(p) > 1 and len(q) > 1:
        out.append(p[1] * q[0][:, None] + p[0][:, None] * q[1])
    if len(p) > 2 and len(q) > 2:
        c = p[1][:, :, None] * q[1][:, None, :]
        out.append(p[2] * q[0][:, None, None] + (c + np.swapaxes(c, 1, 2))
                   + p[0][:, None, None] * q[2])
    return tuple(out)


def jet_chain(p: tuple, f: np.ndarray, df: np.ndarray, d2f: np.ndarray) -> tuple:
    """The chain rule: the jet of F(p) from p's jet and F, F', F'' at p's value, to p's order.

    d F(p) = F' d p and d d F(p) = F'' d p (x) d p + F' d d p; the jets are
    those of ``jet_mul``.
    """
    out = [f]
    if len(p) > 1:
        out.append(df[:, None] * p[1])
    if len(p) > 2:
        out.append(d2f[:, None, None] * (p[1][:, :, None] * p[1][:, None, :])
                   + df[:, None, None] * p[2])
    return tuple(out)


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


def christoffel(metric: MetricField, points: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma[p,k,i,j] from g and its (analytic or FD) derivatives."""
    return levi_civita(metric, points)[3]


def levi_civita(metric: MetricField, points: np.ndarray):
    """(g, dg, g^-1, Gamma) at each point from one evaluation of g and one of its derivative.

    dg is the metric's analytic ``dvalue`` unless it has none; then it is the
    stencil of g with the metric's own steps.
    """
    points = np.asarray(points, dtype=float)
    g = metric.value(points)
    if metric.dvalue is not None:
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


def _solve(metric: MetricField, g: np.ndarray, df: np.ndarray) -> np.ndarray:
    """g^-1 df per point by a batched solve (the trailing axis makes df a stack of columns)."""
    try:
        return np.linalg.solve(g, df[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise NumericalFailure(f"metric '{metric.name}' is numerically singular "
                               "(not invertible)") from None


def gradient_and_q(metric: MetricField, f: ScalarField, points: np.ndarray,
                   g: Optional[np.ndarray] = None):
    """(grad f, Q = |grad f|^2) at each point from one evaluation of g; |grad f| = sqrt(Q).

    ``g`` is the metric at the points when the caller has already evaluated it.
    """
    if g is None:
        g = metric.value(points)
    df = f.grad(points)
    grad = _solve(metric, g, df)
    return grad, np.einsum("pi,pi->p", df, grad)  # g(grad f, grad f) = df(grad f)


def _gamma_dot(gamma: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """(Gamma X)[p,k,i] = Gamma^k_ij X^j, one batched matmul."""
    npts, n = xv.shape
    return (gamma.reshape(npts, n * n, n) @ xv[..., None]).reshape(npts, n, n)


def nabla_vector(dx: np.ndarray, xv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla X)[p,k,i] from dx[p,i,k] = d_i X^k, X and Gamma at the points."""
    return np.swapaxes(dx, 1, 2) + _gamma_dot(gamma, xv)


def lie_derivative_metric(g: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """(L_X g)_ij = g(nabla_i X, d_j) + g(d_i, nabla_j X) from g and gx = nabla X at the points."""
    m = np.swapaxes(gx, 1, 2) @ g  # g_kj (nabla X)^k_i
    return m + np.swapaxes(m, 1, 2)


def _gamma_trace(gamma: np.ndarray) -> np.ndarray:
    """Gamma^k_kl at the points: (N, l)."""
    return np.einsum("pkkl->pl", gamma)


def _gamma_against(gamma: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """Gamma^l_kj T^k_l at the points, (N, j), from T[p,k,l]: one batched matmul."""
    npts, n = tv.shape[:2]
    return (np.swapaxes(tv, 1, 2).reshape(npts, 1, n * n) @ gamma.reshape(npts, n * n, n))[:, 0]


def divergence_vector(dx: np.ndarray, xv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """div X = d_k X^k + Gamma^k_kl X^l from the jet dx[p,i,k] = d_i X^k, X and Gamma."""
    return np.einsum("pkk->p", dx) + np.einsum("pl,pl->p", _gamma_trace(gamma), xv)


def divergence_endomorphism(dt: np.ndarray, tv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(div T)_j = d_k T^k_j + Gamma^k_kl T^l_j - Gamma^l_kj T^k_l for T[p,k,j].

    ``dt[p,a,k,j] = d_a T^k_j`` is the jet of T; ``tv`` and ``gamma`` are T and
    Gamma at the points.
    """
    out = np.einsum("pkkj->pj", dt)
    out += (_gamma_trace(gamma)[:, None] @ tv)[:, 0]
    out -= _gamma_against(gamma, tv)
    return out


def nabla_J(dj: np.ndarray, jv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a J)^k_j = d_a J^k_j + Gamma^k_al J^l_j - Gamma^l_aj J^k_l.

    ``dj[p,a,k,j] = d_a J^k_j`` is the jet of J; ``jv`` and ``gamma`` are J and
    Gamma at the points.  Each Gamma term is one batched matmul, in (k, a, j)
    order, and the terms are added as (d J + Gamma J) - J Gamma.
    """
    npts, n = jv.shape[:2]
    out = dj + (gamma.reshape(npts, n * n, n) @ jv).reshape(npts, n, n, n).transpose(0, 2, 1, 3)
    out -= (jv @ gamma.reshape(npts, n, n * n)).reshape(npts, n, n, n).transpose(0, 2, 1, 3)
    return out


@dataclass
class Frame:
    """The geometry of a batch of points and the first jet of v = grad tau, built once.

    Every array has the point as leading axis.  ``grad = g^-1 dtau`` is the
    metric's own gradient of tau, the v of every check, with Q = dtau(grad)
    and the exact jets

        d_a grad = g^-1 (d_a dtau - (d_a g) grad),
        d_a Q    = 2 (d_a dtau)(grad) - g'_a(grad, grad),   g'_a = d_a g,

    from g, d g and tau's closed-form partials ``tau.grad`` and ``tau.hess``.
    Everything derived (the jets, Gamma v, nabla v, Hess tau, Delta tau and
    u = J grad with its jet) is a cached property: computed on first read,
    once per frame, however many checks read it.  ``J`` and ``dJ`` are set
    when a J is given.
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
    J: Optional[np.ndarray] = None    # (N, k, j)
    dJ: Optional[np.ndarray] = None   # (N, a, k, j) = d_a J^k_j

    @cached_property
    def _dg_grad(self) -> np.ndarray:  # (N, a, i) = (d_a g) grad, shared by dgrad and dq
        npts, n = self.grad.shape
        return (self.dg.reshape(npts, n * n, n) @ self.grad[..., None]).reshape(npts, n, n)

    @cached_property
    def dgrad(self) -> np.ndarray:  # (N, a, k) = d_a grad^k
        return (self.ginv[:, None] @ (self.d2tau - self._dg_grad)[..., None])[..., 0]

    @cached_property
    def dq(self) -> np.ndarray:  # (N, a) = d_a Q
        return ((2.0 * self.d2tau - self._dg_grad) @ self.grad[..., None])[..., 0]

    @cached_property
    def gamma_grad(self) -> np.ndarray:  # (N, k, i) = Gamma^k_ij grad^j
        return _gamma_dot(self.gamma, self.grad)

    @cached_property
    def nabla_grad(self) -> np.ndarray:  # (N, k, i) = (nabla v)^k_i, as ``nabla_vector``
        return np.swapaxes(self.dgrad, 1, 2) + self.gamma_grad

    @cached_property
    def hessian(self) -> np.ndarray:
        """The covariant Hessian (nabla d tau)_ij = d_i d_j tau - Gamma^k_ij d_k tau."""
        return self.d2tau - np.einsum("pkij,pk->pij", self.gamma, self.dtau)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Delta tau = g^ij (nabla d tau)_ij."""
        return np.einsum("pij,pij->p", self.ginv, self.hessian)

    @cached_property
    def u_jet(self) -> tuple:
        """(u, du): u = J grad tau and its jet du[p,a,k] = d_a u^k = (d_a J) grad + J d_a grad."""
        npts, n = self.grad.shape
        v = self.grad[..., None]
        du = (self.dJ.reshape(npts, n * n, n) @ v).reshape(npts, n, n)
        du += self.dgrad @ np.swapaxes(self.J, 1, 2)
        return (self.J @ v)[..., 0], du

    def second_jets(self, d2g: np.ndarray, d3tau: np.ndarray):
        """(d_b (nabla grad)^k_i, (d_b Gamma^k_ij) grad^j) at the points: two (N, b, k, i).

        ``d2g[p,b,a,i,j] = d_b d_a g_ij`` is the metric's exact ``d2value``,
        symmetric in (b, a), and ``d3tau[p,b,a,j] = d_b d_a d_j tau`` is tau's
        exact third jet ``tau.d3``, symmetric in all three slots, so identities
        between the results hold to roundoff.  With v = grad, dv = ``dgrad``,
        D[b,a,i] = (d_b d_a g_ij) v^j and E[b,i,l] = v^c d_c d_b g_il,

            d_b d_a v      = g^-1 (d_b d_a dtau - D_ba - (d_a g) d_b v - (d_b g) d_a v),
            (d_b Gamma^k_ij) v^j = g^kl (1/2 (D_bil + E_bil - D_bli) - (d_b g)_lm (Gamma v)^m_i),
            d_b (nabla v)^k_i = d_b d_i v^k + (d_b Gamma^k_il) v^l + Gamma^k_il d_b v^l,

        all batched matmuls of (N, n, n, n) arrays at the frame's points: the
        jet of Gamma itself, n^5 entries per point, is never formed.
        """
        npts, n = self.grad.shape
        shape4 = (npts, n, n, n)
        v, dv_t = self.grad[..., None], np.swapaxes(self.dgrad, 1, 2)  # dv_t[p,l,b] = d_b v^l
        # x[p,a,i,b] = (d_a g)_ij d_b v^j gives the two first-order terms of d_b d_a v.
        x = (self.dg.reshape(npts, n * n, n) @ dv_t).reshape(shape4)
        d = (d2g.reshape(npts, n ** 3, n) @ v).reshape(shape4)
        rhs = d3tau - d
        rhs -= x.transpose(0, 3, 1, 2)
        rhs -= x.transpose(0, 1, 3, 2)
        d2v = (rhs.reshape(npts, n * n, n) @ np.swapaxes(self.ginv, 1, 2)).reshape(shape4)
        # From here each product goes into an array read for the last time
        # (x, rhs, d): a new one per product would fault in fresh pages.
        # E from d2g's symmetry in (c, b); it is symmetric in (i, l) as g is.
        e = np.matmul(self.grad[:, None], d2g.reshape(npts, n, n ** 3),
                      out=rhs.reshape(npts, 1, n ** 3)).reshape(shape4)
        inner = np.subtract(np.swapaxes(d, 2, 3), d, out=x)  # inner[p,b,l,i]
        inner += e
        inner *= 0.5
        inner -= np.matmul(self.dg, self.gamma_grad[:, None], out=rhs)
        dgamma_v = self.ginv[:, None] @ inner
        dnv = np.add(np.swapaxes(d2v, 2, 3), dgamma_v, out=d)
        dnv += np.matmul(self.gamma.reshape(npts, n * n, n), dv_t,
                         out=rhs.reshape(npts, n * n, n)).reshape(shape4).transpose(0, 3, 1, 2)
        return dnv, dgamma_v

    def at(self, idx: np.ndarray) -> "Frame":
        """This frame at its points ``idx``, without J: each point's geometry is its own."""
        return Frame(**{f.name: getattr(self, f.name)[idx] for f in fields(Frame)
                        if f.name not in ("J", "dJ")})


def build_frame(metric: MetricField, tau: ScalarField, points: np.ndarray,
                j: Optional[MatrixField] = None) -> Frame:
    """The ``Frame`` at the points: one ``levi_civita`` build plus the jets of tau and J."""
    points = np.asarray(points, dtype=float)
    g, dg, ginv, gamma = levi_civita(metric, points)
    dtau, d2tau = tau.grad(points), tau.hess(points)
    grad = np.einsum("pkj,pj->pk", ginv, dtau)
    frame = Frame(points=points, g=g, dg=dg, ginv=ginv, gamma=gamma, dtau=dtau, d2tau=d2tau,
                  grad=grad, q=np.einsum("pj,pj->p", dtau, grad))
    if j is not None:
        frame.J, frame.dJ = j.value(points), j.jac(points)
    return frame


def ricci(dgamma_v: np.ndarray, gamma: np.ndarray, gamma_v: np.ndarray) -> np.ndarray:
    """Ric(., v)_j = Ric_jk v^k from the jet of Gamma contracted with v.

        Ric_jk v^k = d_i Gamma^i_jk v^k - d_j Gamma^i_ik v^k
                     + Gamma^i_im (Gamma v)^m_j - Gamma^i_jm (Gamma v)^m_i,

    with ``dgamma_v[p,b,k,i] = (d_b Gamma^k_ij) v^j`` (``Frame.second_jets``),
    ``gamma`` = Gamma and ``gamma_v[p,k,i] = Gamma^k_ij v^j`` at the points:
    two traces of ``dgamma_v`` and two batched matmuls.  The full tensor is
    its value at the coordinate vectors v = e_k.
    """
    out = np.einsum("piij->pj", dgamma_v)
    out -= np.einsum("pjii->pj", dgamma_v)
    out += (_gamma_trace(gamma)[:, None] @ gamma_v)[:, 0]
    out -= _gamma_against(gamma, gamma_v)
    return out


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
    status: list                # per fiber: stop, stationary, left-domain, non-finite, max-steps
    last: np.ndarray            # (N,) row of each fiber's final sample
    metric_calls: int           # batched metric evaluations the integration made

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


def _rk6(rates: Callable, x0: np.ndarray, first: np.ndarray, h: float) -> np.ndarray:
    """One RK6 step of x' = r[:, :n] from x0 (N, n): the increment h sum_i b_i r_i, (N, m).

    ``rates(x)`` returns the rates r (N, m) at the points, the velocity in its
    first n columns and rates integrated along with x (the speed) after them;
    ``first`` is r at x0, so a step calls ``rates`` six times.
    """
    n = x0.shape[1]
    stages = [first]
    for row in _RK6_A[1:]:
        dx = sum(a * st[:, :n] for a, st in zip(row, stages) if a != 0.0)
        stages.append(rates(x0 + h * dx))
    return h * sum(b * st for b, st in zip(_RK6_B, stages) if b != 0.0)


# Adams-Bashforth-Moulton PECE of order 10 (Hairer, Norsett and Wanner, Solving
# ODEs I, III.1): the predictor AB10 weighs the rates of steps n, n - 1, ...,
# n - 9, and the corrector the rate at the predicted point, of step n + 1, with
# the same ten.  Each weight is the integral over one step of a Lagrange basis
# polynomial on those steps.  The rates live in a ring of _ADAMS_ORDER slots;
# when slot p holds step n, slot s holds step n - (p - s) mod _ADAMS_ORDER, so
# the weights per slot are row p of the _RING tables.
_ADAMS_ORDER = 10
_AB = np.array([30277247, -104995189, 265932680, -454661776, 538363838, -444772162,
                252618224, -94307320, 20884811, -2082753]) / 7257600
_AM = np.array([134211265, 656185652, -890175549, 1446205080, -1823311566, 1710774528,
                -1170597042, 567450984, -184776195, 36284876, -3250433]) / 479001600
_RING_LAG = (np.arange(_ADAMS_ORDER)[:, None] - np.arange(_ADAMS_ORDER)) % _ADAMS_ORDER
_AB_RING = _AB[_RING_LAG]
_AM_RING = _AM[1:][_RING_LAG]

# The largest t-step of a flow (near an end with Hessian constant a, sqrt(Q)
# shrinks by exp(-a h) per step h: a h = 0.072 at a = 2), and the fraction of
# its largest sqrt(Q) so far below which a fiber ends.
FLOW_STEP = 3.6e-2
FLOW_END = 0.04


def integrate_gradient_flow(metric: MetricField, f: ScalarField, seeds: np.ndarray,
                            direction: "float | np.ndarray" = 1.0, *,
                            step: float, max_steps: int = 200000) -> FlowResult:
    """Integral curves of xdot = direction * grad f for a batch of seeds (N, n), by ABM PECE.

    The true gradient ODE is integrated in fixed steps h = ``step`` of t, so
    a step covers about ``h * |grad f|`` of g-arclength: toward a critical
    set, where |grad f| vanishes linearly, the steps shrink geometrically
    instead of jumping past it.  A step is an Adams-Bashforth-Moulton PECE
    step of order 10: the AB10 predictor from the rates of the last 10
    steps, one metric call at the predicted point, the Adams-Moulton
    corrector from the rate there and the same 10, and one metric call at
    the corrected end point, which gives Q = |grad f|^2 there and the next
    step's rate.  A step's arclength is the corrector applied to the speeds,
    ``h sum_j c_j sqrt(Q_j)``.  The first 9 steps, before there are 10
    rates, are RK6 steps (Butcher's 7-stage tableau: its six later stages
    and the end point, 7 calls), so a flow of k >= 9 steps makes
    1 + 63 + 2 (k - 9) metric calls, counted in ``FlowResult.metric_calls``.
    On x' = lambda x the PECE step is stable for -0.264 < h lambda < 0
    (RK6: -2.86); near an end, where a step scales Q by about exp(h Q'),
    h |Q'| should stay below 0.264.

    A fiber stops, and is frozen with its own status, once sqrt(Q) falls
    below ``FLOW_END`` of its largest value so far ("stop"), at a zero
    gradient ("stationary"), when a step leaves the metric's domain
    ("left-domain", the last inside point is kept), when the predicted point,
    a stage or the end of a step reads a Q that is negative or not finite
    ("non-finite": the step went past a critical level, where sqrt(Q) is NaN;
    the start of the step is kept), or after ``max_steps`` steps
    ("max-steps").  A metric that is singular at a seed, a stage or a
    predicted point raises NumericalFailure.  A batch is as deep as its
    longest fiber: ``flow_both_ways`` flows both halves from mid-fiber, half
    the steps of a flow from one end.
    """
    n = metric.dim
    x = np.array(seeds, dtype=float).reshape(-1, n)
    nf = len(x)
    sign = np.broadcast_to(np.asarray(direction, dtype=float), (nf,)).reshape(nf, 1).copy()
    calls = 0

    def rates(pp, out=None):  # (xdot, sqrt(Q)) per point into ``out``, and Q
        nonlocal calls
        calls += 1
        grad, q = gradient_and_q(metric, f, pp)
        if out is None:
            out = np.empty((len(pp), n + 1))
        np.multiply(grad, sign, out=out[:, :n])
        np.sqrt(q, out=out[:, n])  # NaN past a critical level, where Q < 0
        return out, q

    # The state of the active fibers, compacted whenever one is frozen: their
    # indices, signs, points, arclengths, largest sqrt(Q) so far and the ring of
    # their rates (xdot, sqrt(Q)).  ``rows`` holds every fiber's sample after each step.
    idx = np.arange(nf)
    ring = np.empty((_ADAMS_ORDER, nf, n + 1))
    ptr = 0
    status = ["max-steps"] * nf
    last = np.zeros(nf, dtype=int)
    with np.errstate(invalid="ignore"):
        q = rates(x, ring[0])[1]
        ref = ring[0, :, n].copy()
        arc, t = np.zeros(nf), 0.0
        cols = (x, np.zeros(nf), arc, np.asarray(f.value(x), dtype=float), q)
        rows = [cols]

        def sift(ok, why, *arrays):  # freeze the active fibers failing ``ok``; the rest of each array
            for i in idx[~ok]:
                status[i] = why
            return (idx[ok], ring[:, ok], sign[ok]) + tuple(a[ok] for a in arrays)

        for _ in range(max_steps):
            still = ring[ptr, :, n] <= 1e-15
            if still.any():
                idx, ring, sign, x, arc, ref = sift(~still, "stationary", x, arc, ref)
            if idx.size == 0:
                break
            if len(rows) < _ADAMS_ORDER:  # fewer rates than the ring holds: an RK6 starter step
                incr = _rk6(lambda pp: rates(pp)[0], x, ring[ptr], step)
            else:  # PECE; a weighted sum of the ring is one matmul over its flattened slots
                flat = ring.reshape(_ADAMS_ORDER, -1)
                xp = x + step * (_AB_RING[ptr] @ flat).reshape(ring.shape[1:])[:, :n]
                incr = (_AM_RING[ptr] @ flat).reshape(ring.shape[1:])
                incr += _AM[0] * rates(xp)[0]
                incr *= step
            xn, seg = x + incr[:, :n], incr[:, n]
            if metric.domain is not None:
                inside = np.asarray(metric.domain(xn), dtype=bool)
                if not inside.all():
                    idx, ring, sign, x, arc, ref, xn, seg = sift(inside, "left-domain",
                                                                 x, arc, ref, xn, seg)
                    if idx.size == 0:
                        break
            ptr = (ptr + 1) % _ADAMS_ORDER
            qn = rates(xn, ring[ptr])[1]
            spn = ring[ptr, :, n]
            finite = np.isfinite(seg) & np.isfinite(spn)
            if not finite.all():
                idx, ring, sign, x, arc, ref, xn, seg, qn = sift(finite, "non-finite",
                                                                 x, arc, ref, xn, seg, qn)
                if idx.size == 0:
                    break
                spn = ring[ptr, :, n]
            x, arc, t = xn, arc + seg, t + step
            fv = np.asarray(f.value(x), dtype=float)
            if idx.size == nf:  # every fiber active: this step's arrays are the row
                cols = (x, np.full(nf, t), arc, fv, qn)
                last[:] = len(rows)
            else:
                cols = tuple(c.copy() for c in cols)
                for col, val in zip(cols, (x, t, arc, fv, qn)):
                    col[idx] = val
                last[idx] = len(rows)
            rows.append(cols)
            ref = np.maximum(ref, spn)
            going = spn >= FLOW_END * ref
            if not going.all():
                idx, ring, sign, x, arc, ref = sift(going, "stop", x, arc, ref)
    pts, params, arcs, vals, qs = (np.array(col) for col in zip(*rows))
    return FlowResult(points=pts, params=params, arclength=arcs, values=vals, q=qs,
                      status=status, last=last, metric_calls=calls)


@dataclass
class FiberTrace:
    """One seed's two-way flow: the descending half reversed, then the ascending one.

    The samples are in order of f, the seed once; s and t are the arclength
    and the flow parameter from the seed, negative on the descending half.
    """

    s: np.ndarray
    t: np.ndarray
    values: np.ndarray
    q: np.ndarray
    points: np.ndarray
    status: tuple               # (descending half, ascending half)
    metric_calls: int           # of the whole two-way batch this trace came from


def flow_both_ways(metric: MetricField, f: ScalarField, seeds: np.ndarray, *,
                   step: float, max_steps: int = 200000) -> list:
    """One FiberTrace per seed, from one ``integrate_gradient_flow`` batch of both halves.

    The batch holds 2 N fibers, as deep as the longest half, and makes one
    metric call per stage for all of them: 1 + 7 per RK6 starter step + 2 per
    ABM step, each trace's ``metric_calls``.
    """
    n = len(seeds)
    flow = integrate_gradient_flow(metric, f, np.concatenate([seeds, seeds]),
                                   np.repeat([-1.0, 1.0], n), step=step, max_steps=max_steps)

    def merged(down: PathResult, up: PathResult) -> FiberTrace:
        def cat(name, sign=1.0):  # the descending half reversed, then the ascending one past the seed
            return np.concatenate([sign * getattr(down, name)[::-1], getattr(up, name)[1:]])

        return FiberTrace(s=cat("arclength", -1.0), t=cat("params", -1.0), values=cat("values"),
                          q=cat("q"), points=cat("points"), status=(down.status, up.status),
                          metric_calls=flow.metric_calls)

    return [merged(flow.fiber(i), flow.fiber(n + i)) for i in range(n)]


def richardson_even(values: np.ndarray) -> np.ndarray:
    """Limit h -> 0 of f(h) = f0 + c1 h^2 + c2 h^4, sampled at (h, 2h, 4h).

    ``values`` has shape (3, ...) ordered (f(h), f(2h), f(4h)).
    """
    fh, f2h, f4h = values[0], values[1], values[2]
    return (64.0 * fh - 20.0 * f2h + f4h) / 45.0
