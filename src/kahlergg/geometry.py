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


# The largest t-step of a flow (near an end with Hessian constant a, sqrt(Q)
# shrinks by exp(-a h) per step h: a h = 0.096 at a = 2), and the fraction of
# its largest sqrt(Q) so far below which a fiber ends.
FLOW_STEP = 4.8e-2
FLOW_END = 0.04


def integrate_gradient_flow(metric: MetricField, f: ScalarField, seeds: np.ndarray,
                            direction: "float | np.ndarray" = 1.0, *,
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
    there: 7 calls.  A fiber stops, and is frozen with its own status, once
    sqrt(Q) falls below ``FLOW_END`` of its largest value so far ("stop"),
    at a zero gradient ("stationary"), when a step leaves the metric's
    domain ("left-domain", the last inside point is kept), when a stage or
    the end of a step reads a Q that is negative or not finite
    ("non-finite": the step went past a critical level, where sqrt(Q) is
    NaN; the start of the step is kept), or after ``max_steps`` steps
    ("max-steps").  A metric that is singular at a seed or a stage raises
    NumericalFailure.  A batch is as deep as its longest fiber: ``flow_both_ways``
    flows both halves from mid-fiber, half the steps of a flow from one end.
    """
    n = metric.dim
    x = np.array(seeds, dtype=float).reshape(-1, n)
    nf = len(x)
    sign = np.broadcast_to(np.asarray(direction, dtype=float), (nf,)).copy()

    def field(pp, idx):  # (xdot, sqrt(Q), Q); sqrt(Q) is NaN past a critical level, where Q < 0
        grad, q = gradient_and_q(metric, f, pp)
        with np.errstate(invalid="ignore"):
            return sign[idx, None] * grad, np.sqrt(q), q

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
        xn, seg = _rk6(lambda pp: field(pp, idx)[:2], x[idx], (k[idx], sp[idx]),
                       np.full(idx.size, step))
        if metric.domain is not None:
            idx, xn, seg = sift(np.asarray(metric.domain(xn), dtype=bool), "left-domain",
                                idx, xn, seg)
            if idx.size == 0:
                break
        kn, spn, qn = field(xn, idx)
        idx, xn, seg, kn, spn, qn = sift(np.isfinite(seg) & np.isfinite(spn), "non-finite",
                                         idx, xn, seg, kn, spn, qn)
        x[idx], k[idx], q[idx], sp[idx] = xn, kn, qn, spn
        fv[idx] = f.value(xn)
        t[idx] += step
        arc[idx] += seg
        last[idx] = len(rows)
        rows.append((x.copy(), t.copy(), arc.copy(), fv.copy(), q.copy()))
        ref[idx] = np.maximum(ref[idx], spn)
        freeze(idx[spn < FLOW_END * ref[idx]], "stop")
    pts, params, arcs, vals, qs = (np.array(col) for col in zip(*rows))
    return FlowResult(points=pts, params=params, arclength=arcs, values=vals, q=qs,
                      status=status, last=last)


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


def flow_both_ways(metric: MetricField, f: ScalarField, seeds: np.ndarray, *,
                   step: float, max_steps: int = 200000) -> list:
    """One FiberTrace per seed, from one ``integrate_gradient_flow`` batch of both halves."""
    n = len(seeds)
    flow = integrate_gradient_flow(metric, f, np.concatenate([seeds, seeds]),
                                   np.repeat([-1.0, 1.0], n), step=step, max_steps=max_steps)

    def merged(down: PathResult, up: PathResult) -> FiberTrace:
        def cat(name, sign=1.0):  # the descending half reversed, then the ascending one past the seed
            return np.concatenate([sign * getattr(down, name)[::-1], getattr(up, name)[1:]])

        return FiberTrace(s=cat("arclength", -1.0), t=cat("params", -1.0), values=cat("values"),
                          q=cat("q"), points=cat("points"), status=(down.status, up.status))

    return [merged(flow.fiber(i), flow.fiber(n + i)) for i in range(n)]


def richardson_even(values: np.ndarray) -> np.ndarray:
    """Limit h -> 0 of f(h) = f0 + c1 h^2 + c2 h^4, sampled at (h, 2h, 4h).

    ``values`` has shape (3, ...) ordered (f(h), f(2h), f(4h)).
    """
    fh, f2h, f4h = values[0], values[1], values[2]
    return (64.0 * fh - 20.0 * f2h + f4h) / 45.0
