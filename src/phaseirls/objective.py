"""The lifted model under fixed weights: objectives, weights, safeguard step, reduced system.

The unknown is the triple x = (u, vv, vh) of grids, one ``SystemVector``; the
arc map K stacks the vertical differences S u over the horizontal ones u T,
the ``kernels`` stencils, and nothing here forms a matrix.  The base
objective adds the weighted l1 norms of the slacks to the coupling penalty
||K u - g - v||^2 / (2 tau) (``eval_f``); its smoothed variant replaces each
|c v| by sqrt((c v)^2 + delta^2) (``eval_f_delta``).  The lifted objective h
adds auxiliary weights w >= delta/2 whose pointwise minimization
(``update_weights``) recovers the smoothed objective exactly, so under
refreshed weights h is sum(w) plus the penalty (``eval_h_delta_refreshed``).

Under fixed weights h is a convex quadratic in x with the diagonal slack
weights d = c^2 / w, and given u each slack has the closed-form minimizer
vv = (S u - gv) / (1 + tau dv), likewise vh.  Eliminating the slacks leaves
a problem in u alone,

  St (Wv * S u) + (Wh * u T) Tt = St (Wv * gv) + (Wh * gh) Tt,
  W = d / (1 + tau d) = c^2 / (w + tau c^2) <= 1/tau,

the classical weighted least squares unwrapping system (Ghiglia & Romero,
JOSA A 11(1), 1994).  ``reduced_system`` writes its weights W and its
right-hand side, and the solver runs its conjugate gradient on the map
``kernels.weighted_laplacian`` under W.  ``propose`` then forms the arc
misfit K u - g of the solved u once: it sets the slacks from it, and the
misfit less the slacks is the coupling residual of both h values it
returns, under the old weights and under the refreshed ones it writes over
W.  The safeguard's ``candidate_step`` is one gradient step on the
quadratic, whose gradient ``kernels.apply_system_blocks`` forms in residual
form from K u - g - v.

Every function of the model reads tau and delta from one ``ModelParams`` p,
whose constructor is the one place their ranges are checked.  The gradients
g, the weights c and w, and the diagonals d and W are ``phase.ArcField``
pairs (v, h).  Every function that writes a grid writes into buffers its
caller owns, passed by keyword as ``out``, ``weights``, ``rhs``, ``flux`` or
``scratch`` (the last two are pairs of grids shaped like (vv, vh)), so the
outer loop reuses its grids; ``propose`` writes the slacks of the vector it
is given.  Only ``eval_f`` and ``eval_f_delta``, the paper's two objectives,
allocate their own.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .phase import ArcField

__all__ = [
    "SystemVector",
    "ModelParams",
    "eval_f",
    "eval_f_delta",
    "eval_h_delta",
    "eval_h_delta_refreshed",
    "update_weights",
    "lipschitz_constant",
    "candidate_step",
    "reduced_system",
    "propose",
]


class SystemVector:
    """Triple (u, vv, vh) of grids viewed as one vector of the block system.

    The vector owns one contiguous float64 buffer ``data``; ``u``, ``vv`` and
    ``vh`` are reshaped views into it, so vector algebra is plain numpy on
    ``data``.  The constructor copies its inputs.
    """

    __slots__ = ("data", "u", "vv", "vh")

    def __init__(self, u, vv, vh):
        n, m = np.shape(u)
        if ArcField(np.asarray(vv), np.asarray(vh)).shape != (n, m):
            raise ValueError(
                f"inconsistent block shapes: u {np.shape(u)}, "
                f"vv {np.shape(vv)}, vh {np.shape(vh)}"
            )
        self._bind(np.empty(_system_dim(n, m)), n, m)
        self.u[...] = u
        self.vv[...] = vv
        self.vh[...] = vh

    def _bind(self, data, n, m):
        nu = n * m
        nv = (n - 1) * m
        self.data = data
        self.u = data[:nu].reshape(n, m)
        self.vv = data[nu : nu + nv].reshape(n - 1, m)
        self.vh = data[nu + nv :].reshape(n, m - 1)

    @classmethod
    def from_buffer(cls, data, n, m):
        """Vector whose blocks are views into the flat ``data``; nothing is copied."""
        if data.shape != (_system_dim(n, m),):
            raise ValueError(f"buffer of shape {data.shape} does not fit an ({n}, {m}) grid")
        out = cls.__new__(cls)
        out._bind(data, n, m)
        return out

    @classmethod
    def zeros(cls, n, m):
        return cls.from_buffer(np.zeros(_system_dim(n, m)), n, m)

    @property
    def shape(self):
        return self.u.shape

    def copy(self):
        return SystemVector.from_buffer(self.data.copy(), *self.shape)


def _system_dim(n, m):
    return n * m + (n - 1) * m + n * (m - 1)


@dataclass(frozen=True)
class ModelParams:
    """Penalty strength tau and smoothing floor delta, checked here and nowhere else."""

    tau: float = 1e-2
    delta: float = 1e-6

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        # every weight and objective evaluation squares delta
        if not (self.delta > 0 and sys.float_info.min <= self.delta * self.delta < math.inf):
            raise ValueError(
                f"delta must be positive with a finite, normal square, got {self.delta}"
            )


def _penalty_terms(x: SystemVector, g, p, *, scratch):
    """Coupling penalty ||K u - g - v||^2 / (2 tau), the misfit K u - g formed in the scratch."""
    return _coupling_penalty(x, *kernels.misfit(x.u, g.v, g.h, *scratch), p)


def _coupling_penalty(x, fv, fh, p):
    """Coupling penalty of ``x`` from its arc misfit (fv, fh), which ends as the residual."""
    fv -= x.vv
    fh -= x.vh
    return (float(np.vdot(fv, fv)) + float(np.vdot(fh, fh))) / (2.0 * p.tau)


def _smoothed_squares(cc, v, d2, out):
    """out = (cc * v)^2 + d2, in place."""
    np.multiply(cc, v, out=out)
    np.square(out, out=out)
    out += d2
    return out


def eval_f(x, g, c, p):
    """Weighted l1 objective plus quadratic coupling penalties."""
    l1 = float(np.sum(np.abs(c.v * x.vv))) + float(np.sum(np.abs(c.h * x.vh)))
    return l1 + _penalty_terms(x, g, p, scratch=ArcField.empty(*x.shape))


def eval_f_delta(x, g, c, p):
    """Smoothed objective: each |c*v| replaced by sqrt((c*v)^2 + delta^2)."""
    # the refreshed weights are those square roots, arc by arc
    w = update_weights(x, c, p, out=ArcField.empty(*x.shape))
    return eval_h_delta_refreshed(x, w, g, p, scratch=ArcField.empty(*x.shape))


def _lifted_terms(x, w, c, p, *, squares, scratch):
    """Sum over the arcs of ((c v)^2 + delta^2) / (2 w) + w / 2.

    The smoothed squares (c v)^2 + delta^2 are left in ``squares``, which may
    be ``scratch`` itself; the terms are formed in ``scratch``.
    """
    half_delta = 0.5 * p.delta
    if any(ww.size and ww.min() < half_delta for ww in w):
        raise ValueError("auxiliary weights must be >= delta/2")
    d2 = p.delta * p.delta
    h = 0.0
    for cc, v, ww, sq, s in zip(c, (x.vv, x.vh), w, squares, scratch):
        _smoothed_squares(cc, v, d2, sq)
        np.divide(sq, ww, out=s)
        s += ww
        h += 0.5 * float(np.sum(s))
    return h


def eval_h_delta(x, w, g, c, p, *, scratch):
    """Lifted objective with explicit auxiliary weights.

    Equals the smoothed objective when ``w = update_weights(x, c, p)``
    and upper-bounds it for any feasible ``w``.  ``scratch`` is a pair of
    grids shaped like (vv, vh) that every arc-sized temporary is written into.
    """
    h = _lifted_terms(x, w, c, p, squares=scratch, scratch=scratch)
    return h + _penalty_terms(x, g, p, scratch=scratch)


def eval_h_delta_refreshed(x, w, g, p, *, scratch):
    """``eval_h_delta`` at the refreshed weights ``w = update_weights(x, c, p)``.

    There each arc's lifted term ((c v)^2 + delta^2) / (2 w) + w / 2 is exactly
    w, so h is sum(w) plus the coupling penalties, which is also the smoothed
    objective; the value agrees with ``eval_h_delta`` up to round-off.  ``w``
    must be the refreshed weights of ``x``: nothing here checks it.
    ``scratch`` is as for ``eval_h_delta``.
    """
    return float(np.sum(w.v)) + float(np.sum(w.h)) + _penalty_terms(x, g, p, scratch=scratch)


def update_weights(x, c, p, *, out):
    """Closed-form minimizer of the lifted objective over the weights.

    Writes into the ArcField ``out`` and returns it; each entry is >= p.delta.
    """
    d2 = p.delta * p.delta
    for cc, v, o in zip(c, (x.vv, x.vh), out):
        np.sqrt(_smoothed_squares(cc, v, d2, o), out=o)
    return out


def lipschitz_constant(c, p):
    """Upper bound 12/tau + c_max^2/delta on the lifted quadratic's curvature.

    Raises ValueError when c_max^2/delta is not a finite float.
    """
    cmax = c.max_weight
    # a product overflows to inf where cmax**2 would raise OverflowError
    stiffness = cmax * cmax / p.delta
    if not math.isfinite(stiffness):
        raise ValueError(f"c_max^2/delta must be finite, got c_max = {cmax}, delta = {p.delta}")
    return 12.0 / p.tau + stiffness


def candidate_step(x, w, g, c, p, lipschitz, *, out, scratch):
    """Explicit gradient step with stepsize 1/L on the lifted quadratic.

    Writes the step into the SystemVector ``out``; ``scratch`` is a pair of
    grids shaped like (vv, vh) that holds the diagonal weights d = c^2 / w
    and then the slack products d v, so the step allocates no grid-sized
    temporaries.  Neither may alias ``x`` or the other.  Returns ``out`` and
    the squared norm ``||A x - b||^2`` of the gradient.  The gradient is in residual form:
    with the coupling residual r = K u - g - v it is (Kt r / tau, d v - r / tau),
    which ``kernels.apply_system_blocks`` forms from the data g, so neither A x
    nor the right-hand side b is built.  As the Hessian A is positive
    semidefinite, h at the step is at least h(x) minus that norm over L.
    """
    if not 0 < lipschitz < math.inf:
        raise ValueError(f"lipschitz constant must be positive and finite, got {lipschitz}")
    dv = ArcField(*scratch)
    for cc, ww, v, o in zip(c, w, (x.vv, x.vh), dv):
        np.multiply(cc, cc, out=o)
        o /= ww
        o *= v
    kernels.apply_system_blocks(
        x.u, x.vv, x.vh, dv.v, dv.h, g.v, g.h, 1.0 / p.tau, out.u, out.vv, out.vh
    )
    grad_sq = float(np.vdot(out.data, out.data))
    out.data *= -1.0 / lipschitz
    out.data += x.data
    return out, grad_sq


def reduced_system(c, w, g: ArcField, p, *, weights, rhs, flux):
    """The reduced system under fixed weights: its weights and its right-hand side.

    Writes W = c^2 / (w + p.tau c^2), which is 0 where c = 0, into the
    ArcField ``weights`` and St (Wv * gv) + (Wh * gh) Tt into the grid
    ``rhs``, and returns ``rhs``.  The right-hand side sums to zero, so it is
    orthogonal to the constant mode.  ``flux`` is a pair of scratch grids
    shaped like (vv, vh) that holds the denominators and then the weighted data.
    """
    for cc, ww, gg, o, f in zip(c, w, g, weights, flux):
        np.multiply(cc, cc, out=o)
        # f = w + tau c^2, the denominator
        np.multiply(o, p.tau, out=f)
        f += ww
        o /= f
        np.multiply(o, gg, out=f)
    return kernels.adj_diffs(*flux, rhs)


def propose(x, g, c, w, p, *, weights, scratch):
    """Set the slacks of ``x`` to their minimizers given ``x.u`` and score it.

    Forms the arc misfit f = K u - g once, in the pair ``scratch``, sets each
    slack to f - (tau W) f from the reduced weights W that ``weights`` holds
    on entry, and leaves ``x.u`` as it is.  Then overwrites ``weights`` with
    ``update_weights(x, c, p)`` and returns ``(eval_h_delta(x, w, ...),
    eval_h_delta_refreshed(x, weights, ...))``, each bit-equal to that
    evaluation, from one coupling penalty.  No two of ``weights``,
    ``scratch``, ``w`` and the slacks of ``x`` may alias.
    """
    kernels.misfit(x.u, g.v, g.h, *scratch)
    for v, ww, f in zip((x.vv, x.vh), weights, scratch):
        # v = f - (tau W) f, the product formed in v
        np.multiply(ww, p.tau, out=v)
        v *= f
        np.subtract(f, v, out=v)
    penalty = _coupling_penalty(x, *scratch, p)
    # the smoothed squares land in weights, whose square roots are the refreshed weights
    h = _lifted_terms(x, w, c, p, squares=weights, scratch=scratch)
    for r in weights:
        np.sqrt(r, out=r)
    return h + penalty, float(np.sum(weights.v)) + float(np.sum(weights.h)) + penalty
