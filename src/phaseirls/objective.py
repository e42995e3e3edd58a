"""Objective values, closed-form weight updates, and the safeguarded step.

Three closely related functionals appear here.  The base objective adds the
weighted l1 norms of the slack fields to two quadratic coupling penalties.
Its smoothed variant replaces each absolute value by sqrt((c*v)^2 + delta^2).
The lifted variant introduces auxiliary weights w >= delta/2 whose pointwise
minimization recovers the smoothed objective exactly, so under refreshed
weights its value is sum(w) plus the penalties (``eval_h_delta_refreshed``).

The safeguard compares the inner solve's proposal with one explicit gradient
step on the lifted quadratic.  That candidate needs only the current iterate
and its weights, so ``irls.unwrap`` forms it and its h before the solve and
then writes the proposal over the iterate.  ``update_weights``,
``eval_h_delta`` and ``candidate_step`` take ``out=``/``scratch=`` buffers,
so that loop reuses its grids; each writes the same bits as its allocating
form.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .operators import DiagonalWeights, SystemVector, apply_system, arc_scratch, build_rhs

__all__ = [
    "ModelParams",
    "IrlsWeights",
    "eval_f",
    "eval_f_delta",
    "eval_h_delta",
    "eval_h_delta_refreshed",
    "update_weights",
    "lipschitz_constant",
    "candidate_step",
]


@dataclass(frozen=True)
class ModelParams:
    """Penalty strength tau and smoothing floor delta, both positive."""

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


@dataclass(frozen=True)
class IrlsWeights:
    """Auxiliary weights of the lifted objective, elementwise >= delta/2."""

    wv: np.ndarray
    wh: np.ndarray


def _penalty_terms(x: SystemVector, g, tau, scratch=None):
    # the coupling residuals S u - gv - vv and u T - gh - vh, formed in the scratch pair
    rv, rh = kernels.diffs(x.u, *arc_scratch(scratch, x.vv, x.vh))
    rv -= g.gv
    rv -= x.vv
    rh -= g.gh
    rh -= x.vh
    return (float(np.vdot(rv, rv)) + float(np.vdot(rh, rh))) / (2.0 * tau)


def _smoothed_squares(cc, v, d2, out):
    """out = (cc * v)^2 + d2, in place."""
    np.multiply(cc, v, out=out)
    np.square(out, out=out)
    out += d2
    return out


def eval_f(x, g, c, p):
    """Weighted l1 objective plus quadratic coupling penalties."""
    l1 = float(np.sum(np.abs(c.cv * x.vv))) + float(np.sum(np.abs(c.ch * x.vh)))
    return l1 + _penalty_terms(x, g, p.tau)


def eval_f_delta(x, g, c, p):
    """Smoothed objective: each |c*v| replaced by sqrt((c*v)^2 + delta^2)."""
    # the refreshed weights are those square roots, arc by arc
    return eval_h_delta_refreshed(x, update_weights(x, c, p.delta), g, p)


def eval_h_delta(x, w, g, c, p, scratch=None):
    """Lifted objective with explicit auxiliary weights.

    Equals the smoothed objective when ``w = update_weights(x, c, delta)``
    and upper-bounds it for any feasible ``w``.  ``scratch`` is an optional
    pair of grids shaped like (vv, vh) that every arc-sized temporary is
    written into; without it the pair is allocated.
    """
    half_delta = 0.5 * p.delta
    if (w.wv.size and w.wv.min() < half_delta) or (w.wh.size and w.wh.min() < half_delta):
        raise ValueError("auxiliary weights must be >= delta/2")
    scratch = arc_scratch(scratch, x.vv, x.vh)
    d2 = p.delta * p.delta
    h = 0.0
    for cc, v, ww, s in zip((c.cv, c.ch), (x.vv, x.vh), (w.wv, w.wh), scratch):
        _smoothed_squares(cc, v, d2, s)
        s /= ww
        s += ww
        h += 0.5 * float(np.sum(s))
    return h + _penalty_terms(x, g, p.tau, scratch)


def eval_h_delta_refreshed(x, w, g, p, scratch=None):
    """``eval_h_delta`` at the refreshed weights ``w = update_weights(x, c, p.delta)``.

    There each arc's lifted term ((c v)^2 + delta^2) / (2 w) + w / 2 is exactly
    w, so h is sum(w) plus the coupling penalties, which is also the smoothed
    objective; the value agrees with ``eval_h_delta`` up to round-off.  ``w``
    must be the refreshed weights of ``x``: nothing here checks it.
    ``scratch`` is as for ``eval_h_delta``.
    """
    return float(np.sum(w.wv)) + float(np.sum(w.wh)) + _penalty_terms(x, g, p.tau, scratch)


def update_weights(x, c, delta, out=None):
    """Closed-form minimizer of the lifted objective over the weights.

    Writes into the IrlsWeights ``out`` (new grids when omitted) and returns it.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if out is None:
        out = IrlsWeights(np.empty(x.vv.shape), np.empty(x.vh.shape))
    d2 = delta * delta
    for cc, v, o in ((c.cv, x.vv, out.wv), (c.ch, x.vh, out.wh)):
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


def candidate_step(x, w, g, c, p, lipschitz, out=None, scratch=None):
    """Explicit gradient step with stepsize 1/L on the lifted quadratic.

    Writes the step into the SystemVector ``out`` and uses the SystemVector
    ``scratch`` for the diagonal weights and the right-hand side; each is
    allocated when omitted, and neither may alias ``x`` or the other.
    """
    if lipschitz <= 0:
        raise ValueError(f"lipschitz constant must be positive, got {lipschitz}")
    if out is None:
        out = SystemVector.zeros(*x.shape)
    if scratch is None:
        scratch = SystemVector.zeros(*x.shape)
    # the lifted quadratic's gradient is the block system's residual A x - b
    # with d = c^2 / w; d fills the slack blocks of the scratch, which then
    # holds b, and the step x - grad / L is built inside out
    d = DiagonalWeights(scratch.vv, scratch.vh)
    for cc, ww, o in ((c.cv, w.wv, d.dv), (c.ch, w.wh, d.dh)):
        np.multiply(cc, cc, out=o)
        o /= ww
    apply_system(x, d, p.tau, out=out)
    out.data -= build_rhs(g, p.tau, out=scratch).data
    out.data *= -1.0 / lipschitz
    out.data += x.data
    return out
