"""Objective values, closed-form weight updates, and the safeguarded step.

Three closely related functionals appear here.  The base objective adds the
weighted l1 norms of the slack fields to two quadratic coupling penalties.
Its smoothed variant replaces each absolute value by sqrt((c*v)^2 + delta^2).
The lifted variant introduces auxiliary weights w >= delta/2 whose pointwise
minimization recovers the smoothed objective exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .operators import DiagonalWeights, SystemVector, apply_system, build_rhs

__all__ = [
    "ModelParams",
    "IrlsWeights",
    "eval_f",
    "eval_f_delta",
    "eval_h_delta",
    "update_weights",
    "lipschitz_constant",
    "candidate_step",
    "sufficient_decrease_holds",
]


@dataclass(frozen=True)
class ModelParams:
    """Penalty strength tau and smoothing floor delta, both positive."""

    tau: float = 1e-2
    delta: float = 1e-6

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class IrlsWeights:
    """Auxiliary weights of the lifted objective, elementwise >= delta/2."""

    wv: np.ndarray
    wh: np.ndarray


def _penalty_terms(x: SystemVector, g, tau):
    rv = kernels.diff_rows(x.u) - g.gv - x.vv
    rh = kernels.diff_cols(x.u) - g.gh - x.vh
    return (float(np.vdot(rv, rv)) + float(np.vdot(rh, rh))) / (2.0 * tau)


def arc_count(n, m):
    """Number of arcs of an (n, m) grid: (n-1)*m + n*(m-1)."""
    return (n - 1) * m + n * (m - 1)


def eval_f(x, g, c, p):
    """Weighted l1 objective plus quadratic coupling penalties."""
    l1 = float(np.sum(np.abs(c.cv * x.vv))) + float(np.sum(np.abs(c.ch * x.vh)))
    return l1 + _penalty_terms(x, g, p.tau)


def eval_f_delta(x, g, c, p):
    """Smoothed objective: each |c*v| replaced by sqrt((c*v)^2 + delta^2)."""
    d2 = p.delta * p.delta
    sv = float(np.sum(np.sqrt((c.cv * x.vv) ** 2 + d2)))
    sh = float(np.sum(np.sqrt((c.ch * x.vh) ** 2 + d2)))
    return sv + sh + _penalty_terms(x, g, p.tau)


def eval_h_delta(x, w, g, c, p):
    """Lifted objective with explicit auxiliary weights.

    Equals the smoothed objective when ``w = update_weights(x, c, delta)``
    and upper-bounds it for any feasible ``w``.
    """
    half_delta = 0.5 * p.delta
    if (w.wv.size and w.wv.min() < half_delta) or (w.wh.size and w.wh.min() < half_delta):
        raise ValueError("auxiliary weights must be >= delta/2")
    d2 = p.delta * p.delta
    sv = 0.5 * float(np.sum(((c.cv * x.vv) ** 2 + d2) / w.wv + w.wv))
    sh = 0.5 * float(np.sum(((c.ch * x.vh) ** 2 + d2) / w.wh + w.wh))
    return sv + sh + _penalty_terms(x, g, p.tau)


def update_weights(x, c, delta):
    """Closed-form minimizer of the lifted objective over the weights."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    d2 = delta * delta
    return IrlsWeights(
        wv=np.sqrt((c.cv * x.vv) ** 2 + d2),
        wh=np.sqrt((c.ch * x.vh) ** 2 + d2),
    )


def lipschitz_constant(c, p):
    """Upper bound 12/tau + c_max^2/delta on the lifted quadratic's curvature."""
    return 12.0 / p.tau + c.max_weight**2 / p.delta


def candidate_step(x, w, g, c, p, lipschitz):
    """Explicit gradient step with stepsize 1/L on the lifted quadratic."""
    if lipschitz <= 0:
        raise ValueError(f"lipschitz constant must be positive, got {lipschitz}")
    # the lifted quadratic's gradient is the block system's residual A x - b
    # with d = c^2 / w; the step x - grad / L is built inside its buffer
    d = DiagonalWeights(c.cv * c.cv / w.wv, c.ch * c.ch / w.wh)
    step = apply_system(x, d, p.tau)
    del d
    step.data -= build_rhs(g, p.tau).data
    step.data *= -1.0 / lipschitz
    step.data += x.data
    return step


def sufficient_decrease_holds(x_new, x_old, w, g, c, p, lipschitz):
    """Check that ``x_new`` does at least as well as one explicit gradient step."""
    cand = candidate_step(x_old, w, g, c, p, lipschitz)
    return eval_h_delta(x_new, w, g, c, p) <= eval_h_delta(cand, w, g, c, p)
