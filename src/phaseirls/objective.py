"""Objective values, closed-form weight updates, and the safeguarded step.

Three closely related functionals appear here.  The base objective adds the
weighted l1 norms of the slack fields to two quadratic coupling penalties.
Its smoothed variant replaces each absolute value by sqrt((c*v)^2 + delta^2).
The lifted variant introduces auxiliary weights w >= delta/2 whose pointwise
minimization recovers the smoothed objective exactly, so under refreshed
weights its value is sum(w) plus the penalties (``eval_h_delta_refreshed``).

The safeguard compares the inner solve's proposal with one explicit gradient
step on the lifted quadratic.  That candidate needs only the current iterate
and its weights, so ``irls.unwrap`` forms it before the solve and then writes
the proposal over the iterate.  Its gradient is the block system's residual
A x - b in residual form, which ``kernels.apply_system_blocks`` computes from
the coupling residual K u - g - v with the data g, so the step builds neither
A x nor the right-hand side b.  ``candidate_step`` also returns the squared
norm of the gradient it stepped along, which bounds the candidate's h from
below, so the candidate's own h is needed only when the proposal misses that
bound.  ``eval_h_delta_and_refresh`` evaluates the proposal and, from the
same smoothed squares and penalty, its refreshed weights and h under them,
which the next outer iteration starts from.  The weights c, the auxiliary
weights w and the wrapped gradients g are ``phase.ArcField`` pairs (v, h).
``update_weights``, the h evaluations and ``candidate_step`` write into
``out=``/``scratch=`` buffers the caller owns, so that loop reuses its grids;
only ``eval_f`` and ``eval_f_delta``, the paper's two objectives, allocate
their own.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .operators import SystemVector
from .phase import ArcField

__all__ = [
    "ModelParams",
    "eval_f",
    "eval_f_delta",
    "eval_h_delta",
    "eval_h_delta_refreshed",
    "eval_h_delta_and_refresh",
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


def _penalty_terms(x: SystemVector, g, tau, *, scratch):
    # the coupling residuals S u - gv - vv and u T - gh - vh, formed in the scratch pair
    rv, rh = kernels.diffs(x.u, *scratch)
    rv -= g.v
    rv -= x.vv
    rh -= g.h
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
    l1 = float(np.sum(np.abs(c.v * x.vv))) + float(np.sum(np.abs(c.h * x.vh)))
    return l1 + _penalty_terms(x, g, p.tau, scratch=ArcField.empty(*x.shape))


def eval_f_delta(x, g, c, p):
    """Smoothed objective: each |c*v| replaced by sqrt((c*v)^2 + delta^2)."""
    # the refreshed weights are those square roots, arc by arc
    w = update_weights(x, c, p.delta, out=ArcField.empty(*x.shape))
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

    Equals the smoothed objective when ``w = update_weights(x, c, delta)``
    and upper-bounds it for any feasible ``w``.  ``scratch`` is a pair of
    grids shaped like (vv, vh) that every arc-sized temporary is written into.
    """
    h = _lifted_terms(x, w, c, p, squares=scratch, scratch=scratch)
    return h + _penalty_terms(x, g, p.tau, scratch=scratch)


def eval_h_delta_and_refresh(x, w, g, c, p, *, refreshed, scratch):
    """``eval_h_delta`` of ``x`` under ``w``, and h of ``x`` under its refreshed weights.

    Writes ``update_weights(x, c, p.delta)`` into the pair ``refreshed`` and
    returns ``(h, h_refreshed)``, each bit-equal to its separate evaluation:
    ``eval_h_delta(x, w, ...)`` and ``eval_h_delta_refreshed(x, refreshed, ...)``.
    The refreshed weights are the square roots of the smoothed squares that
    h already forms, and both values share one coupling penalty.
    ``refreshed`` may alias neither ``w`` nor ``scratch``, the pair of grids
    of ``eval_h_delta``.
    """
    h = _lifted_terms(x, w, c, p, squares=refreshed, scratch=scratch)
    penalty = _penalty_terms(x, g, p.tau, scratch=scratch)
    rv, rh = refreshed
    np.sqrt(rv, out=rv)
    np.sqrt(rh, out=rh)
    return h + penalty, float(np.sum(rv)) + float(np.sum(rh)) + penalty


def eval_h_delta_refreshed(x, w, g, p, *, scratch):
    """``eval_h_delta`` at the refreshed weights ``w = update_weights(x, c, p.delta)``.

    There each arc's lifted term ((c v)^2 + delta^2) / (2 w) + w / 2 is exactly
    w, so h is sum(w) plus the coupling penalties, which is also the smoothed
    objective; the value agrees with ``eval_h_delta`` up to round-off.  ``w``
    must be the refreshed weights of ``x``: nothing here checks it.
    ``scratch`` is as for ``eval_h_delta``.
    """
    return float(np.sum(w.v)) + float(np.sum(w.h)) + _penalty_terms(x, g, p.tau, scratch=scratch)


def update_weights(x, c, delta, *, out):
    """Closed-form minimizer of the lifted objective over the weights.

    Writes into the ArcField ``out`` and returns it; each entry is >= delta.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    d2 = delta * delta
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
    grids shaped like (vv, vh) that holds the diagonal weights d = c^2 / w.
    Neither may alias ``x`` or the other.  Returns ``out`` and the squared norm
    ``||A x - b||^2`` of the gradient.  The gradient is in residual form:
    with the coupling residual r = K u - g - v it is (Kt r / tau, d v - r / tau),
    which ``kernels.apply_system_blocks`` forms from the data g, so neither A x
    nor the right-hand side b is built.  As the Hessian A is positive
    semidefinite, h at the step is at least h(x) minus that norm over L.
    """
    if lipschitz <= 0:
        raise ValueError(f"lipschitz constant must be positive, got {lipschitz}")
    d = ArcField(*scratch)
    for cc, ww, o in zip(c, w, d):
        np.multiply(cc, cc, out=o)
        o /= ww
    kernels.apply_system_blocks(
        x.u, x.vv, x.vh, d.v, d.h, g.v, g.h, 1.0 / p.tau, out.u, out.vv, out.vh
    )
    grad_sq = float(np.vdot(out.data, out.data))
    out.data *= -1.0 / lipschitz
    out.data += x.data
    return out, grad_sq
