"""Preconditioned conjugate gradient over float64 arrays.

The solver runs it on the reduced system in u alone; the tests also run it on
the full (u, vv, vh) block system through its flat ``SystemVector.data``
buffers.  Both maps are singular with a one-dimensional nullspace (the
constant u mode) but every right-hand side produced by the solver lies in
their range, so plain CG theory applies.  The constant mode is the
preconditioner's job alone: the Sylvester pseudo-inverse zeroes it in every
apply, so the search directions never gain a constant component and the
solve needs no projection of its own.  The iteration runs in the caller's
iterate, right-hand side and search-direction arrays, and the maps write
into buffers of their own, so a solve allocates no grid-sized temporaries.
A solve that reaches its tolerance or its budget after
k >= 1 iterations applies the preconditioner k times and the map k + 1
times: the preconditioned residual only builds the next search direction,
so the iteration that spends the budget stops once the iterate and the
residual are updated, without forming a direction.

A solve also reports its Ritz values, the extreme eigenvalues of its Lanczos
tridiagonal T_k, which bound the preconditioned spectrum of the system it
solved from inside at no extra apply (Meurant, *The Lanczos and Conjugate
Gradient Algorithms*, SIAM, 2006).  T_k has diagonal 1/alpha_1 and
1/alpha_j + beta_(j-1)/alpha_(j-1) and off-diagonal sqrt(beta_j)/alpha_j in
CG's step lengths alpha and direction updates beta.  Sturm-sequence bisection
finds its extremes from those 2k - 1 floats, with no k x k matrix.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalBreakdown",
    "PcgOutcome",
    "pcg_solve",
    "ritz_extremes",
]

_TINY_CURVATURE = 1e-300


class NumericalBreakdown(RuntimeError):
    """A non-finite value appeared during the iteration."""

    def __init__(self, iteration, message):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


def _norm(a):
    """``||a||``; finite entries whose norm overflows give inf without a warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(a)


@dataclass
class PcgOutcome:
    """``rel_residual`` is ``residual_norms[-1]`` over ``||b||``, 0.0 when ``b = 0``.

    ``ritz_min`` and ``ritz_max`` are the extremes of ``ritz_extremes``, None when
    the solve ran no iteration.
    """

    iterations: int
    residual_norms: list
    converged: bool
    rel_residual: float
    ritz_min: float | None
    ritz_max: float | None


def _outcome(res_norms, converged, b_norm, alphas, betas):
    rel = float(res_norms[-1] / b_norm) if b_norm > 0 else 0.0
    return PcgOutcome(
        len(res_norms) - 1, res_norms, bool(converged), rel, *ritz_extremes(alphas, betas)
    )


def _bisect(lo, hi, rank, diag, off_sq, pivmin):
    """The rank-th smallest eigenvalue of the tridiagonal in [lo, hi), to adjacent floats.

    The eigenvalues below a shift x are counted as the negative pivots of T - x I = L D L'.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        below, q = 0, 1.0
        for d, e2 in zip(diag, off_sq):
            q = d - mid - e2 / q
            # a vanishing pivot is moved off zero, as LAPACK's dstebz does
            if abs(q) < pivmin:
                q = -pivmin
            below += q < 0.0
        if below >= rank:
            hi = mid
        else:
            lo = mid


def ritz_extremes(alphas, betas):
    """``(smallest, largest)`` eigenvalue of the Lanczos tridiagonal T_k of k CG steps.

    ``alphas`` holds the step lengths alpha_1..alpha_k and ``betas`` the
    direction updates beta_1..beta_(k-1); a further beta, which a solve ended
    by a vanishing curvature has formed, is not read.  Gives ``(None, None)``
    for k = 0, and for a T_k with an entry that is no finite float (a zero
    step length, or an overflow).
    """
    if not alphas or not all(alphas):
        return None, None
    diag = [1.0 / alphas[0]]
    # off_sq[j] is the squared off-diagonal entry left of diag[j], 0 for the first row
    off_sq = [0.0]
    for a_prev, a, b in zip(alphas, alphas[1:], betas):
        diag.append(1.0 / a + b / a_prev)
        off_sq.append(b / a_prev / a_prev)
    radius = [math.sqrt(abs(e2)) for e2 in off_sq] + [0.0]
    lo = min(d - left - right for d, left, right in zip(diag, radius, radius[1:]))
    hi = max(d + left + right for d, left, right in zip(diag, radius, radius[1:]))
    if not all(math.isfinite(v) for v in (*diag, *off_sq, hi - lo)):
        return None, None
    pivmin = sys.float_info.min * max(1.0, max(off_sq))
    return (
        _bisect(lo, hi, 1, diag, off_sq, pivmin),
        _bisect(lo, hi, len(diag), diag, off_sq, pivmin),
    )


def pcg_solve(apply_a, apply_m, b, x, max_iters, rel_tol, *, direction):
    """Conjugate gradient on ``apply_a(x) = b`` preconditioned by ``apply_m``.

    Stops when the unpreconditioned residual norm drops to
    ``rel_tol * ||b||`` or after ``max_iters`` matrix applications, whichever
    comes first.  A vanishing curvature p'Ap <= 1e-300 ends the iteration
    with convergence judged from the current residual, and a vanishing
    preconditioned product r'z = 0 ends it unconverged.  However it ends, a
    solve of k iterations has formed alpha_1..alpha_k and at least
    beta_1..beta_(k-1), the floats that give the outcome's Ritz values.

    ``b``, ``x`` and ``direction`` are float64 arrays of one shape, and none
    aliases another.  The iteration runs in them: ``x`` holds the starting
    iterate and ends as the last iterate, ``b`` ends as the recurrence
    residual, whose norm is ``residual_norms[-1]``, and ``direction`` holds
    the search direction (its content on entry is not read).  The maps take
    and return arrays of that shape.  The arrays returned by ``apply_a`` and
    ``apply_m`` are used as scratch and overwritten, so both may keep
    returning one preallocated buffer, and may even return the same one:
    the preconditioned residual is dead once it has entered the direction,
    and the map's output once the iterate is updated.  A returned array must
    not alias the argument, ``b``, ``x`` or ``direction``.  The solve itself
    allocates no grid-sized temporaries.
    A solve that reaches the tolerance or the budget after k >= 1 iterations
    has applied ``apply_m`` k times and ``apply_a`` k + 1 times (once for the
    starting residual); at the budget it stops without forming the next
    direction, which no iteration would read.  A solve that starts converged
    applies ``apply_a`` once only.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if rel_tol < 0:
        raise ValueError("rel_tol must be >= 0")
    b_norm = _norm(b)
    # a zero tolerance stays zero where ||b|| overflows, so such a b breaks down below
    threshold = rel_tol * b_norm if rel_tol > 0 else 0.0

    r = b  # the residual overwrites b
    r -= apply_a(x)
    res_norms = [_norm(r)]
    alphas, betas = [], []
    if not np.isfinite(res_norms[0]):
        raise NumericalBreakdown(0, "initial residual is not finite")
    if res_norms[0] <= threshold or max_iters == 0:
        return _outcome(res_norms, res_norms[0] <= threshold, b_norm, alphas, betas)

    z = apply_m(r)
    p = direction
    p[...] = z
    rho = float(np.vdot(r, z))
    if not np.isfinite(rho):
        raise NumericalBreakdown(0, "preconditioned product is not finite")
    converged = False
    for it in range(max_iters):
        ap = apply_a(p)
        pap = float(np.vdot(p, ap))
        if not np.isfinite(pap):
            raise NumericalBreakdown(it, "curvature p'Ap is not finite")
        if pap <= _TINY_CURVATURE:
            converged = res_norms[-1] <= threshold
            break
        alpha = rho / pap
        alphas.append(alpha)
        # ap is scratch: r -= alpha ap, then x += alpha p, each product rounded before the add
        ap *= -alpha
        r += ap
        np.multiply(p, alpha, out=ap)
        x += ap
        rn = _norm(r)
        if not np.isfinite(rn):
            raise NumericalBreakdown(it + 1, "residual norm is not finite")
        res_norms.append(rn)
        if rn <= threshold:
            converged = True
            break
        if it == max_iters - 1:
            # the budget is spent: z = M^-1 r would only build an unused direction
            break
        z = apply_m(r)
        rho_next = float(np.vdot(r, z))
        if not np.isfinite(rho_next):
            raise NumericalBreakdown(it + 1, "preconditioned product is not finite")
        if rho_next == 0.0:
            # the preconditioned residual vanished: no search direction is left
            break
        beta = rho_next / rho
        betas.append(beta)
        rho = rho_next
        p *= beta
        p += z

    return _outcome(res_norms, converged, b_norm, alphas, betas)
