"""Preconditioned conjugate gradient over float64 arrays.

The solver runs it on the reduced system in u alone; the tests also run it on
the full (u, vv, vh) block system through its flat ``SystemVector.data``
buffers.  Both maps are singular with a one-dimensional nullspace (the
constant u mode) but every right-hand side produced by the solver lies in
their range, so plain CG theory applies.  The constant mode is the
preconditioner's job alone: the Sylvester pseudo-inverse zeroes it in every
apply, so the search directions never gain a constant component and the
solve needs no projection of its own.  The iteration runs in the caller's
iterate and right-hand side arrays, so each solve allocates one grid, its
search direction.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericalBreakdown",
    "PcgOutcome",
    "pcg_solve",
]

_TINY_CURVATURE = 1e-300


class NumericalBreakdown(RuntimeError):
    """A non-finite value appeared during the iteration."""

    def __init__(self, iteration, message):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class PcgOutcome:
    iterations: int
    residual_norms: list = field(default_factory=list)
    converged: bool = False


def pcg_solve(apply_a, apply_m, b, x, max_iters, rel_tol):
    """Conjugate gradient on ``apply_a(x) = b`` preconditioned by ``apply_m``.

    Stops when the unpreconditioned residual norm drops to
    ``rel_tol * ||b||`` or after ``max_iters`` matrix applications, whichever
    comes first.  A vanishing curvature p'Ap <= 1e-300 ends the iteration
    with convergence judged from the current residual, and a vanishing
    preconditioned product r'z = 0 ends it unconverged.

    ``b`` and ``x`` are float64 arrays of one shape, and neither aliases the
    other.  The iteration runs in them: ``x`` holds the starting iterate and
    ends as the last iterate, and ``b`` ends as the recurrence residual,
    whose norm is ``residual_norms[-1]``.  The maps take and return arrays of
    that shape.  The arrays returned by ``apply_a`` and ``apply_m`` are used
    as scratch and overwritten, so both may keep returning one preallocated
    buffer each (as ``out=`` closures do); a returned array must not alias
    the argument.  The solve itself allocates only the search direction.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if rel_tol < 0:
        raise ValueError("rel_tol must be >= 0")
    threshold = rel_tol * np.linalg.norm(b)

    r = b  # the residual overwrites b
    r -= apply_a(x)
    res_norms = [np.linalg.norm(r)]
    if not np.isfinite(res_norms[0]):
        raise NumericalBreakdown(0, "initial residual is not finite")
    if res_norms[0] <= threshold or max_iters == 0:
        return PcgOutcome(
            iterations=0, residual_norms=res_norms, converged=res_norms[0] <= threshold
        )

    z = apply_m(r)
    p = z.copy()
    rho = float(np.vdot(r, z))
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
        # ap is scratch: r -= alpha ap, then x += alpha p, each product rounded before the add
        ap *= -alpha
        r += ap
        np.multiply(p, alpha, out=ap)
        x += ap
        rn = np.linalg.norm(r)
        if not np.isfinite(rn):
            raise NumericalBreakdown(it + 1, "residual norm is not finite")
        res_norms.append(rn)
        if rn <= threshold:
            converged = True
            break
        z = apply_m(r)
        rho_next = float(np.vdot(r, z))
        if not np.isfinite(rho_next):
            raise NumericalBreakdown(it + 1, "preconditioned product is not finite")
        if rho_next == 0.0:
            # the preconditioned residual vanished: no search direction is left
            break
        beta = rho_next / rho
        rho = rho_next
        p *= beta
        p += z

    return PcgOutcome(
        iterations=len(res_norms) - 1, residual_norms=res_norms, converged=converged
    )
