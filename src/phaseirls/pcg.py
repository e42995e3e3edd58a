"""Preconditioned conjugate gradient over the matrix-free block system.

The system map is singular with a one-dimensional nullspace (the constant u
mode) but every right-hand side produced by the solver lies in its range, so
plain CG theory applies.  The preconditioner shares the nullspace and its
pseudo-inverse never reintroduces a constant component; as a safety net
against floating-point drift the residual's u block is re-projected onto the
mean-zero subspace every ``REPROJECT_EVERY`` iterations.
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import SystemVector

__all__ = ["NumericalBreakdown", "PcgOutcome", "pcg_solve", "project_out_constant"]

REPROJECT_EVERY = 50

_TINY_CURVATURE = 1e-300


class NumericalBreakdown(RuntimeError):
    """A non-finite value appeared during the iteration."""

    def __init__(self, iteration, message):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class PcgOutcome:
    x: SystemVector
    iterations: int
    residual_norms: list = field(default_factory=list)
    converged: bool = False
    residual: SystemVector | None = None


def project_out_constant(x: SystemVector):
    """Remove the constant mode from the u block, in place.  Idempotent."""
    x.u -= x.u.mean()
    return x


def pcg_solve(apply_a, apply_m, b, x0, max_iters, rel_tol):
    """Conjugate gradient on ``apply_a(x) = b`` preconditioned by ``apply_m``.

    Stops when the unpreconditioned residual norm drops to
    ``rel_tol * ||b||`` or after ``max_iters`` matrix applications, whichever
    comes first.  A vanishing curvature p'Ap <= 1e-300 ends the iteration
    with convergence judged from the current residual.

    The vectors returned by ``apply_a`` and ``apply_m`` are used as scratch
    and overwritten, so both may keep returning one preallocated buffer each
    (as ``out=`` closures do); a returned vector must not alias the argument.
    The solve itself allocates only ``x``, ``r`` and ``p``.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if rel_tol < 0:
        raise ValueError("rel_tol must be >= 0")
    x = x0.copy()
    b_norm = b.norm()
    threshold = rel_tol * b_norm

    r = b.copy()
    r.data -= apply_a(x).data
    res_norms = [r.norm()]
    if not np.isfinite(res_norms[0]):
        raise NumericalBreakdown(0, "initial residual is not finite")
    if res_norms[0] <= threshold or max_iters == 0:
        return PcgOutcome(
            x=x,
            iterations=0,
            residual_norms=res_norms,
            converged=res_norms[0] <= threshold,
            residual=r,
        )

    z = apply_m(r)
    p = z.copy()
    rho = r.dot(z)
    converged = False
    for it in range(max_iters):
        ap = apply_a(p)
        pap = p.dot(ap)
        if not np.isfinite(pap):
            raise NumericalBreakdown(it, "curvature p'Ap is not finite")
        if pap <= _TINY_CURVATURE:
            converged = res_norms[-1] <= threshold
            break
        alpha = rho / pap
        # ap is scratch: r -= alpha ap, then x += alpha p, with axpy's rounding
        ap.scale(-alpha)
        r.add(ap)
        np.multiply(p.data, alpha, out=ap.data)
        x.add(ap)
        if (it + 1) % REPROJECT_EVERY == 0:
            project_out_constant(r)
        rn = r.norm()
        if not np.isfinite(rn):
            raise NumericalBreakdown(it + 1, "residual norm is not finite")
        res_norms.append(rn)
        if rn <= threshold:
            converged = True
            break
        z = apply_m(r)
        rho_next = r.dot(z)
        if not np.isfinite(rho_next):
            raise NumericalBreakdown(it + 1, "preconditioned product is not finite")
        beta = rho_next / rho
        rho = rho_next
        p.scale(beta)
        p.add(z)

    return PcgOutcome(
        x=x,
        iterations=len(res_norms) - 1,
        residual_norms=res_norms,
        converged=converged,
        residual=r,
    )
