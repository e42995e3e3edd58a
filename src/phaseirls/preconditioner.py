"""Spectral Sylvester solve, and the block-diagonal preconditioner built on it.

``sylvester_solve`` applies the pseudo-inverse of the scaled Kronecker-sum
Laplacian (1/tau) * (StS Z + Z TTt).  In the eigenbases of the two 1-D
Neumann second-difference operators this is a pointwise product; the single
(0, 0) spectral coefficient belonging to the shared constant mode is zeroed,
which keeps every iterate orthogonal to the nullspace.  The eigenpairs are
the closed-form DCT-II cosines (Ghiglia & Romero, JOSA A 11(1), 1994), so no
eigendecomposition runs.  The solver uses it alone as the preconditioner of
the reduced system in u, whose weights are at most 1/tau.  The
block-diagonal preconditioner of the full (u, vv, vh) system (the paper's
formulation) adds plain diagonal divisions for the slack blocks.
"""

from dataclasses import dataclass

import numpy as np

from .operators import DiagonalWeights, SystemVector

__all__ = [
    "SpectralCache",
    "PreconditionerState",
    "build_spectral_cache",
    "sylvester_solve",
    "build_preconditioner",
    "apply_preconditioner",
]


@dataclass(frozen=True)
class SpectralCache:
    """Eigenpairs of the two 1-D second-difference (Neumann) operators.

    The bases are the orthonormal DCT-II cosines and the eigenvalues
    ``4 sin^2(pi k / 2n)``, both in closed form.  Eigenvalues are ascending
    with the leading entry exactly zero (the constant mode); the bases are
    orthogonal and reconstruct the operators.  ``multiplier`` holds
    ``1 / (lambda_s[i] + lambda_t[j])`` with the constant-mode (0, 0) entry
    set to zero: the spectral pseudo-inverse of the Kronecker-sum Laplacian.
    """

    lambda_s: np.ndarray
    lambda_t: np.ndarray
    basis_s: np.ndarray
    basis_t: np.ndarray
    multiplier: np.ndarray


@dataclass(frozen=True)
class PreconditionerState:
    """Spectral cache plus the diagonal slack divisors dv + 1/tau, dh + 1/tau."""

    cache: SpectralCache
    slack_v: np.ndarray
    slack_h: np.ndarray
    tau: float


def _eig_neumann(n):
    """Closed-form eigenpairs of the 1-D Neumann second difference (DCT-II).

    ``lam_k = 4 sin^2(pi k / 2n)`` is exactly zero at k = 0 and, unlike
    ``2 - 2 cos(pi k / n)``, keeps the small eigenvalues accurate to round-off.
    """
    k = np.arange(n)
    vals = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
    vecs = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    vecs[:, 0] = 1.0 / np.sqrt(n)
    return vals, vecs


def build_spectral_cache(n, m):
    """Precompute the eigenpairs used by every Sylvester solve."""
    if n < 1 or m < 1:
        raise ValueError("grid dimensions must be >= 1")
    lam_s, p_s = _eig_neumann(n)
    lam_t, p_t = _eig_neumann(m)
    denom = lam_s[:, None] + lam_t[None, :]
    denom[0, 0] = 1.0
    mult = 1.0 / denom
    mult[0, 0] = 0.0
    return SpectralCache(
        lambda_s=lam_s, lambda_t=lam_t, basis_s=p_s, basis_t=p_t, multiplier=mult
    )


def sylvester_solve(r, tau, cache, out=None):
    """Solve StS Z + Z TTt = tau * (r - mean(r)) with mean(Z) = 0.

    The transform pair costs two dense matrix products; the spectral system
    in between is a pointwise product with ``cache.multiplier``, whose zero
    constant-mode entry makes it the pseudo-inverse of the singular operator.
    Writes into ``out`` (a new grid when omitted) and returns it.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if out is None:
        out = np.empty(np.shape(r))
    tmp = cache.basis_s.T @ r
    np.matmul(tmp, cache.basis_t, out=out)
    out *= cache.multiplier
    out *= tau
    np.matmul(cache.basis_s, out, out=tmp)
    return np.matmul(tmp, cache.basis_t.T, out=out)


def build_preconditioner(cache, d: DiagonalWeights, tau):
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    inv_tau = 1.0 / tau
    return PreconditionerState(
        cache=cache, slack_v=d.dv + inv_tau, slack_h=d.dh + inv_tau, tau=tau
    )


def apply_preconditioner(r: SystemVector, pc: PreconditionerState, out=None):
    """Pseudo-inverse of the block-diagonal preconditioner applied to ``r``.

    Writes into ``out`` (a new vector when omitted) and returns it; ``out``
    must not alias ``r``.
    """
    if out is None:
        out = SystemVector.zeros(*r.shape)
    sylvester_solve(r.u, pc.tau, pc.cache, out=out.u)
    np.divide(r.vv, pc.slack_v, out=out.vv)
    np.divide(r.vh, pc.slack_h, out=out.vh)
    return out
