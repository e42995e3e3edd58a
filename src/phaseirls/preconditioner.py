"""Block-diagonal preconditioner with a spectral Sylvester solve on the u block.

The u block of the preconditioner is the scaled Kronecker-sum Laplacian
(1/tau) * (StS Z + Z TTt).  Applying its pseudo-inverse reduces, in the
eigenbases of the two 1-D Neumann second-difference operators, to a diagonal
division; the single (0, 0) spectral coefficient belonging to the shared
constant mode is zeroed, which keeps every iterate orthogonal to the
nullspace.  The eigenpairs are the closed-form DCT-II cosines (Ghiglia &
Romero, JOSA A 11(1), 1994), so no eigendecomposition runs.  The slack blocks
are plain diagonal divisions.
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
    orthogonal and reconstruct the operators.
    """

    lambda_s: np.ndarray
    lambda_t: np.ndarray
    basis_s: np.ndarray
    basis_t: np.ndarray


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
    return SpectralCache(lambda_s=lam_s, lambda_t=lam_t, basis_s=p_s, basis_t=p_t)


def sylvester_solve(r, tau, cache):
    """Solve StS Z + Z TTt = tau * (r - mean(r)) with mean(Z) = 0.

    The transform pair costs two dense matrix products; the spectral system
    in between is a pointwise division with the constant-mode coefficient
    pinned to zero (pseudo-inverse of the singular operator).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rp = cache.basis_s.T @ r @ cache.basis_t
    denom = cache.lambda_s[:, None] + cache.lambda_t[None, :]
    zero = denom == 0.0
    zp = tau * rp / np.where(zero, 1.0, denom)
    zp[zero] = 0.0
    return cache.basis_s @ zp @ cache.basis_t.T


def build_preconditioner(cache, d: DiagonalWeights, tau):
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    inv_tau = 1.0 / tau
    return PreconditionerState(
        cache=cache, slack_v=d.dv + inv_tau, slack_h=d.dh + inv_tau, tau=tau
    )


def apply_preconditioner(r: SystemVector, pc: PreconditionerState):
    """Pseudo-inverse of the block-diagonal preconditioner applied to ``r``."""
    zu = sylvester_solve(r.u, pc.tau, pc.cache)
    return SystemVector(zu, r.vv / pc.slack_v, r.vh / pc.slack_h)
