"""The paper's block formulation, matrix-free and dense, and its spectral study.

The paper states each weighted least squares step as a block system A x = b
in the triple x = (u, vv, vh), one ``operators.SystemVector``, with the
block-diagonal preconditioner D: the spectral Sylvester solve on u and
diagonal divisions on the slacks.  ``irls.unwrap`` solves the reduced system
in u alone instead (``operators``), so the block map ``apply_system``, its
right-hand side ``build_rhs`` and D (``build_preconditioner``,
``apply_preconditioner``) run only in the spectrum study here and in the
tests and acceptance criteria.

This is the one module that forms dense matrices, all in the column-stacking
vec() convention, ``vec(X) = X.ravel(order="F")``, and all under one size
limit of ``DENSE_CELL_LIMIT`` grid cells.  ``materialize_dense_system``
builds the block system matrix A from the arc map K, which stacks the
vertical differences S u over the horizontal ones u T.

The spectrum study draws random diagonal weights uniformly from
(0, 1/delta] and compares the spectra of A and C* A C*.  C* = D^(+1/2), the
split pseudo square root of D, is built in closed form from its
``PreconditionerState``: sqrt(tau / (lambda_s[i] + lambda_t[j])) in the full
closed-form DCT-II eigenbasis on u, in natural mode order, with the (0, 0)
entry set to zero to drop the constant mode, and one over the square roots
of the slack divisors on the slacks.  Both matrices have the constant u mode
as their only null vector, so exactly their smallest eigenvalue is dropped.
kappa, the ratio of the largest to the smallest kept eigenvalue, feeds the
CG rate estimate rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1); a spectrum
whose kappa is not below 1 / ``RESOLVABLE_RATIO`` is refused.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .operators import SystemVector
from .phase import ArcField
from .preconditioner import SpectralCache, build_spectral_cache, dct_basis, sylvester_solve

__all__ = [
    "PreconditionerState",
    "apply_system",
    "build_rhs",
    "build_preconditioner",
    "apply_preconditioner",
    "ConditioningReport",
    "SizeLimitExceeded",
    "conditioning_report",
    "materialize_dense_system",
    "positive_eigenvalues",
]

def apply_system(x, d, tau, *, out):
    """Apply the symmetric PSD block map of the weighted least squares system.

    ``d`` is the ArcField of diagonal slack weights (dv, dh).  Writes into
    ``out`` and returns it; ``out`` must not alias ``x``.  The result is the
    triple

      (1/tau) * (StS u + u TTt - St vv - vh Tt)
      dv * vv + (1/tau) * (vv - S u)
      dh * vh + (1/tau) * (vh - u T)

    The map annihilates (c*1, 0, 0), so its nullspace contains the constant
    mode of the u block.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    # the residual for the data g = 0; x - 0.0 == x, so this is A x bit for bit
    kernels.apply_system_blocks(
        x.u, x.vv, x.vh, d.v, d.h, 0.0, 0.0, 1.0 / tau, out.u, out.vv, out.vh
    )
    return out


def build_rhs(g: ArcField, tau, *, out):
    """Right-hand side of the system; orthogonal to the constant-u mode.

    Writes into the SystemVector ``out``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    inv_tau = 1.0 / tau
    kernels.adj_diffs(g.v, g.h, out.u)
    out.u *= inv_tau
    np.multiply(-inv_tau, g.v, out=out.vv)
    np.multiply(-inv_tau, g.h, out=out.vh)
    return out


@dataclass(frozen=True)
class PreconditionerState:
    """Spectral cache plus the diagonal slack divisors dv + 1/tau, dh + 1/tau."""

    cache: SpectralCache
    slack_v: np.ndarray
    slack_h: np.ndarray
    tau: float


def build_preconditioner(cache, d: ArcField, tau):
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    inv_tau = 1.0 / tau
    return PreconditionerState(
        cache=cache, slack_v=d.v + inv_tau, slack_h=d.h + inv_tau, tau=tau
    )


def apply_preconditioner(r: SystemVector, pc: PreconditionerState, *, out):
    """Pseudo-inverse of the block-diagonal preconditioner applied to ``r``.

    Writes into the SystemVector ``out`` and returns it; ``out`` must not
    alias ``r``.
    """
    sylvester_solve(r.u, pc.tau, pc.cache, out=out.u)
    np.divide(r.vv, pc.slack_v, out=out.vv)
    np.divide(r.vh, pc.slack_h, out=out.vh)
    return out


DENSE_CELL_LIMIT = 1024

# smallest-to-largest ratio of kept eigenvalues that eigvalsh, accurate to about
# 1e-16 of the largest, still resolves to a few digits
RESOLVABLE_RATIO = 1e-10


class SizeLimitExceeded(ValueError):
    """Raised when a dense matrix is requested for more than ``DENSE_CELL_LIMIT`` cells."""


def _check_cells(n, m):
    if n * m > DENSE_CELL_LIMIT:
        raise SizeLimitExceeded(
            f"dense matrices limited to {DENSE_CELL_LIMIT} cells, got {n * m}"
        )


def _diff_matrix(k):
    """(k - 1, k) forward differences: row i is e_(i+1) - e_i."""
    return np.diff(np.eye(k), axis=0)


def materialize_dense_system(n, m, d, tau):
    """Dense symmetric PSD matrix of the block system, for the spectrum study and tests.

    With K the arc map, vec(u) -> (vec(S u), vec(u T)), and d the ArcField of
    diagonal slack weights, A = [[K^T K, -K^T], [-K, tau diag(vec(d)) + I]] / tau.
    """
    _check_cells(n, m)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    inv_tau = 1.0 / tau
    k = np.vstack([np.kron(np.eye(m), _diff_matrix(n)), np.kron(_diff_matrix(m), np.eye(n))])
    slack = np.concatenate([d.v.ravel(order="F"), d.h.ravel(order="F")])
    return np.block([
        [inv_tau * (k.T @ k), -inv_tau * k.T],
        [-inv_tau * k, np.diag(slack + inv_tau)],
    ])


@dataclass(frozen=True)
class ConditioningReport:
    n: int
    m: int
    eig_a: np.ndarray
    eig_pre: np.ndarray
    kappa_a: float
    kappa_pre: float
    rho_a: float
    rho_pre: float

    def to_dict(self):
        """Each field by name as a plain Python value; the eigenvalues become lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def positive_eigenvalues(matrix):
    """Ascending eigenvalues of a PSD matrix with one null vector, the smallest dropped.

    Raises ValueError when the smallest kept eigenvalue is not above
    ``RESOLVABLE_RATIO`` times the largest.
    """
    vals = np.linalg.eigvalsh(matrix)[1:]
    if not vals[0] > RESOLVABLE_RATIO * vals[-1]:
        raise ValueError(
            f"spectrum not resolvable: the smallest kept eigenvalue {vals[0]:.3e} "
            f"is not above {RESOLVABLE_RATIO:g} times the largest {vals[-1]:.3e}"
        )
    return vals


def _cg_rate(kappa):
    root = np.sqrt(kappa)
    return (root - 1.0) / (root + 1.0)


def split_pseudo_sqrt(pc):
    """Dense C* = D^(+1/2) of the block preconditioner held by ``pc``, column-stacked."""
    cache = pc.cache
    n, m = cache.lambda_s.size, cache.lambda_t.size
    q = np.kron(dct_basis(m, np.arange(m), np.arange(m)), dct_basis(n, np.arange(n), np.arange(n)))
    denom = cache.lambda_s[:, None] + cache.lambda_t[None, :]
    denom[0, 0] = 1.0
    mult = 1.0 / denom
    mult[0, 0] = 0.0
    root = np.sqrt(pc.tau * mult).ravel(order="F")
    slack = np.concatenate([pc.slack_v.ravel(order="F"), pc.slack_h.ravel(order="F")])
    nu = root.size
    out = np.zeros((nu + slack.size, nu + slack.size))
    out[:nu, :nu] = (q * root) @ q.T
    out[nu:, nu:] = np.diag(1.0 / np.sqrt(slack))
    return out


def random_diagonal_weights(n, m, delta, seed):
    """Diagonal weight arc grids with entries uniform in (0, 1/delta]."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    hi = 1.0 / delta
    dv = (1.0 - rng.random((n - 1, m))) * hi
    dh = (1.0 - rng.random((n, m - 1))) * hi
    return ArcField(dv, dh)


def conditioning_report(n, m, delta, tau, seed):
    """Eigenvalue and conditioning comparison of A versus C* A C*.

    Raises ValueError before any dense work for a grid with a side below 1 or
    without arcs (1 x 1), for a seed outside [0, 2^64), or above
    ``DENSE_CELL_LIMIT`` cells; and after it for a spectrum that
    ``positive_eigenvalues`` cannot resolve.
    """
    if n < 1 or m < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {n} x {m}")
    if n == m == 1:
        raise ValueError("a 1 x 1 grid has no arcs")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed}")
    _check_cells(n, m)
    d = random_diagonal_weights(n, m, delta, seed)
    a = materialize_dense_system(n, m, d, tau)
    c_star = split_pseudo_sqrt(build_preconditioner(build_spectral_cache(n, m), d, tau))

    eig_a = positive_eigenvalues(a)
    eig_pre = positive_eigenvalues(c_star @ a @ c_star)
    kappa_a = float(eig_a[-1] / eig_a[0])
    kappa_pre = float(eig_pre[-1] / eig_pre[0])
    return ConditioningReport(
        n=n,
        m=m,
        eig_a=eig_a,
        eig_pre=eig_pre,
        kappa_a=kappa_a,
        kappa_pre=kappa_pre,
        rho_a=float(_cg_rate(kappa_a)),
        rho_pre=float(_cg_rate(kappa_pre)),
    )
