"""Dense spectral study of the system and its preconditioned counterpart.

For oracle-scale grids this materializes the system matrix A and the block
preconditioner D with random diagonal weights drawn uniformly from
(0, 1/delta], forms the symmetric split pseudo square root C* of D with the
shared constant mode dropped, and compares the positive spectra of A and
C* A C*.  The condition number kappa uses the ratio of the largest to the
smallest strictly positive eigenvalue and feeds the CG rate estimate
rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1).
"""

from dataclasses import dataclass

import numpy as np

from .operators import SizeLimitExceeded, materialize_dense_preconditioner, materialize_dense_system
from .phase import ArcField

__all__ = ["ConditioningReport", "conditioning_report", "positive_eigenvalues"]

DIAG_CELL_LIMIT = 1024

# dense eigensolver noise floor for classifying an eigenvalue as zero
_NULL_THRESHOLD = 1e-10


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
        return {
            "n": self.n,
            "m": self.m,
            "kappa_a": self.kappa_a,
            "kappa_pre": self.kappa_pre,
            "rho_a": self.rho_a,
            "rho_pre": self.rho_pre,
            "eig_a": self.eig_a.tolist(),
            "eig_pre": self.eig_pre.tolist(),
        }


def positive_eigenvalues(matrix):
    """Ascending eigenvalues above the relative nullspace threshold."""
    vals = np.linalg.eigvalsh(matrix)
    cutoff = _NULL_THRESHOLD * max(vals.max(), 1.0)
    return vals[vals > cutoff]


def _cg_rate(kappa):
    root = np.sqrt(kappa)
    return (root - 1.0) / (root + 1.0)


def split_pseudo_sqrt(matrix):
    """C* with eigenvalues gamma_i^(-1/2), the zero mode dropped."""
    gam, vecs = np.linalg.eigh(matrix)
    cutoff = _NULL_THRESHOLD * max(gam.max(), 1.0)
    keep = gam > cutoff
    return (vecs[:, keep] / np.sqrt(gam[keep])) @ vecs[:, keep].T


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
    without arcs (1 x 1), for a seed outside [0, 2^64), or above the size guard.
    """
    if n < 1 or m < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {n} x {m}")
    if n == m == 1:
        raise ValueError("a 1 x 1 grid has no arcs")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed}")
    if n * m > DIAG_CELL_LIMIT:
        raise SizeLimitExceeded(
            f"conditioning report limited to {DIAG_CELL_LIMIT} cells, got {n * m}"
        )
    d = random_diagonal_weights(n, m, delta, seed)
    a = materialize_dense_system(n, m, d, tau)
    dmat = materialize_dense_preconditioner(n, m, d, tau)
    c_star = split_pseudo_sqrt(dmat)
    pre = c_star @ a @ c_star

    eig_a = positive_eigenvalues(a)
    eig_pre = positive_eigenvalues(pre)
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
