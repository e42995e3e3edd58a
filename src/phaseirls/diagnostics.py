"""The paper's block formulation, matrix-free.

The paper states each weighted least squares step as a block system A x = b
in the triple x = (u, vv, vh), one ``objective.SystemVector``, with the
block-diagonal preconditioner D: the spectral Sylvester solve on u and
diagonal divisions on the slacks.  ``irls.unwrap`` solves the reduced system
in u alone instead (``objective``), so the block map ``apply_system``, its
right-hand side ``build_rhs`` and D (``build_preconditioner``,
``apply_preconditioner``) run only in the tests and acceptance criteria.
The package forms no dense matrix: the dense system matrix, the dense
preconditioner and the spectrum study of A against D^(+1/2) A D^(+1/2) are
test oracles in ``tests/oracles.py``.  The conditioning of the systems that
``unwrap`` does solve is in its trace, as each PCG solve's Ritz values.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .objective import ModelParams, SystemVector
from .phase import ArcField
from .preconditioner import SpectralCache, sylvester_solve

__all__ = [
    "PreconditionerState",
    "apply_system",
    "build_rhs",
    "build_preconditioner",
    "apply_preconditioner",
]

def apply_system(x, d, p, *, out):
    """Apply the symmetric PSD block map of the weighted least squares system.

    ``d`` is the ArcField of diagonal slack weights (dv, dh).  Writes into
    ``out`` and returns it; ``out`` must not alias ``x``.  The result is the
    triple

      (1/tau) * (StS u + u TTt - St vv - vh Tt)
      dv * vv + (1/tau) * (vv - S u)
      dh * vh + (1/tau) * (vh - u T)

    with tau = ``p.tau``.

    The map annihilates (c*1, 0, 0), so its nullspace contains the constant
    mode of the u block.
    """
    # the residual for the data g = 0; x - 0.0 == x, so this is A x bit for bit
    kernels.apply_system_blocks(
        x.u, x.vv, x.vh, d.v * x.vv, d.h * x.vh, 0.0, 0.0, 1.0 / p.tau, out.u, out.vv, out.vh
    )
    return out


def build_rhs(g: ArcField, p, *, out):
    """Right-hand side of the system; orthogonal to the constant-u mode.

    Writes into the SystemVector ``out``.
    """
    inv_tau = 1.0 / p.tau
    kernels.adj_diffs(g.v, g.h, out.u)
    out.u *= inv_tau
    np.multiply(-inv_tau, g.v, out=out.vv)
    np.multiply(-inv_tau, g.h, out=out.vh)
    return out


@dataclass(frozen=True)
class PreconditionerState:
    """Spectral cache plus the diagonal slack divisors dv + 1/tau, dh + 1/tau, tau = p.tau."""

    cache: SpectralCache
    slack_v: np.ndarray
    slack_h: np.ndarray
    p: ModelParams


def build_preconditioner(cache, d: ArcField, p):
    inv_tau = 1.0 / p.tau
    return PreconditionerState(cache=cache, slack_v=d.v + inv_tau, slack_h=d.h + inv_tau, p=p)


def apply_preconditioner(r: SystemVector, pc: PreconditionerState, *, out):
    """Pseudo-inverse of the block-diagonal preconditioner applied to ``r``.

    Writes into the SystemVector ``out`` and returns it; ``out`` must not
    alias ``r``.
    """
    sylvester_solve(r.u, pc.p, pc.cache, out=out.u, scratch=np.empty(r.u.shape))
    np.divide(r.vv, pc.slack_v, out=out.vv)
    np.divide(r.vh, pc.slack_h, out=out.vh)
    return out
