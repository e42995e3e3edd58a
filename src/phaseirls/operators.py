"""The block system map and its reduction, all matrix-free.

The unknown is kept in matrix layout as a triple (u, vv, vh) of grids, one
``SystemVector``; no map here forms a matrix, and the difference maps S and
T are the ``kernels`` stencils.  For fixed diagonal weights d each slack has
a closed-form minimizer given u, ``vv = (S u - gv) / (1 + tau dv)`` and
likewise vh, so the block system reduces to the weighted Poisson problem in
u alone

  St (Wv * S u) + (Wh * u T) Tt = St (Wv * gv) + (Wh * gh) Tt,
  W = d / (1 + tau d) = c^2 / (w + tau c^2) <= 1/tau,

the classical weighted least squares unwrapping system (Ghiglia & Romero,
JOSA A 11(1), 1994).  The solver runs its conjugate gradient on this system,
whose map is ``kernels.weighted_laplacian`` with the weights W; the block map
and ``build_rhs`` stay as the paper's formulation and are off the solve path,
whose safeguard step takes the residual A x - b from
``kernels.apply_system_blocks`` directly.
The gradients g, the weights c and w, and the diagonals d and W are
``phase.ArcField`` pairs (v, h).  Each map writes into buffers its caller
owns, passed by keyword: ``out`` and, for the reduced system, ``flux``, a
pair of scratch grids shaped like (vv, vh).  The dense matrix of the block
map, for small instances, is ``diagnostics.materialize_dense_system``.
"""

import numpy as np

from . import kernels
from .phase import ArcField

__all__ = [
    "SystemVector",
    "apply_system",
    "build_rhs",
    "reduced_weights",
    "build_reduced_rhs",
    "recover_slacks",
]


class SystemVector:
    """Triple (u, vv, vh) of grids viewed as one vector of the block system.

    The vector owns one contiguous float64 buffer ``data``; ``u``, ``vv`` and
    ``vh`` are reshaped views into it, so vector algebra is plain numpy on
    ``data``.  The constructor copies its inputs.
    """

    __slots__ = ("data", "u", "vv", "vh")

    def __init__(self, u, vv, vh):
        n, m = np.shape(u)
        if ArcField(np.asarray(vv), np.asarray(vh)).shape != (n, m):
            raise ValueError(
                f"inconsistent block shapes: u {np.shape(u)}, "
                f"vv {np.shape(vv)}, vh {np.shape(vh)}"
            )
        self._bind(np.empty(_system_dim(n, m)), n, m)
        self.u[...] = u
        self.vv[...] = vv
        self.vh[...] = vh

    def _bind(self, data, n, m):
        nu = n * m
        nv = (n - 1) * m
        self.data = data
        self.u = data[:nu].reshape(n, m)
        self.vv = data[nu : nu + nv].reshape(n - 1, m)
        self.vh = data[nu + nv :].reshape(n, m - 1)

    @classmethod
    def from_buffer(cls, data, n, m):
        """Vector whose blocks are views into the flat ``data``; nothing is copied."""
        if data.shape != (_system_dim(n, m),):
            raise ValueError(f"buffer of shape {data.shape} does not fit an ({n}, {m}) grid")
        out = cls.__new__(cls)
        out._bind(data, n, m)
        return out

    @classmethod
    def zeros(cls, n, m):
        return cls.from_buffer(np.zeros(_system_dim(n, m)), n, m)

    @property
    def shape(self):
        return self.u.shape

    def copy(self):
        return SystemVector.from_buffer(self.data.copy(), *self.shape)


def _system_dim(n, m):
    return n * m + (n - 1) * m + n * (m - 1)


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


def reduced_weights(c, w, tau, *, out, flux):
    """Weights ``c^2 / (w + tau c^2)`` of the reduced system; 0 where c = 0.

    ``c`` holds the arc weights, ``w`` the auxiliary weights.  Writes into
    the ArcField ``out``; ``flux`` is a pair of scratch grids shaped like
    (vv, vh).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    for cc, ww, o, f in zip(c, w, out, flux):
        np.multiply(cc, cc, out=o)
        # f = w + tau c^2, the denominator
        np.multiply(o, tau, out=f)
        f += ww
        o /= f
    return out


def build_reduced_rhs(g: ArcField, wr, *, out, flux):
    """Right-hand side ``St (Wv * gv) + (Wh * gh) Tt`` of the reduced system.

    ``wr`` holds the reduced weights.  The result sums to zero, so it is
    orthogonal to the constant mode.  Writes into the grid ``out``; ``flux``
    is scratch as for ``reduced_weights``.
    """
    for ww, gg, f in zip(wr, g, flux):
        np.multiply(ww, gg, out=f)
    return kernels.adj_diffs(*flux, out)


def recover_slacks(u, g: ArcField, wr, tau, *, out, flux):
    """The triple (u, vv, vh) with each slack at its minimizer given ``u``.

    ``vv = (S u - gv) * (1 - tau Wv)`` and ``vh = (u T - gh) * (1 - tau Wh)``.
    Writes into the SystemVector ``out``; ``flux`` is scratch as for
    ``reduced_weights``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    out.u[...] = u
    kernels.diffs(u, out.vv, out.vh)
    for v, gg, ww, f in zip((out.vv, out.vh), g, wr, flux):
        v -= gg
        # v -= tau W v, the product formed in the scratch
        np.multiply(ww, tau, out=f)
        f *= v
        v -= f
    return out
