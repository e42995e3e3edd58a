"""The system vector and the reduced weighted Poisson system, all matrix-free.

The unknown is kept in matrix layout as a triple (u, vv, vh) of grids, one
``SystemVector``; no map here forms a matrix, and the difference maps S and
T are the ``kernels`` stencils.  For fixed diagonal weights d each slack has
a closed-form minimizer given u, ``vv = (S u - gv) / (1 + tau dv)`` and
likewise vh, so the weighted least squares problem reduces to one in u alone

  St (Wv * S u) + (Wh * u T) Tt = St (Wv * gv) + (Wh * gh) Tt,
  W = d / (1 + tau d) = c^2 / (w + tau c^2) <= 1/tau,

the classical weighted least squares unwrapping system (Ghiglia & Romero,
JOSA A 11(1), 1994).  The solver runs its conjugate gradient on this system,
whose map is ``kernels.weighted_laplacian`` with the weights W.
The gradients g, the weights c and w, and the diagonals d and W are
``phase.ArcField`` pairs (v, h).  Each function writes into buffers its
caller owns, passed by keyword: ``out`` and ``flux``, a pair of scratch
grids shaped like (vv, vh).
"""

import numpy as np

from . import kernels
from .phase import ArcField

__all__ = [
    "SystemVector",
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
