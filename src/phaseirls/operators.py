"""The block system map, its reduction, and their dense test oracles.

The unknown is kept in matrix layout as a triple (u, vv, vh) of grids, one
``SystemVector``; the system map and its building blocks never materialize a
matrix, and the difference maps S and T are the ``kernels`` stencils.  For
fixed diagonal weights d each slack has a closed-form minimizer given u,
``vv = (S u - gv) / (1 + tau dv)`` and likewise vh, so the block system
reduces to the weighted Poisson problem in u alone

  St (Wv * S u) + (Wh * u T) Tt = St (Wv * gv) + (Wh * gh) Tt,
  W = d / (1 + tau d) = c^2 / (w + tau c^2) <= 1/tau,

the classical weighted least squares unwrapping system (Ghiglia & Romero,
JOSA A 11(1), 1994).  The solver runs its conjugate gradient on this system;
the block map stays as the paper's formulation and as the gradient of the
safeguard step.  Dense materializations exist only as small-instance test
oracles and follow the column-stacking vec() convention, so
``vec(X) = X.ravel(order="F")``.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .phase import GradientField

__all__ = [
    "SizeLimitExceeded",
    "SystemVector",
    "DiagonalWeights",
    "apply_system",
    "build_rhs",
    "reduced_weights",
    "apply_reduced_system",
    "build_reduced_rhs",
    "recover_slacks",
    "arc_scratch",
    "materialize_dense_system",
    "materialize_dense_preconditioner",
]

DENSE_CELL_LIMIT = 4096


class SizeLimitExceeded(ValueError):
    """Raised when a dense oracle materialization is requested above guard size."""


class SystemVector:
    """Triple (u, vv, vh) of grids viewed as one vector of the block system.

    The vector owns one contiguous float64 buffer ``data``; ``u``, ``vv`` and
    ``vh`` are reshaped views into it, so vector algebra is plain numpy on
    ``data``.  The constructor copies its inputs.
    """

    __slots__ = ("data", "u", "vv", "vh")

    def __init__(self, u, vv, vh):
        n, m = np.shape(u)
        if np.shape(vv) != (n - 1, m) or np.shape(vh) != (n, m - 1):
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


@dataclass(frozen=True)
class DiagonalWeights:
    """Diagonal blocks of the system stored as grids, never as matrices."""

    dv: np.ndarray
    dh: np.ndarray

    def __post_init__(self):
        if self.dv.shape[0] + 1 != self.dh.shape[0] or self.dv.shape[1] != self.dh.shape[1] + 1:
            raise ValueError(
                f"inconsistent diagonal shapes {self.dv.shape} / {self.dh.shape}"
            )


def apply_system(x, d, tau, out=None):
    """Apply the symmetric PSD block map of the weighted least squares system.

    Writes into ``out`` (a new vector when omitted) and returns it; ``out``
    must not alias ``x``.  The result is the triple

      (1/tau) * (StS u + u TTt - St vv - vh Tt)
      dv * vv + (1/tau) * (vv - S u)
      dh * vh + (1/tau) * (vh - u T)

    The map annihilates (c*1, 0, 0), so its nullspace contains the constant
    mode of the u block.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if out is None:
        out = SystemVector.zeros(*x.shape)
    kernels.apply_system_blocks(
        x.u, x.vv, x.vh, d.dv, d.dh, 1.0 / tau, out.u, out.vv, out.vh
    )
    return out


def build_rhs(g: GradientField, tau, out=None):
    """Right-hand side of the system; orthogonal to the constant-u mode.

    Writes into the SystemVector ``out`` (a new vector when omitted).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    inv_tau = 1.0 / tau
    if out is None:
        out = SystemVector.zeros(g.gh.shape[0], g.gv.shape[1])
    kernels.adj_diffs(g.gv, g.gh, out.u)
    out.u *= inv_tau
    np.multiply(-inv_tau, g.gv, out=out.vv)
    np.multiply(-inv_tau, g.gh, out=out.vh)
    return out


def arc_scratch(pair, av, ah):
    """``pair``, or when it is None a new pair of grids shaped like ``av`` and ``ah``."""
    if pair is None:
        pair = (np.empty(av.shape), np.empty(ah.shape))
    return pair


def reduced_weights(c, w, tau, out=None, flux=None):
    """Weights ``c^2 / (w + tau c^2)`` of the reduced system; 0 where c = 0.

    ``c`` holds the arc weights (cv, ch), ``w`` the auxiliary weights (wv, wh).
    Writes into the DiagonalWeights ``out`` (new grids when omitted); ``flux``
    is scratch as for ``apply_reduced_system``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if out is None:
        out = DiagonalWeights(np.empty(c.cv.shape), np.empty(c.ch.shape))
    flux = arc_scratch(flux, out.dv, out.dh)
    for cc, ww, o, f in zip((c.cv, c.ch), (w.wv, w.wh), (out.dv, out.dh), flux):
        np.multiply(cc, cc, out=o)
        # f = w + tau c^2, the denominator
        np.multiply(o, tau, out=f)
        f += ww
        o /= f
    return out


def apply_reduced_system(u, wr, out=None, flux=None):
    """Apply the reduced map ``St (Wv * S u) + (Wh * u T) Tt`` to the grid ``u``.

    ``wr`` holds the reduced weights.  Writes into ``out`` (a new grid when
    omitted), which must not alias ``u``; ``flux`` is an optional pair of
    scratch grids shaped like (Wv, Wh).  The map is symmetric PSD and
    annihilates constants.
    """
    if out is None:
        out = np.empty(np.shape(u))
    return kernels.weighted_laplacian(u, wr.dv, wr.dh, *arc_scratch(flux, wr.dv, wr.dh), out)


def build_reduced_rhs(g: GradientField, wr, out=None, flux=None):
    """Right-hand side ``St (Wv * gv) + (Wh * gh) Tt`` of the reduced system.

    Sums to zero, so it is orthogonal to the constant mode.  Writes into
    ``out`` (a new grid when omitted); ``flux`` is scratch as for
    ``apply_reduced_system``.
    """
    if out is None:
        out = np.empty((g.gh.shape[0], g.gv.shape[1]))
    fv, fh = arc_scratch(flux, wr.dv, wr.dh)
    np.multiply(wr.dv, g.gv, out=fv)
    np.multiply(wr.dh, g.gh, out=fh)
    return kernels.adj_diffs(fv, fh, out)


def recover_slacks(u, g: GradientField, wr, tau, out=None, flux=None):
    """The triple (u, vv, vh) with each slack at its minimizer given ``u``.

    ``vv = (S u - gv) * (1 - tau Wv)`` and ``vh = (u T - gh) * (1 - tau Wh)``.
    Writes into the SystemVector ``out`` (a new vector when omitted); ``flux``
    is scratch as for ``apply_reduced_system``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if out is None:
        out = SystemVector.zeros(*np.shape(u))
    out.u[...] = u
    kernels.diffs(u, out.vv, out.vh)
    flux = arc_scratch(flux, wr.dv, wr.dh)
    for v, gg, ww, f in zip((out.vv, out.vh), (g.gv, g.gh), (wr.dv, wr.dh), flux):
        v -= gg
        # v -= tau W v, the product formed in the scratch
        np.multiply(ww, tau, out=f)
        f *= v
        v -= f
    return out


# ---------------------------------------------------------------------------
# dense oracles (small instances only)
# ---------------------------------------------------------------------------

def _dense_s(n):
    s = np.zeros((n - 1, n))
    for i in range(n - 1):
        s[i, i] = -1.0
        s[i, i + 1] = 1.0
    return s


def _dense_t(m):
    t = np.zeros((m, m - 1))
    for j in range(m - 1):
        t[j, j] = -1.0
        t[j + 1, j] = 1.0
    return t


def _check_dense_size(n, m):
    if n * m > DENSE_CELL_LIMIT:
        raise SizeLimitExceeded(
            f"dense materialization limited to {DENSE_CELL_LIMIT} cells, got {n * m}"
        )


def materialize_dense_system(n, m, d, tau):
    """Dense symmetric PSD matrix of the block system, for oracle-scale tests."""
    _check_dense_size(n, m)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    s = _dense_s(n)
    t = _dense_t(m)
    i_n = np.eye(n)
    i_m = np.eye(m)
    inv_tau = 1.0 / tau
    lap = np.kron(i_m, s.T @ s) + np.kron(t @ t.T, i_n)
    ks = np.kron(i_m, s)
    kt = np.kron(t.T, i_n)
    dv_diag = np.diag(d.dv.ravel(order="F"))
    dh_diag = np.diag(d.dh.ravel(order="F"))
    return np.block(
        [
            [inv_tau * lap, -inv_tau * ks.T, -inv_tau * kt.T],
            [-inv_tau * ks, dv_diag + inv_tau * np.eye(ks.shape[0]), np.zeros((ks.shape[0], kt.shape[0]))],
            [-inv_tau * kt, np.zeros((kt.shape[0], ks.shape[0])), dh_diag + inv_tau * np.eye(kt.shape[0])],
        ]
    )


def materialize_dense_preconditioner(n, m, d, tau):
    """Dense block-diagonal preconditioner matching the same vec layout."""
    _check_dense_size(n, m)
    s = _dense_s(n)
    t = _dense_t(m)
    inv_tau = 1.0 / tau
    lap = np.kron(np.eye(m), s.T @ s) + np.kron(t @ t.T, np.eye(n))
    nv = (n - 1) * m
    nh = n * (m - 1)
    out = np.zeros((n * m + nv + nh, n * m + nv + nh))
    out[: n * m, : n * m] = inv_tau * lap
    out[n * m : n * m + nv, n * m : n * m + nv] = np.diag(
        d.dv.ravel(order="F") + inv_tau
    )
    out[n * m + nv :, n * m + nv :] = np.diag(d.dh.ravel(order="F") + inv_tau)
    return out
