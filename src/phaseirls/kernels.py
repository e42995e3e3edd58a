"""Hot inner-loop kernels: the arc stencil pair and the two system maps.

``diffs`` (S u and u T) and its adjoint ``adj_diffs`` are the one arc stencil
pair of the package: they write into arc and pixel grids the caller provides
and allocate no grid-sized array.  The conjugate gradient loop of
``irls.unwrap`` calls ``weighted_laplacian``, the map of the reduced system
in u, once per iteration.  ``apply_system_blocks`` is the residual A x - b of
the full (u, vv, vh) block system for the data g, formed from the coupling
residuals K u - g - v; with the data g it is the gradient of the safeguard
step (``objective.candidate_step``).  Both maps are built from that pair,
and the only grid-sized temporaries of ``apply_system_blocks`` are the
products ``dv * vv`` and ``dh * vh``.
``diff_rows`` (S u), ``diff_cols`` (u T), ``adj_diff_rows`` and
``adj_diff_cols`` are allocating forms of the same maps that no module of the
package calls; the traced benchmark run looks them up by name.
The modules of the package call the kernels as ``kernels.<name>``
attributes, looked up at call time, so a caller may rebind a module
attribute to wrap a kernel (the traced benchmark run does this to time each
layer).
"""

import numpy as np

__all__ = [
    "diff_rows",
    "diff_cols",
    "adj_diff_rows",
    "adj_diff_cols",
    "apply_system_blocks",
    "diffs",
    "adj_diffs",
    "weighted_laplacian",
    "current_backend",
]


def diff_rows(u):
    return u[1:, :] - u[:-1, :]


def diff_cols(u):
    return u[:, 1:] - u[:, :-1]


def adj_diff_rows(v):
    out = np.zeros((v.shape[0] + 1, v.shape[1]))
    out[:-1, :] -= v
    out[1:, :] += v
    return out


def adj_diff_cols(v):
    out = np.zeros((v.shape[0], v.shape[1] + 1))
    out[:, :-1] -= v
    out[:, 1:] += v
    return out


def apply_system_blocks(u, vv, vh, dv, dh, gv, gh, inv_tau, au, avv, avh):
    """The block system's residual A x - b for the data (gv, gh), in place.

    With the coupling residuals rv = S u - gv - vv and rh = u T - gh - vh,
    au = (St rv + rh Tt) / tau, avv = dv * vv - rv / tau and likewise avh.
    The data g = 0 gives the map A x alone.
    """
    # avv and avh first hold the coupling residuals
    diffs(u, avv, avh)
    avv -= gv
    avv -= vv
    avh -= gh
    avh -= vh
    adj_diffs(avv, avh, au)
    au *= inv_tau
    avv *= -inv_tau
    avv += dv * vv
    avh *= -inv_tau
    avh += dh * vh
    return au, avv, avh


def diffs(u, fv, fh):
    """fv = S u and fh = u T, both difference maps, in place."""
    np.subtract(u[1:, :], u[:-1, :], out=fv)
    np.subtract(u[:, 1:], u[:, :-1], out=fh)
    return fv, fh


def adj_diffs(fv, fh, out):
    """out = St fv + fh Tt, the adjoint of both difference maps, in place."""
    np.negative(fv, out=out[:-1, :])
    out[-1, :] = 0.0
    out[1:, :] += fv
    out[:, :-1] -= fh
    out[:, 1:] += fh
    return out


def weighted_laplacian(u, wv, wh, fv, fh, out):
    """out = St (wv * S u) + (wh * u T) Tt; fv and fh are arc-shaped scratch."""
    # fv and fh hold the weighted arc differences, then flow back to the pixels
    diffs(u, fv, fh)
    fv *= wv
    fh *= wh
    return adj_diffs(fv, fh, out)


def current_backend():
    # kept because the benchmark's environment record stores this name
    return "numpy"
