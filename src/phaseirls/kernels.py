"""Hot inner-loop kernels: the arc stencil pair, the arc misfit and the two system maps.

``diffs`` (S u and u T) and its adjoint ``adj_diffs`` are the one arc stencil
pair of the package: they write into arc and pixel grids the caller provides
and allocate no grid-sized array.  ``misfit`` is the arc misfit K u - g, the
differences less the data, and the one place the package forms it: the
block residual below, the coupling penalty of the objectives and the slack
recovery all start from it.  The conjugate gradient loop of
``irls.unwrap`` calls ``weighted_laplacian``, the map of the reduced system
in u, once per iteration.  ``apply_system_blocks`` is the residual A x - b of
the full (u, vv, vh) block system for the data g, formed from the coupling
residuals K u - g - v, the misfit less the slacks; with the data g it is the
gradient of the safeguard step (``objective.candidate_step``).  Both maps
are built from that pair and write into buffers their caller owns;
``apply_system_blocks`` takes the slack products ``d * v`` ready-made, so
neither map allocates grid-sized temporaries.
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
    "misfit",
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


def apply_system_blocks(u, vv, vh, dvv, dvh, gv, gh, inv_tau, au, avv, avh):
    """The block system's residual A x - b for the data (gv, gh), in place.

    With the coupling residuals rv = S u - gv - vv and rh = u T - gh - vh,
    which are ``misfit`` less the slacks,
    au = (St rv + rh Tt) / tau, avv = dvv - rv / tau and likewise avh, where
    ``dvv = dv * vv`` and ``dvh = dh * vh`` are the slack products of the
    diagonal weights d, which the caller forms.  The data g = 0 gives the
    map A x alone.
    """
    # avv and avh first hold the coupling residuals
    misfit(u, gv, gh, avv, avh)
    avv -= vv
    avh -= vh
    adj_diffs(avv, avh, au)
    au *= inv_tau
    avv *= -inv_tau
    avv += dvv
    avh *= -inv_tau
    avh += dvh
    return au, avv, avh


def diffs(u, fv, fh):
    """fv = S u and fh = u T, both difference maps, in place."""
    np.subtract(u[1:, :], u[:-1, :], out=fv)
    np.subtract(u[:, 1:], u[:, :-1], out=fh)
    return fv, fh


def misfit(u, gv, gh, fv, fh):
    """fv = S u - gv and fh = u T - gh, the arc misfit K u - g, in place."""
    diffs(u, fv, fh)
    fv -= gv
    fh -= gh
    return fv, fh


def adj_diffs(fv, fh, out):
    """out = St fv + fh Tt, the adjoint of both difference maps, in place.

    The row part ``out[i] = fv[i-1] - fv[i]`` is one pass over the interior
    rows; the first and last rows, which meet one vertical arc each, are
    ``-fv[0]`` and ``fv[-1] + 0.0`` (the ``+ 0.0`` turns -0.0 into 0.0, as
    a sum with a zero row would).  A one-row grid has no vertical arcs.
    """
    if len(fv):
        np.subtract(fv[:-1], fv[1:], out=out[1:-1])
        np.negative(fv[0], out=out[0])
        np.add(fv[-1], 0.0, out=out[-1])
    else:
        out[:] = 0.0
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
