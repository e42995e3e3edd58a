"""Hot inner-loop kernels: first-difference stencils and the block system map.

The solver spends nearly all of its time applying these inside the conjugate
gradient loop.  They are plain numpy expressions; ``apply_system_blocks``
writes into output grids the caller provides, and its only grid-sized
temporaries are the products ``dv * vv`` and ``dh * vh``.  ``operators``
and ``phase`` call them as ``kernels.<name>`` attributes, looked up at call
time, so a caller may rebind a module attribute to wrap a kernel (the traced
benchmark run does this to time each layer).
"""

import numpy as np

__all__ = [
    "diff_rows",
    "diff_cols",
    "adj_diff_rows",
    "adj_diff_cols",
    "apply_system_blocks",
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


def apply_system_blocks(u, vv, vh, dv, dh, inv_tau, au, avv, avh):
    # avv and avh first hold the coupling residuals S u - vv and u T - vh
    np.subtract(u[1:, :], u[:-1, :], out=avv)
    avv -= vv
    np.subtract(u[:, 1:], u[:, :-1], out=avh)
    avh -= vh
    au.fill(0.0)
    au[:-1, :] -= avv
    au[1:, :] += avv
    au[:, :-1] -= avh
    au[:, 1:] += avh
    au *= inv_tau
    avv *= -inv_tau
    avv += dv * vv
    avh *= -inv_tau
    avh += dh * vh
    return au, avv, avh


def current_backend():
    # kept because the benchmark's environment record stores this name
    return "numpy"
