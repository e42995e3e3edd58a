"""Hot inner-loop kernels: first-difference stencils and the block system map.

The solver spends nearly all of its time applying these inside the conjugate
gradient loop.  They are plain numpy expressions.  ``operators`` and ``phase``
call them as ``kernels.<name>`` attributes, looked up at call time, so a
caller may rebind a module attribute to wrap a kernel (the traced benchmark
run does this to time each layer).
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


def apply_system_blocks(u, vv, vh, dv, dh, inv_tau):
    su = diff_rows(u)
    ut = diff_cols(u)
    au = inv_tau * (adj_diff_rows(su - vv) + adj_diff_cols(ut - vh))
    avv = dv * vv + inv_tau * (vv - su)
    avh = dh * vh + inv_tau * (vh - ut)
    return au, avv, avh


def current_backend():
    # kept because the benchmark's environment record stores this name
    return "numpy"
