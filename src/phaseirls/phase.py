"""Phase grids: wrapping, wrapped gradients, error metrics, congruence rounding.

Grids are plain 2-D float64 arrays in radians.  A grid is "wrapped" when every
value lies in ``[0, 2*pi)``.  Gradients are reduced to the symmetric principal
interval ``[-pi, pi)`` by default so that scenes whose true neighbor
differences stay below pi in magnitude produce zero-residual gradients; the
``[0, 2*pi)`` alternative is available through the ``lo`` argument.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "GradientField",
    "WeightField",
    "ErrorReport",
    "wrap_to_principal",
    "wrapped_gradients",
    "shift_error",
    "congruent_round",
    "as_phase_grid",
    "validate_wrapped",
]


@dataclass(frozen=True)
class GradientField:
    """Wrapped neighbor differences: gv is (N-1, M), gh is (N, M-1)."""

    gv: np.ndarray
    gh: np.ndarray

    def __post_init__(self):
        if self.gv.ndim != 2 or self.gh.ndim != 2:
            raise ValueError("gradient fields must be 2-D")
        if self.gv.shape[0] + 1 != self.gh.shape[0] or self.gv.shape[1] != self.gh.shape[1] + 1:
            raise ValueError(
                f"inconsistent gradient shapes {self.gv.shape} / {self.gh.shape}"
            )

    @property
    def shape(self):
        """Shape (N, M) of the source grid."""
        return (self.gh.shape[0], self.gv.shape[1])


@dataclass(frozen=True)
class WeightField:
    """Nonnegative arc weights: cv is (N-1, M), ch is (N, M-1)."""

    cv: np.ndarray
    ch: np.ndarray

    def __post_init__(self):
        if self.cv.shape[0] + 1 != self.ch.shape[0] or self.cv.shape[1] != self.ch.shape[1] + 1:
            raise ValueError(
                f"inconsistent weight shapes {self.cv.shape} / {self.ch.shape}"
            )
        if not (np.all(np.isfinite(self.cv)) and np.all(np.isfinite(self.ch))):
            raise ValueError("weights must be finite")
        if np.any(self.cv < 0) or np.any(self.ch < 0):
            raise ValueError("weights must be nonnegative")
        if (self.cv.size or self.ch.size) and not (
            np.any(self.cv > 0) or np.any(self.ch > 0)
        ):
            raise ValueError("at least one weight must be positive")

    @classmethod
    def uniform(cls, n, m):
        return cls(np.ones((n - 1, m)), np.ones((n, m - 1)))

    @property
    def max_weight(self):
        cmax = 0.0
        if self.cv.size:
            cmax = max(cmax, float(self.cv.max()))
        if self.ch.size:
            cmax = max(cmax, float(self.ch.max()))
        return cmax


@dataclass(frozen=True)
class ErrorReport:
    """Shift-compensated comparison of an estimate against a reference grid."""

    alpha: float
    error_grid: np.ndarray
    max_abs: float
    rmse: float
    congruent_fraction: float


def as_phase_grid(values):
    """Coerce to a finite 2-D float64 array, raising ValueError otherwise."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"phase grid must be 2-D and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("phase grid contains non-finite values")
    return arr


def validate_wrapped(x):
    """Check that every value of ``x`` lies in [0, 2*pi)."""
    arr = as_phase_grid(x)
    if arr.size and (arr.min() < 0.0 or arr.max() >= TWO_PI):
        raise ValueError("wrapped phase values must lie in [0, 2*pi)")
    return arr


def wrap_to_principal(x, lo=-np.pi):
    """Reduce ``x`` modulo 2*pi into the interval [lo, lo + 2*pi).

    Accepts scalars or arrays.  ``lo`` must be 0 or -pi.  The reduction
    subtracts a single integer multiple of 2*pi, so the result differs from
    an exact representative by a few ulp at most.
    """
    if lo not in (0.0, 0, -np.pi):
        raise ValueError(f"lo must be 0 or -pi, got {lo!r}")
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot wrap non-finite values")
    k = np.floor((arr - lo) / TWO_PI)
    y = arr - TWO_PI * k
    # floor may land one period off when (x - lo) sits on a multiple of 2*pi
    y = np.where(y >= lo + TWO_PI, y - TWO_PI, y)
    y = np.where(y < lo, y + TWO_PI, y)
    if np.isscalar(x) or arr.ndim == 0:
        return float(y)
    return y


def wrapped_gradients(x, lo=-np.pi):
    """Principal-interval neighbor differences of a wrapped grid."""
    arr = validate_wrapped(x)
    n, m = arr.shape
    gv, gh = kernels.diffs(arr, np.empty((n - 1, m)), np.empty((n, m - 1)))
    if gv.size:
        gv = wrap_to_principal(gv, lo)
    if gh.size:
        gh = wrap_to_principal(gh, lo)
    return GradientField(gv=gv, gh=gh)


def shift_error(u, x_u):
    """Error of estimate ``u`` against reference ``x_u`` under the best shift.

    The shift ``alpha`` minimizing ``||x_u - (u + alpha)||`` is the mean of
    ``x_u - u``.  Every reported quantity is computed from the shifted error
    grid and is therefore invariant under adding a constant to ``u``.  A pixel
    counts as congruent when its shifted error is within 1e-3 cycles of an
    integer multiple of 2*pi.
    """
    ua = as_phase_grid(u)
    xa = as_phase_grid(x_u)
    if ua.shape != xa.shape:
        raise ValueError(f"dimension mismatch: {ua.shape} vs {xa.shape}")
    alpha = float(np.mean(xa - ua))
    err = xa - (ua + alpha)
    cycles = err / TWO_PI
    frac = np.abs(cycles - np.rint(cycles))
    return ErrorReport(
        alpha=alpha,
        error_grid=err,
        max_abs=float(np.max(np.abs(err))) if err.size else 0.0,
        rmse=float(np.sqrt(np.mean(err * err))),
        congruent_fraction=float(np.mean(frac <= 1e-3)),
    )


def congruent_round(u, x):
    """Snap ``u`` to the nearest grid congruent to ``x`` modulo 2*pi."""
    ua = as_phase_grid(u)
    xa = as_phase_grid(x)
    if ua.shape != xa.shape:
        raise ValueError(f"dimension mismatch: {ua.shape} vs {xa.shape}")
    return xa + TWO_PI * np.rint((ua - xa) / TWO_PI)
