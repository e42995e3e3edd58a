"""Phase grids: wrapping, wrapped gradients, error metrics, congruence rounding.

Grids are plain 2-D float64 arrays in radians.  A grid is "wrapped" when every
value lies in ``[0, 2*pi)``.  Gradients are reduced to the symmetric principal
interval ``[-pi, pi)`` so that scenes whose true neighbor differences stay
below pi in magnitude produce zero-residual gradients.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "ArcField",
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
class ArcField:
    """One grid per arc direction of an (N, M) grid: v is (N-1, M), h is (N, M-1).

    Iterating yields ``(v, h)``, so ``zip`` over several fields walks both
    directions in that order.
    """

    v: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if self.v.ndim != 2 or self.h.ndim != 2:
            raise ValueError("arc fields must be 2-D")
        if self.v.shape[0] + 1 != self.h.shape[0] or self.v.shape[1] != self.h.shape[1] + 1:
            raise ValueError(f"inconsistent arc shapes {self.v.shape} / {self.h.shape}")

    def __iter__(self):
        yield self.v
        yield self.h

    @staticmethod
    def empty(n, m):
        """Uninitialized arc grids of an (n, m) grid."""
        return ArcField(np.empty((n - 1, m)), np.empty((n, m - 1)))

    @property
    def shape(self):
        """Shape (N, M) of the source grid."""
        return (self.h.shape[0], self.v.shape[1])


class WeightField(ArcField):
    """Nonnegative, finite arc weights with at least one positive."""

    def __post_init__(self):
        super().__post_init__()
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.h))):
            raise ValueError("weights must be finite")
        if np.any(self.v < 0) or np.any(self.h < 0):
            raise ValueError("weights must be nonnegative")
        if (self.v.size or self.h.size) and not (np.any(self.v > 0) or np.any(self.h > 0)):
            raise ValueError("at least one weight must be positive")

    @classmethod
    def uniform(cls, n, m):
        """Unit weights of an (n, m) grid, as read-only views of one scalar."""
        return cls(np.broadcast_to(1.0, (n - 1, m)), np.broadcast_to(1.0, (n, m - 1)))

    @property
    def max_weight(self):
        cmax = 0.0
        for c in self:
            if c.size:
                cmax = max(cmax, float(c.max()))
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
    if arr.min() < 0.0 or arr.max() >= TWO_PI:
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
    # y = arr - 2*pi * floor((arr - lo) / 2*pi), each step in the one buffer y
    y = np.subtract(arr, lo, out=np.empty_like(arr))
    y /= TWO_PI
    np.floor(y, out=y)
    y *= TWO_PI
    np.subtract(arr, y, out=y)
    # floor may land one period off when (x - lo) sits on a multiple of 2*pi.
    # Moving up first: a tiny negative below lo = 0 gains 2*pi and rounds to
    # exactly 2*pi, which the move down then brings to 0
    np.add(y, TWO_PI, out=y, where=y < lo)
    np.subtract(y, TWO_PI, out=y, where=y >= lo + TWO_PI)
    if np.isscalar(x) or arr.ndim == 0:
        return float(y)
    return y


def wrapped_gradients(x):
    """Neighbor differences of a wrapped grid, reduced into [-pi, pi)."""
    arr = validate_wrapped(x)
    return ArcField(*map(wrap_to_principal, kernels.diffs(arr, *ArcField.empty(*arr.shape))))


def shift_error(u, x_u):
    """Error of estimate ``u`` against reference ``x_u`` under the best shift.

    The shift ``alpha`` minimizing ``||x_u - (u + alpha)||`` is the mean of
    ``x_u - u``.  Every reported quantity is computed from the shifted error
    grid and is therefore invariant under adding a constant to ``u``.  A pixel
    counts as congruent when its shifted error is within 1e-3 cycles of an
    integer multiple of 2*pi.  Raises ValueError when the shift or the RMSE
    overflows float64.
    """
    ua = as_phase_grid(u)
    xa = as_phase_grid(x_u)
    if ua.shape != xa.shape:
        raise ValueError(f"dimension mismatch: {ua.shape} vs {xa.shape}")
    # an overflow is reported once, as the error below, not as a warning per step
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = float(np.mean(xa - ua))
        err = xa - (ua + alpha)
        rmse = float(np.sqrt(np.mean(err * err)))
    if not (np.isfinite(alpha) and np.isfinite(rmse)):
        raise ValueError(f"the error overflows float64: shift {alpha}, rmse {rmse}")
    cycles = err / TWO_PI
    frac = np.abs(cycles - np.rint(cycles))
    return ErrorReport(
        alpha=alpha,
        error_grid=err,
        max_abs=float(np.max(np.abs(err))) if err.size else 0.0,
        rmse=rmse,
        congruent_fraction=float(np.mean(frac <= 1e-3)),
    )


def congruent_round(u, x):
    """Snap ``u`` to the nearest grid congruent to ``x`` modulo 2*pi."""
    ua = as_phase_grid(u)
    xa = as_phase_grid(x)
    if ua.shape != xa.shape:
        raise ValueError(f"dimension mismatch: {ua.shape} vs {xa.shape}")
    return xa + TWO_PI * np.rint((ua - xa) / TWO_PI)
