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
# elements of arc differences reduced per band by ``wrapped_gradients``: 2^15
# doubles, 256 KiB, which stay cache-resident
BAND_ELEMENTS = 2**15

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
    """Nonnegative, finite arc weights with at least one positive.

    The checks read each non-empty field's minimum and maximum alone, so
    validating builds no boolean grid.  An axis of zero stride repeats one
    slice, so it is reduced at its first index alone: the read-only views of
    ``uniform`` validate in O(1).
    """

    def __post_init__(self):
        super().__post_init__()
        distinct = (c[tuple(slice(None) if s else slice(1) for s in c.strides)] for c in self)
        ranges = [(c.min(), c.max()) for c in distinct if c.size]
        if not all(_finite(lo, hi) for lo, hi in ranges):
            raise ValueError("weights must be finite")
        if any(lo < 0 for lo, _ in ranges):
            raise ValueError("weights must be nonnegative")
        if ranges and not any(hi > 0 for _, hi in ranges):
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


def _finite(lo, hi):
    """Whether an array whose minimum is ``lo`` and maximum ``hi`` is finite.

    A NaN propagates through both reductions and an infinity reaches one, so
    the two decide finiteness without a boolean array.
    """
    return bool(np.isfinite(lo) and np.isfinite(hi))


def _phase_grid_range(values):
    """``as_phase_grid``'s array with its minimum and maximum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"phase grid must be 2-D and non-empty, got shape {arr.shape}")
    lo, hi = arr.min(), arr.max()
    if not _finite(lo, hi):
        raise ValueError("phase grid contains non-finite values")
    return arr, lo, hi


def as_phase_grid(values):
    """Coerce to a finite 2-D float64 array, raising ValueError otherwise."""
    return _phase_grid_range(values)[0]


def validate_wrapped(x):
    """Check that every value of ``x`` lies in [0, 2*pi)."""
    arr, lo, hi = _phase_grid_range(x)
    if lo < 0.0 or hi >= TWO_PI:
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
    if arr.size and not _finite(arr.min(), arr.max()):
        raise ValueError("cannot wrap non-finite values")
    y = np.empty_like(arr)
    _reduce(arr, lo, y, y, np.empty(arr.shape, dtype=bool))
    if np.isscalar(x) or arr.ndim == 0:
        return float(y)
    return y


def _reduce(arr, lo, t, out, mask):
    """out = ``arr`` reduced into [lo, lo + 2*pi), the one pass of ``wrap_to_principal``.

    ``t`` holds the multiple of 2*pi and may be ``out``; ``out`` may be ``arr``.
    ``mask`` is boolean scratch of ``arr``'s shape and may share ``t``'s
    memory, which is dead once ``out`` is written.  ``arr`` must be finite.
    """
    # out = arr - 2*pi * floor((arr - lo) / 2*pi), the multiple formed in t
    np.subtract(arr, lo, out=t)
    t /= TWO_PI
    np.floor(t, out=t)
    t *= TWO_PI
    np.subtract(arr, t, out=out)
    # floor may land one period off when (x - lo) sits on a multiple of 2*pi.
    # Moving up first: a tiny negative below lo = 0 gains 2*pi and rounds to
    # exactly 2*pi, which the move down then brings to 0
    np.add(out, TWO_PI, out=out, where=np.less(out, lo, out=mask))
    np.subtract(out, TWO_PI, out=out, where=np.greater_equal(out, lo + TWO_PI, out=mask))


def wrapped_gradients(x):
    """Neighbor differences of a wrapped grid, reduced into [-pi, pi).

    Returns the two arc grids of ``x`` and allocates nothing else of grid
    size: the differences of the validated (so finite) grid are reduced in
    place, by ``wrap_to_principal``'s steps, a band of at most
    ``BAND_ELEMENTS`` elements at a time (one row where a row is longer),
    whose multiple of 2*pi and mask share one band-sized buffer.  The result
    equals ``wrap_to_principal(kernels.diffs(x, ...))`` byte for byte.
    """
    arr = validate_wrapped(x)
    g = ArcField(*kernels.diffs(arr, *ArcField.empty(*arr.shape)))
    for f in g:
        _reduce_in_bands(f)
    return g


def _reduce_in_bands(f):
    """Reduce the finite 2-D grid ``f`` into [-pi, pi) in place, band by band of rows."""
    if not f.size:
        return
    rows = max(1, BAND_ELEMENTS // f.shape[1])
    buf = np.empty(min(rows, len(f)) * f.shape[1])
    for a in range(0, len(f), rows):
        band = f[a : a + rows]
        t = buf[: band.size].reshape(band.shape)
        mask = buf.view(bool)[: band.size].reshape(band.shape)
        _reduce(band, -np.pi, t, band, mask)


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
