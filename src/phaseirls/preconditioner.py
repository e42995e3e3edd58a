"""Spectral Sylvester solve, the preconditioner of the reduced system.

``sylvester_solve`` applies the pseudo-inverse of the scaled Kronecker-sum
Laplacian (1/tau) * (StS Z + Z TTt), with tau from its ``ModelParams``.  In
the eigenbases of the two 1-D Neumann second-difference operators this is a
pointwise product; the single (0, 0) spectral coefficient belonging to the
shared constant mode is zeroed, which keeps every iterate orthogonal to the
nullspace.  The eigenpairs are the closed-form DCT-II cosines (Ghiglia &
Romero, JOSA A 11(1), 1994), so no eigendecomposition runs.  The cache keeps
each basis only as its even and odd halves, so each transform runs four
half-size products in place of two dense ones, half the flops.  The solver
uses it as the preconditioner of the reduced system in u, whose weights are
at most 1/tau.  An apply runs in the output grid and one scratch grid, both
the caller's, and allocates no grid-sized temporaries.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralCache",
    "build_spectral_cache",
    "dct_basis",
    "sylvester_solve",
]


@dataclass(frozen=True)
class SpectralCache:
    """Eigenpairs of the two 1-D second-difference (Neumann) operators.

    The eigenvalues ``4 sin^2(pi k / 2n)`` are in closed form, ascending, with
    the leading entry exactly zero (the constant mode).  The eigenvectors are
    the orthonormal DCT-II cosines P, stored only as the two half bases of the
    symmetry ``P[n-1-i, k] = (-1)^k P[i, k]``: ``even_s = P[:ceil(n/2), 0::2]``
    and ``odd_s = P[:floor(n/2), 1::2]`` (likewise ``even_t``, ``odd_t`` for
    the m columns), so no full basis is held.  Spectral coefficients are
    ordered even-then-odd on each axis: rows even k then odd k, and the
    n x ceil(m/2) block of even column modes, row-major, then the
    n x floor(m/2) block of odd ones.  ``multiplier`` holds
    ``1 / (lambda_s[k] + lambda_t[l])`` flat in that order, its first entry,
    the constant mode, set to zero: the spectral pseudo-inverse of the
    Kronecker-sum Laplacian.
    """

    lambda_s: np.ndarray
    lambda_t: np.ndarray
    even_s: np.ndarray
    odd_s: np.ndarray
    even_t: np.ndarray
    odd_t: np.ndarray
    multiplier: np.ndarray


def _neumann_eigenvalues(n):
    """Eigenvalues of the 1-D Neumann second difference, ascending.

    ``lam_k = 4 sin^2(pi k / 2n)`` is exactly zero at k = 0 and, unlike
    ``2 - 2 cos(pi k / n)``, keeps the small eigenvalues accurate to round-off.
    """
    k = np.arange(n)
    return 4.0 * np.sin(np.pi * k / (2 * n)) ** 2


def dct_basis(n, i, k):
    """Entries ``P[i, k]`` of the length-n orthonormal DCT-II basis (Ghiglia & Romero).

    ``P[i, k] = sqrt(2/n) cos(pi (i + 1/2) k / n)``, and ``1/sqrt(n)`` for
    k = 0, for the index arrays ``i`` (rows) and ``k`` (columns); each entry
    has the same bits whichever slice of the basis is asked for.
    """
    # each step in the one buffer vecs
    vecs = np.outer(i + 0.5, k)
    np.multiply(np.pi, vecs, out=vecs)
    vecs /= n
    np.cos(vecs, out=vecs)
    np.multiply(np.sqrt(2.0 / n), vecs, out=vecs)
    vecs[:, k == 0] = 1.0 / np.sqrt(n)
    return vecs


def _half_bases(n):
    half = n // 2
    even = dct_basis(n, np.arange(n - half), np.arange(0, n, 2))
    odd = dct_basis(n, np.arange(half), np.arange(1, n, 2))
    return even, odd


def _column_blocks(grid, even_cols):
    """The even and odd column-mode blocks of the grid's buffer, each contiguous."""
    n, m = grid.shape
    flat = grid.reshape(-1)
    split = n * even_cols
    return flat[:split].reshape(n, even_cols), flat[split:].reshape(n, m - even_cols)


def _fold(x, even, odd):
    """Butterfly along axis 0: ``x[i] + x[n-1-i]`` into ``even``, ``x[i] - x[n-1-i]`` into ``odd``.

    The middle row of an odd length goes to ``even`` alone.
    """
    h = odd.shape[0]
    np.add(x[:h], x[::-1][:h], out=even[:h])
    even[h:] = x[h : even.shape[0]]
    np.subtract(x[:h], x[::-1][:h], out=odd)


def _unfold(even, odd, x):
    """Inverse butterfly along axis 0: ``even + odd`` into row i, ``even - odd`` into row n-1-i.

    The last row of ``even`` for an odd length is the middle row of ``x``.
    """
    h = odd.shape[0]
    np.add(even[:h], odd, out=x[:h])
    x[h : even.shape[0]] = even[h:]
    np.subtract(even[:h], odd, out=x[::-1][:h])
    return x


def build_spectral_cache(n, m):
    """Precompute the eigenpairs used by every Sylvester solve."""
    if n < 1 or m < 1:
        raise ValueError("grid dimensions must be >= 1")
    lam_s = _neumann_eigenvalues(n)
    lam_t = _neumann_eigenvalues(m)
    even_s, odd_s = _half_bases(n)
    even_t, odd_t = _half_bases(m)
    lam_rows = np.concatenate([lam_s[0::2], lam_s[1::2]])[:, None]
    mult = np.empty(n * m)
    blocks = _column_blocks(mult.reshape(n, m), even_t.shape[0])
    for block, lam_cols in zip(blocks, (lam_t[0::2], lam_t[1::2])):
        np.add(lam_rows, lam_cols, out=block)
    mult[0] = 1.0
    np.divide(1.0, mult, out=mult)
    mult[0] = 0.0
    return SpectralCache(
        lambda_s=lam_s,
        lambda_t=lam_t,
        even_s=even_s,
        odd_s=odd_s,
        even_t=even_t,
        odd_t=odd_t,
        multiplier=mult,
    )


def sylvester_solve(r, p, cache, *, out, scratch):
    """Solve StS Z + Z TTt = p.tau * (r - mean(r)) with mean(Z) = 0.

    The transform P_s^T r P_t and its inverse each run as four half-size
    products, two per axis: a butterfly forms ``r[i] + r[n-1-i]`` (with the
    middle row of odd n) and ``r[i] - r[n-1-i]``, which the even and the odd
    half bases map to the even and odd coefficients, and likewise over the
    columns; the inverse reverses each step, writing ``E + O`` and ``E - O``
    back to rows (columns) i and n-1-i.  This is the first stage of the fast
    DCT (Chen, Smith & Fralick, IEEE Trans. Commun. 25(9), 1977) and halves
    the flops of the dense products.  The spectral system in between is a
    pointwise product with ``cache.multiplier``, whose zero constant-mode
    entry makes it the pseudo-inverse of the singular operator.  Writes into
    the C-contiguous grid ``out`` and returns it; ``out`` may alias ``r``.
    ``scratch`` is a C-contiguous grid of the same shape that holds the
    butterflies and the half products in between; it may overlap neither
    ``r`` nor ``out``.  The apply allocates no grid-sized temporaries.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous grid")
    n, m = r.shape
    if scratch.shape != (n, m) or not scratch.flags.c_contiguous:
        raise ValueError(f"scratch must be a C-contiguous {(n, m)} grid")
    if np.may_share_memory(scratch, r) or np.may_share_memory(scratch, out):
        raise ValueError("scratch must not overlap r or out")
    he, ge = cache.even_s.shape[0], cache.even_t.shape[0]
    scratch_e, scratch_o = _column_blocks(scratch, ge)
    out_e, out_o = _column_blocks(out, ge)
    # rows: butterfly into scratch, half products into out
    _fold(r, scratch[:he], scratch[he:])
    np.matmul(cache.even_s.T, scratch[:he], out=out[:he])
    np.matmul(cache.odd_s.T, scratch[he:], out=out[he:])
    # columns: butterfly into scratch's two blocks, half products into out's
    _fold(out.T, scratch_e.T, scratch_o.T)
    np.matmul(scratch_e, cache.even_t, out=out_e)
    np.matmul(scratch_o, cache.odd_t, out=out_o)
    coef = out.reshape(-1)
    coef *= cache.multiplier
    coef *= p.tau
    # columns back: half products into scratch's blocks, butterfly into out
    np.matmul(out_e, cache.even_t.T, out=scratch_e)
    np.matmul(out_o, cache.odd_t.T, out=scratch_o)
    _unfold(scratch_e.T, scratch_o.T, out.T)
    # rows back: half products into scratch, butterfly into out
    np.matmul(cache.even_s, out[:he], out=scratch[:he])
    np.matmul(cache.odd_s, out[he:], out=scratch[he:])
    return _unfold(scratch[:he], scratch[he:], out)
