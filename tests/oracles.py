"""Independent brute-force constructions used as test oracles.

Everything here is deliberately built from first principles (index rules,
eye-shifts, scalar loops, dense linear algebra) so it shares no code with
the implementations it checks.  The exceptions are ``pcg_solve_blocks``, an
adapter that runs the solver's array PCG on the full block system;
``weights_of``, ``h_delta_of`` and ``step_of``, which call the solver's
weight update, lifted objective and gradient step with new buffers;
``sufficient_decrease_holds``, which compares against that gradient step;
the outer-loop replays at the end, which rerun ``unwrap`` to recover the
states it held; ``unwrap_eager_safeguard``, the outer loop written out
with the candidate's h evaluated at every iteration, and
``replay_outer_iteration``, one more of its iterations from the state
``unwrap`` returned; and the allocating forms
(``wrap_to_principal_allocating``, ``spectral_cache_allocating`` and
``apply_system_without_data``), the formulas of in-place code as first
written, which that code must match bit for bit.  Likewise
``pcg_solve_direction_at_budget``, the PCG loop that still forms a search
direction after its last budgeted iteration, and ``adj_diffs_five_pass``,
the adjoint stencil with its row part in three passes, are the earlier forms
of ``pcg_solve`` and ``kernels.adj_diffs``, which those must match bit for
bit.  ``scale_by_whole_multiplier`` is the spectral scale of
``preconditioner.sylvester_solve`` as it was while the cache held the whole
n x m multiplier, built here by ``pseudo_inverse_multiplier``; the banded
scale must match it bit for bit.  ``sylvester_solve_dense``
is the Sylvester solve with the full DCT-II bases, two dense products each
way, which the even/odd split must match to round-off.

The dense matrices the package no longer forms live here too:
``materialize_dense_system`` and the spectrum study ``conditioning_report``,
under one limit of ``DENSE_CELL_LIMIT`` cells.  The study's closed-form
``C* = D^(+1/2)`` is built from the solver's block preconditioner state and
DCT basis, and ``TestClosedFormSplit`` checks it against the ``eigh``-based
``split_pseudo_sqrt``.  ``preconditioned_spectrum`` forms the dense matrices
of the maps it is given, one apply per column, and ``lanczos_tridiagonal``
the dense T_k whose extremes ``pcg.ritz_extremes`` finds by bisection.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from phaseirls import irls, kernels, preconditioner
from phaseirls.diagnostics import build_preconditioner
from phaseirls.irls import (
    CG_REL_TOL,
    MAX_CG_ITERS,
    IrlsParams,
    IterationRecord,
    next_budget,
    start_state,
    unwrap,
)
from phaseirls.objective import (
    SystemVector,
    candidate_step,
    eval_h_delta,
    eval_h_delta_refreshed,
    lipschitz_constant,
    update_weights,
)
from phaseirls.pcg import NumericalBreakdown, PcgOutcome, pcg_solve
from phaseirls.phase import TWO_PI, ArcField, WeightField, wrapped_gradients
from phaseirls.preconditioner import SpectralCache, build_spectral_cache, dct_basis


def dense_s(n):
    """First-difference matrix of shape (n-1, n) via shifted identities."""
    return np.eye(n - 1, n, k=1) - np.eye(n - 1, n)


def dense_t(m):
    """Column-difference matrix of shape (m, m-1): entry 1 at i == j+1, -1 at i == j."""
    t = np.zeros((m, m - 1))
    for i in range(m):
        for j in range(m - 1):
            if i == j + 1:
                t[i, j] = 1.0
            elif i == j:
                t[i, j] = -1.0
    return t


def dense_arc_map(n, m):
    """K = [I_m (x) S; Tt (x) I_n]: all arc differences of vec(u), stacked."""
    return np.vstack([np.kron(np.eye(m), dense_s(n)), np.kron(dense_t(m).T, np.eye(n))])


def vec(a):
    """Column-stacking vectorization."""
    return np.asarray(a).ravel(order="F")


def stack_system(x: SystemVector):
    """Column-stack (u, vv, vh) into one flat vector matching the dense layout."""
    return np.concatenate([vec(x.u), vec(x.vv), vec(x.vh)])


def unstack_system(flat, n, m):
    """Inverse of ``stack_system`` for an (n, m) grid."""
    nu = n * m
    nv = (n - 1) * m
    u = flat[:nu].reshape((n, m), order="F")
    vv = flat[nu : nu + nv].reshape((n - 1, m), order="F")
    vh = flat[nu + nv :].reshape((n, m - 1), order="F")
    return SystemVector(u, vv, vh)


def arc_grids(n, m, fill=0.0):
    """A pair of grids shaped like (vv, vh) of an (n, m) grid, every entry ``fill``."""
    return np.full((n - 1, m), fill), np.full((n, m - 1), fill)


def nan_vector(n, m):
    """A SystemVector of an (n, m) grid with every entry NaN."""
    out = SystemVector.zeros(n, m)
    out.data[:] = np.nan
    return out


def weights_of(x, c, p):
    """``update_weights`` of ``x`` written into new grids."""
    return update_weights(x, c, p, out=ArcField(*arc_grids(*x.shape)))


def h_delta_of(x, w, g, c, p):
    """``eval_h_delta`` with new scratch grids."""
    return eval_h_delta(x, w, g, c, p, scratch=arc_grids(*x.shape))


def step_of(x, w, g, c, p, lipschitz):
    """``candidate_step`` from ``x`` written into a new vector."""
    n, m = x.shape
    step, _ = candidate_step(
        x, w, g, c, p, lipschitz, out=SystemVector.zeros(n, m), scratch=arc_grids(n, m)
    )
    return step


def wrap_to_principal_allocating(x, lo):
    """``phase.wrap_to_principal`` of an array as first written, one new array per step."""
    arr = np.asarray(x, dtype=np.float64)
    k = np.floor((arr - lo) / TWO_PI)
    y = arr - TWO_PI * k
    y = np.where(y >= lo + TWO_PI, y - TWO_PI, y)
    return np.where(y < lo, y + TWO_PI, y)


def eig_neumann_allocating(n):
    """The closed-form Neumann eigenpairs with the full n x n DCT-II basis."""
    k = np.arange(n)
    vals = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
    vecs = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    vecs[:, 0] = 1.0 / np.sqrt(n)
    return vals, vecs


def pseudo_inverse_multiplier(lam_s, lam_t):
    """1 / (lam_s[i] + lam_t[j]) with the constant-mode (0, 0) entry zero."""
    denom = lam_s[:, None] + lam_t[None, :]
    denom[0, 0] = 1.0
    mult = 1.0 / denom
    mult[0, 0] = 0.0
    return mult


def even_odd_coefficients(grid):
    """A grid of natural-order spectral coefficients, flat in the cache's order.

    Rows are taken even modes then odd; the block of even column modes,
    row-major, precedes the block of odd ones.
    """
    rows = np.concatenate([grid[0::2], grid[1::2]])
    return np.concatenate([rows[:, 0::2].ravel(), rows[:, 1::2].ravel()])


def spectral_cache_allocating(n, m):
    """``preconditioner.build_spectral_cache`` from slices of the full bases."""
    lam_s, p_s = eig_neumann_allocating(n)
    lam_t, p_t = eig_neumann_allocating(m)
    return SpectralCache(
        lambda_s=lam_s,
        lambda_t=lam_t,
        even_s=p_s[: (n + 1) // 2, 0::2],
        odd_s=p_s[: n // 2, 1::2],
        even_t=p_t[: (m + 1) // 2, 0::2],
        odd_t=p_t[: m // 2, 1::2],
    )


def scale_by_whole_multiplier(out_e, out_o, cache, p, scratch):
    """``preconditioner._scale`` as a product with the whole flat multiplier, then with tau."""
    mult = even_odd_coefficients(pseudo_inverse_multiplier(cache.lambda_s, cache.lambda_t))
    for block, part in ((out_e, mult[: out_e.size]), (out_o, mult[out_e.size :])):
        coef = block.reshape(-1)
        coef *= part
        coef *= p.tau


def sylvester_solve_dense(r, tau):
    """``preconditioner.sylvester_solve`` as two dense products each way with the full bases."""
    n, m = r.shape
    lam_s, p_s = eig_neumann_allocating(n)
    lam_t, p_t = eig_neumann_allocating(m)
    coef = (p_s.T @ r) @ p_t
    coef *= pseudo_inverse_multiplier(lam_s, lam_t)
    coef *= tau
    return (p_s @ coef) @ p_t.T


def adj_diffs_five_pass(fv, fh, out):
    """``kernels.adj_diffs`` with its row part as negate, zero and add."""
    np.negative(fv, out=out[:-1, :])
    out[-1, :] = 0.0
    out[1:, :] += fv
    out[:, :-1] -= fh
    out[:, 1:] += fh
    return out


def apply_system_without_data(x, d, tau):
    """``diagnostics.apply_system`` as written before the block kernel took the data g."""
    inv_tau = 1.0 / tau
    rv, rh = kernels.diffs(x.u, *arc_grids(*x.shape))
    rv -= x.vv
    rh -= x.vh
    au = kernels.adj_diffs(rv, rh, np.empty(x.shape))
    au *= inv_tau
    rv *= -inv_tau
    rv += d.v * x.vv
    rh *= -inv_tau
    rh += d.h * x.vh
    return SystemVector(au, rv, rh)


def arc_count(n, m):
    """Number of arcs of an (n, m) grid: (n-1)*m + n*(m-1)."""
    return (n - 1) * m + n * (m - 1)


def materialize_dense_preconditioner(n, m, d, tau):
    """Dense block-diagonal preconditioner: (1/tau) Kt K on u, diag(d + 1/tau) on the slacks."""
    k = dense_arc_map(n, m)
    nu = n * m
    out = np.zeros((nu + k.shape[0], nu + k.shape[0]))
    out[:nu, :nu] = (1.0 / tau) * (k.T @ k)
    out[nu:, nu:] = np.diag(np.concatenate([vec(d.v), vec(d.h)]) + 1.0 / tau)
    return out


def split_sqrt(matrix):
    """C with eigenvalues gamma_i^(1/2), the zero mode dropped (relative cutoff 1e-10)."""
    gam, vecs = np.linalg.eigh(matrix)
    keep = gam > 1e-10 * max(gam.max(), 1.0)
    return (vecs[:, keep] * np.sqrt(gam[keep])) @ vecs[:, keep].T


def split_pseudo_sqrt(matrix):
    """C* with eigenvalues gamma_i^(-1/2), the zero mode dropped (relative cutoff 1e-10)."""
    gam, vecs = np.linalg.eigh(matrix)
    keep = gam > 1e-10 * max(gam.max(), 1.0)
    return (vecs[:, keep] / np.sqrt(gam[keep])) @ vecs[:, keep].T


DENSE_CELL_LIMIT = 1024

# smallest-to-largest ratio of kept eigenvalues that eigvalsh, accurate to about
# 1e-16 of the largest, still resolves to a few digits
RESOLVABLE_RATIO = 1e-10


class SizeLimitExceeded(ValueError):
    """Raised when a dense matrix is requested for more than ``DENSE_CELL_LIMIT`` cells."""


def _check_cells(n, m):
    if n * m > DENSE_CELL_LIMIT:
        raise SizeLimitExceeded(
            f"dense matrices limited to {DENSE_CELL_LIMIT} cells, got {n * m}"
        )


def materialize_dense_system(n, m, d, p):
    """Dense symmetric PSD matrix of the block system.

    With K the arc map, vec(u) -> (vec(S u), vec(u T)), d the ArcField of
    diagonal slack weights and tau = p.tau,
    A = [[K^T K, -K^T], [-K, tau diag(vec(d)) + I]] / tau.
    """
    _check_cells(n, m)
    inv_tau = 1.0 / p.tau
    k = dense_arc_map(n, m)
    slack = np.concatenate([vec(d.v), vec(d.h)])
    return np.block([
        [inv_tau * (k.T @ k), -inv_tau * k.T],
        [-inv_tau * k, np.diag(slack + inv_tau)],
    ])


@dataclass(frozen=True)
class ConditioningReport:
    n: int
    m: int
    eig_a: np.ndarray
    eig_pre: np.ndarray
    kappa_a: float
    kappa_pre: float
    rho_a: float
    rho_pre: float

    def to_dict(self):
        """Each field by name as a plain Python value; the eigenvalues become lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def positive_eigenvalues(matrix):
    """Ascending eigenvalues of a PSD matrix with one null vector, the smallest dropped.

    Raises ValueError when the smallest kept eigenvalue is not above
    ``RESOLVABLE_RATIO`` times the largest.
    """
    vals = np.linalg.eigvalsh(matrix)[1:]
    if not vals[0] > RESOLVABLE_RATIO * vals[-1]:
        raise ValueError(
            f"spectrum not resolvable: the smallest kept eigenvalue {vals[0]:.3e} "
            f"is not above {RESOLVABLE_RATIO:g} times the largest {vals[-1]:.3e}"
        )
    return vals


def _cg_rate(kappa):
    root = np.sqrt(kappa)
    return (root - 1.0) / (root + 1.0)


def split_pseudo_sqrt_closed_form(pc):
    """Dense C* = D^(+1/2) of the block preconditioner held by ``pc``, column-stacked.

    Built from the DCT eigenpairs and the slack divisors: sqrt(tau / (lambda_s[i]
    + lambda_t[j])) on u, with the constant (0, 0) mode zero, and one over the
    square roots of the slack divisors on the slacks.
    """
    cache = pc.cache
    n, m = cache.lambda_s.size, cache.lambda_t.size
    q = np.kron(dct_basis(m, np.arange(m), np.arange(m)), dct_basis(n, np.arange(n), np.arange(n)))
    root = np.sqrt(pc.p.tau * pseudo_inverse_multiplier(cache.lambda_s, cache.lambda_t))
    root = vec(root)
    slack = np.concatenate([vec(pc.slack_v), vec(pc.slack_h)])
    nu = root.size
    out = np.zeros((nu + slack.size, nu + slack.size))
    out[:nu, :nu] = (q * root) @ q.T
    out[nu:, nu:] = np.diag(1.0 / np.sqrt(slack))
    return out


def random_diagonal_weights(n, m, p, seed):
    """Diagonal weight arc grids with entries uniform in (0, 1/p.delta]."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    hi = 1.0 / p.delta
    dv = (1.0 - rng.random((n - 1, m))) * hi
    dh = (1.0 - rng.random((n, m - 1))) * hi
    return ArcField(dv, dh)


def conditioning_report(n, m, p, seed):
    """Eigenvalue and conditioning comparison of A versus C* A C* under the model ``p``.

    The weights are drawn uniformly from (0, 1/p.delta], so the reduced
    weights sit near 1/tau: the report describes the preconditioner on the
    near-unweighted Laplacian.  Both matrices have the constant u mode as
    their only null vector, so exactly their smallest eigenvalue is dropped,
    and kappa feeds the CG rate (sqrt(kappa) - 1) / (sqrt(kappa) + 1).

    Raises ValueError before any dense work for a grid with a side below 1 or
    without arcs (1 x 1), for a seed outside [0, 2^64), or above
    ``DENSE_CELL_LIMIT`` cells; and after it for a spectrum that
    ``positive_eigenvalues`` cannot resolve.
    """
    if n < 1 or m < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {n} x {m}")
    if n == m == 1:
        raise ValueError("a 1 x 1 grid has no arcs")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed}")
    _check_cells(n, m)
    d = random_diagonal_weights(n, m, p, seed)
    a = materialize_dense_system(n, m, d, p)
    c_star = split_pseudo_sqrt_closed_form(build_preconditioner(build_spectral_cache(n, m), d, p))

    eig_a = positive_eigenvalues(a)
    eig_pre = positive_eigenvalues(c_star @ a @ c_star)
    kappa_a = float(eig_a[-1] / eig_a[0])
    kappa_pre = float(eig_pre[-1] / eig_pre[0])
    return ConditioningReport(
        n=n,
        m=m,
        eig_a=eig_a,
        eig_pre=eig_pre,
        kappa_a=kappa_a,
        kappa_pre=kappa_pre,
        rho_a=float(_cg_rate(kappa_a)),
        rho_pre=float(_cg_rate(kappa_pre)),
    )


def dense_matrix_of(apply, n, m):
    """The dense matrix of a grid map on row-major vec(u), one application per column."""
    cols = []
    for i in range(n * m):
        e = np.zeros(n * m)
        e[i] = 1.0
        cols.append(apply(e.reshape(n, m)).ravel().copy())
    return np.column_stack(cols)


def preconditioned_spectrum(apply_a, apply_m, n, m):
    """Ascending eigenvalues of M A on the complement of the constant mode, from dense M and A.

    ``apply_a`` is a reduced map and ``apply_m`` its PSD preconditioner, both with the
    constant grid as their one null vector; the spectrum is that of M^(1/2) A M^(1/2).
    """
    a = dense_matrix_of(apply_a, n, m)
    root = split_sqrt(dense_matrix_of(apply_m, n, m))
    return positive_eigenvalues(root @ a @ root)


def lanczos_tridiagonal(alphas, betas):
    """Dense Lanczos tridiagonal T_k of CG steps alpha_1..alpha_k and beta_1..beta_(k-1)."""
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas, dtype=float)
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    off = np.sqrt(b) / a[:-1]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def ritz_extremes_dense(alphas, betas):
    """Extreme eigenvalues of T_k by ``eigvalsh``, k = len(alphas); later betas are not read."""
    k = len(alphas)
    if k == 0:
        return None, None
    vals = np.linalg.eigvalsh(lanczos_tridiagonal(alphas, betas[: k - 1]))
    return float(vals[0]), float(vals[-1])


def dense_system_entrywise(n, m, d, tau):
    """System matrix written entry by entry from the banded stencil rules.

    Column-stacked index layout: pixel (i, j) sits at j*n + i, a vertical
    arc (i, j) at j*(n-1) + i, a horizontal arc (i, j) at j*n + i.
    """
    nu = n * m
    nv = (n - 1) * m
    nh = n * (m - 1)
    a = np.zeros((nu + nv + nh, nu + nv + nh))

    # u-u block: block-diagonal second differences down columns plus a block
    # tridiagonal of +/- identities across columns, both with unit corners
    for jp in range(m):
        for ip in range(n):
            p = jp * n + ip
            deg_rows = 1.0 if ip in (0, n - 1) and n > 1 else (2.0 if n > 1 else 0.0)
            deg_cols = 1.0 if jp in (0, m - 1) and m > 1 else (2.0 if m > 1 else 0.0)
            a[p, p] = (deg_rows + deg_cols) / tau
            if ip + 1 < n:
                a[p, jp * n + ip + 1] = -1.0 / tau
                a[jp * n + ip + 1, p] = -1.0 / tau
            if jp + 1 < m:
                a[p, (jp + 1) * n + ip] = -1.0 / tau
                a[(jp + 1) * n + ip, p] = -1.0 / tau

    # u-vv coupling: each vertical arc hits its two endpoint pixels
    for j in range(m):
        for i in range(n - 1):
            r = nu + j * (n - 1) + i
            a[r, j * n + i] = 1.0 / tau
            a[r, j * n + i + 1] = -1.0 / tau
            a[j * n + i, r] = 1.0 / tau
            a[j * n + i + 1, r] = -1.0 / tau

    # u-vh coupling: each horizontal arc hits its two endpoint pixels
    for j in range(m - 1):
        for i in range(n):
            r = nu + nv + j * n + i
            a[r, j * n + i] = 1.0 / tau
            a[r, (j + 1) * n + i] = -1.0 / tau
            a[j * n + i, r] = 1.0 / tau
            a[(j + 1) * n + i, r] = -1.0 / tau

    for j in range(m):
        for i in range(n - 1):
            r = nu + j * (n - 1) + i
            a[r, r] = d.v[i, j] + 1.0 / tau
    for j in range(m - 1):
        for i in range(n):
            r = nu + nv + j * n + i
            a[r, r] = d.h[i, j] + 1.0 / tau
    return a


def dense_rhs(g, tau):
    """The block system's right-hand side b, from the dense difference matrices."""
    n, m = g.shape
    return np.concatenate(
        [
            vec(dense_s(n).T @ g.v + g.h @ dense_t(m).T) / tau,
            -vec(g.v) / tau,
            -vec(g.h) / tau,
        ]
    )


def random_state(rng, n, m, scale=1.0):
    return SystemVector(
        scale * rng.standard_normal((n, m)),
        scale * rng.standard_normal((n - 1, m)),
        scale * rng.standard_normal((n, m - 1)),
    )


def random_gradients(rng, n, m):
    return ArcField(
        rng.uniform(-np.pi, np.pi, (n - 1, m)),
        rng.uniform(-np.pi, np.pi, (n, m - 1)),
    )


# grid map, and the matching map of the weights; each map is its own inverse.
# A transpose swaps the two arc directions, a flip reverses the arcs along its axis.
GRID_SYMMETRIES = {
    "transpose": (np.transpose, lambda c: WeightField(c.h.T, c.v.T)),
    "flipud": (np.flipud, lambda c: WeightField(np.flipud(c.v), np.flipud(c.h))),
    "fliplr": (np.fliplr, lambda c: WeightField(np.fliplr(c.v), np.fliplr(c.h))),
}


def random_weights(rng, n, m, lo=0.2, hi=2.0):
    return WeightField(
        rng.uniform(lo, hi, (n - 1, m)),
        rng.uniform(lo, hi, (n, m - 1)),
    )


def random_diag(rng, n, m, hi=5.0):
    return ArcField(rng.uniform(0, hi, (n - 1, m)), rng.uniform(0, hi, (n, m - 1)))


def arc_values(rng, shape, kind):
    """Arc values of one kind: signed zeros, small exact values, normals, or a mix."""
    kinds = {
        "zeros": lambda: rng.choice([0.0, -0.0], shape),
        "exact": lambda: rng.integers(-3, 4, shape) * 0.5,
        "normal": lambda: rng.standard_normal(shape),
    }
    if kind != "mixed":
        return kinds[kind]()
    pick = rng.integers(0, 3, shape)
    return np.choose(pick, [kinds[k]() for k in ("zeros", "exact", "normal")])


def objective_scalar_loops(x, g, c, tau):
    """Scalar-loop evaluation of the l1 + quadratic-penalty objective."""
    n, m = x.u.shape
    total = 0.0
    for i in range(n - 1):
        for j in range(m):
            total += c.v[i, j] * abs(x.vv[i, j])
    for i in range(n):
        for j in range(m - 1):
            total += c.h[i, j] * abs(x.vh[i, j])
    quad = 0.0
    for i in range(n - 1):
        for j in range(m):
            r = x.u[i + 1, j] - x.u[i, j] - g.v[i, j] - x.vv[i, j]
            quad += r * r
    for i in range(n):
        for j in range(m - 1):
            r = x.u[i, j + 1] - x.u[i, j] - g.h[i, j] - x.vh[i, j]
            quad += r * r
    return total + quad / (2.0 * tau)


def plain_cg_dense(a, b, x0, iters):
    """Textbook unpreconditioned CG on a dense matrix, returning all iterates."""
    x = x0.astype(float).copy()
    r = b - a @ x
    p = r.copy()
    rho = float(r @ r)
    iterates = [x.copy()]
    for _ in range(iters):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 1e-300:
            break
        alpha = rho / pap
        x = x + alpha * p
        r = r - alpha * ap
        rho_next = float(r @ r)
        beta = rho_next / rho
        rho = rho_next
        p = r + beta * p
        iterates.append(x.copy())
    return iterates


def pcg_solve_direction_at_budget(apply_a, apply_m, b, x, max_iters, rel_tol, *, direction):
    """``pcg.pcg_solve`` as it was while every unconverged iteration formed a direction.

    After the iteration that spends the budget it still applies ``apply_m``
    and updates the search direction, which nothing reads: k + 1
    preconditioner applies for a solve that the budget ends after k.  The
    outcome gains ``alphas`` and ``betas``, every step length and direction
    update the loop formed, and its Ritz values are ``ritz_extremes_dense``
    of them.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if rel_tol < 0:
        raise ValueError("rel_tol must be >= 0")
    b_norm = np.linalg.norm(b)
    threshold = rel_tol * b_norm

    r = b
    r -= apply_a(x)
    res_norms = [np.linalg.norm(r)]
    alphas, betas = [], []
    if not np.isfinite(res_norms[0]):
        raise NumericalBreakdown(0, "initial residual is not finite")
    if res_norms[0] <= threshold or max_iters == 0:
        return _outcome_with_coefficients(res_norms, res_norms[0] <= threshold, b_norm, [], [])

    z = apply_m(r)
    p = direction
    p[...] = z
    rho = float(np.vdot(r, z))
    converged = False
    for it in range(max_iters):
        ap = apply_a(p)
        pap = float(np.vdot(p, ap))
        if not np.isfinite(pap):
            raise NumericalBreakdown(it, "curvature p'Ap is not finite")
        if pap <= 1e-300:
            converged = res_norms[-1] <= threshold
            break
        alpha = rho / pap
        alphas.append(alpha)
        ap *= -alpha
        r += ap
        np.multiply(p, alpha, out=ap)
        x += ap
        rn = np.linalg.norm(r)
        if not np.isfinite(rn):
            raise NumericalBreakdown(it + 1, "residual norm is not finite")
        res_norms.append(rn)
        if rn <= threshold:
            converged = True
            break
        z = apply_m(r)
        rho_next = float(np.vdot(r, z))
        if not np.isfinite(rho_next):
            raise NumericalBreakdown(it + 1, "preconditioned product is not finite")
        if rho_next == 0.0:
            break
        beta = rho_next / rho
        betas.append(beta)
        rho = rho_next
        p *= beta
        p += z

    return _outcome_with_coefficients(res_norms, converged, b_norm, alphas, betas)


def _outcome_with_coefficients(res_norms, converged, b_norm, alphas, betas):
    out = PcgOutcome(
        len(res_norms) - 1,
        res_norms,
        converged,
        float(res_norms[-1] / b_norm) if b_norm > 0 else 0.0,
        *ritz_extremes_dense(alphas, betas),
    )
    out.alphas, out.betas = alphas, betas
    return out


def pcg_solve_blocks(apply_a, apply_m, b, x0, max_iters, rel_tol, solve=pcg_solve, direction=None):
    """``solve``, ``pcg_solve`` by default, on the full (u, vv, vh) system through its flat buffers.

    The maps take and return SystemVectors, as ``apply_system`` and
    ``apply_preconditioner`` do.  PCG runs in copies of ``b`` and ``x0``, so
    both stay as given, and in the search-direction SystemVector
    ``direction``, a new one when None; the outcome gains ``x`` and
    ``residual``, the SystemVectors of those copies after the solve.
    """
    n, m = b.shape

    def view(data):
        return SystemVector.from_buffer(data, n, m)

    if direction is None:
        direction = SystemVector.zeros(n, m)
    x, res = x0.copy(), b.copy()
    out = solve(
        lambda v: apply_a(view(v)).data,
        lambda r: apply_m(view(r)).data,
        res.data,
        x.data,
        max_iters=max_iters,
        rel_tol=rel_tol,
        direction=direction.data,
    )
    out.x, out.residual = x, res
    return out


def outer_states(x, c, model, count):
    """The gradients of ``x`` and the states of ``unwrap`` at its first ``count`` outer iterations.

    The state at the start of iteration k is the result of a run capped at k outer
    iterations, and at k = 0 ``irls.start_state``.
    """
    g = wrapped_gradients(x)
    states = [start_state(g, out=SystemVector.zeros(*x.shape))]
    for k in range(1, count):
        res = unwrap(x, c, model, IrlsParams(max_outer_iters=k))
        states.append(SystemVector(res.u, res.vv, res.vh))
    return g, states


def sufficient_decrease_holds(x_new, x_old, w, g, c, p, lipschitz):
    """Check that ``x_new`` does at least as well as one explicit gradient step."""
    cand = step_of(x_old, w, g, c, p, lipschitz)
    return h_delta_of(x_new, w, g, c, p) <= h_delta_of(cand, w, g, c, p)


def safeguard_bound_holds(x, records, c, model):
    """Whether each record's h is at most that of the gradient step from its state.

    Record k must satisfy h_delta <= h(candidate_step(S_k, w_k), w_k) with
    w_k = update_weights(S_k), up to a relative 1e-12.
    """
    g, states = outer_states(x, c, model, len(records))
    lip = lipschitz_constant(c, model)
    for rec, state in zip(records, states):
        w = weights_of(state, c, model)
        bound = h_delta_of(step_of(state, w, g, c, model, lip), w, g, c, model)
        if not rec.h_delta <= bound * (1 + 1e-12):
            return False
    return True


def spoil_proposals(monkeypatch):
    """Move every proposal of ``unwrap`` far from the minimizer.

    Each spoiled proposal then loses to the gradient step.  The spoiling
    moves u before the slacks are set and the proposal is scored, so both
    belong to the spoiled u.
    """
    propose = irls.propose

    def spoiled(x, *args, **kwargs):
        x.u += 10 * np.cos(np.arange(x.u.size)).reshape(x.u.shape)
        return propose(x, *args, **kwargs)

    monkeypatch.setattr(irls, "propose", spoiled)


def stall_proposals(monkeypatch):
    """Make every proposal of ``unwrap`` its own state: no CG iteration, slacks kept.

    From a state that is not stationary the gradient step lowers h, so each
    such proposal loses to it, though its h is no more than the state's.
    ``unwrap`` uses the state's slacks as scratch during the solve, so the
    state is copied when the gradient step reads it, and the proposal is
    written from that copy and scored as ``irls.propose`` would score it.
    """
    step, solve = irls.candidate_step, irls.pcg_solve
    stash = []

    def stashing_step(x, *args, **kwargs):
        stash[:] = [x.copy()]
        return step(x, *args, **kwargs)

    def kept(x, g, c, w, p, *, weights, scratch):
        x.data[...] = stash[0].data
        h = eval_h_delta(x, w, g, c, p, scratch=scratch)
        update_weights(x, c, p, out=weights)
        return h, eval_h_delta_refreshed(x, weights, g, p, scratch=scratch)

    monkeypatch.setattr(irls, "candidate_step", stashing_step)
    monkeypatch.setattr(irls, "pcg_solve", lambda **kwargs: solve(**{**kwargs, "max_iters": 0}))
    monkeypatch.setattr(irls, "propose", kept)


def unwrap_eager_safeguard(x, c, model, params=IrlsParams()):
    """The outer loop of ``unwrap``, evaluating the candidate's h at every iteration.

    Each iteration refreshes the weights of its state, forms the gradient
    step and its h, and accepts the PCG proposal only if its h is at most the
    step's; no bound stands in for that comparison.  ``irls.next_budget``
    sets the budget and the stop.  The arithmetic of every array is that of
    ``unwrap``, each in new grids.  The gradient step, the reduced system,
    the solve and the proposal are looked up in ``irls``, so
    ``spoil_proposals`` and ``stall_proposals`` reach this loop too.  Returns
    the final state and the ``IterationRecord`` list.
    """
    g = wrapped_gradients(x)
    n, m = g.shape
    lip = lipschitz_constant(c, model)
    cache = preconditioner.build_spectral_cache(n, m)
    state = start_state(g, out=SystemVector.zeros(n, m))
    records = []
    for k in range(params.max_outer_iters):
        w = weights_of(state, c, model)
        h_state = eval_h_delta_refreshed(state, w, g, model, scratch=arc_grids(n, m))
        delta_rel, m_cg = next_budget(records, h_state, params)
        if m_cg is None:
            break
        state, rec = _eager_iteration(state, w, g, c, model, lip, cache, k, m_cg, delta_rel)
        records.append(rec)
    return state, records


def replay_outer_iteration(x, c, model, result, params=IrlsParams()):
    """One more outer iteration of the eager loop from the state ``unwrap`` returned.

    The budget is the last record's grown by the growth factor, as
    ``next_budget`` grows it on a stall, so this is the iteration that the
    stop after a solve that ran no CG iteration skips.  Returns that budget,
    the state after the iteration, its ``IterationRecord`` and h at the
    returned state under its refreshed weights.
    """
    g = wrapped_gradients(x)
    n, m = g.shape
    records = result.trace.records
    state = SystemVector(result.u.copy(), result.vv.copy(), result.vh.copy())
    w = weights_of(state, c, model)
    h_state = eval_h_delta_refreshed(state, w, g, model, scratch=arc_grids(n, m))
    h_old = records[-1].h_delta
    delta_rel = 0.0 if h_old == 0 else (h_old - h_state) / h_old
    grown = math.ceil(min(params.cg_growth_factor * records[-1].m_cg, MAX_CG_ITERS))
    lip = lipschitz_constant(c, model)
    cache = preconditioner.build_spectral_cache(n, m)
    state, rec = _eager_iteration(
        state, w, g, c, model, lip, cache, len(records), grown, delta_rel
    )
    return grown, state, rec, h_state


def _eager_iteration(state, w, g, c, model, lip, cache, k, m_cg, delta_rel):
    """One iteration of the eager loop from ``state`` under its refreshed weights ``w``."""
    n, m = g.shape
    cand, _ = irls.candidate_step(
        state, w, g, c, model, lip, out=SystemVector.zeros(n, m), scratch=arc_grids(n, m)
    )
    h_cand = h_delta_of(cand, w, g, c, model)

    flux = arc_grids(n, m)
    wr = ArcField(*arc_grids(n, m))
    rhs = irls.reduced_system(c, w, g, model, weights=wr, rhs=np.empty((n, m)), flux=flux)
    ap, z = np.empty((n, m)), np.empty((n, m))
    prop = state.copy()
    outcome = irls.pcg_solve(
        apply_a=lambda v: kernels.weighted_laplacian(v, *wr, *flux, ap),
        apply_m=lambda r: preconditioner.sylvester_solve(
            r, model, cache, out=z, scratch=np.empty((n, m))
        ),
        b=rhs,
        x=prop.u,
        max_iters=m_cg,
        rel_tol=CG_REL_TOL,
        direction=np.empty((n, m)),
    )
    h_prop, _ = irls.propose(prop, g, c, w, model, weights=wr, scratch=flux)
    fallback = not h_prop <= h_cand
    state = cand if fallback else prop
    state.u -= state.u.mean()
    return state, IterationRecord(
        k=k,
        m_cg=m_cg,
        delta_rel=delta_rel,
        h_delta=h_cand if fallback else h_prop,
        cg_iters=outcome.iterations,
        fallback=fallback,
        cg_converged=outcome.converged,
        cg_rel_residual=outcome.rel_residual,
        ritz_min=outcome.ritz_min,
        ritz_max=outcome.ritz_max,
    )
