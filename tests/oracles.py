"""Independent brute-force constructions used as test oracles.

Everything here is deliberately built from first principles (index rules,
eye-shifts, scalar loops, dense linear algebra) so it shares no code with
the implementations it checks.  The exceptions are ``pcg_solve_blocks``, an
adapter that runs the solver's array PCG on the full block system,
``sufficient_decrease_holds``, which compares against the solver's own
gradient step, and the outer-loop replays at the end, which rerun ``unwrap``
to recover the states it held.
"""

import numpy as np

from phaseirls import irls
from phaseirls.irls import IrlsParams, unwrap
from phaseirls.objective import candidate_step, eval_h_delta, lipschitz_constant, update_weights
from phaseirls.operators import SystemVector
from phaseirls.pcg import pcg_solve
from phaseirls.phase import GradientField, WeightField, wrapped_gradients


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


def arc_count(n, m):
    """Number of arcs of an (n, m) grid: (n-1)*m + n*(m-1)."""
    return (n - 1) * m + n * (m - 1)


def split_sqrt(matrix):
    """C with eigenvalues gamma_i^(1/2), the zero mode dropped (relative cutoff 1e-10)."""
    gam, vecs = np.linalg.eigh(matrix)
    keep = gam > 1e-10 * max(gam.max(), 1.0)
    return (vecs[:, keep] * np.sqrt(gam[keep])) @ vecs[:, keep].T


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
            a[r, r] = d.dv[i, j] + 1.0 / tau
    for j in range(m - 1):
        for i in range(n):
            r = nu + nv + j * n + i
            a[r, r] = d.dh[i, j] + 1.0 / tau
    return a


def random_state(rng, n, m, scale=1.0):
    return SystemVector(
        scale * rng.standard_normal((n, m)),
        scale * rng.standard_normal((n - 1, m)),
        scale * rng.standard_normal((n, m - 1)),
    )


def random_gradients(rng, n, m):
    return GradientField(
        rng.uniform(-np.pi, np.pi, (n - 1, m)),
        rng.uniform(-np.pi, np.pi, (n, m - 1)),
    )


def random_weights(rng, n, m, lo=0.2, hi=2.0):
    return WeightField(
        rng.uniform(lo, hi, (n - 1, m)),
        rng.uniform(lo, hi, (n, m - 1)),
    )


def objective_scalar_loops(x, g, c, tau):
    """Scalar-loop evaluation of the l1 + quadratic-penalty objective."""
    n, m = x.u.shape
    total = 0.0
    for i in range(n - 1):
        for j in range(m):
            total += c.cv[i, j] * abs(x.vv[i, j])
    for i in range(n):
        for j in range(m - 1):
            total += c.ch[i, j] * abs(x.vh[i, j])
    quad = 0.0
    for i in range(n - 1):
        for j in range(m):
            r = x.u[i + 1, j] - x.u[i, j] - g.gv[i, j] - x.vv[i, j]
            quad += r * r
    for i in range(n):
        for j in range(m - 1):
            r = x.u[i, j + 1] - x.u[i, j] - g.gh[i, j] - x.vh[i, j]
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


def pcg_solve_blocks(apply_a, apply_m, b, x0, max_iters, rel_tol):
    """``pcg_solve`` on the full (u, vv, vh) system through its flat buffers.

    The maps take and return SystemVectors, as ``apply_system`` and
    ``apply_preconditioner`` do.  PCG runs in copies of ``b`` and ``x0``, so
    both stay as given; the outcome gains ``x`` and ``residual``, the
    SystemVectors of those copies after the solve.
    """
    n, m = b.shape

    def view(data):
        return SystemVector.from_buffer(data, n, m)

    x, res = x0.copy(), b.copy()
    out = pcg_solve(
        lambda v: apply_a(view(v)).data,
        lambda r: apply_m(view(r)).data,
        res.data,
        x.data,
        max_iters=max_iters,
        rel_tol=rel_tol,
    )
    out.x, out.residual = x, res
    return out


def outer_states(x, c, model, count):
    """The gradients of ``x`` and the states of ``unwrap`` at its first ``count`` outer iterations.

    The state at the start of iteration k is the result of a run capped at k outer
    iterations, and at k = 0 the initial state (0, -gv, -gh).
    """
    g = wrapped_gradients(x)
    states = [SystemVector(np.zeros(x.shape), -g.gv, -g.gh)]
    for k in range(1, count):
        res = unwrap(x, c, model, IrlsParams(max_outer_iters=k))
        states.append(SystemVector(res.u, res.vv, res.vh))
    return g, states


def sufficient_decrease_holds(x_new, x_old, w, g, c, p, lipschitz):
    """Check that ``x_new`` does at least as well as one explicit gradient step."""
    cand = candidate_step(x_old, w, g, c, p, lipschitz)
    return eval_h_delta(x_new, w, g, c, p) <= eval_h_delta(cand, w, g, c, p)


def safeguard_bound_holds(x, records, c, model):
    """Whether each record's h is at most that of the gradient step from its state.

    Record k must satisfy h_delta <= h(candidate_step(S_k, w_k), w_k) with
    w_k = update_weights(S_k), up to a relative 1e-12.
    """
    g, states = outer_states(x, c, model, len(records))
    lip = lipschitz_constant(c, model)
    for rec, state in zip(records, states):
        w = update_weights(state, c, model.delta)
        bound = eval_h_delta(candidate_step(state, w, g, c, model, lip), w, g, c, model)
        if not rec.h_delta <= bound * (1 + 1e-12):
            return False
    return True


def spoil_proposals(monkeypatch):
    """Move every proposal of ``unwrap`` far from the minimizer.

    Each spoiled proposal then loses to the gradient step.
    """
    recover = irls.recover_slacks

    def spoiled(u, *args, **kwargs):
        out = recover(u, *args, **kwargs)
        out.u += 10 * np.cos(np.arange(out.u.size)).reshape(out.u.shape)
        return out

    monkeypatch.setattr(irls, "recover_slacks", spoiled)
