import tracemalloc
import warnings

import numpy as np
import pytest

from phaseirls import kernels
from phaseirls.diagnostics import (
    apply_preconditioner,
    apply_system,
    build_preconditioner,
    build_rhs,
)
from phaseirls.objective import ModelParams, SystemVector, propose, reduced_system
from phaseirls.pcg import NumericalBreakdown, pcg_solve, ritz_extremes
from phaseirls.phase import ArcField, WeightField
from phaseirls.preconditioner import build_spectral_cache, sylvester_solve

from oracles import (
    arc_grids,
    dense_arc_map,
    materialize_dense_system,
    pcg_solve_blocks,
    pcg_solve_direction_at_budget,
    preconditioned_spectrum,
    random_diagonal_weights,
    random_gradients,
    ritz_extremes_dense,
    stack_system,
    unstack_system,
    vec,
)

P = ModelParams(tau=1e-2, delta=1e-6)


def make_problem(rng, n, m, seed=0):
    d = random_diagonal_weights(n, m, P, seed=seed)
    g = random_gradients(rng, n, m)
    b = build_rhs(g, P, out=SystemVector.zeros(n, m))
    pc = build_preconditioner(build_spectral_cache(n, m), d, P)
    apply_a = lambda v: apply_system(v, d, P, out=SystemVector.zeros(n, m))
    apply_m = lambda r: apply_preconditioner(r, pc, out=SystemVector.zeros(n, m))
    return d, b, apply_a, apply_m


def reduced_maps(wr, cache):
    """The reduced map and the Sylvester preconditioner, each writing into one grid."""
    n, m = cache.lambda_s.size, cache.lambda_t.size
    ap, z, flux = np.empty((n, m)), np.empty((n, m)), arc_grids(n, m)
    transform = np.empty((n, m))
    return (
        lambda v: kernels.weighted_laplacian(v, wr.v, wr.h, *flux, ap),
        lambda r: sylvester_solve(r, P, cache, out=z, scratch=transform),
    )


def counted(apply):
    """``apply`` with a ``calls`` attribute that counts its applications."""

    def wrapped(v):
        wrapped.calls += 1
        return apply(v)

    wrapped.calls = 0
    return wrapped


def spoiled(apply, call, spoil):
    """``apply`` whose output of its ``call``-th application ``spoil`` edits in place."""
    apply = counted(apply)

    def wrapped(v):
        out = apply(v)
        if apply.calls == call:
            spoil(out)
        return out

    return wrapped


def set_nan(a):
    a.flat[0] = np.nan


def set_zero(a):
    a[...] = 0.0


def reduced_rhs(g, wr):
    """St (Wv * gv) + (Wh * gh) Tt for given reduced weights W, in a new grid."""
    return kernels.adj_diffs(wr.v * g.v, wr.h * g.h, np.zeros(g.shape))


def reduced_problem(rng, n=12, m=10):
    """The right-hand side and both maps of a reduced system with random weights."""
    wr = ArcField(rng.uniform(0.5, 2.0, (n - 1, m)), rng.uniform(0.5, 2.0, (n, m - 1)))
    rhs = reduced_rhs(random_gradients(rng, n, m), wr)
    return rhs, *reduced_maps(wr, build_spectral_cache(n, m))


class TestPcgBasics:
    def test_zero_rhs_zero_start(self, rng):
        n = m = 4
        _, _, apply_a, apply_m = make_problem(rng, n, m)
        b = SystemVector.zeros(n, m)
        out = pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), 50, 1e-10)
        assert out.iterations == 0
        assert out.converged
        assert np.linalg.norm(out.x.data) == 0.0
        assert len(out.residual_norms) == 1
        # the early return gives Python scalars, as the iteration's return does
        assert type(out.converged) is bool and type(out.rel_residual) is float
        assert out.rel_residual == 0.0

    @pytest.mark.parametrize("rel_tol", [1e-10, 0.0])
    @pytest.mark.parametrize("max_iters", [0, 3, 500])
    @pytest.mark.parametrize("zero_rhs", [False, True])
    def test_relative_residual_is_the_last_norm_over_the_rhs_norm(
        self, rng, rel_tol, max_iters, zero_rhs
    ):
        rhs, apply_a, apply_m = reduced_problem(rng)
        if zero_rhs:
            rhs[...] = 0.0
        # the solve overwrites b with its residual, so its norm is taken first
        b_norm = np.linalg.norm(rhs)
        out = pcg_solve(
            apply_a, apply_m, rhs, np.zeros(rhs.shape), max_iters, rel_tol,
            direction=np.empty(rhs.shape),
        )
        assert type(out.converged) is bool and type(out.rel_residual) is float
        if zero_rhs:
            assert out.rel_residual == 0.0 and out.converged
        else:
            assert out.rel_residual == out.residual_norms[-1] / b_norm
            assert out.converged == (rel_tol > 0 and out.rel_residual <= rel_tol)

    def test_exact_start_converges_immediately(self, rng):
        n = m = 5
        d, b, apply_a, apply_m = make_problem(rng, n, m, seed=4)
        a = materialize_dense_system(n, m, d, P)
        x_star = unstack_system(np.linalg.pinv(a) @ stack_system(b), n, m)
        out = pcg_solve_blocks(apply_a, apply_m, b, x_star, 50, 1e-8)
        assert out.iterations == 0
        assert out.converged
        assert out.residual_norms[0] <= 1e-8 * np.linalg.norm(b.data)

    def test_iteration_count_matches_norm_list(self, rng):
        n = m = 4
        _, b, apply_a, apply_m = make_problem(rng, n, m, seed=7)
        out = pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), 6, 0.0)
        assert out.iterations == len(out.residual_norms) - 1 == 6


class TestPcgAgainstDenseOracle:
    def test_matches_minimum_norm_solution(self, rng):
        n = m = 8
        d, b, apply_a, apply_m = make_problem(rng, n, m, seed=11)
        a = materialize_dense_system(n, m, d, P)
        x_star = np.linalg.pinv(a) @ stack_system(b)
        dim = b.data.size
        out = pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), 3 * dim, 1e-12)
        got = out.x.copy()
        got.u -= got.u.mean()
        rel = np.linalg.norm(stack_system(got) - x_star) / np.linalg.norm(x_star)
        assert rel < 1e-6
        assert out.iterations <= 3 * dim

    def test_residual_recurrence_consistency(self, rng):
        n = m = 6
        _, b, apply_a, apply_m = make_problem(rng, n, m, seed=2)
        x0 = SystemVector.zeros(n, m)
        for l in (1, 5, 12, 25, 50):
            out = pcg_solve_blocks(apply_a, apply_m, b, x0, l, 0.0)
            true_res = b.data - apply_a(out.x).data
            drift = true_res - out.residual.data
            assert np.linalg.norm(drift) <= 1e-8 * np.linalg.norm(b.data)

    def test_error_monotone_in_a_seminorm(self, rng):
        n = m = 5
        d, b, apply_a, apply_m = make_problem(rng, n, m, seed=21)
        a = materialize_dense_system(n, m, d, P)
        x_star = np.linalg.pinv(a) @ stack_system(b)
        x0 = SystemVector.zeros(n, m)
        energies = []
        for l in range(0, 15):
            out = pcg_solve_blocks(apply_a, apply_m, b, x0, l, 0.0)
            e = stack_system(out.x) - x_star
            energies.append(float(e @ a @ e))
        for prev, nxt in zip(energies, energies[1:]):
            assert nxt <= prev * (1 + 1e-10) + 1e-14


class TestReducedSolve:
    def test_reduced_solution_with_its_slacks_is_the_full_minimum_norm_solution(self, rng):
        n = m = 8
        d = random_diagonal_weights(n, m, P, seed=12)
        g = random_gradients(rng, n, m)
        b = build_rhs(g, P, out=SystemVector.zeros(n, m))
        x_star = np.linalg.pinv(materialize_dense_system(n, m, d, P)) @ stack_system(b)
        # c = 1 and w = 1/d give the reduced weights d / (1 + tau d)
        c, w = WeightField.uniform(n, m), ArcField(1 / d.v, 1 / d.h)
        wr = ArcField(*arc_grids(n, m))
        rhs = reduced_system(c, w, g, P, weights=wr, rhs=np.zeros((n, m)), flux=arc_grids(n, m))
        x = np.zeros((n, m))
        out = pcg_solve(
            *reduced_maps(wr, build_spectral_cache(n, m)),
            rhs,
            x,
            max_iters=3 * n * m,
            rel_tol=1e-12,
            direction=np.empty((n, m)),
        )
        assert out.converged
        got = SystemVector(x - x.mean(), *arc_grids(n, m))
        propose(got, g, c, w, P, weights=wr, scratch=arc_grids(n, m))
        rel = np.linalg.norm(stack_system(got) - x_star) / np.linalg.norm(x_star)
        assert rel < 1e-6

    def test_long_solve_needs_no_projection(self, rng):
        # reduced weights spread over three decades below 1/tau make the
        # Sylvester-preconditioned solve take a few hundred iterations; the
        # preconditioner's zeroed constant mode alone keeps x mean-zero
        n, m = 32, 24
        wr = ArcField(
            10 ** rng.uniform(-1, 2, (n - 1, m)), 10 ** rng.uniform(-1, 2, (n, m - 1))
        )
        b = reduced_rhs(random_gradients(rng, n, m), wr)
        x = np.zeros((n, m))
        out = pcg_solve(
            *reduced_maps(wr, build_spectral_cache(n, m)),
            b.copy(),
            x,
            max_iters=400,
            rel_tol=1e-13,
            direction=np.empty((n, m)),
        )
        assert out.converged
        assert out.iterations > 50
        k = dense_arc_map(n, m)
        kt_w_k = k.T @ np.diag(np.concatenate([vec(wr.v), vec(wr.h)])) @ k
        x_star = np.linalg.pinv(kt_w_k) @ vec(b)
        got = vec(x - x.mean())
        assert np.linalg.norm(got - x_star) / np.linalg.norm(x_star) < 1e-9
        assert abs(x.mean()) <= 1e-12 * np.abs(x).max()


class TestRitzValues:
    """A solve's Ritz values are the extremes of the Lanczos tridiagonal T_k of its own steps."""

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 40, 200])
    def test_bisection_matches_eigvalsh_of_the_tridiagonal(self, rng, k):
        # step lengths and updates over several decades, as badly conditioned solves give
        alphas = (10 ** rng.uniform(-2, 2, k)).tolist()
        betas = (10 ** rng.uniform(-3, 0.5, k - 1)).tolist()
        got = ritz_extremes(alphas, betas)
        want = ritz_extremes_dense(alphas, betas)
        assert all(type(v) is float for v in got)
        scale = max(abs(v) for v in want)
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, want))

    def test_no_iteration_or_a_zero_step_gives_none(self):
        assert ritz_extremes([], []) == (None, None)
        assert ritz_extremes([0.0, 1.0], [0.5]) == (None, None)

    # each ending, its budget and tolerance, the map call whose output is zeroed
    # (a curvature of 0, or r'z = 0), and whether the copy that forms a direction
    # after its last step holds one more beta than T_k reads
    @pytest.mark.parametrize("max_iters, rel_tol, zero_a, zero_m, extra_beta", [
        (4, 0.0, None, None, True),
        (500, 1e-8, None, None, False),
        (500, 0.0, 5, None, True),
        (500, 0.0, None, 4, False),
    ], ids=["budget", "tolerance", "tiny-curvature", "vanishing-rz"])
    def test_tridiagonal_takes_the_steps_of_the_solve_however_it_ends(
        self, rng, max_iters, rel_tol, zero_a, zero_m, extra_beta
    ):
        rhs, apply_a, apply_m = reduced_problem(rng)
        runs = []
        for solve in (pcg_solve, pcg_solve_direction_at_budget):
            out = solve(
                apply_a if zero_a is None else spoiled(apply_a, zero_a, set_zero),
                apply_m if zero_m is None else spoiled(apply_m, zero_m, set_zero),
                rhs.copy(), np.zeros(rhs.shape), max_iters, rel_tol,
                direction=np.empty(rhs.shape),
            )
            runs.append(out)
        got, want = runs
        k = got.iterations
        assert k == want.iterations >= 3 and len(want.alphas) == k
        assert len(want.betas) == k - 1 + extra_beta
        lo, hi = ritz_extremes_dense(want.alphas[:k], want.betas[: k - 1])
        assert got.ritz_min == pytest.approx(lo, rel=1e-12)
        assert got.ritz_max == pytest.approx(hi, rel=1e-12)

    def test_solve_that_starts_converged_gives_none(self, rng):
        _, apply_a, apply_m = reduced_problem(rng)
        out = pcg_solve(
            apply_a, apply_m, np.zeros((12, 10)), np.zeros((12, 10)), 5, 1e-8,
            direction=np.empty((12, 10)),
        )
        assert out.iterations == 0 and (out.ritz_min, out.ritz_max) == (None, None)

    def test_long_solve_reaches_the_ends_of_the_dense_spectrum(self, rng):
        # reduced weights over three decades up to 1/tau: a spectrum in (0, 1]
        # whose small end takes a few hundred iterations to resolve
        n, m = 32, 24
        wr = ArcField(
            10 ** rng.uniform(-1, 2, (n - 1, m)), 10 ** rng.uniform(-1, 2, (n, m - 1))
        )
        b = reduced_rhs(random_gradients(rng, n, m), wr)
        apply_a, apply_m = reduced_maps(wr, build_spectral_cache(n, m))
        spectrum = preconditioned_spectrum(apply_a, apply_m, n, m)
        assert 0 < spectrum[0] and spectrum[-1] <= 1
        short, long = (
            pcg_solve(
                apply_a, apply_m, b.copy(), np.zeros((n, m)), max_iters, 1e-12,
                direction=np.empty((n, m)),
            )
            for max_iters in (5, 2000)
        )
        assert long.converged and long.iterations > 50 and not short.converged
        for out in (short, long):
            assert spectrum[0] * (1 - 1e-8) <= out.ritz_min <= out.ritz_max
            assert out.ritz_max <= spectrum[-1] * (1 + 1e-8)
        # five steps see neither end; the long solve reaches both
        assert short.ritz_min > 2 * spectrum[0] and short.ritz_max < 0.99 * spectrum[-1]
        assert long.ritz_min == pytest.approx(spectrum[0], rel=1e-4)
        assert long.ritz_max == pytest.approx(spectrum[-1], rel=1e-10)


class TestInPlace:
    def test_x_ends_as_the_iterate_and_b_as_the_residual(self, rng):
        rhs, apply_a, apply_m = reduced_problem(rng)
        b = rhs.copy()
        x = np.zeros(rhs.shape)
        out = pcg_solve(
            apply_a,
            apply_m,
            b,
            x,
            max_iters=8,
            rel_tol=0.0,
            direction=np.empty(rhs.shape),
        )
        assert out.iterations == 8
        assert np.linalg.norm(b) == out.residual_norms[-1]
        # b is the recurrence residual of the iterate left in x
        drift = rhs - apply_a(x) - b
        assert np.linalg.norm(drift) <= 1e-10 * np.linalg.norm(rhs)
        assert np.linalg.norm(b) < 1e-2 * np.linalg.norm(rhs)


class TestApplyCounts:
    """A solve of k >= 1 iterations applies the preconditioner k times and the map k + 1 times."""

    @pytest.mark.parametrize("max_iters", range(1, 7))
    def test_budget_ended_solve_forms_no_last_direction(self, rng, max_iters):
        rhs, apply_a, apply_m = reduced_problem(rng)
        apply_a, apply_m = counted(apply_a), counted(apply_m)
        out = pcg_solve(
            apply_a, apply_m, rhs, np.zeros(rhs.shape), max_iters, 0.0,
            direction=np.empty(rhs.shape),
        )
        assert out.iterations == max_iters and not out.converged
        assert (apply_m.calls, apply_a.calls) == (max_iters, max_iters + 1)

    def test_converged_solve(self, rng):
        rhs, apply_a, apply_m = reduced_problem(rng)
        apply_a, apply_m = counted(apply_a), counted(apply_m)
        out = pcg_solve(
            apply_a, apply_m, rhs, np.zeros(rhs.shape), 500, 1e-8, direction=np.empty(rhs.shape)
        )
        assert out.converged and out.iterations >= 2
        k = out.iterations
        assert (apply_m.calls, apply_a.calls) == (k, k + 1)

    def test_solve_that_starts_converged(self, rng):
        _, apply_a, apply_m = reduced_problem(rng)
        apply_a, apply_m = counted(apply_a), counted(apply_m)
        out = pcg_solve(
            apply_a, apply_m, np.zeros((12, 10)), np.zeros((12, 10)), 5, 1e-8,
            direction=np.empty((12, 10)),
        )
        assert out.converged and out.iterations == 0
        assert (apply_m.calls, apply_a.calls) == (0, 1)


class TestSameIteratesAsTheDirectionAtBudgetLoop:
    """Stopping before the unused direction changes no bit of x, the residual or the norms."""

    @pytest.mark.parametrize("max_iters, rel_tol", [(1, 0.0), (3, 0.0), (8, 0.0), (500, 1e-8)])
    def test_block_system(self, rng, max_iters, rel_tol):
        n, m = 6, 5
        _, b, apply_a, apply_m = make_problem(rng, n, m, seed=3)
        x0 = SystemVector(rng.standard_normal((n, m)), *arc_grids(n, m))
        got = pcg_solve_blocks(apply_a, apply_m, b, x0, max_iters, rel_tol)
        want = pcg_solve_blocks(
            apply_a, apply_m, b, x0, max_iters, rel_tol, solve=pcg_solve_direction_at_budget
        )
        assert got.x.data.tobytes() == want.x.data.tobytes()
        assert got.residual.data.tobytes() == want.residual.data.tobytes()
        assert got.residual_norms == want.residual_norms
        assert (got.iterations, got.converged) == (want.iterations, want.converged)

    @pytest.mark.parametrize("max_iters, rel_tol", [(1, 0.0), (3, 0.0), (8, 0.0), (500, 1e-8)])
    def test_reduced_system(self, rng, max_iters, rel_tol):
        rhs, apply_a, apply_m = reduced_problem(rng)
        x0 = rng.standard_normal(rhs.shape)
        runs = []
        for solve in (pcg_solve, pcg_solve_direction_at_budget):
            b, x = rhs.copy(), x0.copy()
            out = solve(
                apply_a, apply_m, b, x, max_iters, rel_tol, direction=np.empty(rhs.shape)
            )
            runs.append((out, b, x))
        (got, got_b, got_x), (want, want_b, want_x) = runs
        assert got_x.tobytes() == want_x.tobytes()
        assert got_b.tobytes() == want_b.tobytes()
        assert got.residual_norms == want.residual_norms
        assert (got.iterations, got.converged) == (want.iterations, want.converged)


class TestSharedMapBuffer:
    """Both maps may return one buffer: each output is dead before the other map runs."""

    @pytest.mark.parametrize("max_iters, rel_tol", [(1, 0.0), (6, 0.0), (500, 1e-8)])
    def test_block_system(self, rng, max_iters, rel_tol):
        n, m = 6, 5
        d, b, _, _ = make_problem(rng, n, m, seed=3)
        pc = build_preconditioner(build_spectral_cache(n, m), d, P)
        x0 = SystemVector(rng.standard_normal((n, m)), *arc_grids(n, m))
        zap, ap, z = (SystemVector.zeros(n, m) for _ in range(3))
        got = pcg_solve_blocks(
            lambda v: apply_system(v, d, P, out=zap),
            lambda r: apply_preconditioner(r, pc, out=zap),
            b, x0, max_iters, rel_tol,
        )
        want = pcg_solve_blocks(
            lambda v: apply_system(v, d, P, out=ap),
            lambda r: apply_preconditioner(r, pc, out=z),
            b, x0, max_iters, rel_tol,
        )
        assert got.x.data.tobytes() == want.x.data.tobytes()
        assert got.residual.data.tobytes() == want.residual.data.tobytes()
        assert got.residual_norms == want.residual_norms
        assert (got.iterations, got.converged) == (want.iterations, want.converged)

    @pytest.mark.parametrize("max_iters, rel_tol", [(1, 0.0), (6, 0.0), (500, 1e-8)])
    def test_reduced_system(self, rng, max_iters, rel_tol):
        n, m = 12, 10
        wr = ArcField(rng.uniform(0.5, 2.0, (n - 1, m)), rng.uniform(0.5, 2.0, (n, m - 1)))
        rhs = reduced_rhs(random_gradients(rng, n, m), wr)
        cache = build_spectral_cache(n, m)
        zap, transform, flux = np.empty((n, m)), np.empty((n, m)), arc_grids(n, m)
        shared = (
            lambda v: kernels.weighted_laplacian(v, wr.v, wr.h, *flux, zap),
            lambda r: sylvester_solve(r, P, cache, out=zap, scratch=transform),
        )
        x0 = rng.standard_normal((n, m))
        runs = []
        for apply_a, apply_m in (shared, reduced_maps(wr, cache)):
            b, x = rhs.copy(), x0.copy()
            # the direction's content on entry is not read
            out = pcg_solve(
                apply_a, apply_m, b, x, max_iters, rel_tol, direction=np.full((n, m), np.nan)
            )
            runs.append((out, b, x))
        (got, got_b, got_x), (want, want_b, want_x) = runs
        assert got_x.tobytes() == want_x.tobytes()
        assert got_b.tobytes() == want_b.tobytes()
        assert got.residual_norms == want.residual_norms
        assert (got.iterations, got.converged) == (want.iterations, want.converged)


class TestPreconditioningHelps:
    def test_block_preconditioner_beats_identity(self, rng):
        n = m = 16
        d, b, apply_a, apply_m = make_problem(rng, n, m, seed=33)
        x0 = SystemVector.zeros(n, m)
        tol = 1e-6
        pre = pcg_solve_blocks(apply_a, apply_m, b, x0, 5000, tol)
        ident = pcg_solve_blocks(apply_a, lambda r: r.copy(), b, x0, 5000, tol)
        assert pre.converged
        assert pre.iterations < ident.iterations


class TestBreakdown:
    def test_nonfinite_map_raises_with_index(self, rng):
        n = m = 3
        _, b, apply_a, apply_m = make_problem(rng, n, m, seed=5)

        def bad_apply(v):
            out = apply_a(v)
            out.u[0, 0] = np.nan
            return out

        with pytest.raises(NumericalBreakdown) as err:
            pcg_solve_blocks(bad_apply, apply_m, b, SystemVector.zeros(n, m), 10, 1e-10)
        assert err.value.iteration == 0

    def test_nonfinite_first_preconditioned_product_raises_at_iteration_0(self):
        # r and z = r * 1e200 are finite, their product r'z overflows
        with pytest.raises(NumericalBreakdown, match="preconditioned product") as err:
            pcg_solve(
                lambda v: 1e-300 * v,
                lambda r: r * 1e200,
                np.full(4, 1e100),
                np.zeros(4),
                10,
                1e-12,
                direction=np.empty(4),
            )
        assert err.value.iteration == 0

    def test_nan_curvature_raises_with_its_iteration(self, rng):
        # the third map apply is the curvature of iteration 1
        rhs, apply_a, apply_m = reduced_problem(rng)
        with pytest.raises(NumericalBreakdown, match="curvature") as err:
            pcg_solve(
                spoiled(apply_a, 3, set_nan), apply_m, rhs, np.zeros(rhs.shape), 10, 0.0,
                direction=np.empty(rhs.shape),
            )
        assert err.value.iteration == 1

    def test_overflowing_residual_raises_with_its_iteration(self):
        # p'Ap = 1 is tiny next to the entries of Ap: the updated residual
        # has finite entries of size 1e308 and an infinite norm, which raises
        # without an overflow warning first
        def apply_a(v):
            return np.array([v[0], 1e308, 1e308]) if v.any() else np.zeros(3)

        with pytest.raises(NumericalBreakdown, match="residual norm") as err:
            pcg_solve(
                apply_a, lambda r: r.copy(), np.array([1.0, 0.0, 0.0]), np.zeros(3), 10, 0.0,
                direction=np.empty(3),
            )
        assert err.value.iteration == 1

    def test_overflowing_initial_residual_raises_at_iteration_0(self):
        # finite entries of size 1e308 whose norm overflows, in b and in r
        with pytest.raises(NumericalBreakdown, match="initial residual") as err:
            pcg_solve(
                lambda v: np.zeros(3), lambda r: r.copy(), np.full(3, 1e308), np.zeros(3), 10,
                1e-10, direction=np.empty(3),
            )
        assert err.value.iteration == 0

    def test_overflowing_initial_residual_at_zero_tolerance_raises_without_a_warning(self):
        # a zero tolerance times the overflowing ||b|| would be 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalBreakdown, match="initial residual") as err:
                pcg_solve(
                    lambda v: np.zeros(3), lambda r: r.copy(), np.full(3, 1e308), np.zeros(3), 10,
                    0.0, direction=np.empty(3),
                )
        assert err.value.iteration == 0

    def test_nan_preconditioned_product_raises_with_its_iteration(self, rng):
        # the second preconditioner apply ends iteration 0
        rhs, apply_a, apply_m = reduced_problem(rng)
        with pytest.raises(NumericalBreakdown, match="preconditioned product") as err:
            pcg_solve(
                apply_a, spoiled(apply_m, 2, set_nan), rhs, np.zeros(rhs.shape), 10, 0.0,
                direction=np.empty(rhs.shape),
            )
        assert err.value.iteration == 1

    def test_vanishing_preconditioned_residual_stops_without_division(self):
        # r'z = 0 with z != 0: the step length is 0 and beta would be 0/0
        b = np.array([1.0, 0.0])
        x = np.zeros(2)
        out = pcg_solve(
            lambda v: v.copy(),
            lambda r: np.array([-r[1], r[0]]),
            b,
            x,
            max_iters=10,
            rel_tol=1e-10,
            direction=np.empty(2),
        )
        assert out.iterations == 1
        assert not out.converged
        assert np.array_equal(x, np.zeros(2))

    def test_validates_arguments(self, rng):
        n = m = 3
        _, b, apply_a, apply_m = make_problem(rng, n, m)
        with pytest.raises(ValueError):
            pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), -1, 1e-10)
        with pytest.raises(ValueError):
            pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), 5, -0.1)


class TestAllocations:
    """The CG iteration runs in the caller's vectors, its search direction included."""

    n, m = 96, 80

    def _solve_peak(self, rng, max_iters):
        n, m = self.n, self.m
        d = random_diagonal_weights(n, m, P, seed=8)
        b = build_rhs(random_gradients(rng, n, m), P, out=SystemVector.zeros(n, m))
        pc = build_preconditioner(build_spectral_cache(n, m), d, P)
        # one scratch vector per map and the search direction, allocated
        # once, as irls.unwrap does
        ap = SystemVector.zeros(n, m)
        z = SystemVector.zeros(n, m)
        direction = SystemVector.zeros(n, m)
        x0 = SystemVector.zeros(n, m)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = pcg_solve_blocks(
                lambda v: apply_system(v, d, P, out=ap),
                lambda r: apply_preconditioner(r, pc, out=z),
                b, x0, max_iters, 0.0, direction=direction,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.iterations == max_iters
        return peak - entry, b.data.nbytes, n * m * 8

    def _ufunc_buffer(self):
        """Peak bytes of one strided column difference, numpy's own ufunc buffer."""
        u = np.zeros((self.n, self.m))
        fh = np.empty((self.n, self.m - 1))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            np.subtract(u[:, 1:], u[:, :-1], out=fh)
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    def test_peak_is_two_copies_the_map_temporaries_and_the_ufunc_buffer(self, rng):
        n, m = self.n, self.m
        peak, vector, grid = self._solve_peak(rng, 20)
        # the copies of b and x0 that pcg_solve_blocks iterates in, the slack
        # products apply_system forms, the transform grid apply_preconditioner
        # allocates, and numpy's buffer for the strided column stencils
        arcs = ((n - 1) * m + n * (m - 1)) * 8
        bound = 2 * vector + arcs + grid + self._ufunc_buffer()
        assert peak <= bound, f"peak {peak / grid:.2f} grids, bound {bound / grid:.2f}"

    def test_solve_allocates_no_grid(self, rng):
        # the reduced map and the Sylvester preconditioner write into one
        # shared grid, as in irls.unwrap, so the peak is PCG's own
        n, m = 256, 256
        wr = ArcField(rng.uniform(0.5, 2.0, (n - 1, m)), rng.uniform(0.5, 2.0, (n, m - 1)))
        flux = arc_grids(n, m)
        b = reduced_rhs(random_gradients(rng, n, m), wr)
        cache = build_spectral_cache(n, m)
        x, zap, transform, direction = (np.zeros((n, m)) for _ in range(4))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = pcg_solve(
                lambda v: kernels.weighted_laplacian(v, wr.v, wr.h, *flux, zap),
                lambda r: sylvester_solve(r, P, cache, out=zap, scratch=transform),
                b, x, 20, 0.0, direction=direction,
            )
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert out.iterations == 20
        grid = n * m * 8
        # numpy's fixed-size ufunc buffers (8192 elements per operand) for
        # the strided column stencils and butterflies are all there is
        assert peak <= 2**18, f"peak {peak / grid:.2f} grids"

    def test_peak_does_not_grow_with_iterations(self, rng):
        short, _, grid = self._solve_peak(rng, 4)
        long, _, _ = self._solve_peak(rng, 40)
        assert long <= short + grid, f"{short / grid:.1f} -> {long / grid:.1f} grids"
