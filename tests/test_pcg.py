import tracemalloc

import numpy as np
import pytest

from phaseirls import kernels
from phaseirls.diagnostics import (
    apply_preconditioner,
    apply_system,
    build_preconditioner,
    build_rhs,
    materialize_dense_system,
    random_diagonal_weights,
)
from phaseirls.objective import ModelParams
from phaseirls.operators import (
    SystemVector,
    build_reduced_rhs,
    recover_slacks,
    reduced_weights,
)
from phaseirls.pcg import NumericalBreakdown, pcg_solve
from phaseirls.phase import ArcField, WeightField
from phaseirls.preconditioner import build_spectral_cache, sylvester_solve

from oracles import (
    arc_grids,
    dense_arc_map,
    pcg_solve_blocks,
    random_gradients,
    stack_system,
    unstack_system,
    vec,
)

TAU = 1e-2
DELTA = 1e-6


def make_problem(rng, n, m, seed=0):
    d = random_diagonal_weights(n, m, DELTA, seed=seed)
    g = random_gradients(rng, n, m)
    b = build_rhs(g, TAU, out=SystemVector.zeros(n, m))
    pc = build_preconditioner(build_spectral_cache(n, m), d, TAU)
    apply_a = lambda v: apply_system(v, d, TAU, out=SystemVector.zeros(n, m))
    apply_m = lambda r: apply_preconditioner(r, pc, out=SystemVector.zeros(n, m))
    return d, b, apply_a, apply_m


def reduced_maps(wr, cache):
    """The reduced map and the Sylvester preconditioner, each writing into one grid."""
    n, m = cache.lambda_s.size, cache.lambda_t.size
    ap, z, flux = np.empty((n, m)), np.empty((n, m)), arc_grids(n, m)
    return (
        lambda v: kernels.weighted_laplacian(v, wr.v, wr.h, *flux, ap),
        lambda r: sylvester_solve(r, TAU, cache, out=z),
    )


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

    def test_exact_start_converges_immediately(self, rng):
        n = m = 5
        d, b, apply_a, apply_m = make_problem(rng, n, m, seed=4)
        a = materialize_dense_system(n, m, d, TAU)
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
        a = materialize_dense_system(n, m, d, TAU)
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
        a = materialize_dense_system(n, m, d, TAU)
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
        d = random_diagonal_weights(n, m, DELTA, seed=12)
        g = random_gradients(rng, n, m)
        b = build_rhs(g, TAU, out=SystemVector.zeros(n, m))
        x_star = np.linalg.pinv(materialize_dense_system(n, m, d, TAU)) @ stack_system(b)
        # c = 1 and w = 1/d give the reduced weights d / (1 + tau d)
        wr = reduced_weights(
            WeightField.uniform(n, m), ArcField(1 / d.v, 1 / d.h), TAU,
            out=ArcField(*arc_grids(n, m)), flux=arc_grids(n, m),
        )
        x = np.zeros((n, m))
        out = pcg_solve(
            *reduced_maps(wr, build_spectral_cache(n, m)),
            build_reduced_rhs(g, wr, out=np.zeros((n, m)), flux=arc_grids(n, m)),
            x,
            max_iters=3 * n * m,
            rel_tol=1e-12,
        )
        assert out.converged
        got = recover_slacks(
            x - x.mean(), g, wr, TAU, out=SystemVector.zeros(n, m), flux=arc_grids(n, m)
        )
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
        b = build_reduced_rhs(
            random_gradients(rng, n, m), wr, out=np.zeros((n, m)), flux=arc_grids(n, m)
        )
        x = np.zeros((n, m))
        out = pcg_solve(
            *reduced_maps(wr, build_spectral_cache(n, m)),
            b.copy(),
            x,
            max_iters=400,
            rel_tol=1e-13,
        )
        assert out.converged
        assert out.iterations > 50
        k = dense_arc_map(n, m)
        kt_w_k = k.T @ np.diag(np.concatenate([vec(wr.v), vec(wr.h)])) @ k
        x_star = np.linalg.pinv(kt_w_k) @ vec(b)
        got = vec(x - x.mean())
        assert np.linalg.norm(got - x_star) / np.linalg.norm(x_star) < 1e-9
        assert abs(x.mean()) <= 1e-12 * np.abs(x).max()


class TestInPlace:
    def test_x_ends_as_the_iterate_and_b_as_the_residual(self, rng):
        n, m = 12, 10
        wr = ArcField(rng.uniform(0.5, 2.0, (n - 1, m)), rng.uniform(0.5, 2.0, (n, m - 1)))
        rhs = build_reduced_rhs(
            random_gradients(rng, n, m), wr, out=np.zeros((n, m)), flux=arc_grids(n, m)
        )
        b = rhs.copy()
        x = np.zeros((n, m))
        apply_a, apply_m = reduced_maps(wr, build_spectral_cache(n, m))
        out = pcg_solve(
            apply_a,
            apply_m,
            b,
            x,
            max_iters=8,
            rel_tol=0.0,
        )
        assert out.iterations == 8
        assert np.linalg.norm(b) == out.residual_norms[-1]
        # b is the recurrence residual of the iterate left in x
        drift = rhs - apply_a(x) - b
        assert np.linalg.norm(drift) <= 1e-10 * np.linalg.norm(rhs)
        assert np.linalg.norm(b) < 1e-2 * np.linalg.norm(rhs)


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
    """The CG iteration reuses its vectors: it allocates only the search direction."""

    n, m = 96, 80

    def _solve_peak(self, rng, max_iters):
        n, m = self.n, self.m
        d = random_diagonal_weights(n, m, DELTA, seed=8)
        b = build_rhs(random_gradients(rng, n, m), TAU, out=SystemVector.zeros(n, m))
        pc = build_preconditioner(build_spectral_cache(n, m), d, TAU)
        # one scratch vector per map, allocated once, as irls.unwrap does
        ap = SystemVector.zeros(n, m)
        z = SystemVector.zeros(n, m)
        x0 = SystemVector.zeros(n, m)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = pcg_solve_blocks(
                lambda v: apply_system(v, d, TAU, out=ap),
                lambda r: apply_preconditioner(r, pc, out=z),
                b, x0, max_iters, 0.0,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.iterations == max_iters
        return peak - entry, b.data.nbytes, n * m * 8

    def test_peak_is_three_vectors_and_three_grids(self, rng):
        peak, vector, grid = self._solve_peak(rng, 20)
        assert peak <= 3 * vector + 3 * grid, f"peak {peak / grid:.1f} grids"

    def test_solve_allocates_one_grid(self, rng):
        # maps that write into preallocated grids, so the peak is PCG's own
        n, m = 256, 256
        wr = ArcField(rng.uniform(0.5, 2.0, (n - 1, m)), rng.uniform(0.5, 2.0, (n, m - 1)))
        flux = arc_grids(n, m)
        b = build_reduced_rhs(random_gradients(rng, n, m), wr, out=np.zeros((n, m)), flux=flux)
        x = np.zeros((n, m))
        ap, z = np.empty((n, m)), np.empty((n, m))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = pcg_solve(
                lambda v: kernels.weighted_laplacian(v, wr.v, wr.h, *flux, ap),
                lambda r: np.multiply(r, 0.5, out=z),
                b, x, 20, 0.0,
            )
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert out.iterations == 20
        grid = n * m * 8
        # the search direction, plus numpy's fixed-size ufunc buffers (8192
        # elements per operand) for the strided column stencils
        assert peak <= grid + 2**18, f"peak {peak / grid:.2f} grids"

    def test_peak_does_not_grow_with_iterations(self, rng):
        short, _, grid = self._solve_peak(rng, 4)
        long, _, _ = self._solve_peak(rng, 40)
        assert long <= short + grid, f"{short / grid:.1f} -> {long / grid:.1f} grids"
