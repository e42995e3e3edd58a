import tracemalloc

import numpy as np
import pytest

from phaseirls.diagnostics import random_diagonal_weights
from phaseirls.objective import ModelParams
from phaseirls.objective import IrlsWeights
from phaseirls.operators import (
    DiagonalWeights,
    SystemVector,
    apply_reduced_system,
    apply_system,
    build_reduced_rhs,
    build_rhs,
    materialize_dense_system,
    recover_slacks,
    reduced_weights,
    stack_system,
    unstack_system,
)
from phaseirls.pcg import NumericalBreakdown, pcg_solve
from phaseirls.phase import WeightField
from phaseirls.preconditioner import (
    apply_preconditioner,
    build_preconditioner,
    build_spectral_cache,
    sylvester_solve,
)

from oracles import dense_arc_map, pcg_solve_blocks, random_gradients, vec

TAU = 1e-2
DELTA = 1e-6


def make_problem(rng, n, m, seed=0):
    d = random_diagonal_weights(n, m, DELTA, seed=seed)
    g = random_gradients(rng, n, m)
    b = build_rhs(g, TAU)
    pc = build_preconditioner(build_spectral_cache(n, m), d, TAU)
    apply_a = lambda v: apply_system(v, d, TAU)
    apply_m = lambda r: apply_preconditioner(r, pc)
    return d, b, apply_a, apply_m


class TestPcgBasics:
    def test_zero_rhs_zero_start(self, rng):
        n = m = 4
        _, _, apply_a, apply_m = make_problem(rng, n, m)
        b = SystemVector.zeros(n, m)
        out = pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), 50, 1e-10)
        assert out.iterations == 0
        assert out.converged
        assert out.x.norm() == 0.0
        assert len(out.residual_norms) == 1

    def test_exact_start_converges_immediately(self, rng):
        n = m = 5
        d, b, apply_a, apply_m = make_problem(rng, n, m, seed=4)
        a = materialize_dense_system(n, m, d, TAU)
        x_star = unstack_system(np.linalg.pinv(a) @ stack_system(b), n, m)
        out = pcg_solve_blocks(apply_a, apply_m, b, x_star, 50, 1e-8)
        assert out.iterations == 0
        assert out.converged
        assert out.residual_norms[0] <= 1e-8 * b.norm()

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
        dim = b.dim
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
            true_res = b.copy()
            true_res.axpy(-1.0, apply_a(out.x))
            drift = true_res.copy()
            drift.axpy(-1.0, out.residual)
            assert drift.norm() <= 1e-8 * b.norm()

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
        b = build_rhs(g, TAU)
        x_star = np.linalg.pinv(materialize_dense_system(n, m, d, TAU)) @ stack_system(b)
        # c = 1 and w = 1/d give the reduced weights d / (1 + tau d)
        wr = reduced_weights(WeightField.uniform(n, m), IrlsWeights(1 / d.dv, 1 / d.dh), TAU)
        cache = build_spectral_cache(n, m)
        out = pcg_solve(
            lambda v: apply_reduced_system(v, wr),
            lambda r: sylvester_solve(r, TAU, cache),
            build_reduced_rhs(g, wr),
            np.zeros((n, m)),
            max_iters=3 * n * m,
            rel_tol=1e-12,
        )
        assert out.converged
        got = recover_slacks(out.x - out.x.mean(), g, wr, TAU)
        rel = np.linalg.norm(stack_system(got) - x_star) / np.linalg.norm(x_star)
        assert rel < 1e-6

    def test_long_solve_needs_no_projection(self, rng):
        # reduced weights spread over three decades below 1/tau make the
        # Sylvester-preconditioned solve take a few hundred iterations; the
        # preconditioner's zeroed constant mode alone keeps x mean-zero
        n, m = 32, 24
        wr = DiagonalWeights(
            10 ** rng.uniform(-1, 2, (n - 1, m)), 10 ** rng.uniform(-1, 2, (n, m - 1))
        )
        b = build_reduced_rhs(random_gradients(rng, n, m), wr)
        cache = build_spectral_cache(n, m)
        out = pcg_solve(
            lambda v: apply_reduced_system(v, wr),
            lambda r: sylvester_solve(r, TAU, cache),
            b,
            np.zeros((n, m)),
            max_iters=400,
            rel_tol=1e-13,
        )
        assert out.converged
        assert out.iterations > 50
        k = dense_arc_map(n, m)
        kt_w_k = k.T @ np.diag(np.concatenate([vec(wr.dv), vec(wr.dh)])) @ k
        x_star = np.linalg.pinv(kt_w_k) @ vec(b)
        got = vec(out.x - out.x.mean())
        assert np.linalg.norm(got - x_star) / np.linalg.norm(x_star) < 1e-9
        assert abs(out.x.mean()) <= 1e-12 * np.abs(out.x).max()


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
        out = pcg_solve(
            lambda v: v.copy(),
            lambda r: np.array([-r[1], r[0]]),
            b,
            np.zeros(2),
            max_iters=10,
            rel_tol=1e-10,
        )
        assert out.iterations == 1
        assert not out.converged
        assert np.array_equal(out.x, np.zeros(2))

    def test_validates_arguments(self, rng):
        n = m = 3
        _, b, apply_a, apply_m = make_problem(rng, n, m)
        with pytest.raises(ValueError):
            pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), -1, 1e-10)
        with pytest.raises(ValueError):
            pcg_solve_blocks(apply_a, apply_m, b, SystemVector.zeros(n, m), 5, -0.1)


class TestAllocations:
    """The CG iteration reuses its vectors: only x, r and p are allocated."""

    n, m = 96, 80

    def _solve_peak(self, rng, max_iters):
        n, m = self.n, self.m
        d = random_diagonal_weights(n, m, DELTA, seed=8)
        b = build_rhs(random_gradients(rng, n, m), TAU)
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

    def test_peak_does_not_grow_with_iterations(self, rng):
        short, _, grid = self._solve_peak(rng, 4)
        long, _, _ = self._solve_peak(rng, 40)
        assert long <= short + grid, f"{short / grid:.1f} -> {long / grid:.1f} grids"
