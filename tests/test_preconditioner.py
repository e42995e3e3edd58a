import numpy as np
import pytest

from phaseirls.diagnostics import apply_preconditioner, apply_system, build_preconditioner
from phaseirls.irls import unwrap
from phaseirls.operators import SystemVector
from phaseirls.phase import ArcField
from phaseirls.preconditioner import build_spectral_cache, sylvester_solve
from phaseirls.synth import SceneSpec, generate_scene, wrap_scene

from oracles import (
    dense_s,
    dense_t,
    eig_neumann_allocating,
    even_odd_coefficients,
    materialize_dense_preconditioner,
    nan_vector,
    random_state,
    spectral_cache_allocating,
    stack_system,
    sylvester_solve_dense,
)

CACHE_ARRAYS = ("lambda_s", "lambda_t", "even_s", "odd_s", "even_t", "odd_t", "multiplier")


def full_basis(even, odd):
    """The n x n DCT-II basis rebuilt from its halves by P[n-1-i, k] = (-1)^k P[i, k]."""
    he, ho = even.shape[0], odd.shape[0]
    n = he + ho
    p = np.full((n, n), np.nan)
    p[:he, 0::2] = even
    p[::-1][:he, 0::2] = even
    p[:ho, 1::2] = odd
    p[::-1][:ho, 1::2] = -odd
    if n % 2:
        p[ho, 1::2] = 0.0
    return p


class TestSpectralCache:
    def test_two_point_eigenvalues(self):
        cache = build_spectral_cache(2, 2)
        assert np.allclose(cache.lambda_s, [0.0, 2.0], atol=1e-12)

    def test_three_point_eigenvalues(self):
        cache = build_spectral_cache(3, 2)
        assert np.allclose(cache.lambda_s, [0.0, 1.0, 3.0], atol=1e-12)

    def test_single_point(self):
        cache = build_spectral_cache(1, 1)
        assert cache.lambda_s.tolist() == [0.0]
        assert np.allclose(np.abs(cache.even_s), [[1.0]])
        assert cache.odd_s.shape == (0, 0)

    @pytest.mark.parametrize("n", [2, 5, 17, 513])
    def test_orthogonality_and_reconstruction(self, n):
        cache = build_spectral_cache(n, 3)
        p = full_basis(cache.even_s, cache.odd_s)
        assert np.max(np.abs(p.T @ p - np.eye(n))) < 1e-10
        sts = dense_s(n).T @ dense_s(n)
        recon = p @ np.diag(cache.lambda_s) @ p.T
        assert np.max(np.abs(recon - sts)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024])
    def test_bit_equal_to_the_allocating_form(self, n):
        for m in (1, 3, n):
            got = build_spectral_cache(n, m)
            want = spectral_cache_allocating(n, m)
            for name in CACHE_ARRAYS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024])
    def test_halves_are_slices_of_the_full_basis(self, n):
        _, p = eig_neumann_allocating(n)
        cache = build_spectral_cache(n, 2)
        assert cache.even_s.shape == ((n + 1) // 2,) * 2
        assert cache.odd_s.shape == (n // 2,) * 2
        assert cache.even_s.tobytes() == np.ascontiguousarray(p[: (n + 1) // 2, 0::2]).tobytes()
        assert cache.odd_s.tobytes() == np.ascontiguousarray(p[: n // 2, 1::2]).tobytes()
        # the symmetry the split rests on holds for the whole closed-form basis,
        # up to the round-off of cos at arguments up to pi * n
        if n > 1:
            assert np.max(np.abs(full_basis(cache.even_s, cache.odd_s) - p)) < 1e-13

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (2, 3), (17, 16), (64, 33), (513, 257)])
    def test_cache_holds_no_full_basis(self, shape):
        n, m = shape
        cache = build_spectral_cache(n, m)
        total = sum(getattr(cache, name).size for name in CACHE_ARRAYS)
        bound = (n * n + 1) // 2 + (m * m + 1) // 2 + n * m + n + m
        assert total <= bound

    @pytest.mark.parametrize("n", [2, 3, 9, 33, 2048])
    def test_exactly_one_zero_eigenvalue(self, n):
        cache = build_spectral_cache(n, 2)
        assert np.sum(cache.lambda_s == 0.0) == 1
        assert np.all(cache.lambda_s[1:] > 1e-10)
        assert np.all(np.diff(cache.lambda_s) > 0)

    def test_unwrap_runs_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Neumann eigenpairs are closed-form; eigh must not run")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        spec = SceneSpec("gaussian-bumps", 9, 14, amplitude=4.0, feature_scale=3.0, seed=6)
        res = unwrap(wrap_scene(generate_scene(spec)))
        assert res.u.shape == (9, 14)


class TestSylvesterSolve:
    def test_zero_rhs(self):
        cache = build_spectral_cache(4, 5)
        z = sylvester_solve(np.zeros((4, 5)), 1e-2, cache, out=np.full((4, 5), np.nan))
        assert np.all(z == 0.0)

    def test_two_by_two_reference_value(self):
        cache = build_spectral_cache(2, 2)
        r = np.array([[1.0, -1.0], [-1.0, 1.0]])
        z = sylvester_solve(r, 1.0, cache, out=np.zeros((2, 2)))
        assert np.allclose(z, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_matches_dense_pseudoinverse(self, rng):
        n, m = 3, 5
        tau = 0.37
        cache = build_spectral_cache(n, m)
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        kron_sum = np.kron(np.eye(m), sts) + np.kron(ttt, np.eye(n))
        pinv = np.linalg.pinv(kron_sum)
        for _ in range(10):
            r = rng.standard_normal((n, m))
            z = sylvester_solve(r, tau, cache, out=np.zeros((n, m)))
            want = (pinv @ (tau * r.ravel(order="F"))).reshape((n, m), order="F")
            assert np.max(np.abs(z - want)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 33])
    def test_matches_the_dense_two_product_solve(self, rng, n):
        shapes = [(n, m) for m in (1, 2, 3, 4, 5, 16, 17, 33)]
        if n == 1:
            shapes += [(1, 1024), (1024, 1), (513, 257)]
        for n_, m in shapes:
            r = rng.standard_normal((n_, m))
            got = sylvester_solve(r, 0.37, build_spectral_cache(n_, m), out=np.full((n_, m), np.nan))
            want = sylvester_solve_dense(r, 0.37)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (n_, m)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 8), (8, 3), (17, 2)])
    def test_residual_on_mean_zero_rhs(self, rng, shape):
        n, m = shape
        tau = 1e-2
        cache = build_spectral_cache(n, m)
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        for _ in range(10):
            r = rng.standard_normal((n, m))
            r -= r.mean()
            z = sylvester_solve(r, tau, cache, out=np.zeros((n, m)))
            resid = sts @ z + z @ ttt - tau * r
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(tau * r)
            assert abs(z.mean()) < 1e-12 * max(1.0, np.abs(z).max())

    def test_rejects_nonpositive_tau(self):
        cache = build_spectral_cache(2, 2)
        with pytest.raises(ValueError):
            sylvester_solve(np.zeros((2, 2)), -1.0, cache, out=np.zeros((2, 2)))

    def test_rejects_an_out_that_is_not_c_contiguous(self):
        cache = build_spectral_cache(3, 4)
        with pytest.raises(ValueError, match="C-contiguous"):
            sylvester_solve(np.ones((3, 4)), 1.0, cache, out=np.zeros((4, 3)).T)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 8)])
    def test_out_may_alias_the_input(self, rng, shape):
        cache = build_spectral_cache(*shape)
        r = rng.standard_normal(shape)
        want = sylvester_solve(r, 0.37, cache, out=np.zeros(shape))
        assert np.array_equal(sylvester_solve(r, 0.37, cache, out=r), want)


def random_diag(rng, n, m, hi=5.0):
    return ArcField(rng.uniform(0, hi, (n - 1, m)), rng.uniform(0, hi, (n, m - 1)))


class TestApplyPreconditioner:
    def test_zero_maps_to_zero(self, rng):
        n, m = 4, 4
        pc = build_preconditioner(build_spectral_cache(n, m), random_diag(rng, n, m), 1e-2)
        out = apply_preconditioner(SystemVector.zeros(n, m), pc, out=nan_vector(n, m))
        assert np.linalg.norm(out.data) == 0.0

    def test_zero_diagonals_scale_by_tau(self, rng):
        n, m, tau = 3, 4, 0.2
        d = ArcField(np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        pc = build_preconditioner(build_spectral_cache(n, m), d, tau)
        r = random_state(rng, n, m)
        out = apply_preconditioner(r, pc, out=SystemVector.zeros(n, m))
        assert np.allclose(out.vv, tau * r.vv, atol=1e-14)
        assert np.allclose(out.vh, tau * r.vh, atol=1e-14)

    def test_dense_roundtrip_on_range(self, rng):
        n = m = 4
        tau = 1e-2
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, tau)
        dmat = materialize_dense_preconditioner(n, m, d, tau)
        null = np.concatenate(
            [np.ones(n * m), np.zeros((n - 1) * m + n * (m - 1))]
        ) / np.sqrt(n * m)
        for _ in range(10):
            r = random_state(rng, n, m)
            r.u -= r.u.mean()
            z = stack_system(apply_preconditioner(r, pc, out=SystemVector.zeros(n, m)))
            back = dmat @ z
            rs = stack_system(r)
            projected = rs - (null @ rs) * null
            assert np.linalg.norm(back - projected) <= 1e-9 * max(1.0, np.linalg.norm(rs))

    def test_never_reintroduces_constant_mode(self, rng):
        n, m = 5, 6
        tau = 1e-2
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, tau)
        for _ in range(20):
            x = random_state(rng, n, m)
            ax = apply_system(x, d, tau, out=SystemVector.zeros(n, m))
            z = apply_preconditioner(ax, pc, out=SystemVector.zeros(n, m))
            assert abs(z.u.mean()) < 1e-12 * max(1.0, np.abs(z.u).max())

    def test_annihilates_shared_nullspace(self, rng):
        n, m = 4, 3
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, 1e-2)
        const = SystemVector(np.ones((n, m)), np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        out = apply_preconditioner(const, pc, out=nan_vector(n, m))
        assert np.max(np.abs(out.u)) < 1e-12
        assert np.linalg.norm(apply_system(const, d, 1e-2, out=nan_vector(n, m)).data) == 0.0

    def test_symmetric_psd_as_operator(self, rng):
        n = m = 4
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, 1e-2)
        for _ in range(20):
            x = random_state(rng, n, m)
            y = random_state(rng, n, m)
            mx = apply_preconditioner(x, pc, out=SystemVector.zeros(n, m))
            my = apply_preconditioner(y, pc, out=SystemVector.zeros(n, m))
            assert np.vdot(mx.data, y.data) == pytest.approx(
                np.vdot(x.data, my.data), rel=1e-9, abs=1e-9
            )
            assert np.vdot(mx.data, x.data) >= -1e-10 * np.vdot(x.data, x.data)


class TestOutArguments:
    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1), (3, 5)])
    def test_apply_preconditioner_writes_into_out(self, rng, shape):
        n, m = shape
        tau = 1e-2
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, tau)
        r = random_state(rng, n, m)
        buf = nan_vector(n, m)  # every entry must be overwritten
        got = apply_preconditioner(r, pc, out=buf)
        assert got is buf
        zeroed = apply_preconditioner(r, pc, out=SystemVector.zeros(n, m))
        assert np.array_equal(got.data, zeroed.data)
        want = np.linalg.pinv(materialize_dense_preconditioner(n, m, d, tau)) @ stack_system(r)
        assert np.max(np.abs(stack_system(got) - want)) <= 1e-10 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1), (3, 5)])
    def test_sylvester_solve_writes_into_out(self, rng, shape):
        n, m = shape
        tau = 0.37
        cache = build_spectral_cache(n, m)
        r = rng.standard_normal((n, m))
        buf = np.full((n, m), np.nan)
        got = sylvester_solve(r, tau, cache, out=buf)
        assert got is buf
        assert np.array_equal(got, sylvester_solve(r, tau, cache, out=np.zeros((n, m))))
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        kron_sum = np.kron(np.eye(m), sts) + np.kron(ttt, np.eye(n))
        want = (np.linalg.pinv(kron_sum) @ (tau * r.ravel(order="F"))).reshape((n, m), order="F")
        assert np.max(np.abs(got - want)) < 1e-10

    def test_multiplier_pins_the_constant_mode(self):
        # 1 / (lambda_s + lambda_t) in the cache's even-then-odd order, constant mode first
        for n, m in [(5, 3), (1, 1), (1, 6), (5, 1), (4, 6), (33, 16)]:
            cache = build_spectral_cache(n, m)
            assert cache.multiplier.shape == (n * m,)
            assert cache.multiplier[0] == 0.0
            assert np.count_nonzero(cache.multiplier == 0.0) == 1
            denom = even_odd_coefficients(cache.lambda_s[:, None] + cache.lambda_t[None, :])
            assert np.array_equal(cache.multiplier[1:], 1.0 / denom[1:])
