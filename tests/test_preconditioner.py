import numpy as np
import pytest

from phaseirls.operators import (
    DiagonalWeights,
    SystemVector,
    apply_system,
    materialize_dense_preconditioner,
)
from phaseirls.irls import unwrap
from phaseirls.preconditioner import (
    apply_preconditioner,
    build_preconditioner,
    build_spectral_cache,
    sylvester_solve,
)
from phaseirls.synth import SceneSpec, generate_scene, wrap_scene

from oracles import dense_s, dense_t, random_state, stack_system


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
        assert np.allclose(np.abs(cache.basis_s), [[1.0]])

    @pytest.mark.parametrize("n", [2, 5, 17, 513])
    def test_orthogonality_and_reconstruction(self, n):
        cache = build_spectral_cache(n, 3)
        p = cache.basis_s
        assert np.max(np.abs(p.T @ p - np.eye(n))) < 1e-10
        sts = dense_s(n).T @ dense_s(n)
        recon = p @ np.diag(cache.lambda_s) @ p.T
        assert np.max(np.abs(recon - sts)) < 1e-10

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
        assert np.all(sylvester_solve(np.zeros((4, 5)), 1e-2, cache) == 0.0)

    def test_two_by_two_reference_value(self):
        cache = build_spectral_cache(2, 2)
        r = np.array([[1.0, -1.0], [-1.0, 1.0]])
        z = sylvester_solve(r, 1.0, cache)
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
            z = sylvester_solve(r, tau, cache)
            want = (pinv @ (tau * r.ravel(order="F"))).reshape((n, m), order="F")
            assert np.max(np.abs(z - want)) < 1e-10

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
            z = sylvester_solve(r, tau, cache)
            resid = sts @ z + z @ ttt - tau * r
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(tau * r)
            assert abs(z.mean()) < 1e-12 * max(1.0, np.abs(z).max())

    def test_rejects_nonpositive_tau(self):
        cache = build_spectral_cache(2, 2)
        with pytest.raises(ValueError):
            sylvester_solve(np.zeros((2, 2)), -1.0, cache)


def random_diag(rng, n, m, hi=5.0):
    return DiagonalWeights(rng.uniform(0, hi, (n - 1, m)), rng.uniform(0, hi, (n, m - 1)))


class TestApplyPreconditioner:
    def test_zero_maps_to_zero(self, rng):
        n, m = 4, 4
        pc = build_preconditioner(build_spectral_cache(n, m), random_diag(rng, n, m), 1e-2)
        out = apply_preconditioner(SystemVector.zeros(n, m), pc)
        assert np.linalg.norm(out.data) == 0.0

    def test_zero_diagonals_scale_by_tau(self, rng):
        n, m, tau = 3, 4, 0.2
        d = DiagonalWeights(np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        pc = build_preconditioner(build_spectral_cache(n, m), d, tau)
        r = random_state(rng, n, m)
        out = apply_preconditioner(r, pc)
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
            z = stack_system(apply_preconditioner(r, pc))
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
            ax = apply_system(x, d, tau)
            z = apply_preconditioner(ax, pc)
            assert abs(z.u.mean()) < 1e-12 * max(1.0, np.abs(z.u).max())

    def test_annihilates_shared_nullspace(self, rng):
        n, m = 4, 3
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, 1e-2)
        const = SystemVector(np.ones((n, m)), np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        out = apply_preconditioner(const, pc)
        assert np.max(np.abs(out.u)) < 1e-12
        assert np.linalg.norm(apply_system(const, d, 1e-2).data) == 0.0

    def test_symmetric_psd_as_operator(self, rng):
        n = m = 4
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, 1e-2)
        for _ in range(20):
            x = random_state(rng, n, m)
            y = random_state(rng, n, m)
            mx = apply_preconditioner(x, pc)
            my = apply_preconditioner(y, pc)
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
        buf = SystemVector.zeros(n, m)
        buf.data[:] = np.nan  # every entry must be overwritten
        got = apply_preconditioner(r, pc, out=buf)
        assert got is buf
        assert np.array_equal(got.data, apply_preconditioner(r, pc).data)
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
        assert np.array_equal(got, sylvester_solve(r, tau, cache))
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        kron_sum = np.kron(np.eye(m), sts) + np.kron(ttt, np.eye(n))
        want = (np.linalg.pinv(kron_sum) @ (tau * r.ravel(order="F"))).reshape((n, m), order="F")
        assert np.max(np.abs(got - want)) < 1e-10

    def test_multiplier_pins_the_constant_mode(self):
        cache = build_spectral_cache(5, 3)
        assert cache.multiplier[0, 0] == 0.0
        denom = cache.lambda_s[:, None] + cache.lambda_t[None, :]
        assert np.array_equal(cache.multiplier.ravel()[1:], 1.0 / denom.ravel()[1:])
