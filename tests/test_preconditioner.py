"""Tests of ``preconditioner``: the closed-form spectral cache and the Sylvester solve."""

import tracemalloc

import numpy as np
import pytest

from phaseirls import preconditioner
from phaseirls.irls import unwrap
from phaseirls.objective import ModelParams
from phaseirls.preconditioner import BAND_ROWS, build_spectral_cache, sylvester_solve
from phaseirls.synth import SceneSpec, generate_scene, wrap_scene

from oracles import (
    dense_s,
    dense_t,
    eig_neumann_allocating,
    scale_by_whole_multiplier,
    spectral_cache_allocating,
    sylvester_solve_dense,
)

CACHE_ARRAYS = ("lambda_s", "lambda_t", "even_s", "odd_s", "even_t", "odd_t")

# The scale runs over each column block's even row modes (ceil(n/2) rows), then
# its odd ones (floor(n/2) rows), in bands of BAND_ROWS: row counts whose halves
# sit one below, at and one above a band boundary, and past two full bands.
BAND_EDGE_ROWS = {
    "halves-one-below": 2 * BAND_ROWS - 2,
    "even-half-at": 2 * BAND_ROWS - 1,
    "halves-at": 2 * BAND_ROWS,
    "even-half-one-above": 2 * BAND_ROWS + 1,
    "halves-one-above": 2 * BAND_ROWS + 2,
    "two-bands-and-a-remainder": 4 * BAND_ROWS + 11,
}


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

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_rejects_an_empty_side(self, shape):
        with pytest.raises(ValueError, match=">= 1"):
            build_spectral_cache(*shape)

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
        bound = (n * n + 1) // 2 + (m * m + 1) // 2 + n + m
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
        z = sylvester_solve(
            np.zeros((4, 5)), ModelParams(tau=1e-2), cache, out=np.full((4, 5), np.nan),
            scratch=np.empty((4, 5)),
        )
        assert np.all(z == 0.0)

    def test_two_by_two_reference_value(self):
        cache = build_spectral_cache(2, 2)
        r = np.array([[1.0, -1.0], [-1.0, 1.0]])
        z = sylvester_solve(
            r, ModelParams(tau=1.0), cache, out=np.zeros((2, 2)), scratch=np.empty((2, 2))
        )
        assert np.allclose(z, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_matches_dense_pseudoinverse(self, rng):
        n, m = 3, 5
        p = ModelParams(tau=0.37)
        cache = build_spectral_cache(n, m)
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        kron_sum = np.kron(np.eye(m), sts) + np.kron(ttt, np.eye(n))
        pinv = np.linalg.pinv(kron_sum)
        for _ in range(10):
            r = rng.standard_normal((n, m))
            z = sylvester_solve(r, p, cache, out=np.zeros((n, m)), scratch=np.empty((n, m)))
            want = (pinv @ (p.tau * r.ravel(order="F"))).reshape((n, m), order="F")
            assert np.max(np.abs(z - want)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 33])
    def test_matches_the_dense_two_product_solve(self, rng, n):
        shapes = [(n, m) for m in (1, 2, 3, 4, 5, 16, 17, 33)]
        if n == 1:
            shapes += [(1, 1024), (1024, 1), (513, 257)]
        p = ModelParams(tau=0.37)
        for n_, m in shapes:
            r = rng.standard_normal((n_, m))
            got = sylvester_solve(
                r, p, build_spectral_cache(n_, m), out=np.full((n_, m), np.nan),
                scratch=np.empty((n_, m)),
            )
            want = sylvester_solve_dense(r, p.tau)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (n_, m)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 8), (8, 3), (17, 2)])
    def test_residual_on_mean_zero_rhs(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=1e-2)
        cache = build_spectral_cache(n, m)
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        for _ in range(10):
            r = rng.standard_normal((n, m))
            r -= r.mean()
            z = sylvester_solve(r, p, cache, out=np.zeros((n, m)), scratch=np.empty((n, m)))
            resid = sts @ z + z @ ttt - p.tau * r
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(p.tau * r)
            assert abs(z.mean()) < 1e-12 * max(1.0, np.abs(z).max())

    def test_rejects_an_out_that_is_not_c_contiguous(self):
        cache = build_spectral_cache(3, 4)
        with pytest.raises(ValueError, match="C-contiguous"):
            sylvester_solve(
                np.ones((3, 4)), ModelParams(tau=1.0), cache, out=np.zeros((4, 3)).T,
                scratch=np.empty((3, 4)),
            )

    @pytest.mark.parametrize(
        "scratch",
        [np.empty((4, 3)), np.empty((3, 5)), np.empty((4, 3)).T, np.empty((3, 8))[:, ::2]],
        ids=["wrong-shape", "wrong-width", "transposed", "strided"],
    )
    def test_rejects_a_scratch_that_is_not_a_c_contiguous_grid(self, scratch):
        cache = build_spectral_cache(3, 4)
        with pytest.raises(ValueError, match="scratch"):
            sylvester_solve(
                np.ones((3, 4)), ModelParams(tau=1.0), cache, out=np.zeros((3, 4)), scratch=scratch
            )

    @pytest.mark.parametrize("overlap", ["r", "out"])
    def test_rejects_a_scratch_overlapping_r_or_out(self, overlap):
        # a scratch sharing memory with either grid would corrupt the result silently
        cache = build_spectral_cache(3, 4)
        buf = np.ones(24)
        grids = {"r": np.ones((3, 4)), "out": np.zeros((3, 4)), overlap: buf[:12].reshape(3, 4)}
        with pytest.raises(ValueError, match="overlap"):
            sylvester_solve(
                grids["r"], ModelParams(tau=1.0), cache, out=grids["out"],
                scratch=buf[6:18].reshape(3, 4),
            )
        assert np.all(buf == 1.0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 8)])
    def test_out_may_alias_the_input(self, rng, shape):
        cache = build_spectral_cache(*shape)
        r = rng.standard_normal(shape)
        p = ModelParams(tau=0.37)
        want = sylvester_solve(r, p, cache, out=np.zeros(shape), scratch=np.empty(shape))
        got = sylvester_solve(r, p, cache, out=r, scratch=np.empty(shape))
        assert np.array_equal(got, want)


class TestOutArguments:
    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1), (3, 5)])
    def test_sylvester_solve_writes_into_out(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=0.37)
        cache = build_spectral_cache(n, m)
        r = rng.standard_normal((n, m))
        buf = np.full((n, m), np.nan)
        got = sylvester_solve(r, p, cache, out=buf, scratch=np.empty((n, m)))
        assert got is buf
        want = sylvester_solve(r, p, cache, out=np.zeros((n, m)), scratch=np.empty((n, m)))
        assert np.array_equal(got, want)
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        kron_sum = np.kron(np.eye(m), sts) + np.kron(ttt, np.eye(n))
        want = (np.linalg.pinv(kron_sum) @ (p.tau * r.ravel(order="F"))).reshape((n, m), order="F")
        assert np.max(np.abs(got - want)) < 1e-10


class TestBandedScale:
    """The multiplier formed band by band in scratch scales as the whole one did."""

    @staticmethod
    def assert_equals_the_whole_multiplier(rng, monkeypatch, shape):
        cache = build_spectral_cache(*shape)
        for p in (ModelParams(tau=0.37), ModelParams()):
            r = rng.standard_normal(shape)
            got = sylvester_solve(
                r, p, cache, out=np.full(shape, np.nan), scratch=np.full(shape, np.nan)
            )
            with monkeypatch.context() as patch:
                patch.setattr(preconditioner, "_scale", scale_by_whole_multiplier)
                want = sylvester_solve(r, p, cache, out=np.empty(shape), scratch=np.empty(shape))
            assert got.tobytes() == want.tobytes(), shape

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 4), (33, 17)])
    def test_equals_the_whole_multiplier_byte_for_byte(self, rng, monkeypatch, shape):
        self.assert_equals_the_whole_multiplier(rng, monkeypatch, shape)

    @pytest.mark.parametrize("rows", BAND_EDGE_ROWS.values(), ids=BAND_EDGE_ROWS.keys())
    def test_equals_the_whole_multiplier_at_band_boundaries(self, rng, monkeypatch, rows):
        assert BAND_EDGE_ROWS["two-bands-and-a-remainder"] // 2 % BAND_ROWS > 0
        assert BAND_EDGE_ROWS["two-bands-and-a-remainder"] // 2 > 2 * BAND_ROWS
        for m in (1, 2, 7):
            self.assert_equals_the_whole_multiplier(rng, monkeypatch, (rows, m))

    @pytest.mark.parametrize("band_rows", [1, 2, 3])
    def test_equals_the_whole_multiplier_in_narrow_bands(self, rng, monkeypatch, band_rows):
        # many bands per half, and a first band of one row holding the constant mode
        monkeypatch.setattr(preconditioner, "BAND_ROWS", band_rows)
        for shape in [(1, 1), (9, 1), (1, 9), (33, 17), (16, 5)]:
            self.assert_equals_the_whole_multiplier(rng, monkeypatch, shape)

    def test_bands_are_carved_from_scratch(self, rng):
        # a band of this wide grid is an eighth of it; an apply allocates only
        # numpy's fixed-size iterator buffers (about 130 KiB of a 4.2 MB grid)
        shape = (4 * BAND_ROWS + 2, 2048)
        cache = build_spectral_cache(*shape)
        r, out, scratch = rng.standard_normal(shape), np.empty(shape), np.empty(shape)
        sylvester_solve(r, ModelParams(), cache, out=out, scratch=scratch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sylvester_solve(r, ModelParams(), cache, out=out, scratch=scratch)
            grown = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert grown <= r.nbytes / 16, f"an apply allocated {grown / r.nbytes:.3f} grids"

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 2), (1, 9), (9, 1), (3, 4), (33, 17)])
    def test_constant_input_has_its_constant_mode_zeroed(self, shape):
        # the one nonzero coefficient of a constant is the constant mode's, which
        # the scale zeroes: no division by zero, and what is left is the transforms'
        # round-off, exactly zero where they are exact (the 1 x 1 and 2-point ones)
        cache = build_spectral_cache(*shape)
        for c in (3.7, -1e6):
            z = sylvester_solve(
                np.full(shape, c), ModelParams(tau=0.37), cache, out=np.full(shape, np.nan),
                scratch=np.full(shape, np.nan),
            )
            if max(shape) <= 2:
                assert np.all(z == 0.0)
            else:
                assert np.max(np.abs(z)) <= 1e-13 * abs(c)
