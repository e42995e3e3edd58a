import numpy as np
import pytest

from phaseirls import kernels
from phaseirls.diagnostics import (
    SizeLimitExceeded,
    apply_system,
    build_rhs,
    materialize_dense_system,
)
from phaseirls.operators import (
    SystemVector,
    build_reduced_rhs,
    recover_slacks,
    reduced_weights,
)
from phaseirls.phase import ArcField, WeightField

from oracles import (
    apply_system_without_data,
    arc_grids,
    dense_arc_map,
    dense_s,
    dense_system_entrywise,
    dense_t,
    nan_vector,
    random_gradients,
    random_state,
    stack_system,
    unstack_system,
    vec,
)


def random_diag(rng, n, m, hi=5.0):
    return ArcField(rng.uniform(0, hi, (n - 1, m)), rng.uniform(0, hi, (n, m - 1)))


class TestStencils:
    # S u is kernels.diff_rows and u T is kernels.diff_cols; adj_* are their adjoints
    def test_apply_s_forward_differences(self):
        out = kernels.diff_rows(np.array([[0.0], [1.0], [3.0]]))
        assert np.array_equal(out, [[1.0], [2.0]])

    def test_apply_s_kills_constants(self):
        assert np.all(kernels.diff_rows(4.2 * np.ones((5, 3))) == 0.0)

    def test_apply_s_matches_dense(self, rng):
        u = rng.standard_normal((7, 5))
        assert np.allclose(kernels.diff_rows(u), dense_s(7) @ u, atol=1e-14)

    def test_apply_s_transpose_single_arc(self):
        assert np.array_equal(kernels.adj_diff_rows(np.array([[1.0]])), [[-1.0], [1.0]])

    def test_apply_s_transpose_zero(self):
        assert np.all(kernels.adj_diff_rows(np.zeros((3, 4))) == 0.0)

    def test_apply_t_forward_differences(self):
        assert np.array_equal(kernels.diff_cols(np.array([[0.0, 1.0, 3.0]])), [[1.0, 2.0]])

    def test_apply_t_transpose_single_arc(self):
        assert np.array_equal(kernels.adj_diff_cols(np.array([[1.0]])), [[-1.0, 1.0]])

    def test_apply_t_matches_dense(self, rng):
        u = rng.standard_normal((4, 6))
        assert np.allclose(kernels.diff_cols(u), u @ dense_t(6), atol=1e-14)

    def test_adjointness(self, rng):
        for _ in range(100):
            n, m = rng.integers(2, 9, 2)
            u = rng.standard_normal((n, m))
            v = rng.standard_normal((n - 1, m))
            h = rng.standard_normal((n, m - 1))
            assert np.vdot(kernels.diff_rows(u), v) == pytest.approx(
                np.vdot(u, kernels.adj_diff_rows(v)), abs=1e-10
            )
            assert np.vdot(kernels.diff_cols(u), h) == pytest.approx(
                np.vdot(u, kernels.adj_diff_cols(h)), abs=1e-10
            )

    def test_degenerate_single_row(self):
        assert kernels.diff_rows(np.ones((1, 4))).shape == (0, 4)
        assert kernels.adj_diff_rows(np.ones((0, 4))).shape == (1, 4)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1)])
    def test_in_place_diffs_are_bit_equal_to_the_stencils(self, rng, shape):
        n, m = shape
        u = rng.standard_normal((n, m))
        # every entry of both outputs must be overwritten
        fv = np.full((n - 1, m), np.nan)
        fh = np.full((n, m - 1), np.nan)
        got_v, got_h = kernels.diffs(u, fv, fh)
        assert got_v is fv and got_h is fh
        assert np.array_equal(fv, kernels.diff_rows(u))
        assert np.array_equal(fh, kernels.diff_cols(u))
        assert np.array_equal(fv, dense_s(n) @ u)
        assert np.array_equal(fh, u @ dense_t(m))


class TestApplySystem:
    def test_zero_maps_to_zero(self, rng):
        n, m = 4, 5
        d = random_diag(rng, n, m)
        out = apply_system(SystemVector.zeros(n, m), d, 0.5, out=nan_vector(n, m))
        assert np.linalg.norm(out.data) == 0.0

    def test_constant_u_in_nullspace(self, rng):
        n, m = 5, 4
        d = random_diag(rng, n, m)
        x = SystemVector(7.5 * np.ones((n, m)), np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        out = apply_system(x, d, 1e-2, out=nan_vector(n, m))
        assert np.linalg.norm(out.data) == 0.0

    def test_matches_dense_oracle(self, rng):
        n = m = 4
        d = random_diag(rng, n, m)
        tau = 1e-2
        a = materialize_dense_system(n, m, d, tau)
        for _ in range(20):
            x = random_state(rng, n, m)
            got = stack_system(apply_system(x, d, tau, out=SystemVector.zeros(n, m)))
            want = a @ stack_system(x)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_symmetry_and_psd(self, rng):
        n, m = 6, 5
        d = random_diag(rng, n, m)
        tau = 0.03
        for _ in range(25):
            x = random_state(rng, n, m)
            y = random_state(rng, n, m)
            ax = apply_system(x, d, tau, out=SystemVector.zeros(n, m))
            ay = apply_system(y, d, tau, out=SystemVector.zeros(n, m))
            assert np.vdot(ax.data, y.data) == pytest.approx(
                np.vdot(x.data, ay.data), rel=1e-10, abs=1e-10
            )
            assert np.vdot(ax.data, x.data) >= -1e-10 * np.vdot(x.data, x.data)

    def test_rejects_nonpositive_tau(self, rng):
        d = random_diag(rng, 3, 3)
        with pytest.raises(ValueError):
            apply_system(SystemVector.zeros(3, 3), d, 0.0, out=SystemVector.zeros(3, 3))


class TestDenseSystem:
    def test_small_instance_shape_and_spectrum(self, rng):
        n = m = 2
        d = random_diag(rng, n, m)
        a = materialize_dense_system(n, m, d, 1.0)
        # dimension is NM + (N-1)M + N(M-1) = 4 + 2 + 2
        assert a.shape == (8, 8)
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_nullspace_vector(self, rng):
        n, m = 3, 4
        d = random_diag(rng, n, m)
        a = materialize_dense_system(n, m, d, 1e-2)
        null = np.concatenate([np.ones(n * m), np.zeros((n - 1) * m + n * (m - 1))])
        assert np.max(np.abs(a @ null)) < 1e-12

    def test_nullspace_is_one_dimensional(self, rng):
        n = m = 3
        d = ArcField(
            rng.uniform(0.1, 2.0, (n - 1, m)), rng.uniform(0.1, 2.0, (n, m - 1))
        )
        a = materialize_dense_system(n, m, d, 1e-2)
        vals = np.linalg.eigvalsh(a)
        assert np.sum(vals < 1e-10) == 1

    def test_matches_entrywise_construction(self, rng):
        n = m = 3
        d = random_diag(rng, n, m)
        a = materialize_dense_system(n, m, d, 0.07)
        b = dense_system_entrywise(n, m, d, 0.07)
        assert np.max(np.abs(a - b)) < 1e-13

    def test_size_guard(self, rng):
        d = ArcField(np.ones((99, 100)), np.ones((100, 99)))
        with pytest.raises(SizeLimitExceeded):
            materialize_dense_system(100, 100, d, 1.0)

    @pytest.mark.parametrize("build", [materialize_dense_system])
    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_tau_is_refused(self, build, tau):
        d = ArcField(np.ones((1, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="tau must be positive"):
            build(2, 2, d, tau)


class TestBuildRhs:
    def test_zero_gradients(self, rng):
        g = random_gradients(rng, 4, 4)
        zero = type(g)(np.zeros_like(g.v), np.zeros_like(g.h))
        assert np.linalg.norm(build_rhs(zero, 1e-2, out=nan_vector(4, 4)).data) == 0.0

    def test_u_block_sums_to_zero(self, rng):
        g = random_gradients(rng, 9, 7)
        b = build_rhs(g, 1e-2, out=SystemVector.zeros(9, 7))
        assert abs(b.u.sum()) <= 1e-9 * b.u.size

    def test_matches_dense_construction(self, rng):
        n = m = 3
        g = random_gradients(rng, n, m)
        tau = 1e-2
        b = stack_system(build_rhs(g, tau, out=SystemVector.zeros(n, m)))
        s = dense_s(n)
        t = dense_t(m)
        want = np.concatenate(
            [vec(s.T @ g.v + g.h @ t.T) / tau, -vec(g.v) / tau, -vec(g.h) / tau]
        )
        assert np.max(np.abs(b - want)) < 1e-12


class TestStacking:
    def test_roundtrip(self, rng):
        x = random_state(rng, 5, 3)
        back = unstack_system(stack_system(x), 5, 3)
        assert np.array_equal(back.u, x.u)
        assert np.array_equal(back.vv, x.vv)
        assert np.array_equal(back.vh, x.vh)


class TestSystemVectorBuffer:
    def test_blocks_are_views_into_one_buffer(self, rng):
        x = random_state(rng, 5, 4)
        assert x.data.flags.c_contiguous and x.data.dtype == np.float64
        assert x.data.size == 5 * 4 + 4 * 4 + 5 * 3
        for block in (x.u, x.vv, x.vh):
            assert np.shares_memory(x.data, block)
        x.data[:] = 3.0
        assert np.all(x.u == 3.0) and np.all(x.vv == 3.0) and np.all(x.vh == 3.0)

    def test_constructor_copies_its_inputs(self, rng):
        u = rng.standard_normal((4, 3))
        vv = rng.standard_normal((3, 3))
        vh = rng.standard_normal((4, 2))
        x = SystemVector(u, vv, vh)
        want = stack_system(x)
        u[:] = np.nan
        vv[:] = np.nan
        vh[:] = np.nan
        assert np.array_equal(stack_system(x), want)

    def test_copy_owns_a_new_buffer(self, rng):
        x = random_state(rng, 3, 5)
        y = x.copy()
        assert not np.shares_memory(x.data, y.data)
        assert np.array_equal(x.data, y.data)

    def test_rejects_inconsistent_blocks(self):
        with pytest.raises(ValueError):
            SystemVector(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
    def test_zeros_with_empty_slack_blocks(self, shape):
        n, m = shape
        x = SystemVector.zeros(n, m)
        assert x.u.shape == (n, m)
        assert x.vv.shape == (n - 1, m)
        assert x.vh.shape == (n, m - 1)
        assert x.data.size == n * m + (n - 1) * m + n * (m - 1)
        assert np.linalg.norm(x.data) == 0.0
        x.data += 1.0
        assert np.vdot(x.data, x.data) == float(x.data.size)


class TestApplySystemOut:
    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1), (3, 5)])
    def test_writes_into_out_bit_for_bit(self, rng, shape):
        n, m = shape
        d = random_diag(rng, n, m)
        tau = 0.03
        x = random_state(rng, n, m)
        buf = nan_vector(n, m)  # every entry must be overwritten
        got = apply_system(x, d, tau, out=buf)
        assert got is buf
        assert np.array_equal(got.data, apply_system(x, d, tau, out=SystemVector.zeros(n, m)).data)
        want = materialize_dense_system(n, m, d, tau) @ stack_system(x)
        assert np.max(np.abs(stack_system(got) - want)) < 1e-10

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (12, 20)])
    def test_bit_equal_to_the_map_without_data(self, rng, shape):
        # the block kernel subtracts the data g = 0 before vv and vh, which keeps every bit
        n, m = shape
        d = random_diag(rng, n, m)
        x = random_state(rng, n, m)
        got = apply_system(x, d, 0.03, out=nan_vector(n, m))
        assert got.data.tobytes() == apply_system_without_data(x, d, 0.03).data.tobytes()

    def test_reused_out_holds_only_the_last_result(self, rng):
        n, m = 5, 4
        d = random_diag(rng, n, m)
        buf = SystemVector.zeros(n, m)
        apply_system(random_state(rng, n, m), d, 0.1, out=buf)
        x = random_state(rng, n, m)
        apply_system(x, d, 0.1, out=buf)
        assert np.array_equal(buf.data, apply_system(x, d, 0.1, out=SystemVector.zeros(n, m)).data)


def with_zero_arcs(rng, wr):
    """The weights with about a third of the arcs cut (weight exactly zero)."""
    return ArcField(
        np.where(rng.random(wr.v.shape) < 1 / 3, 0.0, wr.v),
        np.where(rng.random(wr.h.shape) < 1 / 3, 0.0, wr.h),
    )


class TestReducedSystem:
    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (1, 6), (6, 1)])
    def test_matches_dense_kt_w_k(self, rng, shape):
        n, m = shape
        wr = with_zero_arcs(rng, random_diag(rng, n, m))
        k = dense_arc_map(n, m)
        kt_w_k = k.T @ np.diag(np.concatenate([vec(wr.v), vec(wr.h)])) @ k
        u = rng.standard_normal((n, m))
        got = kernels.weighted_laplacian(u, wr.v, wr.h, *arc_grids(n, m), np.zeros((n, m)))
        assert np.max(np.abs(vec(got) - kt_w_k @ vec(u))) < 1e-12
        g = random_gradients(rng, n, m)
        want_rhs = k.T @ np.concatenate([vec(wr.v * g.v), vec(wr.h * g.h)])
        rhs = build_reduced_rhs(g, wr, out=np.zeros((n, m)), flux=arc_grids(n, m))
        assert np.max(np.abs(vec(rhs) - want_rhs)) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (1, 6), (6, 1)])
    def test_out_is_bit_equal_to_a_new_result(self, rng, shape):
        n, m = shape
        wr = with_zero_arcs(rng, random_diag(rng, n, m))
        u = rng.standard_normal((n, m))
        g = random_gradients(rng, n, m)
        # every entry of out and of the scratch must be overwritten: NaN-filled
        # buffers give the bits of zero-filled ones
        buf = np.full((n, m), np.nan)
        got = kernels.weighted_laplacian(u, wr.v, wr.h, *arc_grids(n, m, np.nan), buf)
        assert got is buf
        want = kernels.weighted_laplacian(u, wr.v, wr.h, *arc_grids(n, m), np.zeros((n, m)))
        assert np.array_equal(got, want)
        rhs = np.full((n, m), np.nan)
        assert build_reduced_rhs(g, wr, out=rhs, flux=arc_grids(n, m, np.nan)) is rhs
        want = build_reduced_rhs(g, wr, out=np.zeros((n, m)), flux=arc_grids(n, m))
        assert np.array_equal(rhs, want)
        full = nan_vector(n, m)
        assert recover_slacks(u, g, wr, 0.03, out=full, flux=arc_grids(n, m, np.nan)) is full
        want = recover_slacks(u, g, wr, 0.03, out=SystemVector.zeros(n, m), flux=arc_grids(n, m))
        assert full.data.tobytes() == want.data.tobytes()
        # the slacks as first written, each temporary a new grid
        for v, diff, gg, ww in ((full.vv, kernels.diff_rows(u), g.v, wr.v),
                                (full.vh, kernels.diff_cols(u), g.h, wr.h)):
            want = diff - gg
            want -= 0.03 * ww * want
            assert v.tobytes() == want.tobytes()
        b = nan_vector(n, m)
        assert build_rhs(g, 0.03, out=b) is b
        assert b.data.tobytes() == build_rhs(g, 0.03, out=SystemVector.zeros(n, m)).data.tobytes()

    def test_reduced_weights_are_the_schur_weights(self, rng):
        n, m, tau = 5, 4, 0.03
        c = WeightField(rng.uniform(0, 2, (n - 1, m)), rng.uniform(0, 2, (n, m - 1)))
        c.v[1, :] = 0.0
        w = ArcField(rng.uniform(1e-6, 3, (n - 1, m)), rng.uniform(1e-6, 3, (n, m - 1)))
        out = ArcField(*arc_grids(n, m, np.nan))
        assert reduced_weights(c, w, tau, out=out, flux=arc_grids(n, m, np.nan)) is out
        for cc, ww, got in ((c.v, w.v, out.v), (c.h, w.h, out.h)):
            first = cc * cc  # the weights as first written, the denominator a new grid
            first /= ww + tau * first
            assert got.tobytes() == first.tobytes()
            d = cc**2 / ww
            assert np.allclose(got, d / (1 + tau * d), rtol=1e-14, atol=0)
            assert np.all(got <= 1 / tau)
        assert np.all(out.v[1, :] == 0.0)

    def test_recovered_slacks_minimize_the_lifted_penalty(self, rng):
        # d v + (v - (S u - g)) / tau = 0 at the minimizer, arc by arc
        n, m, tau = 4, 5, 0.03
        d = random_diag(rng, n, m)
        wr = reduced_weights(
            WeightField.uniform(n, m), ArcField(1 / d.v, 1 / d.h), tau,
            out=ArcField(*arc_grids(n, m)), flux=arc_grids(n, m),
        )
        u = rng.standard_normal((n, m))
        g = random_gradients(rng, n, m)
        x = recover_slacks(u, g, wr, tau, out=SystemVector.zeros(n, m), flux=arc_grids(n, m))
        assert np.array_equal(x.u, u)
        stationary_v = d.v * x.vv + (x.vv - (kernels.diff_rows(u) - g.v)) / tau
        stationary_h = d.h * x.vh + (x.vh - (kernels.diff_cols(u) - g.h)) / tau
        assert np.max(np.abs(stationary_v)) < 1e-10
        assert np.max(np.abs(stationary_h)) < 1e-10
