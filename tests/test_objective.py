import numpy as np
import pytest

from phaseirls import diagnostics, kernels
from phaseirls.diagnostics import apply_system, build_rhs, materialize_dense_system
from phaseirls.objective import (
    ModelParams,
    candidate_step,
    eval_f,
    eval_f_delta,
    eval_h_delta,
    eval_h_delta_and_refresh,
    eval_h_delta_refreshed,
    lipschitz_constant,
    update_weights,
)
from phaseirls.operators import SystemVector
from phaseirls.phase import ArcField, WeightField

from oracles import (
    arc_count,
    arc_grids,
    dense_s,
    dense_t,
    h_delta_of,
    nan_vector,
    objective_scalar_loops,
    random_gradients,
    random_state,
    random_weights,
    stack_system,
    step_of,
    sufficient_decrease_holds,
    unstack_system,
    vec,
    weights_of,
)


def zero_gradients(n, m):
    return ArcField(np.zeros((n - 1, m)), np.zeros((n, m - 1)))


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


def dense_gradient(x, w, g, c, p):
    """The lifted quadratic's gradient A x - b, from the dense block matrix."""
    n, m = x.shape
    a = materialize_dense_system(n, m, ArcField(c.v**2 / w.v, c.h**2 / w.h), p.tau)
    return a @ stack_system(x) - dense_rhs(g, p.tau)


def feasible_weights(rng, n, m, delta):
    return ArcField(
        rng.uniform(delta / 2, 3.0, (n - 1, m)),
        rng.uniform(delta / 2, 3.0, (n, m - 1)),
    )


class TestEvalF:
    def test_zero_state(self):
        p = ModelParams()
        x = SystemVector.zeros(3, 3)
        assert eval_f(x, zero_gradients(3, 3), WeightField.uniform(3, 3), p) == 0.0

    def test_consistent_gradients_zero(self, rng):
        n, m = 6, 5
        u = rng.standard_normal((n, m))
        g = ArcField(kernels.diff_rows(u), kernels.diff_cols(u))
        x = SystemVector(u, np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        val = eval_f(x, g, WeightField.uniform(n, m), ModelParams())
        assert val < 1e-20

    def test_matches_scalar_loop_oracle(self, rng):
        n, m = 5, 7
        p = ModelParams(tau=0.03, delta=1e-4)
        for _ in range(10):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = random_weights(rng, n, m)
            want = objective_scalar_loops(x, g, c, p.tau)
            assert eval_f(x, g, c, p) == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestEvalFDelta:
    def test_zero_state_gives_delta_per_arc(self):
        n, m = 4, 6
        p = ModelParams(delta=1e-3)
        x = SystemVector.zeros(n, m)
        val = eval_f_delta(x, zero_gradients(n, m), WeightField.uniform(n, m), p)
        assert val == pytest.approx(p.delta * arc_count(n, m), rel=1e-12)

    def test_sandwich_bound(self, rng):
        n = m = 16
        p = ModelParams()
        gap = p.delta * arc_count(n, m)
        for _ in range(100):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = random_weights(rng, n, m)
            f = eval_f(x, g, c, p)
            fd = eval_f_delta(x, g, c, p)
            assert f <= fd + 1e-12
            assert fd <= f + gap + 1e-12

    def test_tiny_delta_gap(self, rng):
        n, m = 8, 9
        p = ModelParams(delta=1e-6)
        c = WeightField.uniform(n, m)
        x = random_state(rng, n, m)
        g = random_gradients(rng, n, m)
        diff = eval_f_delta(x, g, c, p) - eval_f(x, g, c, p)
        assert 0 <= diff <= 1e-6 * arc_count(n, m)


class TestEvalHDelta:
    def test_equals_f_delta_at_closed_form_weights(self, rng):
        n, m = 6, 6
        p = ModelParams()
        for _ in range(20):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = random_weights(rng, n, m)
            w = weights_of(x, c, p.delta)
            fd = eval_f_delta(x, g, c, p)
            assert h_delta_of(x, w, g, c, p) == pytest.approx(fd, rel=1e-10)

    def test_flat_weights_value(self):
        n, m = 3, 4
        p = ModelParams(delta=0.5)
        x = SystemVector.zeros(n, m)
        g = zero_gradients(n, m)
        c = WeightField.uniform(n, m)
        w = ArcField(p.delta * np.ones((n - 1, m)), p.delta * np.ones((n, m - 1)))
        assert h_delta_of(x, w, g, c, p) == pytest.approx(p.delta * arc_count(n, m))

    def test_upper_bounds_f_delta(self, rng):
        n, m = 5, 5
        p = ModelParams()
        x = random_state(rng, n, m)
        g = random_gradients(rng, n, m)
        c = random_weights(rng, n, m)
        fd = eval_f_delta(x, g, c, p)
        for _ in range(100):
            w = feasible_weights(rng, n, m, p.delta)
            assert h_delta_of(x, w, g, c, p) >= fd - 1e-12

    def test_rejects_infeasible_weights(self, rng):
        n, m = 3, 3
        p = ModelParams(delta=1.0)
        x = random_state(rng, n, m)
        w = ArcField(0.1 * np.ones((n - 1, m)), np.ones((n, m - 1)))
        with pytest.raises(ValueError):
            h_delta_of(x, w, zero_gradients(n, m), WeightField.uniform(n, m), p)


class TestEvalHDeltaRefreshed:
    def test_is_f_delta_and_h_at_refreshed_weights(self, rng):
        n, m = 6, 7
        p = ModelParams(tau=0.05, delta=1e-3)
        for _ in range(20):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = random_weights(rng, n, m)
            w = weights_of(x, c, p.delta)
            got = eval_h_delta_refreshed(x, w, g, p, scratch=arc_grids(n, m))
            assert got == eval_f_delta(x, g, c, p)
            assert got == pytest.approx(h_delta_of(x, w, g, c, p), rel=1e-14)


class TestEvalHDeltaAndRefresh:
    @pytest.mark.parametrize("shape", [(6, 7), (1, 6), (6, 1), (1, 1)])
    def test_bit_equal_to_the_separate_evaluations(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=0.05, delta=1e-3)
        for _ in range(10):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = weights_with_cut_arcs(rng, n, m)
            w = feasible_weights(rng, n, m, p.delta)
            refreshed = ArcField(*arc_grids(n, m, np.nan))
            h, h_refreshed = eval_h_delta_and_refresh(
                x, w, g, c, p, refreshed=refreshed, scratch=arc_grids(n, m, np.nan)
            )
            assert h == h_delta_of(x, w, g, c, p)
            fresh = weights_of(x, c, p.delta)
            for got, want in zip(refreshed, fresh):
                assert got.tobytes() == want.tobytes()
            assert h_refreshed == eval_h_delta_refreshed(x, fresh, g, p, scratch=arc_grids(n, m))

    def test_rejects_infeasible_weights(self, rng):
        n, m = 3, 4
        p = ModelParams(delta=1e-2)
        x = random_state(rng, n, m)
        w = ArcField(*arc_grids(n, m, p.delta / 4))
        with pytest.raises(ValueError, match="delta/2"):
            eval_h_delta_and_refresh(
                x, w, random_gradients(rng, n, m), random_weights(rng, n, m), p,
                refreshed=ArcField(*arc_grids(n, m)), scratch=arc_grids(n, m),
            )


def weights_with_cut_arcs(rng, n, m):
    """Random arc weights with about a third of the arcs at weight zero."""
    c = random_weights(rng, n, m)
    return WeightField(
        np.where(rng.random(c.v.shape) < 1 / 3, 0.0, c.v),
        np.where(rng.random(c.h.shape) < 1 / 3, 0.0, c.h),
    )


class TestReusedBuffers:
    """Results in NaN-filled buffers are bit-equal to those in new, zero-filled ones."""

    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1), (3, 5)])
    def test_bit_equal_to_the_allocating_forms(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=0.05, delta=1e-3)
        c = weights_with_cut_arcs(rng, n, m)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        d2 = p.delta * p.delta

        w = ArcField(*arc_grids(n, m, np.nan))
        assert update_weights(x, c, p.delta, out=w) is w
        fresh = update_weights(x, c, p.delta, out=ArcField(*arc_grids(n, m)))
        for got, want, cc, v in ((w.v, fresh.v, c.v, x.vv), (w.h, fresh.h, c.h, x.vh)):
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == np.sqrt((cc * v) ** 2 + d2).tobytes()

        h = eval_h_delta(x, w, g, c, p, scratch=arc_grids(n, m, np.nan))
        assert h == eval_h_delta(x, w, g, c, p, scratch=arc_grids(n, m))
        assert eval_h_delta_refreshed(x, w, g, p, scratch=arc_grids(n, m, np.nan)) == (
            eval_h_delta_refreshed(x, w, g, p, scratch=arc_grids(n, m))
        )

        lip = lipschitz_constant(c, p)
        out = nan_vector(n, m)
        step, grad_sq = candidate_step(
            x, w, g, c, p, lip, out=out, scratch=arc_grids(n, m, np.nan)
        )
        assert step is out
        assert grad_sq == candidate_step(
            x, w, g, c, p, lip, out=SystemVector.zeros(n, m), scratch=arc_grids(n, m)
        )[1]
        assert out.data.tobytes() == step_of(x, w, g, c, p, lip).data.tobytes()
        # the step in residual form with new grids throughout: with r = K u - g - v
        # and d = c^2 / w the gradient is (Kt r / tau, d v - r / tau)
        d = ArcField(c.v * c.v / w.v, c.h * c.h / w.h)
        inv_tau = 1.0 / p.tau
        rv = np.diff(x.u, axis=0) - g.v - x.vv
        rh = np.diff(x.u, axis=1) - g.h - x.vh
        grad = SystemVector(
            kernels.adj_diffs(rv, rh, np.empty((n, m))) * inv_tau,
            rv * -inv_tau + d.v * x.vv,
            rh * -inv_tau + d.h * x.vh,
        )
        want = grad.data * (-1.0 / lip) + x.data
        assert out.data.tobytes() == want.tobytes()
        assert grad_sq == float(np.vdot(grad.data, grad.data))
        # the step as it was first written, x - (A x - b) / L, agrees to round-off
        first = apply_system(x, d, p.tau, out=SystemVector.zeros(n, m))
        first.data -= build_rhs(g, p.tau, out=SystemVector.zeros(n, m)).data
        first.data *= -1.0 / lip
        first.data += x.data
        assert np.max(np.abs(out.data - first.data)) <= 1e-15 * np.max(np.abs(first.data))


class TestUpdateWeights:
    def test_zero_slack(self):
        x = SystemVector.zeros(3, 3)
        w = weights_of(x, WeightField.uniform(3, 3), 1e-6)
        assert np.all(w.v == 1e-6) and np.all(w.h == 1e-6)

    def test_three_four_five(self):
        x = SystemVector(np.zeros((2, 2)), 3.0 * np.ones((1, 2)), 3.0 * np.ones((2, 1)))
        w = weights_of(x, WeightField.uniform(2, 2), 4.0)
        assert np.all(w.v == 5.0) and np.all(w.h == 5.0)

    def test_matches_grid_search(self):
        delta = 0.05
        ws = np.linspace(delta / 2, 1000, 1_000_001)
        resolution = ws[1] - ws[0]
        for cv, v in [(1.0, 0.7), (2.0, -1.3), (0.0, 4.0)]:
            x = SystemVector(
                np.zeros((2, 2)), np.array([[float(v), 0.0]]), np.zeros((2, 1))
            )
            c = WeightField(np.array([[float(cv), 1.0]]), np.ones((2, 1)))
            got = weights_of(x, c, delta).v[0, 0]
            brute = ws[np.argmin(((cv * v) ** 2 + delta**2) / ws + ws)]
            assert got == pytest.approx(brute, abs=resolution)

    def test_outputs_at_least_delta(self, rng):
        x = random_state(rng, 5, 5)
        w = weights_of(x, random_weights(rng, 5, 5), 1e-6)
        assert w.v.min() >= 1e-6 and w.h.min() >= 1e-6


class TestLipschitzConstant:
    def test_reference_value(self):
        p = ModelParams(tau=1e-2, delta=1e-6)
        c = WeightField.uniform(4, 4)
        assert lipschitz_constant(c, p) == pytest.approx(1_001_200.0)

    def test_zero_weights_leave_penalty_term(self):
        p = ModelParams(tau=0.25, delta=1e-6)
        ch = np.zeros((3, 2))
        ch[0, 0] = 1e-30
        c = WeightField(np.zeros((2, 3)), ch)
        assert lipschitz_constant(c, p) == pytest.approx(12.0 / 0.25, rel=1e-12)

    @pytest.mark.parametrize("cmax", [1e154, 1e155])
    def test_rejects_a_bound_that_is_not_finite(self, cmax):
        # c_max^2/delta overflows: to inf at 1e154, past the float range at 1e155
        c = WeightField(np.full((2, 3), cmax), np.ones((3, 2)))
        with pytest.raises(ValueError, match="c_max"):
            lipschitz_constant(c, ModelParams())

    def test_dominates_dense_hessian(self, rng):
        p = ModelParams(tau=1e-2, delta=1e-4)
        for n, m in [(4, 4), (8, 8), (5, 8)]:
            c = random_weights(rng, n, m, lo=0.0, hi=1.0)
            x = random_state(rng, n, m)
            w = weights_of(x, c, p.delta)
            d = ArcField(c.v**2 / w.v, c.h**2 / w.h)
            hess = materialize_dense_system(n, m, d, p.tau)
            lam_max = np.linalg.eigvalsh(hess).max()
            assert lam_max <= lipschitz_constant(c, p)


class TestCandidateStep:
    def test_stationary_point_is_fixed(self, rng):
        n = m = 4
        p = ModelParams()
        c = random_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        w = weights_of(x, c, p.delta)
        d = ArcField(c.v**2 / w.v, c.h**2 / w.h)
        a = materialize_dense_system(n, m, d, p.tau)
        b = dense_rhs(g, p.tau)
        x_star = unstack_system(np.linalg.pinv(a) @ b, n, m)
        lip = lipschitz_constant(c, p)
        stepped = step_of(x_star, w, g, c, p, lip)
        diff = stepped.copy()
        diff.data -= x_star.data
        assert np.linalg.norm(diff.data) < 1e-10 * max(1.0, np.linalg.norm(x_star.data))

    @pytest.mark.parametrize("shape", [(4, 5), (1, 6), (6, 1), (3, 3)])
    def test_returns_the_squared_norm_of_the_dense_gradient(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=0.05, delta=1e-3)
        c = random_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        w = feasible_weights(rng, n, m, p.delta)
        grad = dense_gradient(x, w, g, c, p)
        _, grad_sq = candidate_step(
            x, w, g, c, p, lipschitz_constant(c, p),
            out=SystemVector.zeros(n, m), scratch=arc_grids(n, m),
        )
        assert grad_sq == pytest.approx(float(grad @ grad), rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (3, 7), (16, 16)])
    def test_is_the_dense_gradient_step(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=0.05, delta=1e-3)
        c = random_weights(rng, n, m, lo=0.1, hi=1.1)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        w = feasible_weights(rng, n, m, p.delta)
        lip = lipschitz_constant(c, p)
        want = stack_system(x) - dense_gradient(x, w, g, c, p) / lip
        got = stack_system(step_of(x, w, g, c, p, lip))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_builds_no_right_hand_side(self, rng, monkeypatch):
        # the gradient is the residual form: one adjoint, and b is never formed
        n, m = 5, 6
        p = ModelParams(tau=0.05, delta=1e-3)
        c = random_weights(rng, n, m)
        x = random_state(rng, n, m)
        adjoints = []
        adj_diffs = kernels.adj_diffs

        def counted(*args):
            adjoints.append(args)
            return adj_diffs(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("the gradient step must not build the right-hand side")

        monkeypatch.setattr(kernels, "adj_diffs", counted)
        monkeypatch.setattr(diagnostics, "build_rhs", refuse)
        step_of(x, weights_of(x, c, p.delta), random_gradients(rng, n, m), c, p,
                lipschitz_constant(c, p))
        assert len(adjoints) == 1

    def test_gradient_matches_central_differences(self, rng):
        n, m = 4, 5
        p = ModelParams(tau=0.05, delta=1e-3)
        c = random_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        w = feasible_weights(rng, n, m, p.delta)
        lip = lipschitz_constant(c, p)
        stepped = step_of(x, w, g, c, p, lip)
        grad = x.copy()
        grad.data -= stepped.data
        grad.data *= lip
        eps = 1e-6
        for _ in range(50):
            e = random_state(rng, n, m)
            e.data *= 1.0 / np.linalg.norm(e.data)
            plus = x.copy()
            plus.data += eps * e.data
            minus = x.copy()
            minus.data -= eps * e.data
            fd = (
                h_delta_of(plus, w, g, c, p) - h_delta_of(minus, w, g, c, p)
            ) / (2 * eps)
            assert fd == pytest.approx(np.vdot(grad.data, e.data), rel=1e-5, abs=1e-7)

    def test_descends(self, rng):
        n, m = 5, 5
        p = ModelParams()
        c = random_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        lip = lipschitz_constant(c, p)
        for _ in range(100):
            x = random_state(rng, n, m)
            w = weights_of(x, c, p.delta)
            stepped = step_of(x, w, g, c, p, lip)
            assert h_delta_of(stepped, w, g, c, p) <= h_delta_of(x, w, g, c, p)


class TestSufficientDecrease:
    def _setup(self, rng, n=4, m=4):
        p = ModelParams()
        c = random_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        w = weights_of(x, c, p.delta)
        return p, c, g, x, w

    def test_candidate_itself_passes(self, rng):
        p, c, g, x, w = self._setup(rng)
        lip = lipschitz_constant(c, p)
        cand = step_of(x, w, g, c, p, lip)
        assert sufficient_decrease_holds(cand, x, w, g, c, p, lip)

    def test_exact_minimizer_passes(self, rng):
        n = m = 4
        p, c, g, x, w = self._setup(rng, n, m)
        d = ArcField(c.v**2 / w.v, c.h**2 / w.h)
        a = materialize_dense_system(n, m, d, p.tau)
        b = dense_rhs(g, p.tau)
        x_star = unstack_system(np.linalg.pinv(a) @ b, n, m)
        assert sufficient_decrease_holds(x_star, x, w, g, c, p, lipschitz_constant(c, p))

    def test_large_perturbation_fails(self, rng):
        p, c, g, x, w = self._setup(rng)
        lip = lipschitz_constant(c, p)
        bad = x.copy()
        noise = random_state(rng, 4, 4)
        bad.data += 50.0 * noise.data
        assert not sufficient_decrease_holds(bad, x, w, g, c, p, lip)


class TestModelParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ModelParams(tau=0.0)
        with pytest.raises(ValueError):
            ModelParams(delta=-1.0)

    @pytest.mark.parametrize("delta", [1e-300, 1e-162, 1e-155, 1e155, 1e300])
    def test_rejects_delta_whose_square_is_not_normal_and_finite(self, delta):
        # delta^2 underflows to a subnormal or zero, or overflows to inf
        with pytest.raises(ValueError, match="delta"):
            ModelParams(delta=delta)

    @pytest.mark.parametrize("delta", [1e-150, 1e150])
    def test_accepts_delta_with_a_normal_finite_square(self, delta):
        assert ModelParams(delta=delta).delta == delta
