"""Tests of ``objective``: the lifted model, its system vector, reduced system and proposal."""

import numpy as np
import pytest

from phaseirls import diagnostics, kernels
from phaseirls.diagnostics import apply_system, build_rhs
from phaseirls.objective import (
    ModelParams,
    SystemVector,
    candidate_step,
    eval_f,
    eval_f_delta,
    eval_h_delta,
    eval_h_delta_refreshed,
    lipschitz_constant,
    propose,
    reduced_system,
    update_weights,
)
from phaseirls.phase import ArcField, WeightField

from oracles import (
    arc_count,
    arc_grids,
    arc_values,
    dense_arc_map,
    dense_rhs,
    h_delta_of,
    materialize_dense_system,
    nan_vector,
    objective_scalar_loops,
    random_diag,
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


def dense_gradient(x, w, g, c, p):
    """The lifted quadratic's gradient A x - b, from the dense block matrix."""
    n, m = x.shape
    a = materialize_dense_system(n, m, ArcField(c.v**2 / w.v, c.h**2 / w.h), p)
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
            w = weights_of(x, c, p)
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
            w = weights_of(x, c, p)
            got = eval_h_delta_refreshed(x, w, g, p, scratch=arc_grids(n, m))
            assert got == eval_f_delta(x, g, c, p)
            assert got == pytest.approx(h_delta_of(x, w, g, c, p), rel=1e-14)


class TestPropose:
    @pytest.mark.parametrize("shape", [(6, 7), (1, 6), (6, 1), (1, 1)])
    def test_bit_equal_to_the_separate_evaluations(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=0.05, delta=1e-3)
        for _ in range(10):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = weights_with_cut_arcs(rng, n, m)
            w = feasible_weights(rng, n, m, p.delta)
            weights = ArcField(*arc_grids(n, m, np.nan))
            reduced_system(
                c, w, g, p, weights=weights, rhs=np.empty((n, m)), flux=arc_grids(n, m)
            )
            wr = ArcField(weights.v.copy(), weights.h.copy())
            want = x.copy()
            h, h_refreshed = propose(
                x, g, c, w, p, weights=weights, scratch=arc_grids(n, m, np.nan)
            )
            # the two-step form: the slacks from the misfit, then each evaluation on its own
            for v, diff, gg, ww in ((want.vv, kernels.diff_rows(x.u), g.v, wr.v),
                                    (want.vh, kernels.diff_cols(x.u), g.h, wr.h)):
                misfit = diff - gg
                v[...] = misfit - (p.tau * ww) * misfit
            assert x.data.tobytes() == want.data.tobytes()
            assert h == h_delta_of(want, w, g, c, p)
            fresh = weights_of(want, c, p)
            for got, ref in zip(weights, fresh):
                assert got.tobytes() == ref.tobytes()
            assert h_refreshed == eval_h_delta_refreshed(want, fresh, g, p, scratch=arc_grids(n, m))

    def test_rejects_infeasible_weights(self, rng):
        n, m = 3, 4
        p = ModelParams(delta=1e-2)
        x = random_state(rng, n, m)
        w = ArcField(*arc_grids(n, m, p.delta / 4))
        with pytest.raises(ValueError, match="delta/2"):
            propose(
                x, random_gradients(rng, n, m), random_weights(rng, n, m), w, p,
                weights=ArcField(*arc_grids(n, m, 1.0)), scratch=arc_grids(n, m),
            )


def with_zero_arcs(rng, wr):
    """The weights with about a third of the arcs cut (weight exactly zero)."""
    return type(wr)(
        np.where(rng.random(wr.v.shape) < 1 / 3, 0.0, wr.v),
        np.where(rng.random(wr.h.shape) < 1 / 3, 0.0, wr.h),
    )


def weights_with_cut_arcs(rng, n, m):
    """Random arc weights with about a third of the arcs at weight zero."""
    return with_zero_arcs(rng, random_weights(rng, n, m))


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
        assert update_weights(x, c, p, out=w) is w
        fresh = update_weights(x, c, p, out=ArcField(*arc_grids(n, m)))
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
        first = apply_system(x, d, p, out=SystemVector.zeros(n, m))
        first.data -= build_rhs(g, p, out=SystemVector.zeros(n, m)).data
        first.data *= -1.0 / lip
        first.data += x.data
        assert np.max(np.abs(out.data - first.data)) <= 1e-15 * np.max(np.abs(first.data))


class TestUpdateWeights:
    def test_zero_slack(self):
        x = SystemVector.zeros(3, 3)
        w = weights_of(x, WeightField.uniform(3, 3), ModelParams(delta=1e-6))
        assert np.all(w.v == 1e-6) and np.all(w.h == 1e-6)

    def test_three_four_five(self):
        x = SystemVector(np.zeros((2, 2)), 3.0 * np.ones((1, 2)), 3.0 * np.ones((2, 1)))
        w = weights_of(x, WeightField.uniform(2, 2), ModelParams(delta=4.0))
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
            got = weights_of(x, c, ModelParams(delta=delta)).v[0, 0]
            brute = ws[np.argmin(((cv * v) ** 2 + delta**2) / ws + ws)]
            assert got == pytest.approx(brute, abs=resolution)

    def test_outputs_at_least_delta(self, rng):
        x = random_state(rng, 5, 5)
        w = weights_of(x, random_weights(rng, 5, 5), ModelParams(delta=1e-6))
        assert w.v.min() >= 1e-6 and w.h.min() >= 1e-6

    def test_weight_update_never_increases_objective(self, rng):
        n, m = 6, 7
        p = ModelParams()
        for _ in range(20):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = random_weights(rng, n, m)
            w_old = weights_of(random_state(rng, n, m), c, p)
            w_new = weights_of(x, c, p)
            h_old = h_delta_of(x, w_old, g, c, p)
            h_new = h_delta_of(x, w_new, g, c, p)
            assert h_new <= h_old * (1 + 1e-12)


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
            w = weights_of(x, c, p)
            d = ArcField(c.v**2 / w.v, c.h**2 / w.h)
            hess = materialize_dense_system(n, m, d, p)
            lam_max = np.linalg.eigvalsh(hess).max()
            assert lam_max <= lipschitz_constant(c, p)


class TestCandidateStep:
    def test_stationary_point_is_fixed(self, rng):
        n = m = 4
        p = ModelParams()
        c = random_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        w = weights_of(x, c, p)
        d = ArcField(c.v**2 / w.v, c.h**2 / w.h)
        a = materialize_dense_system(n, m, d, p)
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
        step_of(x, weights_of(x, c, p), random_gradients(rng, n, m), c, p,
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
            w = weights_of(x, c, p)
            stepped = step_of(x, w, g, c, p, lip)
            assert h_delta_of(stepped, w, g, c, p) <= h_delta_of(x, w, g, c, p)

    @pytest.mark.parametrize("lip", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_lipschitz_constant_is_refused(self, rng, lip):
        n, m = 3, 4
        c = random_weights(rng, n, m)
        x = random_state(rng, n, m)
        w = weights_of(x, c, ModelParams())
        with pytest.raises(ValueError, match="lipschitz constant must be positive"):
            candidate_step(
                x, w, random_gradients(rng, n, m), c, ModelParams(), lip,
                out=SystemVector.zeros(n, m), scratch=arc_grids(n, m),
            )


class TestSufficientDecrease:
    def _setup(self, rng, n=4, m=4):
        p = ModelParams()
        c = random_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        x = random_state(rng, n, m)
        w = weights_of(x, c, p)
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
        a = materialize_dense_system(n, m, d, p)
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

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_tau_that_is_not_positive_and_finite(self, tau):
        # the one check of tau: every function of the model takes it from here
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            ModelParams(tau=tau)

    @pytest.mark.parametrize("delta", [0.0, -1e-6, np.nan, np.inf])
    def test_rejects_delta_that_is_not_positive_and_finite(self, delta):
        # the one check of delta: every function of the model takes it from here
        with pytest.raises(ValueError, match="delta must be positive"):
            ModelParams(delta=delta)

    @pytest.mark.parametrize("delta", [1e-300, 1e-162, 1e-155, 1e155, 1e300])
    def test_rejects_delta_whose_square_is_not_normal_and_finite(self, delta):
        # delta^2 underflows to a subnormal or zero, or overflows to inf
        with pytest.raises(ValueError, match="delta"):
            ModelParams(delta=delta)

    @pytest.mark.parametrize("delta", [1e-150, 1e150])
    def test_accepts_delta_with_a_normal_finite_square(self, delta):
        assert ModelParams(delta=delta).delta == delta


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

    def test_rejects_slacks_of_another_grid(self):
        # vv (2, 5) and vh (3, 4) are the slacks of a 3 x 5 grid, u is 3 x 4
        with pytest.raises(ValueError, match="inconsistent block shapes"):
            SystemVector(np.zeros((3, 4)), np.zeros((2, 5)), np.zeros((3, 4)))

    @pytest.mark.parametrize("size", [32, 34])
    def test_from_buffer_rejects_a_buffer_of_another_size(self, size):
        # a 3 x 4 grid has 12 + 8 + 9 = 33 entries
        with pytest.raises(ValueError, match="does not fit"):
            SystemVector.from_buffer(np.zeros(size), 3, 4)

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


def model_weights(rng, n, m):
    """Arc weights c with about a third of the arcs cut, and feasible auxiliary weights w."""
    c = with_zero_arcs(rng, random_diag(rng, n, m, hi=2.0))
    return c, ArcField(rng.uniform(1e-6, 3, (n - 1, m)), rng.uniform(1e-6, 3, (n, m - 1)))


def reduced_weights_of(c, w, g, p):
    """The weights W that ``reduced_system`` writes, in new grids."""
    n, m = g.shape
    wr = ArcField(*arc_grids(n, m))
    reduced_system(c, w, g, p, weights=wr, rhs=np.zeros((n, m)), flux=arc_grids(n, m))
    return wr


class TestReducedSystem:
    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (1, 6), (6, 1)])
    def test_matches_dense_kt_w_k(self, rng, shape):
        n, m = shape
        # W = c^2 / (w + tau c^2) <= 1/tau = 5
        p = ModelParams(tau=0.2)
        c, w = model_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        wr = ArcField(*arc_grids(n, m))
        rhs = reduced_system(c, w, g, p, weights=wr, rhs=np.zeros((n, m)), flux=arc_grids(n, m))
        d = np.concatenate([vec(c.v), vec(c.h)]) ** 2 / np.concatenate([vec(w.v), vec(w.h)])
        diag = d / (1 + p.tau * d)
        assert np.allclose(np.concatenate([vec(wr.v), vec(wr.h)]), diag, rtol=1e-14, atol=0)
        k = dense_arc_map(n, m)
        kt_w_k = k.T @ np.diag(diag) @ k
        u = rng.standard_normal((n, m))
        got = kernels.weighted_laplacian(u, wr.v, wr.h, *arc_grids(n, m), np.zeros((n, m)))
        assert np.max(np.abs(vec(got) - kt_w_k @ vec(u))) < 1e-12
        want_rhs = k.T @ (diag * np.concatenate([vec(g.v), vec(g.h)]))
        assert np.max(np.abs(vec(rhs) - want_rhs)) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (1, 6), (6, 1)])
    def test_out_is_bit_equal_to_a_new_result(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=0.03)
        c, w = model_weights(rng, n, m)
        u = rng.standard_normal((n, m))
        g = random_gradients(rng, n, m)
        # every entry of out and of the scratch must be overwritten: NaN-filled
        # buffers give the bits of zero-filled ones
        wr, rhs = ArcField(*arc_grids(n, m, np.nan)), np.full((n, m), np.nan)
        assert reduced_system(c, w, g, p, weights=wr, rhs=rhs, flux=arc_grids(n, m, np.nan)) is rhs
        want_wr = ArcField(*arc_grids(n, m))
        want = reduced_system(
            c, w, g, p, weights=want_wr, rhs=np.zeros((n, m)), flux=arc_grids(n, m)
        )
        assert np.array_equal(rhs, want)
        for got, ref in zip(wr, want_wr):
            assert got.tobytes() == ref.tobytes()
        buf = np.full((n, m), np.nan)
        got = kernels.weighted_laplacian(u, wr.v, wr.h, *arc_grids(n, m, np.nan), buf)
        assert got is buf
        want = kernels.weighted_laplacian(u, wr.v, wr.h, *arc_grids(n, m), np.zeros((n, m)))
        assert np.array_equal(got, want)
        full = nan_vector(n, m)
        full.u[...] = u
        propose(full, g, c, w, p, weights=reduced_weights_of(c, w, g, p),
                scratch=arc_grids(n, m, np.nan))
        want = SystemVector(u, *arc_grids(n, m))
        propose(want, g, c, w, p, weights=reduced_weights_of(c, w, g, p), scratch=arc_grids(n, m))
        assert full.data.tobytes() == want.data.tobytes()
        # the slacks as first written, each temporary a new grid
        for v, diff, gg, ww in ((full.vv, kernels.diff_rows(u), g.v, wr.v),
                                (full.vh, kernels.diff_cols(u), g.h, wr.h)):
            want = diff - gg
            want -= p.tau * ww * want
            assert v.tobytes() == want.tobytes()
        b = nan_vector(n, m)
        assert build_rhs(g, p, out=b) is b
        assert b.data.tobytes() == build_rhs(g, p, out=SystemVector.zeros(n, m)).data.tobytes()

    def test_reduced_weights_are_the_schur_weights(self, rng):
        n, m, p = 5, 4, ModelParams(tau=0.03)
        c = WeightField(rng.uniform(0, 2, (n - 1, m)), rng.uniform(0, 2, (n, m - 1)))
        c.v[1, :] = 0.0
        w = ArcField(rng.uniform(1e-6, 3, (n - 1, m)), rng.uniform(1e-6, 3, (n, m - 1)))
        out, rhs = ArcField(*arc_grids(n, m, np.nan)), np.full((n, m), np.nan)
        g = random_gradients(rng, n, m)
        assert reduced_system(c, w, g, p, weights=out, rhs=rhs, flux=arc_grids(n, m, np.nan)) is rhs
        for cc, ww, got in ((c.v, w.v, out.v), (c.h, w.h, out.h)):
            first = cc * cc  # the weights as first written, the denominator a new grid
            first /= ww + p.tau * first
            assert got.tobytes() == first.tobytes()
            d = cc**2 / ww
            assert np.allclose(got, d / (1 + p.tau * d), rtol=1e-14, atol=0)
            assert np.all(got <= 1 / p.tau)
        assert np.all(out.v[1, :] == 0.0)

    @pytest.mark.parametrize("shape", [(4, 5), (1, 6), (6, 1), (1, 1)])
    def test_recover_slacks_writes_only_the_slacks_of_x(self, rng, shape):
        # propose sets the slacks of x and reads its u
        n, m = shape
        p = ModelParams(tau=0.03)
        c, w = model_weights(rng, n, m)
        g = random_gradients(rng, n, m)
        x = nan_vector(n, m)
        x.u[...] = arc_values(rng, (n, m), "mixed")
        u_bytes = x.u.tobytes()
        weights = reduced_weights_of(c, w, g, p)
        propose(x, g, c, w, p, weights=weights, scratch=arc_grids(n, m, np.nan))
        assert x.u.tobytes() == u_bytes
        assert not np.isnan(x.data).any()
        assert not any(np.isnan(ww).any() for ww in weights)

    def test_recovered_slacks_minimize_the_lifted_penalty(self, rng):
        # d v + (v - (S u - g)) / tau = 0 at the minimizer, arc by arc
        n, m, p = 4, 5, ModelParams(tau=0.03)
        d = random_diag(rng, n, m)
        c, w = WeightField.uniform(n, m), ArcField(1 / d.v, 1 / d.h)
        u = rng.standard_normal((n, m))
        g = random_gradients(rng, n, m)
        x = SystemVector(u, *arc_grids(n, m))
        propose(x, g, c, w, p, weights=reduced_weights_of(c, w, g, p), scratch=arc_grids(n, m))
        assert np.array_equal(x.u, u)
        stationary_v = d.v * x.vv + (x.vv - (kernels.diff_rows(u) - g.v)) / p.tau
        stationary_h = d.h * x.vh + (x.vh - (kernels.diff_cols(u) - g.h)) / p.tau
        assert np.max(np.abs(stationary_v)) < 1e-10
        assert np.max(np.abs(stationary_h)) < 1e-10
