import math
import tracemalloc

import numpy as np
import pytest

from phaseirls import irls
from phaseirls.irls import (
    CG_REL_TOL,
    MAX_CG_ITERS,
    IrlsParams,
    cg_budget_update,
    relative_improvement,
    unwrap,
)
from phaseirls.objective import (
    ModelParams,
    candidate_step,
    eval_f,
    eval_f_delta,
    eval_h_delta,
    lipschitz_constant,
    update_weights,
)
from phaseirls.operators import SystemVector
from phaseirls.pcg import pcg_solve
from phaseirls.phase import (
    TWO_PI,
    WeightField,
    congruent_round,
    shift_error,
    wrap_to_principal,
    wrapped_gradients,
)
from phaseirls.synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

from oracles import (
    arc_count,
    dense_s,
    dense_system_entrywise,
    dense_t,
    outer_states,
    random_gradients,
    random_state,
    random_weights,
    safeguard_bound_holds,
    spoil_proposals,
    unstack_system,
    vec,
)

DEFAULTS = IrlsParams()


class TestBudgetRules:
    def test_keep_while_improving(self):
        decision = cg_budget_update(1e-2, 5, 5, DEFAULTS)
        assert decision.action == "keep"
        assert decision.m_cg == 5

    def test_stop_after_fruitless_grow(self):
        decision = cg_budget_update(1e-4, 9, 5, DEFAULTS)
        assert decision.action == "stop"

    def test_grow_on_stall(self):
        decision = cg_budget_update(1e-4, 5, 5, DEFAULTS)
        assert decision.action == "grow"
        assert decision.m_cg == 9

    def test_grow_clamps_to_cap(self):
        decision = cg_budget_update(1e-4, MAX_CG_ITERS - 1, MAX_CG_ITERS - 1, DEFAULTS)
        assert decision.action == "grow"
        assert decision.m_cg == MAX_CG_ITERS

    @pytest.mark.parametrize(
        "factor, grown", [(1.7, 9), (3.0, 15), (1e4, MAX_CG_ITERS), (1e308, MAX_CG_ITERS)]
    )
    def test_any_finite_factor_grows_within_the_cap(self, factor, grown):
        decision = cg_budget_update(1e-4, 5, 5, IrlsParams(cg_growth_factor=factor))
        assert decision.action == "grow"
        assert decision.m_cg == grown

    @pytest.mark.parametrize("field", ["rel_improvement_tol", "cg_growth_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_controls(self, field, value):
        with pytest.raises(ValueError, match=field):
            IrlsParams(**{field: value})

    def test_stop_at_cap(self):
        decision = cg_budget_update(1e-4, MAX_CG_ITERS, MAX_CG_ITERS, DEFAULTS)
        assert decision.action == "stop"

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            cg_budget_update(1e-4, 0, 0, DEFAULTS)

    def test_start_budget_above_cap_is_rejected(self):
        IrlsParams(max_iter_cg_start=MAX_CG_ITERS)
        with pytest.raises(ValueError, match="max_iter_cg_start"):
            IrlsParams(max_iter_cg_start=MAX_CG_ITERS + 1)


class TestRelativeImprovement:
    def test_equal_values(self):
        assert relative_improvement(3.0, 3.0) == 0.0

    def test_halving(self):
        assert relative_improvement(2.0, 1.0) == 0.5

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            relative_improvement(0.0, 1.0)

    def test_weight_update_never_increases_objective(self, rng):
        n, m = 6, 7
        p = ModelParams()
        for _ in range(20):
            x = random_state(rng, n, m)
            g = random_gradients(rng, n, m)
            c = random_weights(rng, n, m)
            w_old = update_weights(random_state(rng, n, m), c, p.delta)
            w_new = update_weights(x, c, p.delta)
            h_old = eval_h_delta(x, w_old, g, c, p)
            h_new = eval_h_delta(x, w_new, g, c, p)
            assert relative_improvement(h_old, h_new) >= -1e-12


class TestUnwrap:
    def test_constant_scene(self):
        x = wrap_to_principal(1.3 * np.ones((8, 9)), 0.0)
        res = unwrap(x)
        assert np.max(np.abs(res.u)) < 1e-12
        assert abs(res.u.mean()) < 1e-12
        # converged objective is the smoothing floor: one delta per arc
        assert res.trace.records[-1].h_delta == pytest.approx(
            1e-6 * arc_count(8, 9), rel=1e-6
        )

    def test_ramp_roundtrip(self):
        truth = 0.3 * np.arange(48)[:, None] + np.zeros((48, 40))
        res = unwrap(wrap_to_principal(truth, 0.0))
        rep = shift_error(res.u, truth)
        assert rep.max_abs <= 1e-2

    def test_gaussian_scene_congruent_recovery(self):
        spec = SceneSpec("gaussian-bumps", 64, 64, amplitude=6.0, feature_scale=12.0, seed=5)
        truth = generate_scene(spec)
        assert max(np.abs(np.diff(truth, axis=0)).max(), np.abs(np.diff(truth, axis=1)).max()) < np.pi
        x = wrap_scene(truth)
        res = unwrap(x)
        rounded = congruent_round(res.u, x)
        offset = (rounded - truth) / TWO_PI
        k = np.rint(offset)
        assert np.max(np.abs(offset - k)) < 1e-9
        assert np.ptp(k) == 0.0

    def test_monotone_descent_and_safeguard(self, monkeypatch):
        spec = SceneSpec("gaussian-bumps", 32, 32, amplitude=5.0, feature_scale=7.0, seed=3)
        x = wrap_scene(generate_scene(spec))
        c = WeightField.uniform(*x.shape)
        model = ModelParams()
        res = unwrap(x)
        h = res.trace.h_values()
        assert len(h) >= 2
        for prev, nxt in zip(h, h[1:]):
            assert nxt <= prev * (1 + 1e-12)
        assert all(r.sufficient_decrease or r.fallback_used for r in res.trace.records)
        assert safeguard_bound_holds(x, res.trace.records, c, model)
        # spoiled proposals lose to the gradient step, which bounds every record all the same
        spoil_proposals(monkeypatch)
        spoiled = unwrap(x)
        assert all(r.fallback_used for r in spoiled.trace.records)
        assert safeguard_bound_holds(x, spoiled.trace.records, c, model)

    def test_mean_zero_output(self, rng):
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=4.0, feature_scale=6.0, seed=9)
        res = unwrap(wrap_scene(generate_scene(spec)))
        assert abs(res.u.sum()) <= 1e-9 * res.u.size

    def test_shift_equivariance(self):
        spec = SceneSpec("gaussian-bumps", 24, 24, amplitude=5.0, feature_scale=6.0, seed=13)
        truth = generate_scene(spec)
        res_a = unwrap(wrap_scene(truth))
        res_b = unwrap(wrap_scene(truth + 7.7))
        assert np.max(np.abs(res_a.u - res_b.u)) < 1e-8

    def test_weight_shape_mismatch(self):
        x = wrap_to_principal(np.zeros((4, 4)), 0.0)
        bad = WeightField.uniform(5, 5)
        with pytest.raises(ValueError):
            unwrap(x, bad)

    @pytest.mark.parametrize("weight", [1e154, 1e155])
    def test_rejects_weights_whose_curvature_bound_is_not_finite(self, weight):
        x = wrap_to_principal(np.zeros((16, 16)), 0.0)
        c = WeightField(np.full((15, 16), weight), np.full((16, 15), weight))
        with pytest.raises(ValueError, match="c_max"):
            unwrap(x, c)

    @pytest.mark.parametrize(
        "model, weight",
        [(ModelParams(delta=1e-150), 1.0), (ModelParams(delta=1e150), 1.0), (ModelParams(), 1e150)],
    )
    def test_extreme_accepted_parameters_give_finite_objectives(self, model, weight):
        spec = SceneSpec("gaussian-bumps", 16, 16, amplitude=5.0, feature_scale=4.0, seed=2)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=3)
        c = WeightField(np.full((15, 16), weight), np.full((16, 15), weight))
        res = unwrap(x, c, model)
        assert all(math.isfinite(h) for h in res.trace.h_values())
        assert np.all(np.isfinite(res.u))

    def test_rejects_unwrapped_input(self):
        with pytest.raises(ValueError):
            unwrap(np.full((3, 3), 9.0))

    def test_degenerate_single_row_and_column(self):
        truth_row = 0.4 * np.arange(30)[None, :]
        res = unwrap(wrap_to_principal(truth_row, 0.0))
        assert shift_error(res.u, truth_row).max_abs < 1e-10
        truth_col = 0.4 * np.arange(30)[:, None]
        res = unwrap(wrap_to_principal(truth_col, 0.0))
        assert shift_error(res.u, truth_col).max_abs < 1e-10

    def test_single_pixel(self):
        res = unwrap(np.array([[1.0]]))
        assert res.u == np.zeros((1, 1))

    def test_trace_record_fields(self):
        spec = SceneSpec("gaussian-bumps", 16, 16, amplitude=4.0, feature_scale=4.0, seed=2)
        res = unwrap(wrap_scene(generate_scene(spec)))
        first = res.trace.records[0]
        assert first.k == 0
        assert first.delta_rel is None
        assert first.m_cg == DEFAULTS.max_iter_cg_start
        for rec in res.trace.records[1:]:
            assert rec.delta_rel is not None
            # refreshing the weights can only lower the lifted objective
            assert rec.delta_rel >= -1e-12
            assert rec.m_cg >= DEFAULTS.max_iter_cg_start

    def test_zero_weight_cut_splits_the_grid(self):
        # a row of zero-weight arcs leaves two components, so the reduced map
        # has a second null direction: the offset between the two halves
        spec = SceneSpec("gaussian-bumps", 64, 48, amplitude=6.0, feature_scale=10.0, seed=5)
        truth = generate_scene(spec)
        c = WeightField.uniform(64, 48)
        c.cv[30, :] = 0.0
        res = unwrap(wrap_scene(truth), c)
        assert np.all(np.isfinite(res.u))
        assert abs(res.u.sum()) <= 1e-9 * res.u.size
        h = res.trace.h_values()
        assert all(nxt <= prev * (1 + 1e-12) for prev, nxt in zip(h, h[1:]))
        for half in (slice(0, 31), slice(31, 64)):
            assert shift_error(res.u[half], truth[half]).max_abs <= 1e-4

    def test_default_weights_equal_explicit_uniform_weights(self):
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=5.0, feature_scale=6.0, seed=4)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=5)
        got = unwrap(x)
        want = unwrap(x, WeightField.uniform(*x.shape))
        for a, b in ((got.u, want.u), (got.vv, want.vv), (got.vh, want.vh)):
            assert a.tobytes() == b.tobytes()
        assert got.trace.records == want.trace.records

    def test_default_weights_hold_no_grids(self):
        spec = SceneSpec("gaussian-bumps", 160, 120, amplitude=6.0, feature_scale=14.0, seed=3)
        x = wrap_scene(generate_scene(spec))
        params = IrlsParams(max_outer_iters=2)
        c = WeightField.uniform(*x.shape)

        def peak(*args):
            tracemalloc.start()
            try:
                unwrap(x, *args, params=params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grid = x.nbytes
        default, prebuilt = peak(), peak(c)
        assert default <= prebuilt + grid // 2, f"{(default - prebuilt) / grid:.2f} grids above"

    def test_objective_evaluations_per_outer_iteration(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return eval_h_delta(*args, **kwargs)

        monkeypatch.setattr(irls, "eval_h_delta", counting)
        spec = SceneSpec("gaussian-bumps", 32, 32, amplitude=5.0, feature_scale=7.0, seed=3)
        res = unwrap(wrap_scene(generate_scene(spec)))
        # stopped by the budget heuristic, so the last pass evaluated only h(w_new)
        assert len(res.trace) < DEFAULTS.max_outer_iters
        # the candidate and the proposal; h at the state under refreshed weights is sum(w) + penalty
        assert len(calls) <= 2 * len(res.trace)

    def test_delta_rel_is_the_refresh_gain_at_each_state(self):
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=5.0, feature_scale=6.0, seed=4)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=5)
        c = WeightField.uniform(*x.shape)
        model = ModelParams()
        records = unwrap(x).trace.records
        assert len(records) >= 3
        g, states = outer_states(x, c, model, len(records))
        for k in range(1, len(records)):
            w = update_weights(states[k], c, model.delta)
            want = relative_improvement(
                records[k - 1].h_delta, eval_h_delta(states[k], w, g, c, model)
            )
            assert records[k].delta_rel == pytest.approx(want, rel=0, abs=1e-12)

    def test_outer_loop_peak_memory(self):
        # the loop's buffers are allocated once; the peak is the PCG solve's
        spec = SceneSpec("gaussian-bumps", 256, 256, amplitude=10.0, feature_scale=28.0, seed=1)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=1001)
        tracemalloc.start()
        try:
            unwrap(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * x.nbytes, f"peak of {peak / x.nbytes:.2f} grids"

    def test_solve_runs_in_the_loop_buffers(self):
        # PCG iterates in the state's u and the right-hand side grid, so the
        # peak is the loop's buffers plus the search direction and one
        # Sylvester transform temporary
        spec = SceneSpec("gaussian-bumps", 256, 256, amplitude=10.0, feature_scale=28.0, seed=1)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=7)
        tracemalloc.start()
        try:
            unwrap(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 23 * x.nbytes, f"peak of {peak / x.nbytes:.2f} grids"

    def test_recorded_objective_is_that_of_the_accepted_iterate(self):
        # the record reuses h from the acceptance test, evaluated before u is
        # mean-centred; centring moves h by round-off only
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=5.0, feature_scale=6.0, seed=4)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=5)
        model = ModelParams()
        c = WeightField.uniform(*x.shape)
        res = unwrap(x, c, model, IrlsParams(max_outer_iters=1))
        g = wrapped_gradients(x)
        initial = SystemVector(np.zeros(x.shape), -g.gv, -g.gh)
        final = SystemVector(res.u, res.vv, res.vh)
        want = eval_h_delta(final, update_weights(initial, c, model.delta), g, c, model)
        assert res.trace.records[0].h_delta == pytest.approx(want, rel=1e-12)

    def test_spoiled_proposal_falls_back_to_the_gradient_step(self, monkeypatch):
        # a proposal far from the minimizer loses to the explicit gradient
        # step, which unwrap must then take in its place
        spoil_proposals(monkeypatch)
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=5.0, feature_scale=6.0, seed=4)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=5)
        model = ModelParams()
        c = WeightField.uniform(*x.shape)
        res = unwrap(x, c, model, IrlsParams(max_outer_iters=1))
        rec = res.trace.records[0]
        assert rec.fallback_used and not rec.sufficient_decrease

        g = wrapped_gradients(x)
        initial = SystemVector(np.zeros(x.shape), -g.gv, -g.gh)
        w = update_weights(initial, c, model.delta)
        cand = candidate_step(initial, w, g, c, model, lipschitz_constant(c, model))
        assert rec.h_delta == eval_h_delta(cand, w, g, c, model)
        cand.u -= cand.u.mean()
        for got, want in ((res.u, cand.u), (res.vv, cand.vv), (res.vh, cand.vh)):
            assert got.tobytes() == want.tobytes()

        longer = unwrap(x, c, model, IrlsParams(max_outer_iters=3))
        assert all(r.fallback_used for r in longer.trace.records)
        h = longer.trace.h_values()
        assert len(h) >= 2
        assert all(nxt <= prev * (1 + 1e-12) for prev, nxt in zip(h, h[1:]))


class TestObservability:
    def test_budget_heuristic_stop(self):
        spec = SceneSpec("gaussian-bumps", 32, 32, amplitude=5.0, feature_scale=7.0, seed=3)
        res = unwrap(wrap_scene(generate_scene(spec)))
        assert len(res.trace) < DEFAULTS.max_outer_iters
        assert res.stop_reason == "heuristic"

    def test_outer_cap_stop(self):
        spec = SceneSpec("gaussian-bumps", 32, 32, amplitude=5.0, feature_scale=7.0, seed=3)
        res = unwrap(wrap_scene(generate_scene(spec)), params=IrlsParams(max_outer_iters=2))
        assert len(res.trace) == 2
        assert res.stop_reason == "max_outer"

    def test_records_carry_each_solve_outcome(self, monkeypatch):
        solves = []

        def recording(*args, **kwargs):
            # the solve overwrites b with its residual, so its norm is taken first
            b_norm = np.linalg.norm(kwargs["b"])
            out = pcg_solve(*args, **kwargs)
            solves.append((out.converged, out.residual_norms[-1] / b_norm))
            return out

        monkeypatch.setattr(irls, "pcg_solve", recording)
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=5.0, feature_scale=6.0, seed=4)
        res = unwrap(add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=5))
        assert len(solves) == len(res.trace)
        for rec, (converged, rel) in zip(res.trace.records, solves):
            assert type(rec.cg_converged) is bool and rec.cg_converged == converged
            assert rec.cg_rel_residual == rel
            assert rec.cg_converged == (rel <= CG_REL_TOL)

    def test_zero_rhs_reports_zero_residual(self):
        res = unwrap(np.full((5, 6), 1.25))
        assert all(rec.cg_rel_residual == 0.0 for rec in res.trace.records)
        assert all(rec.cg_converged for rec in res.trace.records)


def _noisy_bumps(rows, cols):
    spec = SceneSpec("gaussian-bumps", rows, cols, amplitude=6.0, feature_scale=6.0, seed=21)
    return add_phase_noise(wrap_scene(generate_scene(spec)), 0.4, seed=22)


def _plateau(rows, cols):
    spec = SceneSpec("plateau-discontinuity", rows, cols, amplitude=9.0, feature_scale=5.0, seed=23)
    return wrap_scene(generate_scene(spec))


def _random_line(rows, cols):
    rng_local = np.random.Generator(np.random.Philox(key=np.uint64(24)))
    return rng_local.uniform(0.0, TWO_PI, (rows, cols))


EQUIVARIANCE_SCENES = {
    "bumps-noisy-24x40": lambda: _noisy_bumps(24, 40),
    "plateau-40x24": lambda: _plateau(40, 24),
    "line-1x17": lambda: _random_line(1, 17),
    "line-17x1": lambda: _random_line(17, 1),
}

# grid map, and the matching map of the weights (a transpose swaps cv and ch)
GRID_SYMMETRIES = {
    "transpose": (np.transpose, lambda c: WeightField(c.ch.T, c.cv.T)),
    "flipud": (np.flipud, lambda c: WeightField(np.flipud(c.cv), np.flipud(c.ch))),
    "fliplr": (np.fliplr, lambda c: WeightField(np.fliplr(c.cv), np.fliplr(c.ch))),
}


@pytest.mark.parametrize("symmetry", sorted(GRID_SYMMETRIES))
@pytest.mark.parametrize("scene", sorted(EQUIVARIANCE_SCENES))
def test_transpose_and_flip_equivariance(scene, symmetry):
    # guards the rows/cols roles of the two spectral bases and difference operators
    x = EQUIVARIANCE_SCENES[scene]()
    rng_local = np.random.Generator(np.random.Philox(key=np.uint64(25)))
    c = random_weights(rng_local, *x.shape)
    move, move_weights = GRID_SYMMETRIES[symmetry]
    ref = unwrap(x, c)
    res = unwrap(move(x), move_weights(c))
    assert np.max(np.abs(res.u - move(ref.u))) <= 1e-10
    assert len(res.trace) == len(ref.trace)


class TestSmallInstanceOptimality:
    def test_matches_long_horizon_dense_reference(self, rng):
        n = m = 4
        p = ModelParams(tau=1e-2, delta=1e-6)
        rng_local = np.random.Generator(np.random.Philox(key=np.uint64(77)))
        # fully random wrapped input: gradients carry residues, so the
        # minimizer is a genuinely nontrivial balance of the l1 terms
        x = rng_local.uniform(0.0, TWO_PI, (n, m))
        c = WeightField.uniform(n, m)

        # reference: plain alternating scheme with exact dense inner solves
        from phaseirls.phase import wrapped_gradients

        g = wrapped_gradients(x)
        s = dense_s(n)
        t = dense_t(m)
        b = np.concatenate(
            [vec(s.T @ g.gv + g.gh @ t.T) / p.tau, -vec(g.gv) / p.tau, -vec(g.gh) / p.tau]
        )
        state = SystemVector(np.zeros((n, m)), -g.gv.copy(), -g.gh.copy())
        for _ in range(5000):
            w = update_weights(state, c, p.delta)
            from phaseirls.operators import DiagonalWeights

            d = DiagonalWeights(c.cv**2 / w.wv, c.ch**2 / w.wh)
            a = dense_system_entrywise(n, m, d, p.tau)
            state = unstack_system(np.linalg.lstsq(a, b, rcond=None)[0], n, m)
            state.u -= state.u.mean()
        f_ref = eval_f_delta(state, g, c, p)

        res = unwrap(
            x,
            c,
            p,
            IrlsParams(rel_improvement_tol=1e-10, max_outer_iters=3000),
        )
        final = SystemVector(res.u, res.vv, res.vh)
        f_got = eval_f_delta(final, g, c, p)
        assert f_got == pytest.approx(f_ref, rel=1e-6)
