import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from phaseirls import diagnostics, irls, kernels, preconditioner
from phaseirls.irls import (
    CG_REL_TOL,
    MAX_CG_ITERS,
    IrlsParams,
    IterationRecord,
    next_budget,
    start_state,
    unwrap,
)
from phaseirls.objective import (
    ModelParams,
    SystemVector,
    eval_f_delta,
    eval_h_delta,
    eval_h_delta_refreshed,
    lipschitz_constant,
)
from phaseirls.pcg import pcg_solve
from phaseirls.phase import (
    TWO_PI,
    ArcField,
    WeightField,
    congruent_round,
    shift_error,
    wrap_to_principal,
    wrapped_gradients,
)
from phaseirls.synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

from oracles import (
    DENSE_CELL_LIMIT,
    GRID_SYMMETRIES,
    arc_count,
    arc_grids,
    dense_rhs,
    dense_system_entrywise,
    h_delta_of,
    outer_states,
    preconditioned_spectrum,
    random_weights,
    replay_outer_iteration,
    safeguard_bound_holds,
    spoil_proposals,
    stall_proposals,
    step_of,
    unstack_system,
    unwrap_eager_safeguard,
    weights_of,
)

DEFAULTS = IrlsParams()


def record_at(m_cg, h_delta=1.0, cg_iters=None, fallback=False):
    """A record at budget ``m_cg`` whose solve ran ``cg_iters`` iterations, by default all."""
    return IterationRecord(
        k=0, m_cg=m_cg, delta_rel=None, h_delta=h_delta,
        cg_iters=m_cg if cg_iters is None else cg_iters, fallback=fallback,
        cg_converged=False, cg_rel_residual=1.0,
    )


def budget_after(budgets, gain, params=DEFAULTS):
    """``next_budget``'s budget after records at ``budgets``, each of h 1, and a refresh gain."""
    return next_budget([record_at(m) for m in budgets], 1.0 - gain, params)[1]


class TestBudgetRules:
    def test_keep_while_improving(self):
        assert budget_after([5, 5], 1e-2) == 5

    def test_stop_after_fruitless_grow(self):
        assert budget_after([5, 9], 1e-4) is None

    def test_grow_on_stall(self):
        # one record at the start budget, or two at the same budget
        assert budget_after([5], 1e-4) == 9
        assert budget_after([5, 5], 1e-4) == 9

    def test_grow_clamps_to_cap(self):
        assert budget_after([MAX_CG_ITERS - 1, MAX_CG_ITERS - 1], 1e-4) == MAX_CG_ITERS

    @pytest.mark.parametrize(
        "factor, grown", [(1.7, 9), (3.0, 15), (1e4, MAX_CG_ITERS), (1e308, MAX_CG_ITERS)]
    )
    def test_any_finite_factor_grows_within_the_cap(self, factor, grown):
        assert budget_after([5, 5], 1e-4, IrlsParams(cg_growth_factor=factor)) == grown

    @pytest.mark.parametrize("field", ["rel_improvement_tol", "cg_growth_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_controls(self, field, value):
        with pytest.raises(ValueError, match=field):
            IrlsParams(**{field: value})

    def test_stop_at_cap(self):
        assert budget_after([MAX_CG_ITERS, MAX_CG_ITERS], 1e-4) is None

    @pytest.mark.parametrize("field", ["max_iter_cg_start", "max_outer_iters"])
    @pytest.mark.parametrize("value", [2.5, math.inf, math.nan, 3.0, True])
    def test_rejects_counts_that_are_not_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            IrlsParams(**{field: value})

    @pytest.mark.parametrize("field", ["max_iter_cg_start", "max_outer_iters"])
    def test_accepts_numpy_integer_counts(self, field):
        spec = SceneSpec("gaussian-bumps", 8, 8, amplitude=3.0, feature_scale=3.0, seed=1)
        x = wrap_scene(generate_scene(spec))
        assert unwrap(x, params=IrlsParams(**{field: np.int64(3)})).trace.records

    def test_start_budget_above_cap_is_rejected(self):
        IrlsParams(max_iter_cg_start=MAX_CG_ITERS)
        with pytest.raises(ValueError, match="max_iter_cg_start"):
            IrlsParams(max_iter_cg_start=MAX_CG_ITERS + 1)

    def test_rejects_a_run_of_no_outer_iterations(self):
        IrlsParams(max_outer_iters=1)
        with pytest.raises(ValueError, match="max_outer_iters"):
            IrlsParams(max_outer_iters=0)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_stall_after_an_idle_solve_stops_unless_it_fell_back(self, fallback):
        # one record at the start budget and no gain: a solve that iterated grows
        # the budget, which after an idle one only a fallback lets through, since
        # an idle proposal is the fixed point
        assert next_budget([record_at(5, h_delta=2.0)], 2.0, DEFAULTS) == (0.0, 9)
        idle = record_at(5, h_delta=2.0, cg_iters=0, fallback=fallback)
        assert next_budget([idle], 2.0, DEFAULTS) == (0.0, 9 if fallback else None)


class TestRelativeImprovement:
    def test_equal_values(self):
        assert next_budget([record_at(5, h_delta=3.0)], 3.0, DEFAULTS)[0] == 0.0

    def test_halving(self):
        assert next_budget([record_at(5, h_delta=2.0)], 1.0, DEFAULTS)[0] == 0.5

    def test_zero_reference_is_no_gain(self):
        # an arc-free grid has h identically 0: no gain, and its idle solve stops the loop
        idle = record_at(5, h_delta=0.0, cg_iters=0)
        assert next_budget([idle], 0.0, DEFAULTS) == (0.0, None)


class TestUnwrap:
    def test_constant_scene(self):
        x = wrap_to_principal(1.3 * np.ones((8, 9)), 0.0)
        res = unwrap(x)
        assert np.max(np.abs(res.u)) < 1e-12
        assert abs(res.u.mean()) < 1e-12
        # the first solve has a zero right-hand side and runs no CG iteration,
        # so the stall that follows stops the loop
        assert (len(res.trace), res.stop_reason) == (1, "heuristic")
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
        assert safeguard_bound_holds(x, res.trace.records, c, model)
        # spoiled proposals lose to the gradient step, which bounds every record all the same
        spoil_proposals(monkeypatch)
        spoiled = unwrap(x)
        assert all(r.fallback for r in spoiled.trace.records)
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

    @pytest.mark.parametrize("kind", ["ArcField", "tuple"])
    def test_rejects_weights_that_are_not_a_weight_field(self, kind):
        # an ArcField skips WeightField's checks: this one holds a negative weight
        x = wrap_to_principal(np.zeros((4, 4)), 0.0)
        v, h = -np.ones((3, 4)), np.ones((4, 3))
        with pytest.raises(TypeError, match=kind):
            unwrap(x, ArcField(v, h) if kind == "ArcField" else (v, h))

    @pytest.mark.parametrize("model, params, message", [
        ((1e-2, 1e-6), None, "model must be ModelParams or None, got tuple"),
        ({"tau": 1e-2}, None, "model must be ModelParams or None, got dict"),
        (None, {"max_outer_iters": 2}, "params must be IrlsParams or None, got dict"),
        (None, ModelParams(), "params must be IrlsParams or None, got ModelParams"),
    ])
    def test_rejects_model_and_params_of_another_type_before_any_work(
        self, monkeypatch, model, params, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("unwrap started work")

        monkeypatch.setattr(irls, "wrapped_gradients", refuse)
        x = wrap_to_principal(np.zeros((4, 4)), 0.0)
        with pytest.raises(TypeError, match=message):
            unwrap(x, model=model, params=params)

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

    @pytest.mark.parametrize(
        "shape, weighted",
        [((1, 9), False), ((1, 9), True), ((9, 1), False), ((9, 1), True),
         ((1, 1), False), ((1, 1), True)],
    )
    def test_degenerate_shapes_return_views_of_one_buffer(self, shape, weighted):
        # a single row or column leaves the state's slacks one element short
        # of a grid; the Sylvester scratch must still fit past u.  The eager
        # loop runs the same arithmetic with every grid allocated apart
        n, m = shape
        rng_local = np.random.Generator(np.random.Philox(key=np.uint64(27)))
        truth = 0.9 * np.arange(n * m).reshape(n, m) + rng_local.normal(0.0, 0.5, (n, m))
        c = WeightField(
            rng_local.uniform(0.2, 1.5, (n - 1, m)), rng_local.uniform(0.2, 1.5, (n, m - 1))
        )
        x = wrap_to_principal(truth, 0.0)
        res = unwrap(x, c if weighted else None)
        assert (res.u.shape, res.vv.shape, res.vh.shape) == ((n, m), (n - 1, m), (n, m - 1))
        # u, vv and vh lie back to back in one buffer, as the blocks of a SystemVector
        offset = res.u.__array_interface__["data"][0]
        for block in (res.u, res.vv, res.vh):
            # numpy gives an empty view a data pointer of its own
            if block.size:
                assert block.__array_interface__["data"][0] == offset
            offset += block.nbytes
        assert res.u.base is not None and res.u.base is res.vv.base is res.vh.base
        want, _ = unwrap_eager_safeguard(
            x, c if weighted else WeightField.uniform(n, m), ModelParams()
        )
        for got, ref in ((res.u, want.u), (res.vv, want.vv), (res.vh, want.vh)):
            assert got.tobytes() == ref.tobytes()

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
        c = WeightField(np.ones((63, 48)), np.ones((64, 47)))
        c.v[30, :] = 0.0
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
        n, m = x.shape
        want = unwrap(x, WeightField(np.ones((n - 1, m)), np.ones((n, m - 1))))
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
        # stopped by the budget heuristic, not by the outer cap
        assert len(res.trace) < DEFAULTS.max_outer_iters
        # the proposal's h and its refreshed weights come from one fused evaluation, and
        # the candidate's h only when the proposal misses the gradient-step lower bound
        assert len(calls) < len(res.trace)

    def test_arc_misfits_per_outer_iteration(self, monkeypatch):
        # the gradient step and the proposal each form K u - g once; an
        # iteration whose proposal meets the bound forms it nowhere else
        misfit, step, evaluate = kernels.misfit, irls.candidate_step, irls.eval_h_delta
        calls, starts, missed = [0], [], set()

        def counting(*args):
            calls[0] += 1
            return misfit(*args)

        def marking(*args, **kwargs):
            starts.append(calls[0])
            return step(*args, **kwargs)

        def noting(*args, **kwargs):
            missed.add(len(starts) - 1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(kernels, "misfit", counting)
        monkeypatch.setattr(irls, "candidate_step", marking)
        monkeypatch.setattr(irls, "eval_h_delta", noting)
        records = unwrap(_idle_bumps_noisy()).trace.records
        ends = starts[1:] + calls
        met = [k for k, rec in enumerate(records) if k not in missed and not rec.fallback]
        assert len(met) >= 3
        counts = [ends[k] - starts[k] for k in met]
        assert max(counts) <= 2, counts

    def test_delta_rel_is_the_refresh_gain_at_each_state(self):
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=5.0, feature_scale=6.0, seed=4)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=5)
        c = WeightField.uniform(*x.shape)
        model = ModelParams()
        res = unwrap(x)
        records = res.trace.records
        assert len(records) >= 3
        assert res.stop_reason == "heuristic"
        g, states = outer_states(x, c, model, len(records))
        for k in range(1, len(records)):
            w = weights_of(states[k], c, model)
            h_old = records[k - 1].h_delta
            want = (h_old - h_delta_of(states[k], w, g, c, model)) / h_old
            assert records[k].delta_rel == pytest.approx(want, rel=0, abs=1e-12)
        # the budget rule read from the records so far gives each record's budget,
        # and after the last record of a heuristic run it stops the loop
        states.append(SystemVector(res.u, res.vv, res.vh))
        for k, state in enumerate(states):
            h_state = eval_h_delta_refreshed(
                state, weights_of(state, c, model), g, model, scratch=arc_grids(*x.shape)
            )
            got = next_budget(records[:k], h_state, DEFAULTS)
            if k < len(records):
                assert got == (records[k].delta_rel, records[k].m_cg)
            else:
                assert got[1] is None

    @pytest.mark.parametrize("shape", [(33, 17), (1, 9), (9, 1), (1, 1)])
    def test_leaves_its_input_unchanged(self, shape):
        # the gradients are reduced in place beside the input, never in it
        spec = SceneSpec("plateau-discontinuity", *shape, amplitude=3.0, feature_scale=8.0, seed=3)
        x = wrap_scene(generate_scene(spec))
        for given in (x, np.asfortranarray(x)):
            before = given.tobytes()
            unwrap(given)
            assert given.tobytes() == before

    def test_outer_loop_peak_memory(self):
        # the loop's buffers are allocated once; the peak is the PCG solve's
        # (16.25 grids measured, 17.25 while the spectral cache held a multiplier grid)
        spec = SceneSpec("gaussian-bumps", 256, 256, amplitude=10.0, feature_scale=28.0, seed=1)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=1001)
        tracemalloc.start()
        try:
            unwrap(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * x.nbytes, f"peak of {peak / x.nbytes:.2f} grids"

    def test_solve_runs_in_the_loop_buffers(self):
        # PCG iterates in the state's u, the right-hand side grid and the
        # direction grid, and the Sylvester transform runs in the state's
        # slacks, and the spectral scale in bands of the Sylvester scratch, so
        # the peak is the loop's 13 grids plus the input, its gradients and the
        # half bases (16.24 grids measured, 17.24 with a multiplier grid)
        spec = SceneSpec("gaussian-bumps", 256, 256, amplitude=10.0, feature_scale=28.0, seed=1)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=7)
        tracemalloc.start()
        try:
            unwrap(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * x.nbytes, f"peak of {peak / x.nbytes:.2f} grids"

    def test_outer_loop_allocates_no_grid(self, monkeypatch):
        # every loop buffer exists by the first gradient step; from there to
        # the return the traced peak may grow only by numpy's fixed-size
        # iterator buffers (about 128 KiB for the strided column stencils)
        spec = SceneSpec("gaussian-bumps", 384, 320, amplitude=10.0, feature_scale=28.0, seed=2)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=8)
        step = irls.candidate_step
        entry = []

        def marking(*args, **kwargs):
            if not entry:
                entry.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return step(*args, **kwargs)

        monkeypatch.setattr(irls, "candidate_step", marking)
        tracemalloc.start()
        try:
            res = unwrap(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace) >= 3 and sum(r.cg_iters for r in res.trace.records) >= 10
        grown = (peak - entry[0]) / x.nbytes
        assert grown < 0.25, f"the loop allocated {grown:.3f} grids"

    @pytest.mark.parametrize("scene", ["bumps-24x31-sigma0.3", "plateau-40x24"])
    def test_runs_none_of_the_block_formulation(self, monkeypatch, scene):
        # the block map, its right-hand side and the block preconditioner are
        # not on the solve path: refusing them changes no bit
        x = IDLE_SCENES[scene]()
        want = unwrap(x)

        def refuse(*args, **kwargs):
            raise AssertionError("unwrap ran the block formulation")

        for name in ("apply_system", "build_rhs", "PreconditionerState", "build_preconditioner",
                     "apply_preconditioner"):
            monkeypatch.setattr(diagnostics, name, refuse)
            monkeypatch.setattr(irls, name, refuse, raising=False)
        got = unwrap(x)
        for block in ("u", "vv", "vh"):
            assert getattr(got, block).tobytes() == getattr(want, block).tobytes()
        assert got.trace.records == want.trace.records

    def test_recorded_objective_is_that_of_the_accepted_iterate(self):
        # the record reuses h from the acceptance test, evaluated before u is
        # mean-centred; centring moves h by round-off only
        spec = SceneSpec("gaussian-bumps", 24, 31, amplitude=5.0, feature_scale=6.0, seed=4)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed=5)
        model = ModelParams()
        c = WeightField.uniform(*x.shape)
        res = unwrap(x, c, model, IrlsParams(max_outer_iters=1))
        g = wrapped_gradients(x)
        initial = start_state(g, out=SystemVector.zeros(*x.shape))
        final = SystemVector(res.u, res.vv, res.vh)
        want = h_delta_of(final, weights_of(initial, c, model), g, c, model)
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
        assert rec.fallback

        g = wrapped_gradients(x)
        initial = start_state(g, out=SystemVector.zeros(*x.shape))
        w = weights_of(initial, c, model)
        cand = step_of(initial, w, g, c, model, lipschitz_constant(c, model))
        assert rec.h_delta == h_delta_of(cand, w, g, c, model)
        cand.u -= cand.u.mean()
        for got, want in ((res.u, cand.u), (res.vv, cand.vv), (res.vh, cand.vh)):
            assert got.tobytes() == want.tobytes()

        longer = unwrap(x, c, model, IrlsParams(max_outer_iters=3))
        assert all(r.fallback for r in longer.trace.records)
        h = longer.trace.h_values()
        assert len(h) >= 2
        assert all(nxt <= prev * (1 + 1e-12) for prev, nxt in zip(h, h[1:]))


def _eager_scene_clean():
    spec = SceneSpec("gaussian-bumps", 64, 64, amplitude=6.0, feature_scale=10.0, seed=0)
    x = wrap_scene(generate_scene(spec))
    return x, WeightField.uniform(*x.shape)


def _eager_scene_residues():
    spec = SceneSpec("gaussian-bumps", 48, 40, amplitude=8.0, feature_scale=8.0, seed=2)
    x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.6, seed=3)
    rng_local = np.random.Generator(np.random.Philox(key=np.uint64(26)))
    n, m = x.shape
    c = WeightField(
        rng_local.uniform(0.1, 1.1, (n - 1, m)), rng_local.uniform(0.1, 1.1, (n, m - 1))
    )
    return x, c


def _criterion_07_scene():
    spec = SceneSpec("gaussian-bumps", 64, 64, amplitude=6.0, feature_scale=10.0, seed=0)
    x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, 1000)
    return x, WeightField.uniform(*x.shape)


class TestEagerSafeguard:
    """``unwrap`` takes the same steps as the loop that evaluates every candidate's h."""

    @pytest.mark.parametrize(
        "scene, residues, spoil",
        [
            (_eager_scene_clean, False, None),
            (_eager_scene_residues, True, None),
            (_criterion_07_scene, False, spoil_proposals),
            # each proposal is within the gradient-step bound of its state's h
            # yet loses to the step, which a too-loose bound would not see
            (_criterion_07_scene, False, stall_proposals),
        ],
        ids=["residue-free", "residues-weighted", "spoiled", "stalled"],
    )
    def test_matches_the_eager_safeguard(self, monkeypatch, scene, residues, spoil):
        x, c = scene()
        g = wrapped_gradients(x)
        curl = g.v[:, :-1] + g.h[1:] - g.v[:, 1:] - g.h[:-1]
        assert (np.count_nonzero(np.abs(curl) > np.pi) > 0) == residues
        if spoil is not None:
            spoil(monkeypatch)
        model = ModelParams()
        res = unwrap(x, c, model)
        state, records = unwrap_eager_safeguard(x, c, model)
        for got, want in ((res.u, state.u), (res.vv, state.vv), (res.vh, state.vh)):
            assert got.tobytes() == want.tobytes()
        assert len(res.trace.records) == len(records)
        for got, want in zip(res.trace.records, records):
            assert (got.cg_iters, got.fallback) == (want.cg_iters, want.fallback)
            assert got.h_delta == pytest.approx(want.h_delta, rel=1e-12)
        assert all(r.fallback for r in records) == (spoil is not None)


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

    @pytest.mark.parametrize("scene", ["bumps-24x31-sigma0.3", "plateau-40x24"])
    def test_one_preconditioner_apply_per_cg_iteration(self, monkeypatch, scene):
        # a solve that the budget ends forms no direction after its last
        # iteration, so it applies the preconditioner once per iteration too
        calls = []
        solve = preconditioner.sylvester_solve

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(preconditioner, "sylvester_solve", counted)
        records = unwrap(IDLE_SCENES[scene]()).trace.records
        if scene.startswith("bumps"):
            assert any(r.cg_iters == r.m_cg and not r.cg_converged for r in records)
        assert len(calls) == sum(r.cg_iters for r in records)

    def test_zero_rhs_reports_zero_residual(self):
        res = unwrap(np.full((5, 6), 1.25))
        assert all(rec.cg_rel_residual == 0.0 for rec in res.trace.records)
        assert all(rec.cg_converged for rec in res.trace.records)


def _idle_bumps_clean():
    spec = SceneSpec("gaussian-bumps", 32, 32, amplitude=5.0, feature_scale=7.0, seed=3)
    return wrap_scene(generate_scene(spec))


def _bumps_noisy(rows, cols, sigma):
    spec = SceneSpec("gaussian-bumps", rows, cols, amplitude=5.0, feature_scale=6.0, seed=4)
    return add_phase_noise(wrap_scene(generate_scene(spec)), sigma, seed=5)


def _idle_bumps_noisy():
    return _bumps_noisy(24, 31, 0.3)


IDLE_SCENES = {
    "plateau-40x24": lambda: _plateau(40, 24),
    "bumps-32x32": _idle_bumps_clean,
    "bumps-24x31-sigma0.3": _idle_bumps_noisy,
}


class TestRitzValues:
    """Each record carries the Ritz extremes of its own solve."""

    @pytest.mark.parametrize(
        "shape, sigma", [((24, 31), 0.3), ((16, 16), 0.6)], ids=["24x31-sigma0.3", "16x16-sigma0.6"]
    )
    def test_each_solve_lies_inside_the_dense_preconditioned_spectrum(
        self, monkeypatch, shape, sigma
    ):
        x = _bumps_noisy(*shape, sigma)
        n, m = x.shape
        assert n * m <= DENSE_CELL_LIMIT
        want = unwrap(x).trace.records
        seen = []

        def probing(**kwargs):
            # both maps write only scratch that the solve overwrites before reading it
            spectrum = preconditioned_spectrum(kwargs["apply_a"], kwargs["apply_m"], n, m)
            out = pcg_solve(**kwargs)
            seen.append((spectrum, out))
            return out

        monkeypatch.setattr(irls, "pcg_solve", probing)
        records = unwrap(x).trace.records
        assert records == want and len(seen) == len(records)
        assert sum(1 for r in records if r.cg_iters) >= 4
        for rec, (spectrum, out) in zip(records, seen):
            assert (rec.ritz_min, rec.ritz_max) == (out.ritz_min, out.ritz_max)
            if rec.cg_iters:
                assert spectrum[0] * (1 - 1e-8) <= rec.ritz_min <= rec.ritz_max
                assert rec.ritz_max <= spectrum[-1] * (1 + 1e-8)

    @pytest.mark.parametrize("scene", sorted(IDLE_SCENES) + ["bumps-64x48-sigma0.9"])
    def test_ritz_values_lie_in_the_unit_interval_or_are_none_without_iterations(self, scene):
        # every reduced weight is at most 1/tau, so the preconditioned spectrum lies in (0, 1]
        x = _bumps_noisy(64, 48, 0.9) if scene.endswith("0.9") else IDLE_SCENES[scene]()
        records = unwrap(x).trace.records
        for rec in records:
            if rec.cg_iters == 0:
                assert rec.ritz_min is None and rec.ritz_max is None
            else:
                assert 0 < rec.ritz_min <= rec.ritz_max <= 1 + 1e-12
        assert any(rec.cg_iters for rec in records)


class TestFixedPointStop:
    """The loop stops on a budget grow that follows a solve with no CG iteration."""

    @pytest.mark.parametrize("scene", sorted(IDLE_SCENES))
    def test_the_skipped_iteration_is_idle(self, scene):
        # one more iteration under the budget rule alone, from the returned state,
        # would grow the budget and then leave the state and its h as they are
        x = IDLE_SCENES[scene]()
        c = WeightField.uniform(*x.shape)
        model = ModelParams()
        res = unwrap(x, c, model)
        assert res.stop_reason == "heuristic"
        grown, state, rec, h_state = replay_outer_iteration(x, c, model, res)
        # the budget rule would have grown the budget had the last solve iterated
        last = replace(res.trace.records[-1], cg_iters=1)
        assert next_budget(res.trace.records[:-1] + [last], h_state, DEFAULTS) == (
            rec.delta_rel, grown
        )
        assert rec.cg_iters == 0
        assert np.max(np.abs(state.u - res.u)) <= 1e-12 * np.max(np.abs(res.u))
        assert rec.h_delta == pytest.approx(h_state, rel=1e-12)

    def test_residue_free_plateau_stops_after_two_records(self):
        res = unwrap(IDLE_SCENES["plateau-40x24"]())
        assert res.stop_reason == "heuristic"
        assert len(res.trace) == 2

    def test_outer_cap_wins_at_the_fixed_point(self):
        # the heuristic stop would come right after the plateau's second record
        res = unwrap(IDLE_SCENES["plateau-40x24"](), params=IrlsParams(max_outer_iters=2))
        assert len(res.trace) == 2
        assert res.stop_reason == "max_outer"

    @pytest.mark.parametrize("scene", sorted(IDLE_SCENES) + ["residues"])
    def test_no_grown_budget_follows_an_idle_solve(self, scene):
        if scene == "residues":
            x, c = _eager_scene_residues()
        else:
            x, c = IDLE_SCENES[scene](), None
        records = unwrap(x, c).trace.records
        for prev, nxt in zip(records, records[1:]):
            assert not (nxt.m_cg > prev.m_cg and prev.cg_iters == 0 and not prev.fallback)

    def test_residue_scene_stops_after_a_fruitless_grow(self):
        # the σ 0.6 scene has residues, so its last solve still iterates and the loop
        # ends through the budget rule's own stop, one record after a grow
        res = unwrap(*_eager_scene_residues())
        records = res.trace.records
        assert res.stop_reason == "heuristic"
        assert len(records) >= 2 and records[-1].m_cg > records[-2].m_cg
        assert records[-1].cg_iters > 0


class TestLargeGrid:
    def test_noisy_non_square_grid_with_residues(self):
        # the residues give PCG real work, unlike criterion 09's zero right-hand
        # side; 4096 x 256 would cost about 10x, as the dense DCT costs n^2 m
        sigma = 0.6
        spec = SceneSpec("gaussian-bumps", 1024, 256, amplitude=10.0, feature_scale=28.0, seed=1)
        truth = generate_scene(spec)
        x = add_phase_noise(wrap_scene(truth), sigma, seed=7)
        g = wrapped_gradients(x)
        curl = g.v[:, :-1] + g.h[1:] - g.v[:, 1:] - g.h[:-1]
        assert np.count_nonzero(np.abs(curl) > np.pi) > 0
        t0 = time.perf_counter()
        res = unwrap(x)
        elapsed = time.perf_counter() - t0
        h = res.trace.h_values()
        assert all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))
        assert res.stop_reason == "heuristic"
        assert shift_error(res.u, truth).rmse <= 1.2 * sigma
        assert elapsed <= 60.0


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
        g = wrapped_gradients(x)
        b = dense_rhs(g, p.tau)
        state = start_state(g, out=SystemVector.zeros(n, m))
        for _ in range(5000):
            w = weights_of(state, c, p)
            d = ArcField(c.v**2 / w.v, c.h**2 / w.h)
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
