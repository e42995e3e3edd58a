"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion states its numeric tolerance and a wall-clock budget; both
are asserted.
"""

import itertools
import json
import time

import numpy as np
import pytest

from phaseirls.cli import main as cli_main
from phaseirls.diagnostics import (
    apply_preconditioner,
    apply_system,
    build_preconditioner,
    build_rhs,
)
from phaseirls.irls import IrlsParams, IterationRecord, next_budget, unwrap
from phaseirls.objective import (
    ModelParams,
    SystemVector,
    eval_f,
    eval_f_delta,
    lipschitz_constant,
)
from phaseirls.phase import TWO_PI, ArcField, WeightField, congruent_round, shift_error
from phaseirls.preconditioner import build_spectral_cache, sylvester_solve
from phaseirls.synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

from oracles import (
    arc_count,
    conditioning_report,
    dense_s,
    dense_t,
    h_delta_of,
    materialize_dense_preconditioner,
    materialize_dense_system,
    pcg_solve_blocks,
    plain_cg_dense,
    random_diagonal_weights,
    random_gradients,
    random_state,
    random_weights,
    safeguard_bound_holds,
    spoil_proposals,
    split_pseudo_sqrt,
    split_sqrt,
    stack_system,
    step_of,
    weights_of,
)


def _finish(number, ok, t0, limit, detail):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {status} ({elapsed:.2f}s / {limit:.0f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < limit, f"criterion {number}: runtime {elapsed:.2f}s over {limit}s budget"


def test_criterion_01_sandwich_bound():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(101)))
    n = m = 16
    p = ModelParams(tau=1e-2, delta=1e-6)
    gap = p.delta * arc_count(n, m)
    violations = 0
    for _ in range(100):
        x = random_state(rng, n, m, scale=2.0)
        g = random_gradients(rng, n, m)
        c = random_weights(rng, n, m)
        f = eval_f(x, g, c, p)
        fd = eval_f_delta(x, g, c, p)
        if not (f <= fd + 1e-12 and fd <= f + gap + 1e-12):
            violations += 1
    _finish(1, violations == 0, t0, 5.0, f"sandwich violations: {violations}/100")


def test_criterion_02_alternating_minimization():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(102)))
    n = m = 12
    p = ModelParams()
    x = random_state(rng, n, m)
    g = random_gradients(rng, n, m)
    c = random_weights(rng, n, m)
    fd = eval_f_delta(x, g, c, p)
    w_star = weights_of(x, c, p)
    tight = abs(h_delta_of(x, w_star, g, c, p) - fd) <= 1e-10 * max(1.0, abs(fd))
    dominated = all(
        h_delta_of(
            x,
            ArcField(
                rng.uniform(p.delta / 2, 4.0, (n - 1, m)),
                rng.uniform(p.delta / 2, 4.0, (n, m - 1)),
            ),
            g,
            c,
            p,
        )
        >= fd - 1e-12
        for _ in range(100)
    )
    _finish(2, tight and dominated, t0, 5.0, f"identity tight: {tight}, lower bound: {dominated}")


def test_criterion_03_pcg_matches_dense_minimum_norm():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(103)))
    n = m = 8
    p = ModelParams(tau=1e-2, delta=1e-6)
    d = random_diagonal_weights(n, m, p, seed=1030)
    g = random_gradients(rng, n, m)
    b = build_rhs(g, p, out=SystemVector.zeros(n, m))
    a = materialize_dense_system(n, m, d, p)
    x_star = np.linalg.pinv(a) @ stack_system(b)
    pc = build_preconditioner(build_spectral_cache(n, m), d, p)
    out = pcg_solve_blocks(
        lambda v: apply_system(v, d, p, out=SystemVector.zeros(n, m)),
        lambda r: apply_preconditioner(r, pc, out=SystemVector.zeros(n, m)),
        b,
        SystemVector.zeros(n, m),
        max_iters=3 * b.data.size,
        rel_tol=1e-12,
    )
    got = out.x.copy()
    got.u -= got.u.mean()
    rel = np.linalg.norm(stack_system(got) - x_star) / np.linalg.norm(x_star)
    ok = rel < 1e-6 and out.iterations <= 3 * b.data.size
    _finish(3, ok, t0, 10.0, f"relative error {rel:.2e} in {out.iterations} iterations")


def test_criterion_04_sylvester_residuals():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(104)))
    p = ModelParams(tau=1e-2)
    shapes = list(itertools.product((2, 3, 8, 17), repeat=2))
    caches = {(n, m): build_spectral_cache(n, m) for n, m in shapes}
    worst = 0.0
    solves = 0
    for n, m in itertools.cycle(shapes):
        if solves >= 50:
            break
        r = rng.standard_normal((n, m))
        z = sylvester_solve(r, p, caches[(n, m)], out=np.zeros((n, m)), scratch=np.empty((n, m)))
        sts = dense_s(n).T @ dense_s(n)
        ttt = dense_t(m) @ dense_t(m).T
        projected = r - r.mean()
        resid = np.linalg.norm(sts @ z + z @ ttt - p.tau * projected)
        worst = max(worst, resid / np.linalg.norm(p.tau * r))
        solves += 1
    _finish(4, worst <= 1e-9, t0, 5.0, f"worst relative residual {worst:.2e} over {solves} solves")


def test_criterion_05_preconditioner_study(tmp_path):
    t0 = time.time()
    rep = conditioning_report(16, 16, ModelParams(tau=1e-2, delta=1e-6), seed=105)
    path = tmp_path / "conditioning.json"
    path.write_text(json.dumps(rep.to_dict()))
    parsed = json.loads(path.read_text())
    ratio = rep.kappa_a / rep.kappa_pre
    ok = (
        rep.kappa_pre < rep.kappa_a
        and ratio >= 10
        and rep.rho_pre < rep.rho_a
        and parsed["kappa_pre"] == rep.kappa_pre
    )
    _finish(
        5, ok, t0, 30.0,
        f"kappa {rep.kappa_a:.3e} -> {rep.kappa_pre:.3e} (ratio {ratio:.1e}), "
        f"rho {rep.rho_a:.4f} -> {rep.rho_pre:.4f}",
    )


def test_criterion_06_preconditioned_cg_equivalence():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(106)))
    n = m = 4
    p = ModelParams(tau=1e-2, delta=1e-6)
    d = random_diagonal_weights(n, m, p, seed=1060)
    g = random_gradients(rng, n, m)
    b = build_rhs(g, p, out=SystemVector.zeros(n, m))
    a = materialize_dense_system(n, m, d, p)
    dmat = materialize_dense_preconditioner(n, m, d, p.tau)
    c_sqrt = split_sqrt(dmat)
    c_star = split_pseudo_sqrt(dmat)
    pc = build_preconditioner(build_spectral_cache(n, m), d, p)
    x0 = SystemVector.zeros(n, m)

    tilde = plain_cg_dense(c_star @ a @ c_star, c_star @ stack_system(b), c_sqrt @ stack_system(x0), 10)
    worst = 0.0
    for l in range(min(11, len(tilde))):
        out = pcg_solve_blocks(
            lambda v: apply_system(v, d, p, out=SystemVector.zeros(n, m)),
            lambda r: apply_preconditioner(r, pc, out=SystemVector.zeros(n, m)),
            b,
            x0,
            max_iters=l,
            rel_tol=0.0,
        )
        diff = np.linalg.norm(tilde[l] - c_sqrt @ stack_system(out.x))
        worst = max(worst, diff)
    _finish(6, worst <= 1e-8, t0, 5.0, f"max iterate mismatch {worst:.2e} over 10 iterations")


def test_criterion_07_descent_and_safeguard(monkeypatch):
    t0 = time.time()
    monotone = True
    safeguarded = True
    bounded = True
    fallbacks = 0
    c = WeightField.uniform(64, 64)
    model = ModelParams()
    scenes = []
    for seed in range(20):
        spec = SceneSpec("gaussian-bumps", 64, 64, amplitude=6.0, feature_scale=10.0, seed=seed)
        x = add_phase_noise(wrap_scene(generate_scene(spec)), 0.3, seed + 1000)
        res = unwrap(x)
        h = res.trace.h_values()
        monotone &= all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))
        fallbacks += res.trace.fallback_count()
        if seed < 3:
            # every record does at least as well as the gradient step from its state
            bounded &= safeguard_bound_holds(x, res.trace.records, c, model)
            scenes.append(x)
    # the proposals above all beat the gradient step; spoiled ones must lose to it
    spoil_proposals(monkeypatch)
    for x in scenes:
        res = unwrap(x)
        bounded &= safeguard_bound_holds(x, res.trace.records, c, model)
        safeguarded &= all(r.fallback for r in res.trace.records)
    _finish(
        7, monotone and safeguarded and bounded, t0, 120.0,
        f"20 scenes: monotone={monotone}, safeguard={safeguarded}, fallbacks={fallbacks}, "
        f"bounded by the gradient step on 3 scenes, plain and spoiled: {bounded}",
    )


def test_criterion_08_noiseless_near_congruence():
    t0 = time.time()
    p = ModelParams(tau=1e-2, delta=1e-6)
    worst_max_abs = 0.0
    worst_fraction = 1.0
    exact = True
    for seed in (11, 29, 47):
        spec = SceneSpec("gaussian-bumps", 128, 128, amplitude=8.0, feature_scale=16.0, seed=seed)
        truth = generate_scene(spec)
        itoh = max(np.abs(np.diff(truth, axis=0)).max(), np.abs(np.diff(truth, axis=1)).max())
        assert itoh < np.pi, "scene construction must satisfy the per-arc bound"
        x = wrap_scene(truth)
        res = unwrap(x, model=p)
        rep = shift_error(res.u, truth)
        worst_max_abs = max(worst_max_abs, rep.max_abs)
        worst_fraction = min(worst_fraction, rep.congruent_fraction)
        rounded = congruent_round(res.u, x)
        cycles = (rounded - truth) / TWO_PI
        k = np.rint(cycles)
        exact &= np.max(np.abs(cycles - k)) < 1e-9 and np.ptp(k) == 0.0
    ok = worst_max_abs <= 1e-2 and worst_fraction >= 0.999 and exact
    _finish(
        8, ok, t0, 120.0,
        f"max_abs {worst_max_abs:.2e}, congruent fraction {worst_fraction:.5f}, "
        f"rounded recovery exact: {exact}",
    )


def test_criterion_09_discontinuity_confinement():
    t0 = time.time()
    # a 2*pi-multiple step is invisible in the wrapped data, so the best any
    # solver can return is a constant; the unrecoverable error must then stay
    # confined to the plateau while the mean shift leaks only alpha =
    # 4*pi*(plateau fraction) onto the rest, which bounds the usable fraction
    rows = cols = 2048
    truth = np.zeros((rows, cols))
    truth[-1, :] = 4 * np.pi  # single straight full-span step of height 4*pi
    x = wrap_scene(truth)
    res = unwrap(x)
    rep = shift_error(res.u, truth)
    inside = np.abs(rep.error_grid) <= 1e-2
    fraction = inside.mean()
    confined = not np.any(~inside[:-1, :])
    ok = fraction >= 0.99 and confined
    _finish(
        9, ok, t0, 120.0,
        f"|E|<=1e-2 on {fraction:.4%} of pixels; residual error confined to the step row: {confined}",
    )


def test_criterion_10_budget_heuristic_rules():
    t0 = time.time()
    params = IrlsParams(max_iter_cg_start=5, rel_improvement_tol=1e-3, cg_growth_factor=1.7)

    def decide(budgets, gain):
        # records of h 1 at the given budgets, each solve running its whole budget
        records = [
            IterationRecord(k=k, m_cg=m, delta_rel=None, h_delta=1.0, cg_iters=m,
                            fallback=False, cg_converged=False, cg_rel_residual=1.0)
            for k, m in enumerate(budgets)
        ]
        m_cg = next_budget(records, 1.0 - gain, params)[1]
        return "stop" if m_cg is None else "keep" if m_cg == budgets[-1] else "grow", m_cg

    keep, stop, grow = decide([5, 5], 1e-2), decide([5, 9], 1e-4), decide([5, 5], 1e-4)
    ok = keep == ("keep", 5) and stop == ("stop", None) and grow == ("grow", 9)
    _finish(10, ok, t0, 1.0, f"keep/stop/grow -> {keep[0]}/{stop[0]}/{grow[0]}({grow[1]})")


def test_criterion_11_gradient_checks():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(111)))
    p = ModelParams(tau=1e-2, delta=1e-4)
    n, m = 5, 6
    c = random_weights(rng, n, m)
    g = random_gradients(rng, n, m)
    lip = lipschitz_constant(c, p)
    eps = 1e-6
    grad_ok = True
    for _ in range(50):
        x = random_state(rng, n, m)
        w = ArcField(
            rng.uniform(p.delta / 2, 2.0, (n - 1, m)),
            rng.uniform(p.delta / 2, 2.0, (n, m - 1)),
        )
        stepped = step_of(x, w, g, c, p, lip)
        grad = x.copy()
        grad.data -= stepped.data
        grad.data *= lip
        e = random_state(rng, n, m)
        e.data *= 1.0 / np.linalg.norm(e.data)
        plus = x.copy()
        plus.data += eps * e.data
        minus = x.copy()
        minus.data -= eps * e.data
        fd = (h_delta_of(plus, w, g, c, p) - h_delta_of(minus, w, g, c, p)) / (2 * eps)
        ref = np.vdot(grad.data, e.data)
        if abs(fd - ref) > 1e-5 * max(1.0, abs(ref)):
            grad_ok = False
    hessian_ok = True
    for size in (4, 6, 8):
        ch = random_weights(rng, size, size, lo=0.0, hi=1.0)
        xh = random_state(rng, size, size)
        wh = weights_of(xh, ch, p)
        d = ArcField(ch.v**2 / wh.v, ch.h**2 / wh.h)
        lam = np.linalg.eigvalsh(materialize_dense_system(size, size, d, p)).max()
        if lam > lipschitz_constant(ch, p):
            hessian_ok = False
    _finish(11, grad_ok and hessian_ok, t0, 30.0, f"gradient match: {grad_ok}, L bounds Hessian: {hessian_ok}")


def test_criterion_12_cli_end_to_end(tmp_path):
    t0 = time.time()
    truth = tmp_path / "truth.npy"
    wrapped = tmp_path / "wrapped.npy"
    report = tmp_path / "metrics.json"
    code_synth = cli_main([
        "synth", "--kind", "gaussian-bumps", "--rows", "256", "--cols", "256",
        "--amplitude", "10.0", "--scale", "28.0", "--seed", "112",
        "--out-truth", str(truth), "--out-wrapped", str(wrapped),
    ])
    outs = [tmp_path / "u0.npy", tmp_path / "u1.npy"]
    codes = [
        cli_main(["unwrap", "--input", str(wrapped), "--output", str(o)]) for o in outs
    ]
    code_err = cli_main([
        "error", "--estimate", str(outs[0]), "--truth", str(truth), "--json-out", str(report),
    ])
    payload = json.loads(report.read_text())
    identical = outs[0].read_bytes() == outs[1].read_bytes()
    ok = (
        code_synth == 0
        and codes == [0, 0]
        and code_err == 0
        and payload["max_abs"] <= 1e-2
        and identical
    )
    _finish(
        12, ok, t0, 60.0,
        f"exits {code_synth}/{codes}/{code_err}, max_abs {payload['max_abs']:.2e}, "
        f"rerun byte-identical: {identical}",
    )
