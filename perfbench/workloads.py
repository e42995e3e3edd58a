"""Workloads: the inputs each run makes from its seed, one unit of work, and the gate.

Scenes come from ``phaseirls.synth``; the error against ground truth and the
L1 misfit are computed here with plain numpy, not with the program's own
``phase``/``objective`` code.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi
# |mean(u)| allowed for a "mean-zero" output, relative to max(1, max |u|)
MEAN_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    rows: int
    cols: int
    amplitude: float
    scale: float
    sigma: float
    pool: int              # distinct inputs per run; units cycle through them
    fixed_geometry: bool   # scene seeds fixed, noise drawn from the workload seed
    via_cli: bool          # a unit is one ``phaseirls unwrap`` CLI invocation
    rmse_gate: float       # a unit whose shift-compensated RMSE exceeds this fails


# Why these three: bumps-noisy-512 is CG-heavy (Sylvester apply, apply_system and
# PCG vector algebra dominate); plateau-2048x1024-cli is setup-heavy and CG-light
# (eigh of the 1-D operators, objective evaluation, NPY I/O) and non-square, so a
# rows/cols mix-up in the spectral bases fails its gate; tiles-64 keeps every
# array in cache, so per-call Python overhead dominates.  tiles-64 is left out of
# BENCHMARK.json: being bound by interpreter speed, its run medians followed the
# shared machine's speed swings (13-25% IQR/median over ten runs, against a
# largest allowed bound of 25%).  Run it by name for per-call overhead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bumps-noisy-512", "gaussian-bumps", 512, 512, 10.0, 28.0, 0.3,
                 pool=3, fixed_geometry=True, via_cli=False, rmse_gate=0.36),
        Workload("plateau-2048x1024-cli", "plateau-discontinuity", 2048, 1024, 3.0, 64.0, 0.0,
                 pool=2, fixed_geometry=False, via_cli=True, rmse_gate=1e-6),
        Workload("tiles-64", "gaussian-bumps", 64, 64, 6.0, 10.0, 0.3,
                 pool=64, fixed_geometry=False, via_cli=False, rmse_gate=0.36),
    )
}

# Toy sizes for the self-test: same kinds, amplitudes and gates, small grids.
TOY_SHAPES = {
    "bumps-noisy-512": (48, 48, 2),
    "plateau-2048x1024-cli": (64, 32, 2),
    "tiles-64": (32, 32, 4),
}


def get_workload(name, toy=False):
    wl = WORKLOADS[name]
    if toy:
        rows, cols, pool = TOY_SHAPES[name]
        wl = replace(wl, rows=rows, cols=cols, pool=pool)
    return wl


def _sub_seed(seed, k):
    return (seed * 1_000_003 + k) % 2**63


@dataclass
class Scene:
    truth: np.ndarray
    wrapped: np.ndarray


def make_pool(wl, seed):
    """The run's distinct inputs; the same seed gives the same grids."""
    from phaseirls.synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

    pool = []
    for i in range(wl.pool):
        scene_seed = i + 1 if wl.fixed_geometry else _sub_seed(seed, i)
        truth = generate_scene(
            SceneSpec(wl.kind, wl.rows, wl.cols, wl.amplitude, wl.scale, scene_seed))
        wrapped = wrap_scene(truth)
        if wl.sigma > 0:
            wrapped = add_phase_noise(wrapped, wl.sigma, _sub_seed(seed, 100_000 + i))
        pool.append(Scene(truth, wrapped))
    return pool


def cli_argv(input_path, output_path, iter_path):
    return ["unwrap", "--input", str(input_path), "--output", str(output_path),
            "--trace", str(iter_path)]


def read_iterations(iter_path):
    """Outer and CG iteration totals from the CLI's per-iteration JSON lines."""
    with open(iter_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return len(records), sum(r["cg_iters"] for r in records)


def shift_rmse(u, truth):
    err = truth - u
    err = err - err.mean()
    return float(np.sqrt(np.mean(err * err)))


def objective_l1(u, wrapped):
    """Uniform-weight L1 misfit sum|S u - gv| + sum|u T - gh|, per arc."""
    gv = np.mod(np.diff(wrapped, axis=0) + math.pi, TWO_PI) - math.pi
    gh = np.mod(np.diff(wrapped, axis=1) + math.pi, TWO_PI) - math.pi
    total = np.abs(np.diff(u, axis=0) - gv).sum() + np.abs(np.diff(u, axis=1) - gh).sum()
    return float(total) / max(gv.size + gh.size, 1)


def gate(u, scene, wl):
    """Return (rmse, reason); reason is None when the output passes."""
    if u is None:
        return math.inf, "no output"
    if u.shape != scene.truth.shape:
        return math.inf, f"shape {u.shape} != {scene.truth.shape}"
    if not np.all(np.isfinite(u)):
        return math.inf, "non-finite output"
    if abs(float(u.mean())) > MEAN_ZERO_TOL * max(1.0, float(np.abs(u).max())):
        return math.inf, f"output mean {float(u.mean()):.3g} is not zero"
    rmse = shift_rmse(u, scene.truth)
    if not rmse <= wl.rmse_gate:
        return rmse, f"rmse {rmse:.4g} above gate {wl.rmse_gate:g}"
    return rmse, None
