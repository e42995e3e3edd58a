"""Synthetic ground-truth scenes, wrapping, and noise injection.

All randomness flows through numpy's Philox counter-based bit generator keyed
by the scene seed, so a given spec reproduces the same grid bit for bit.  The
three scene kinds cover the regimes the solver is exercised on: smooth planar
ramps, smooth multi-bump topography that can be kept within the per-arc pi
budget, and piecewise-constant plateaus whose seam violates it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .phase import TWO_PI, validate_wrapped, wrap_to_principal

__all__ = ["SceneSpec", "generate_scene", "wrap_scene", "add_phase_noise"]

# Philox takes a 64-bit key
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    rows: int
    cols: int
    amplitude: float
    feature_scale: float
    seed: int

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"kind must be one of {SCENE_KINDS}, got {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0 < self.feature_scale < math.inf:
            raise ValueError(f"feature_scale must be positive and finite, got {self.feature_scale}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be a nonnegative 64-bit integer, got {self.seed}")


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _ramp(spec):
    # row-direction ramp with step amplitude/feature_scale per pixel
    slope = spec.amplitude / spec.feature_scale
    rows = np.arange(spec.rows, dtype=np.float64)
    return np.tile(slope * rows[:, None], (1, spec.cols))


def _gaussian_bumps(spec):
    rng = _rng(spec.seed)
    n_bumps = int(rng.integers(3, 7))
    ii = np.arange(spec.rows, dtype=np.float64)[:, None]
    jj = np.arange(spec.cols, dtype=np.float64)[None, :]
    scene = np.zeros((spec.rows, spec.cols))
    for _ in range(n_bumps):
        ci = rng.uniform(0, spec.rows - 1) if spec.rows > 1 else 0.0
        cj = rng.uniform(0, spec.cols - 1) if spec.cols > 1 else 0.0
        sigma = spec.feature_scale * rng.uniform(0.7, 1.4)
        height = spec.amplitude * rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
        scene += height * np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * sigma**2))
    return scene


def _plateau(spec):
    # vertical-ish seam: a rounded random walk around the middle column whose
    # step size shrinks as feature_scale grows (large scales give a straight seam)
    rng = _rng(spec.seed)
    c0 = spec.cols // 2 if spec.cols > 1 else 1
    step = spec.cols / (4.0 * spec.feature_scale)
    drift = np.cumsum(rng.uniform(-step, step, size=spec.rows))
    seam = np.clip(c0 + np.rint(drift).astype(np.int64), 1, max(spec.cols - 1, 1))
    jj = np.arange(spec.cols)[None, :]
    return spec.amplitude * (jj >= seam[:, None]).astype(np.float64)


_GENERATORS = {
    "ramp": _ramp,
    "gaussian-bumps": _gaussian_bumps,
    "plateau-discontinuity": _plateau,
}
SCENE_KINDS = tuple(_GENERATORS)


def generate_scene(spec: SceneSpec):
    """Deterministic unwrapped ground-truth grid for the given spec.

    Raises ValueError when a large amplitude over a small scale overflows the
    scene to non-finite values.
    """
    with np.errstate(all="ignore"):
        scene = _GENERATORS[spec.kind](spec)
    if not np.all(np.isfinite(scene)):
        raise ValueError(f"amplitude {spec.amplitude} at scale {spec.feature_scale} "
                         f"makes a {spec.kind} scene that is not finite")
    return scene


def wrap_scene(u):
    """Wrap a finite unwrapped grid into [0, 2*pi)."""
    return wrap_to_principal(u, 0.0)


def add_phase_noise(x, sigma, seed):
    """Add seeded Gaussian phase noise and re-wrap into [0, 2*pi).

    ``seed`` keys the noise and must be a nonnegative 64-bit integer unless
    ``sigma`` is 0, when no noise is drawn.
    """
    arr = validate_wrapped(x)
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return arr.copy()
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"noise seed must be a nonnegative 64-bit integer, got {seed}")
    noise = sigma * _rng(seed).standard_normal(arr.shape)
    return wrap_to_principal(arr + noise, 0.0)
