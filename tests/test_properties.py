"""Property tests of ``unwrap`` over shapes from 1x1 to 12x12.

Scenes are wrapped integrated Gaussian noise: a small step scale gives a
smooth field, a large one a field full of residues.  Hypothesis draws the
shape, the scale and the seed; the examples are fixed (``derandomize``) so a
run is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseirls.irls import unwrap
from phaseirls.objective import ModelParams
from phaseirls.phase import TWO_PI, WeightField, wrap_to_principal

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

sizes = st.integers(1, 12)
seeds = st.integers(0, 2**32 - 1)
step_scales = st.floats(0.01, 3.0)


def wrapped_scene(n, m, scale, seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    truth = scale * rng.standard_normal((n, m)).cumsum(axis=0).cumsum(axis=1)
    return wrap_to_principal(truth, 0.0)


def assert_h_never_increases(res):
    h = res.trace.h_values()
    assert all(nxt <= prev * (1 + 1e-12) for prev, nxt in zip(h, h[1:]))


@PROPERTY
@given(sizes, sizes, step_scales, seeds, st.floats(0.0, TWO_PI))
def test_constant_shift_mod_two_pi(n, m, scale, seed, shift):
    x = wrapped_scene(n, m, scale, seed)
    ref = unwrap(x)
    res = unwrap(wrap_to_principal(x + shift, 0.0))
    assert np.max(np.abs(res.u - ref.u)) <= 1e-8
    assert len(res.trace) == len(ref.trace)


@PROPERTY
@given(sizes, sizes, step_scales, seeds)
def test_output_is_finite_and_mean_zero(n, m, scale, seed):
    res = unwrap(wrapped_scene(n, m, scale, seed))
    assert res.u.shape == (n, m)
    for block in (res.u, res.vv, res.vh):
        assert np.all(np.isfinite(block))
    assert abs(res.u.mean()) <= 1e-12 * max(1.0, np.abs(res.u).max())


@PROPERTY
@given(sizes, sizes, step_scales, seeds)
def test_repeated_calls_are_bit_equal(n, m, scale, seed):
    x = wrapped_scene(n, m, scale, seed)
    first, second = unwrap(x), unwrap(x)
    for a, b in ((first.u, second.u), (first.vv, second.vv), (first.vh, second.vh)):
        assert a.tobytes() == b.tobytes()
    assert first.trace.records == second.trace.records


@PROPERTY
@given(sizes, sizes, step_scales, seeds)
def test_zero_weight_half_plane(n, m, scale, seed):
    x = wrapped_scene(n, m, scale, seed)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    cv = rng.uniform(0.1, 2.0, (n - 1, m))
    ch = rng.uniform(0.1, 2.0, (n, m - 1))
    # zero every arc with both ends in the first half of the longer axis
    if n >= m:
        cv[: n // 2 - 1, :] = 0.0
        ch[: n // 2, :] = 0.0
    else:
        cv[:, : m // 2] = 0.0
        ch[:, : m // 2 - 1] = 0.0
    res = unwrap(x, WeightField(cv, ch))
    assert np.all(np.isfinite(res.u))
    assert_h_never_increases(res)


@PROPERTY
@given(sizes, sizes, step_scales, seeds, st.floats(-6.0, 2.0), st.floats(-10.0, -1.0))
def test_extreme_tau_and_delta(n, m, scale, seed, log_tau, log_delta):
    model = ModelParams(tau=10.0**log_tau, delta=10.0**log_delta)
    res = unwrap(wrapped_scene(n, m, scale, seed), model=model)
    assert np.all(np.isfinite(res.u))
    assert_h_never_increases(res)
