import numpy as np
import pytest

from phaseirls.phase import TWO_PI
from phaseirls.synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene


class TestSceneSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SceneSpec("mountain", 4, 4, 1.0, 1.0, 0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SceneSpec("ramp", 0, 4, 1.0, 1.0, 0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            SceneSpec("ramp", 4, 4, 1.0, 0.0, 0)

    @pytest.mark.parametrize("amplitude, scale, seed", [
        (np.inf, 1.0, 0), (np.nan, 1.0, 0), (1.0, np.nan, 0), (1.0, np.inf, 0), (1.0, 1.0, 2**64),
    ])
    def test_rejects_non_finite_values_and_seeds_past_64_bits(self, amplitude, scale, seed):
        with pytest.raises(ValueError):
            SceneSpec("gaussian-bumps", 4, 4, amplitude, scale, seed)


class TestGenerateScene:
    @pytest.mark.parametrize("spec", [
        SceneSpec("gaussian-bumps", 8, 8, amplitude=1e308, feature_scale=8.0, seed=0),
        SceneSpec("ramp", 4, 3, amplitude=1e300, feature_scale=1e-10, seed=0),
    ])
    def test_rejects_a_scene_that_overflows(self, spec):
        # RuntimeWarning is an error under the test configuration, so this
        # also checks that the overflow is reported without a warning
        with pytest.raises(ValueError, match="not finite"):
            generate_scene(spec)


class TestRamp:
    def test_row_steps(self):
        spec = SceneSpec("ramp", 10, 6, amplitude=0.3, feature_scale=1.0, seed=0)
        u = generate_scene(spec)
        assert np.allclose(np.diff(u, axis=0), 0.3, atol=1e-14)
        assert np.allclose(np.diff(u, axis=1), 0.0, atol=1e-14)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["ramp", "gaussian-bumps", "plateau-discontinuity"])
    def test_same_seed_bit_identical(self, kind):
        spec = SceneSpec(kind, 17, 23, amplitude=4.0, feature_scale=5.0, seed=99)
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec("gaussian-bumps", 16, 16, 4.0, 5.0, seed=1))
        b = generate_scene(SceneSpec("gaussian-bumps", 16, 16, 4.0, 5.0, seed=2))
        assert not np.array_equal(a, b)


class TestGaussianBumps:
    def test_itoh_satisfied_for_gentle_parameters(self):
        spec = SceneSpec("gaussian-bumps", 64, 64, amplitude=6.0, feature_scale=12.0, seed=21)
        u = generate_scene(spec)
        worst = max(np.abs(np.diff(u, axis=0)).max(), np.abs(np.diff(u, axis=1)).max())
        assert worst < np.pi


class TestPlateau:
    def test_two_levels_with_tall_step(self):
        spec = SceneSpec(
            "plateau-discontinuity", 32, 32, amplitude=4.0, feature_scale=3.0, seed=8
        )
        u = generate_scene(spec)
        assert set(np.unique(u)) == {0.0, 4.0}
        # seam crosses every row once: each row is a single 0-block then 4-block
        assert np.all(np.diff((u > 0).astype(int), axis=1) >= 0)
        assert np.abs(np.diff(u, axis=1)).max() == 4.0

    def test_large_feature_scale_gives_straight_seam(self):
        spec = SceneSpec(
            "plateau-discontinuity",
            64,
            64,
            amplitude=7.0,
            feature_scale=64.0 * 64.0,
            seed=5,
        )
        u = generate_scene(spec)
        seam_cols = (u > 0).argmax(axis=1)
        assert np.all(seam_cols == seam_cols[0])


class TestWrapScene:
    def test_already_wrapped_fixed_point(self, rng):
        u = rng.uniform(0, TWO_PI - 1e-9, (6, 6))
        assert np.array_equal(wrap_scene(u), u)

    def test_exact_multiples_map_to_zero(self):
        u = TWO_PI * np.arange(-3, 4, dtype=float)[:, None] * np.ones((7, 4))
        assert np.all(wrap_scene(u) == 0.0)

    def test_offsets_are_integral(self, rng):
        u = 50 * rng.standard_normal((20, 20))
        x = wrap_scene(u)
        k = (u - x) / TWO_PI
        assert np.max(np.abs(k - np.rint(k))) < 1e-12
        assert np.all(x >= 0) and np.all(x < TWO_PI)


class TestPhaseNoise:
    def test_zero_sigma_identity(self, rng):
        x = wrap_scene(rng.uniform(0, 6, (8, 8)))
        assert np.array_equal(add_phase_noise(x, 0.0, 4), x)

    def test_output_range(self, rng):
        x = wrap_scene(rng.uniform(0, 6, (32, 32)))
        y = add_phase_noise(x, 1.5, 7)
        assert np.all(y >= 0) and np.all(y < TWO_PI)

    def test_noise_scale_estimate(self):
        sigma = 0.3
        clean = wrap_scene(np.linspace(0, 40, 256 * 256).reshape(256, 256))
        noisy = add_phase_noise(clean, sigma, 123)
        diff = noisy - clean
        principal = diff - TWO_PI * np.rint(diff / TWO_PI)
        est = principal.std()
        assert abs(est - sigma) <= 0.05 * sigma

    def test_deterministic(self, rng):
        x = wrap_scene(rng.uniform(0, 6, (16, 16)))
        assert np.array_equal(add_phase_noise(x, 0.4, 11), add_phase_noise(x, 0.4, 11))

    @pytest.mark.parametrize("sigma, seed, reason", [
        (np.nan, 0, "sigma"), (np.inf, 0, "sigma"), (0.4, 2**64, "seed"), (0.4, -1, "seed"),
    ])
    def test_rejects_non_finite_sigma_and_bad_seeds(self, rng, sigma, seed, reason):
        x = wrap_scene(rng.uniform(0, 6, (4, 4)))
        with pytest.raises(ValueError, match=reason):
            add_phase_noise(x, sigma, seed)
