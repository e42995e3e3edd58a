import numpy as np
import pytest

from phaseirls.phase import (
    TWO_PI,
    WeightField,
    congruent_round,
    shift_error,
    wrap_to_principal,
    wrapped_gradients,
)


class TestWrapToPrincipal:
    def test_boundary_maps_to_lower_edge(self):
        assert wrap_to_principal(3 * np.pi, -np.pi) == pytest.approx(-np.pi, abs=1e-14)
        assert wrap_to_principal(np.pi, -np.pi) == -np.pi

    def test_identity_case(self):
        assert wrap_to_principal(0.0, 0.0) == 0.0

    def test_single_subtraction(self):
        assert wrap_to_principal(6.0, -np.pi) == pytest.approx(6.0 - TWO_PI, abs=1e-15)

    def test_range_and_congruence(self, rng):
        xs = rng.uniform(-50, 50, 500)
        for lo in (0.0, -np.pi):
            ys = wrap_to_principal(xs, lo)
            assert np.all(ys >= lo) and np.all(ys < lo + TWO_PI)
            k = (xs - ys) / TWO_PI
            assert np.max(np.abs(k - np.rint(k))) < 1e-12

    def test_periodicity(self, rng):
        xs = rng.uniform(-np.pi, np.pi, 50)
        for k in (-1000, -7, 1, 1000):
            base = wrap_to_principal(xs, -np.pi)
            shifted = wrap_to_principal(xs + TWO_PI * k, -np.pi)
            tol = 8 * np.spacing(TWO_PI * abs(k) + np.abs(xs))
            assert np.all(np.abs(shifted - base) <= tol)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wrap_to_principal(np.nan, 0.0)
        with pytest.raises(ValueError):
            wrap_to_principal(np.inf, -np.pi)
        with pytest.raises(ValueError):
            wrap_to_principal(1.0, 0.5)


class TestWrappedGradients:
    def test_in_range_difference(self):
        g = wrapped_gradients(np.array([[0.0], [1.0]]))
        assert g.gv == pytest.approx(np.array([[1.0]]))
        assert g.gh.shape == (2, 0)

    def test_principal_value_of_six(self):
        g = wrapped_gradients(np.array([[0.0], [6.0]]))
        assert g.gv[0, 0] == pytest.approx(6.0 - TWO_PI)

    def test_smooth_ramp_recovers_steps(self):
        steps = 0.3
        truth = steps * np.arange(20)[:, None] + 0.1 * np.arange(15)[None, :]
        x = wrap_to_principal(truth, 0.0)
        g = wrapped_gradients(x)
        assert np.max(np.abs(g.gv - steps)) < 1e-12
        assert np.max(np.abs(g.gh - 0.1)) < 1e-12

    def test_itoh_consistency(self, rng):
        # neighbor differences strictly inside (-pi, pi) reproduce exactly
        row_part = np.cumsum(rng.uniform(-2.8, 2.8, 12))
        col_part = np.cumsum(rng.uniform(-0.3, 0.3, 9))
        u = row_part[:, None] + col_part[None, :]
        g = wrapped_gradients(wrap_to_principal(u, 0.0))
        assert np.max(np.abs(g.gv - np.diff(u, axis=0))) < 1e-10
        assert np.max(np.abs(g.gh - np.diff(u, axis=1))) < 1e-10

    def test_positive_interval_switch(self, rng):
        x = wrap_to_principal(rng.uniform(-10, 10, (6, 7)), 0.0)
        g = wrapped_gradients(x, 0.0)
        assert np.all(g.gv >= 0) and np.all(g.gv < TWO_PI)

    def test_rejects_unwrapped_input(self):
        with pytest.raises(ValueError):
            wrapped_gradients(np.array([[0.0, 7.0]]))


class TestShiftError:
    def test_identity(self, rng):
        x = rng.standard_normal((5, 6))
        rep = shift_error(x, x)
        assert rep.alpha == 0.0
        assert rep.max_abs == 0.0
        assert rep.rmse == 0.0
        assert rep.congruent_fraction == 1.0

    def test_pure_shift_absorbed(self, rng):
        x = rng.standard_normal((5, 6))
        rep = shift_error(x - 5.0, x)
        assert rep.alpha == pytest.approx(5.0)
        assert rep.max_abs < 1e-12

    def test_invariant_under_constant(self, rng):
        u = rng.standard_normal((7, 4))
        x = rng.standard_normal((7, 4))
        base = shift_error(u, x)
        for c in (-12.3, 0.5, 400.0):
            rep = shift_error(u + c, x)
            assert rep.max_abs == pytest.approx(base.max_abs, rel=1e-9, abs=1e-12)
            assert rep.rmse == pytest.approx(base.rmse, rel=1e-9, abs=1e-12)
            assert rep.congruent_fraction == base.congruent_fraction

    def test_alpha_is_norm_minimizer(self, rng):
        u = rng.standard_normal((6, 6))
        x = rng.standard_normal((6, 6))
        rep = shift_error(u, x)
        best = np.linalg.norm(x - (u + rep.alpha))
        for c in np.linspace(rep.alpha - 2, rep.alpha + 2, 41):
            assert best <= np.linalg.norm(x - (u + c)) + 1e-12

    def test_rmse_identity(self, rng):
        u = rng.standard_normal((6, 5))
        x = rng.standard_normal((6, 5))
        rep = shift_error(u, x)
        assert rep.rmse**2 * u.size == pytest.approx(np.sum(rep.error_grid**2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shift_error(np.zeros((2, 2)), np.zeros((3, 2)))


class TestCongruentRound:
    def test_fixed_point(self, rng):
        x = rng.uniform(0, TWO_PI, (4, 4))
        assert np.array_equal(congruent_round(x, x), x)

    def test_nearest_multiple(self, rng):
        x = rng.uniform(0, TWO_PI, (4, 4))
        out = congruent_round(x + TWO_PI + 0.4, x)
        assert np.allclose(out, x + TWO_PI, atol=1e-12)

    def test_output_is_congruent(self, rng):
        u = 30 * rng.standard_normal((8, 8))
        x = rng.uniform(0, TWO_PI, (8, 8))
        cycles = (congruent_round(u, x) - x) / TWO_PI
        assert np.max(np.abs(cycles - np.rint(cycles))) < 1e-12


class TestWeightField:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightField(-np.ones((1, 2)), np.ones((2, 1)))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            WeightField(np.zeros((1, 2)), np.zeros((2, 1)))

    def test_max_weight(self):
        w = WeightField(np.array([[1.0, 3.0]]), np.array([[0.5], [2.0]]))
        assert w.max_weight == 3.0
