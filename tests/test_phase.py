import numpy as np
import pytest

from phaseirls.phase import (
    TWO_PI,
    ArcField,
    WeightField,
    congruent_round,
    as_phase_grid,
    shift_error,
    wrap_to_principal,
    wrapped_gradients,
)

from oracles import wrap_to_principal_allocating


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

    def test_bit_equal_to_the_allocating_form(self, rng):
        k = np.arange(-40.0, 41.0)
        hit_up = hit_down = False
        for lo in (0.0, -np.pi):
            edges = np.concatenate([
                TWO_PI * k,
                np.nextafter(lo + TWO_PI * k, -np.inf),
                np.nextafter(lo + TWO_PI * k, np.inf),
                # tiny negatives, whose quotient by 2*pi rounds to -0 or to a subnormal
                -5e-324 * np.arange(1.0, 10.0),
            ])
            # the floor lands one period off: y < lo is moved up, y >= lo + 2*pi down
            y = edges - TWO_PI * np.floor((edges - lo) / TWO_PI)
            hit_up |= bool(np.any(y < lo))
            hit_down |= bool(np.any(y >= lo + TWO_PI))
            for xs in (rng.uniform(-50, 50, (7, 9)), edges, edges.reshape(2, -1).T):
                got = wrap_to_principal(xs, lo)
                assert got.shape == xs.shape
                want = wrap_to_principal_allocating(xs, lo)
                # the first form moved down before up, so a tiny negative whose
                # quotient rounds to -0 came out at exactly lo + 2*pi; it alone
                # takes one more move down
                above = want >= lo + TWO_PI
                assert np.all(xs[above] < 0) and np.all(xs[above] > -1e-300)
                want[above] -= TWO_PI
                assert got.tobytes() == want.tobytes()
        assert hit_up and hit_down

    @pytest.mark.parametrize("lo", [0.0, -np.pi])
    def test_tiny_negatives_land_in_range(self, lo):
        xs = np.array([-5e-324, -np.finfo(float).tiny, -1e-17])
        for got in (wrap_to_principal(xs, lo), [wrap_to_principal(x, lo) for x in xs]):
            assert np.all(lo <= np.asarray(got)) and np.all(np.asarray(got) < lo + TWO_PI)
        if lo == 0.0:
            assert wrap_to_principal(-5e-324, lo) == 0.0

    @pytest.mark.parametrize("lo", [0.0, -np.pi])
    def test_scalar_zero_d_and_empty_inputs(self, lo):
        for x in (7.5, -7.5, np.float64(7.5), np.array(-7.5)):
            got = wrap_to_principal(x, lo)
            assert type(got) is float
            assert got == float(wrap_to_principal_allocating(x, lo))
        empty = wrap_to_principal(np.empty((0, 3)), lo)
        assert empty.shape == (0, 3) and empty.dtype == np.float64

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
        assert g.v == pytest.approx(np.array([[1.0]]))
        assert g.h.shape == (2, 0)

    def test_principal_value_of_six(self):
        g = wrapped_gradients(np.array([[0.0], [6.0]]))
        assert g.v[0, 0] == pytest.approx(6.0 - TWO_PI)

    def test_smooth_ramp_recovers_steps(self):
        steps = 0.3
        truth = steps * np.arange(20)[:, None] + 0.1 * np.arange(15)[None, :]
        x = wrap_to_principal(truth, 0.0)
        g = wrapped_gradients(x)
        assert np.max(np.abs(g.v - steps)) < 1e-12
        assert np.max(np.abs(g.h - 0.1)) < 1e-12

    def test_itoh_consistency(self, rng):
        # neighbor differences strictly inside (-pi, pi) reproduce exactly
        row_part = np.cumsum(rng.uniform(-2.8, 2.8, 12))
        col_part = np.cumsum(rng.uniform(-0.3, 0.3, 9))
        u = row_part[:, None] + col_part[None, :]
        g = wrapped_gradients(wrap_to_principal(u, 0.0))
        assert np.max(np.abs(g.v - np.diff(u, axis=0))) < 1e-10
        assert np.max(np.abs(g.h - np.diff(u, axis=1))) < 1e-10

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

    @pytest.mark.parametrize(
        "u",
        [np.full((2, 2), 1e308), np.array([[1e200, -1e200], [0.0, 0.0]])],
        ids=["mean", "square"],
    )
    def test_overflowing_error_raises_without_a_warning(self, u):
        with pytest.raises(ValueError, match="overflows float64"):
            shift_error(u, np.zeros((2, 2)))


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            congruent_round(np.zeros((3, 4)), np.zeros((4, 3)))


class TestAsPhaseGrid:
    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 3), (3, 0), (5,)])
    def test_rejects_grids_that_are_not_2d_and_non_empty(self, shape):
        with pytest.raises(ValueError, match="2-D and non-empty"):
            as_phase_grid(np.zeros(shape))

    def test_rejects_non_finite_values(self):
        grid = np.zeros((3, 3))
        grid[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            as_phase_grid(grid)


class TestWeightField:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightField(-np.ones((1, 2)), np.ones((2, 1)))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            WeightField(np.zeros((1, 2)), np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightField(np.array([[1.0, bad]]), np.ones((2, 1)))

    def test_max_weight(self):
        w = WeightField(np.array([[1.0, 3.0]]), np.array([[0.5], [2.0]]))
        assert w.max_weight == 3.0


# (v shape, h shape) pairs that fit no grid: the rows of v must be one fewer
# than those of h, and its columns one more
INCONSISTENT_ARC_SHAPES = {
    "v-1d": ((3,), (3, 2)),
    "h-1d": ((2, 3), (3,)),
    "both-1d": ((3,), (3,)),
    "v-3d": ((2, 3, 1), (3, 2)),
    "equal": ((3, 3), (3, 3)),
    "swapped": ((3, 2), (2, 3)),
    "v-rows-off": ((3, 3), (3, 2)),
    "v-cols-off": ((2, 4), (3, 2)),
}


class TestArcField:
    @pytest.mark.parametrize("cls", [ArcField, WeightField])
    @pytest.mark.parametrize("case", sorted(INCONSISTENT_ARC_SHAPES))
    def test_rejects_pairs_that_fit_no_grid(self, cls, case):
        v_shape, h_shape = INCONSISTENT_ARC_SHAPES[case]
        with pytest.raises(ValueError, match="arc fields must be 2-D|inconsistent arc shapes"):
            cls(np.ones(v_shape), np.ones(h_shape))

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (5, 1), (4, 3)])
    def test_layout_of_an_n_by_m_grid(self, n, m):
        f = ArcField.empty(n, m)
        assert type(f) is ArcField
        assert (f.v.shape, f.h.shape, f.shape) == ((n - 1, m), (n, m - 1), (n, m))
        v, h = f
        assert v is f.v and h is f.h
        assert ArcField(np.zeros((n - 1, m)), np.zeros((n, m - 1))).shape == (n, m)
        c = WeightField.uniform(n, m)
        assert c.shape == (n, m)
        # a 1 x 1 grid has no arcs, so its largest weight is that of the empty set
        assert c.max_weight == (0.0 if n == m == 1 else 1.0)
