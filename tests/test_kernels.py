"""Tests of ``kernels``: the difference stencils and their adjoint.

The misfit's tests are still in ``test_operators.py``, the name this file
had when the stencils lived in ``operators``.
"""

import numpy as np
import pytest

from phaseirls import kernels

from oracles import adj_diffs_five_pass, arc_values, dense_s, dense_t


class TestStencils:
    # S u is kernels.diff_rows and u T is kernels.diff_cols; adj_* are their adjoints
    def test_apply_s_forward_differences(self):
        out = kernels.diff_rows(np.array([[0.0], [1.0], [3.0]]))
        assert np.array_equal(out, [[1.0], [2.0]])

    def test_apply_s_kills_constants(self):
        assert np.all(kernels.diff_rows(4.2 * np.ones((5, 3))) == 0.0)

    def test_apply_s_matches_dense(self, rng):
        u = rng.standard_normal((7, 5))
        assert np.allclose(kernels.diff_rows(u), dense_s(7) @ u, atol=1e-14)

    def test_apply_s_transpose_single_arc(self):
        assert np.array_equal(kernels.adj_diff_rows(np.array([[1.0]])), [[-1.0], [1.0]])

    def test_apply_s_transpose_zero(self):
        assert np.all(kernels.adj_diff_rows(np.zeros((3, 4))) == 0.0)

    def test_apply_t_forward_differences(self):
        assert np.array_equal(kernels.diff_cols(np.array([[0.0, 1.0, 3.0]])), [[1.0, 2.0]])

    def test_apply_t_transpose_single_arc(self):
        assert np.array_equal(kernels.adj_diff_cols(np.array([[1.0]])), [[-1.0, 1.0]])

    def test_apply_t_matches_dense(self, rng):
        u = rng.standard_normal((4, 6))
        assert np.allclose(kernels.diff_cols(u), u @ dense_t(6), atol=1e-14)

    def test_adjointness(self, rng):
        for _ in range(100):
            n, m = rng.integers(2, 9, 2)
            u = rng.standard_normal((n, m))
            v = rng.standard_normal((n - 1, m))
            h = rng.standard_normal((n, m - 1))
            assert np.vdot(kernels.diff_rows(u), v) == pytest.approx(
                np.vdot(u, kernels.adj_diff_rows(v)), abs=1e-10
            )
            assert np.vdot(kernels.diff_cols(u), h) == pytest.approx(
                np.vdot(u, kernels.adj_diff_cols(h)), abs=1e-10
            )

    def test_degenerate_single_row(self):
        assert kernels.diff_rows(np.ones((1, 4))).shape == (0, 4)
        assert kernels.adj_diff_rows(np.ones((0, 4))).shape == (1, 4)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1)])
    def test_in_place_diffs_are_bit_equal_to_the_stencils(self, rng, shape):
        n, m = shape
        u = rng.standard_normal((n, m))
        # every entry of both outputs must be overwritten
        fv = np.full((n - 1, m), np.nan)
        fh = np.full((n, m - 1), np.nan)
        got_v, got_h = kernels.diffs(u, fv, fh)
        assert got_v is fv and got_h is fh
        assert np.array_equal(fv, kernels.diff_rows(u))
        assert np.array_equal(fh, kernels.diff_cols(u))
        assert np.array_equal(fv, dense_s(n) @ u)
        assert np.array_equal(fh, u @ dense_t(m))


class TestAdjDiffs:
    @pytest.mark.parametrize("kind", ["zeros", "exact", "normal", "mixed"])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 7), (7, 1), (2, 2), (2, 9), (9, 2), (33, 17), (64, 64)]
    )
    def test_bit_equal_to_the_five_pass_form(self, rng, shape, kind):
        # NaN-filled outputs: every entry must be written, and -0.0 and 0.0 told apart
        n, m = shape
        for _ in range(5):
            fv = arc_values(rng, (n - 1, m), kind)
            fh = arc_values(rng, (n, m - 1), kind)
            out = np.full((n, m), np.nan)
            assert kernels.adj_diffs(fv, fh, out) is out
            want = adj_diffs_five_pass(fv, fh, np.full((n, m), np.nan))
            assert out.tobytes() == want.tobytes()
