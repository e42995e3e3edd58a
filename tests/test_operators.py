"""Tests of ``kernels.misfit``.

The file keeps the name it had when the stencils lived in ``operators``, so
that the IDs of its tests stay stable; the stencil and adjoint tests are in
``test_kernels.py``.
"""

import numpy as np
import pytest

from phaseirls import kernels

from oracles import arc_grids, arc_values


class TestMisfit:
    @pytest.mark.parametrize("kind", ["zeros", "exact", "normal", "mixed"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 9), (33, 17)])
    def test_bit_equal_to_diffs_then_the_data(self, rng, shape, kind):
        # NaN-filled outputs: every entry must be written, and -0.0 and 0.0 told apart
        n, m = shape
        for _ in range(5):
            u = arc_values(rng, (n, m), kind)
            gv = arc_values(rng, (n - 1, m), kind)
            gh = arc_values(rng, (n, m - 1), kind)
            fv, fh = arc_grids(n, m, np.nan)
            got_v, got_h = kernels.misfit(u, gv, gh, fv, fh)
            assert got_v is fv and got_h is fh
            want_v, want_h = kernels.diffs(u, *arc_grids(n, m, np.nan))
            want_v -= gv
            want_h -= gh
            assert fv.tobytes() == want_v.tobytes()
            assert fh.tobytes() == want_h.tobytes()

    @pytest.mark.parametrize("kind", ["zeros", "mixed"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 9), (33, 17)])
    def test_zero_data_gives_the_bytes_of_diffs(self, rng, shape, kind):
        # the scalar data 0.0 of diagnostics.apply_system
        n, m = shape
        u = arc_values(rng, (n, m), kind)
        fv, fh = kernels.misfit(u, 0.0, 0.0, *arc_grids(n, m, np.nan))
        want_v, want_h = kernels.diffs(u, *arc_grids(n, m, np.nan))
        assert fv.tobytes() == want_v.tobytes()
        assert fh.tobytes() == want_h.tobytes()

