"""Tests of ``diagnostics``, the block formulation and its preconditioner.

Also tests the dense references in ``oracles`` that check it: the dense
system, the split square roots and the spectrum report.
"""

import json

import numpy as np
import pytest

import oracles
from phaseirls.diagnostics import (
    apply_preconditioner,
    apply_system,
    build_preconditioner,
    build_rhs,
)
from phaseirls.objective import ModelParams, SystemVector
from phaseirls.phase import ArcField
from phaseirls.preconditioner import build_spectral_cache

from oracles import (
    SizeLimitExceeded,
    apply_system_without_data,
    conditioning_report,
    dense_rhs,
    dense_system_entrywise,
    materialize_dense_preconditioner,
    materialize_dense_system,
    nan_vector,
    positive_eigenvalues,
    random_diag,
    random_diagonal_weights,
    random_gradients,
    random_state,
    split_pseudo_sqrt,
    split_pseudo_sqrt_closed_form,
    split_sqrt,
    stack_system,
)


class TestConditioningReport:
    def test_preconditioning_improves_kappa(self):
        rep = conditioning_report(16, 16, ModelParams(tau=1e-2, delta=1e-6), seed=0)
        assert rep.kappa_pre < rep.kappa_a
        assert rep.kappa_a / rep.kappa_pre >= 10
        assert rep.rho_pre < rep.rho_a

    def test_preconditioned_spectrum_clusters(self):
        rep = conditioning_report(16, 16, ModelParams(tau=1e-2, delta=1e-6), seed=1)
        med = np.median(rep.eig_pre)
        within = np.abs(np.log10(rep.eig_pre) - np.log10(med)) <= 1.0
        assert within.mean() >= 0.9

    def test_tiny_uniform_instance_is_finite(self):
        rep = conditioning_report(2, 2, ModelParams(tau=1.0, delta=0.5), seed=3)
        assert np.isfinite(rep.kappa_a) and np.isfinite(rep.kappa_pre)
        assert rep.kappa_pre >= 1.0
        assert 0 < rep.rho_a < 1 and 0 <= rep.rho_pre < 1

    def test_rho_consistent_with_kappa(self):
        rep = conditioning_report(8, 8, ModelParams(tau=1e-2, delta=1e-6), seed=4)
        for kappa, rho in ((rep.kappa_a, rep.rho_a), (rep.kappa_pre, rep.rho_pre)):
            expect = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
            assert abs(rho - expect) < 1e-12

    def test_single_zero_eigenvalue(self):
        n = m = 6
        p = ModelParams(tau=1e-2, delta=1e-3)
        d = random_diagonal_weights(n, m, p, seed=9)
        assert d.v.min() > 0 and d.h.min() > 0
        a = materialize_dense_system(n, m, d, p)
        vals = np.linalg.eigvalsh(a)
        cutoff = 1e-10 * vals.max()
        assert np.sum(vals < cutoff) == 1
        assert positive_eigenvalues(a).size == vals.size - 1

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            conditioning_report(64, 64, ModelParams(tau=1e-2, delta=1e-6), seed=0)

    @pytest.mark.parametrize("n, m, seed, reason", [
        (1, 1, 0, "no arcs"),
        (0, 4, 0, "dimensions must be >= 1"),
        (4, 0, 0, "dimensions must be >= 1"),
        (4, 4, -1, "seed"),
        (4, 4, 2**64, "seed"),
    ])
    def test_rejects_grids_without_arcs_and_bad_seeds_before_dense_work(
        self, monkeypatch, n, m, seed, reason
    ):
        def refuse(*args):
            raise AssertionError("dense work started")

        monkeypatch.setattr(oracles, "materialize_dense_system", refuse)
        with pytest.raises(ValueError, match=reason):
            conditioning_report(n, m, ModelParams(tau=1e-2, delta=1e-6), seed=seed)

    def test_report_serializes(self):
        rep = conditioning_report(4, 4, ModelParams(tau=1e-2, delta=1e-4), seed=7)
        payload = rep.to_dict()
        assert payload["n"] == 4
        assert len(payload["eig_a"]) == len(rep.eig_a)
        assert set(payload) == {
            "n", "m", "eig_a", "eig_pre", "kappa_a", "kappa_pre", "rho_a", "rho_pre",
        }
        assert type(payload["n"]) is int and type(payload["kappa_a"]) is float
        assert json.loads(json.dumps(payload)) == payload

    def test_runs_no_eigendecomposition_of_the_preconditioner(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("C* is closed-form; eigh must not run")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rep = conditioning_report(16, 16, ModelParams(tau=1e-2, delta=1e-6), seed=0)
        assert rep.eig_a.size == rep.eig_pre.size == 3 * 16 * 16 - 2 * 16 - 1



class TestDenseCellLimit:
    # one limit of DENSE_CELL_LIMIT = 1024 cells covers the builder and the report

    @pytest.mark.parametrize("n, m", [(32, 32), (1, 1024)])
    def test_builds_at_the_limit(self, n, m):
        p = ModelParams(tau=1e-2, delta=1e-6)
        d = random_diagonal_weights(n, m, p, seed=0)
        a = materialize_dense_system(n, m, d, p)
        dim = n * m + (n - 1) * m + n * (m - 1)
        assert a.shape == (dim, dim)

    @pytest.mark.parametrize("n, m", [(32, 33), (1, 1025)])
    def test_builder_refuses_one_row_or_cell_more(self, n, m):
        p = ModelParams(tau=1e-2, delta=1e-6)
        d = random_diagonal_weights(n, m, p, seed=0)
        with pytest.raises(SizeLimitExceeded, match="1024 cells"):
            materialize_dense_system(n, m, d, p)

    @pytest.mark.parametrize("n, m", [(32, 33), (10**6, 10**6)])
    def test_report_refuses_before_drawing_weights(self, monkeypatch, n, m):
        def refuse(*args):
            raise AssertionError("weights drawn above the cell limit")

        monkeypatch.setattr(oracles, "random_diagonal_weights", refuse)
        with pytest.raises(SizeLimitExceeded, match="1024 cells"):
            conditioning_report(n, m, ModelParams(tau=1e-2, delta=1e-6), seed=0)


class TestPositiveEigenvalues:
    def test_drops_exactly_the_smallest_at_any_scale(self):
        vals = positive_eigenvalues(np.diag([5e-12, 0.0, 2e-12]))
        assert np.array_equal(vals, [2e-12, 5e-12])

    @pytest.mark.parametrize("second", [1e-11, 0.0, -1e-3])
    def test_refuses_an_unresolvable_second_eigenvalue(self, second):
        with pytest.raises(ValueError, match="spectrum not resolvable"):
            positive_eigenvalues(np.diag([0.0, second, 1.0]))


class TestClosedFormSplit:
    @pytest.mark.parametrize("n, m", [(1, 5), (5, 1), (2, 2), (3, 7), (7, 3), (16, 16)])
    def test_matches_eigh_of_dense_preconditioner(self, n, m):
        p = ModelParams(tau=1e-2, delta=1e-6)
        d = random_diagonal_weights(n, m, p, seed=n * 100 + m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, p)
        want = split_pseudo_sqrt(materialize_dense_preconditioner(n, m, d, p.tau))
        got = split_pseudo_sqrt_closed_form(pc)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSplitSqrt:
    def test_pseudo_sqrt_pair_inverts_on_range(self, rng):
        n = m = 4
        d = random_diagonal_weights(n, m, ModelParams(delta=1e-2), seed=2)
        dmat = materialize_dense_preconditioner(n, m, d, 1e-2)
        c = split_sqrt(dmat)
        c_star = split_pseudo_sqrt(dmat)
        dim = dmat.shape[0]
        null = np.concatenate([np.ones(n * m), np.zeros(dim - n * m)]) / np.sqrt(n * m)
        projector = np.eye(dim) - np.outer(null, null)
        assert np.max(np.abs(c @ c_star - projector)) < 1e-8
        assert np.max(np.abs(c @ c - dmat)) < 1e-8

    def test_weights_land_in_half_open_interval(self):
        d = random_diagonal_weights(5, 5, ModelParams(delta=0.25), seed=11)
        assert d.v.max() <= 4.0 and d.h.max() <= 4.0
        assert d.v.min() > 0.0 and d.h.min() > 0.0


class TestApplySystem:
    def test_zero_maps_to_zero(self, rng):
        n, m = 4, 5
        d = random_diag(rng, n, m)
        out = apply_system(SystemVector.zeros(n, m), d, ModelParams(tau=0.5), out=nan_vector(n, m))
        assert np.linalg.norm(out.data) == 0.0

    def test_constant_u_in_nullspace(self, rng):
        n, m = 5, 4
        d = random_diag(rng, n, m)
        x = SystemVector(7.5 * np.ones((n, m)), np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        out = apply_system(x, d, ModelParams(tau=1e-2), out=nan_vector(n, m))
        assert np.linalg.norm(out.data) == 0.0

    def test_matches_dense_oracle(self, rng):
        n = m = 4
        d = random_diag(rng, n, m)
        p = ModelParams(tau=1e-2)
        a = materialize_dense_system(n, m, d, p)
        for _ in range(20):
            x = random_state(rng, n, m)
            got = stack_system(apply_system(x, d, p, out=SystemVector.zeros(n, m)))
            want = a @ stack_system(x)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_symmetry_and_psd(self, rng):
        n, m = 6, 5
        d = random_diag(rng, n, m)
        p = ModelParams(tau=0.03)
        for _ in range(25):
            x = random_state(rng, n, m)
            y = random_state(rng, n, m)
            ax = apply_system(x, d, p, out=SystemVector.zeros(n, m))
            ay = apply_system(y, d, p, out=SystemVector.zeros(n, m))
            assert np.vdot(ax.data, y.data) == pytest.approx(
                np.vdot(x.data, ay.data), rel=1e-10, abs=1e-10
            )
            assert np.vdot(ax.data, x.data) >= -1e-10 * np.vdot(x.data, x.data)


class TestDenseSystem:
    def test_small_instance_shape_and_spectrum(self, rng):
        n = m = 2
        d = random_diag(rng, n, m)
        a = materialize_dense_system(n, m, d, ModelParams(tau=1.0))
        # dimension is NM + (N-1)M + N(M-1) = 4 + 2 + 2
        assert a.shape == (8, 8)
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_nullspace_vector(self, rng):
        n, m = 3, 4
        d = random_diag(rng, n, m)
        a = materialize_dense_system(n, m, d, ModelParams(tau=1e-2))
        null = np.concatenate([np.ones(n * m), np.zeros((n - 1) * m + n * (m - 1))])
        assert np.max(np.abs(a @ null)) < 1e-12

    def test_nullspace_is_one_dimensional(self, rng):
        n = m = 3
        d = ArcField(
            rng.uniform(0.1, 2.0, (n - 1, m)), rng.uniform(0.1, 2.0, (n, m - 1))
        )
        a = materialize_dense_system(n, m, d, ModelParams(tau=1e-2))
        vals = np.linalg.eigvalsh(a)
        assert np.sum(vals < 1e-10) == 1

    def test_matches_entrywise_construction(self, rng):
        n = m = 3
        d = random_diag(rng, n, m)
        a = materialize_dense_system(n, m, d, ModelParams(tau=0.07))
        b = dense_system_entrywise(n, m, d, 0.07)
        assert np.max(np.abs(a - b)) < 1e-13

    def test_size_guard(self, rng):
        d = ArcField(np.ones((99, 100)), np.ones((100, 99)))
        with pytest.raises(SizeLimitExceeded):
            materialize_dense_system(100, 100, d, ModelParams(tau=1.0))



class TestBuildRhs:
    def test_zero_gradients(self, rng):
        g = random_gradients(rng, 4, 4)
        zero = type(g)(np.zeros_like(g.v), np.zeros_like(g.h))
        b = build_rhs(zero, ModelParams(tau=1e-2), out=nan_vector(4, 4))
        assert np.linalg.norm(b.data) == 0.0

    def test_u_block_sums_to_zero(self, rng):
        g = random_gradients(rng, 9, 7)
        b = build_rhs(g, ModelParams(tau=1e-2), out=SystemVector.zeros(9, 7))
        assert abs(b.u.sum()) <= 1e-9 * b.u.size

    def test_matches_dense_construction(self, rng):
        n = m = 3
        g = random_gradients(rng, n, m)
        p = ModelParams(tau=1e-2)
        b = stack_system(build_rhs(g, p, out=SystemVector.zeros(n, m)))
        assert np.max(np.abs(b - dense_rhs(g, p.tau))) < 1e-12


class TestApplySystemOut:
    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1), (3, 5)])
    def test_writes_into_out_bit_for_bit(self, rng, shape):
        n, m = shape
        d = random_diag(rng, n, m)
        p = ModelParams(tau=0.03)
        x = random_state(rng, n, m)
        buf = nan_vector(n, m)  # every entry must be overwritten
        got = apply_system(x, d, p, out=buf)
        assert got is buf
        assert np.array_equal(got.data, apply_system(x, d, p, out=SystemVector.zeros(n, m)).data)
        want = materialize_dense_system(n, m, d, p) @ stack_system(x)
        assert np.max(np.abs(stack_system(got) - want)) < 1e-10

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (12, 20)])
    def test_bit_equal_to_the_map_without_data(self, rng, shape):
        # the block kernel subtracts the data g = 0 before vv and vh, which keeps every bit
        n, m = shape
        d = random_diag(rng, n, m)
        x = random_state(rng, n, m)
        got = apply_system(x, d, ModelParams(tau=0.03), out=nan_vector(n, m))
        assert got.data.tobytes() == apply_system_without_data(x, d, 0.03).data.tobytes()

    def test_reused_out_holds_only_the_last_result(self, rng):
        n, m = 5, 4
        d = random_diag(rng, n, m)
        buf = SystemVector.zeros(n, m)
        p = ModelParams(tau=0.1)
        apply_system(random_state(rng, n, m), d, p, out=buf)
        x = random_state(rng, n, m)
        apply_system(x, d, p, out=buf)
        assert np.array_equal(buf.data, apply_system(x, d, p, out=SystemVector.zeros(n, m)).data)


class TestApplyPreconditioner:
    def test_zero_maps_to_zero(self, rng):
        n, m = 4, 4
        pc = build_preconditioner(
            build_spectral_cache(n, m), random_diag(rng, n, m), ModelParams(tau=1e-2)
        )
        out = apply_preconditioner(SystemVector.zeros(n, m), pc, out=nan_vector(n, m))
        assert np.linalg.norm(out.data) == 0.0

    def test_zero_diagonals_scale_by_tau(self, rng):
        n, m, p = 3, 4, ModelParams(tau=0.2)
        d = ArcField(np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        pc = build_preconditioner(build_spectral_cache(n, m), d, p)
        r = random_state(rng, n, m)
        out = apply_preconditioner(r, pc, out=SystemVector.zeros(n, m))
        assert np.allclose(out.vv, p.tau * r.vv, atol=1e-14)
        assert np.allclose(out.vh, p.tau * r.vh, atol=1e-14)

    def test_dense_roundtrip_on_range(self, rng):
        n = m = 4
        p = ModelParams(tau=1e-2)
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, p)
        dmat = materialize_dense_preconditioner(n, m, d, p.tau)
        null = np.concatenate(
            [np.ones(n * m), np.zeros((n - 1) * m + n * (m - 1))]
        ) / np.sqrt(n * m)
        for _ in range(10):
            r = random_state(rng, n, m)
            r.u -= r.u.mean()
            z = stack_system(apply_preconditioner(r, pc, out=SystemVector.zeros(n, m)))
            back = dmat @ z
            rs = stack_system(r)
            projected = rs - (null @ rs) * null
            assert np.linalg.norm(back - projected) <= 1e-9 * max(1.0, np.linalg.norm(rs))

    def test_never_reintroduces_constant_mode(self, rng):
        n, m = 5, 6
        p = ModelParams(tau=1e-2)
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, p)
        for _ in range(20):
            x = random_state(rng, n, m)
            ax = apply_system(x, d, p, out=SystemVector.zeros(n, m))
            z = apply_preconditioner(ax, pc, out=SystemVector.zeros(n, m))
            assert abs(z.u.mean()) < 1e-12 * max(1.0, np.abs(z.u).max())

    def test_annihilates_shared_nullspace(self, rng):
        n, m = 4, 3
        d = random_diag(rng, n, m)
        p = ModelParams(tau=1e-2)
        pc = build_preconditioner(build_spectral_cache(n, m), d, p)
        const = SystemVector(np.ones((n, m)), np.zeros((n - 1, m)), np.zeros((n, m - 1)))
        out = apply_preconditioner(const, pc, out=nan_vector(n, m))
        assert np.max(np.abs(out.u)) < 1e-12
        assert np.linalg.norm(apply_system(const, d, p, out=nan_vector(n, m)).data) == 0.0

    def test_symmetric_psd_as_operator(self, rng):
        n = m = 4
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, ModelParams(tau=1e-2))
        for _ in range(20):
            x = random_state(rng, n, m)
            y = random_state(rng, n, m)
            mx = apply_preconditioner(x, pc, out=SystemVector.zeros(n, m))
            my = apply_preconditioner(y, pc, out=SystemVector.zeros(n, m))
            assert np.vdot(mx.data, y.data) == pytest.approx(
                np.vdot(x.data, my.data), rel=1e-9, abs=1e-9
            )
            assert np.vdot(mx.data, x.data) >= -1e-10 * np.vdot(x.data, x.data)


class TestOutArguments:
    @pytest.mark.parametrize("shape", [(4, 4), (1, 6), (6, 1), (3, 5)])
    def test_apply_preconditioner_writes_into_out(self, rng, shape):
        n, m = shape
        p = ModelParams(tau=1e-2)
        d = random_diag(rng, n, m)
        pc = build_preconditioner(build_spectral_cache(n, m), d, p)
        r = random_state(rng, n, m)
        buf = nan_vector(n, m)  # every entry must be overwritten
        got = apply_preconditioner(r, pc, out=buf)
        assert got is buf
        zeroed = apply_preconditioner(r, pc, out=SystemVector.zeros(n, m))
        assert np.array_equal(got.data, zeroed.data)
        want = np.linalg.pinv(materialize_dense_preconditioner(n, m, d, p.tau)) @ stack_system(r)
        assert np.max(np.abs(stack_system(got) - want)) <= 1e-10 * max(1.0, np.abs(want).max())
