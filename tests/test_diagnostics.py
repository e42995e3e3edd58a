import json

import numpy as np
import pytest

from phaseirls import diagnostics
from phaseirls.diagnostics import (
    SizeLimitExceeded,
    build_preconditioner,
    conditioning_report,
    materialize_dense_system,
    positive_eigenvalues,
    random_diagonal_weights,
)
from phaseirls.objective import ModelParams
from phaseirls.preconditioner import build_spectral_cache

from oracles import materialize_dense_preconditioner, split_pseudo_sqrt, split_sqrt


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

        monkeypatch.setattr(diagnostics, "materialize_dense_system", refuse)
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

        monkeypatch.setattr(diagnostics, "random_diagonal_weights", refuse)
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
        got = diagnostics.split_pseudo_sqrt(pc)
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
