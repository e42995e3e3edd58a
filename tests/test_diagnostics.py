import numpy as np
import pytest

from phaseirls.diagnostics import (
    conditioning_report,
    positive_eigenvalues,
    random_diagonal_weights,
    split_pseudo_sqrt,
)
from phaseirls.operators import SizeLimitExceeded, materialize_dense_system

from oracles import split_sqrt


class TestConditioningReport:
    def test_preconditioning_improves_kappa(self):
        rep = conditioning_report(16, 16, 1e-6, 1e-2, seed=0)
        assert rep.kappa_pre < rep.kappa_a
        assert rep.kappa_a / rep.kappa_pre >= 10
        assert rep.rho_pre < rep.rho_a

    def test_preconditioned_spectrum_clusters(self):
        rep = conditioning_report(16, 16, 1e-6, 1e-2, seed=1)
        med = np.median(rep.eig_pre)
        within = np.abs(np.log10(rep.eig_pre) - np.log10(med)) <= 1.0
        assert within.mean() >= 0.9

    def test_tiny_uniform_instance_is_finite(self):
        rep = conditioning_report(2, 2, 0.5, 1.0, seed=3)
        assert np.isfinite(rep.kappa_a) and np.isfinite(rep.kappa_pre)
        assert rep.kappa_pre >= 1.0
        assert 0 < rep.rho_a < 1 and 0 <= rep.rho_pre < 1

    def test_rho_consistent_with_kappa(self):
        rep = conditioning_report(8, 8, 1e-6, 1e-2, seed=4)
        for kappa, rho in ((rep.kappa_a, rep.rho_a), (rep.kappa_pre, rep.rho_pre)):
            expect = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
            assert abs(rho - expect) < 1e-12

    def test_single_zero_eigenvalue(self):
        n = m = 6
        d = random_diagonal_weights(n, m, 1e-3, seed=9)
        assert d.dv.min() > 0 and d.dh.min() > 0
        a = materialize_dense_system(n, m, d, 1e-2)
        vals = np.linalg.eigvalsh(a)
        cutoff = 1e-10 * vals.max()
        assert np.sum(vals < cutoff) == 1
        assert positive_eigenvalues(a).size == vals.size - 1

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            conditioning_report(64, 64, 1e-6, 1e-2, seed=0)

    def test_report_serializes(self):
        rep = conditioning_report(4, 4, 1e-4, 1e-2, seed=7)
        payload = rep.to_dict()
        assert payload["n"] == 4
        assert len(payload["eig_a"]) == len(rep.eig_a)


class TestSplitSqrt:
    def test_pseudo_sqrt_pair_inverts_on_range(self, rng):
        n = m = 4
        d = random_diagonal_weights(n, m, 1e-2, seed=2)
        from phaseirls.operators import materialize_dense_preconditioner

        dmat = materialize_dense_preconditioner(n, m, d, 1e-2)
        c = split_sqrt(dmat)
        c_star = split_pseudo_sqrt(dmat)
        dim = dmat.shape[0]
        null = np.concatenate([np.ones(n * m), np.zeros(dim - n * m)]) / np.sqrt(n * m)
        projector = np.eye(dim) - np.outer(null, null)
        assert np.max(np.abs(c @ c_star - projector)) < 1e-8
        assert np.max(np.abs(c @ c - dmat)) < 1e-8

    def test_weights_land_in_half_open_interval(self):
        d = random_diagonal_weights(5, 5, 0.25, seed=11)
        assert d.dv.max() <= 4.0 and d.dh.max() <= 4.0
        assert d.dv.min() > 0.0 and d.dh.min() > 0.0
