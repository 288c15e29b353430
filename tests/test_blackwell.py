"""Garbling, dominance feasibility, and the pairwise order."""

import math

import numpy as np
import pytest

import infocost as ic
from infocost.errors import InfoCostError, RowNotStochastic, ShapeMismatch, StateMismatch

SYM75 = ic.new_experiment([[0.75, 0.25], [0.25, 0.75]])


class TestGarble:
    def test_identity_kernel_is_noop(self):
        mu = ic.random_experiment(3, 4, seed=1, min_prob=0.02)
        assert np.allclose(ic.garble(mu, ic.identity_kernel(4)).probs, mu.probs, atol=1e-15)

    def test_constant_kernel_destroys_information(self):
        mu = ic.random_experiment(2, 3, seed=2, min_prob=0.02)
        kernel = ic.GarblingKernel(np.tile([0.2, 0.8], (3, 1)))
        nu = ic.garble(mu, kernel)
        assert np.allclose(nu.probs[0], nu.probs[1], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ic.garble(SYM75, ic.identity_kernel(3))

    def test_kernel_validation(self):
        with pytest.raises(RowNotStochastic):
            ic.GarblingKernel(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestDominates:
    def test_self_dominance(self):
        res = ic.dominates(SYM75, SYM75)
        assert res.dominates and res.max_violation <= 1e-9

    def test_dominates_uninformative(self):
        assert ic.dominates(SYM75, ic.uninformative(2, 3)).dominates

    def test_uninformative_cannot_dominate(self):
        res = ic.dominates(ic.uninformative(2, 3), SYM75)
        assert not res.dominates and res.certificate is None

    def test_garbled_pairs_feasible_with_sound_certificate(self):
        for seed in range(25):
            mu = ic.random_experiment(2 + seed % 3, 2 + seed % 4, seed=seed, min_prob=0.01)
            kernel = ic.random_kernel(mu.n_signals, 2 + (seed + 1) % 3, seed=seed + 99)
            nu = ic.garble(mu, kernel)
            res = ic.dominates(mu, nu)
            assert res.dominates
            rebuilt = ic.garble(mu, res.certificate)
            assert np.max(np.abs(rebuilt.probs - nu.probs)) <= 10 * 1e-8

    def test_state_mismatch(self):
        with pytest.raises(StateMismatch):
            ic.dominates(SYM75, ic.uninformative(3, 2))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(InfoCostError):
            ic.dominates(SYM75, SYM75, tol=tol)
        with pytest.raises(InfoCostError):
            ic.pairwise_dominates(SYM75, SYM75, tol=tol)

    def test_divergence_coherence(self):
        grid = ic.default_param_grid(2, 25, seed=5)
        for seed in range(10):
            mu = ic.random_experiment(2, 4, seed=seed, min_prob=0.02)
            nu = ic.garble(mu, ic.random_kernel(4, 3, seed=seed + 7))
            assert ic.dominates(mu, nu).dominates
            for param in grid:
                assert ic.unified_divergence(param, mu) >= ic.unified_divergence(param, nu) - 1e-8

    def test_transitivity_by_composition(self):
        for seed in range(10):
            mu = ic.random_experiment(2, 4, seed=seed, min_prob=0.02)
            nu = ic.garble(mu, ic.random_kernel(4, 4, seed=seed + 11))
            rho = ic.garble(nu, ic.random_kernel(4, 3, seed=seed + 23))
            first = ic.dominates(mu, nu)
            second = ic.dominates(nu, rho)
            assert first.dominates and second.dominates
            composed = ic.compose(first.certificate, second.certificate)
            rebuilt = ic.garble(mu, composed)
            assert np.max(np.abs(rebuilt.probs - rho.probs)) <= 1e-6
            assert ic.dominates(mu, rho).dominates


class TestPairwise:
    def test_binary_states_match_plain_dominance(self):
        for seed in range(10):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.02)
            nu = ic.garble(mu, ic.random_kernel(3, 3, seed=seed + 5))
            assert ic.pairwise_dominates(mu, nu).dominates == ic.dominates(mu, nu).dominates

    def test_dominance_implies_pairwise(self):
        for seed in range(50):
            mu = ic.random_experiment(3, 3, seed=seed, min_prob=0.01)
            nu = ic.garble(mu, ic.random_kernel(3, 3, seed=seed + 500))
            assert ic.pairwise_dominates(mu, nu).dominates

    def test_pairwise_but_not_blackwell_witness(self):
        # two-signal experiments are ordered pairwise by per-pair affine maps,
        # but a single kernel needs all three (state, target) points collinear;
        # these were found by a slope search and are deliberately non-collinear
        mu = ic.new_experiment([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        nu = ic.new_experiment([[0.7, 0.3], [0.52, 0.48], [0.3, 0.7]])
        pw = ic.pairwise_dominates(mu, nu)
        full = ic.dominates(mu, nu)
        assert pw.dominates
        assert not full.dominates and not full.marginal

    def test_pairwise_coherence_on_restrictions(self):
        mu = ic.new_experiment([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        nu = ic.new_experiment([[0.7, 0.3], [0.52, 0.48], [0.3, 0.7]])
        assert ic.pairwise_dominates(mu, nu).dominates
        for i in range(3):
            for j in range(i + 1, 3):
                sub_mu, sub_nu = ic.restrict_pair(mu, i, j), ic.restrict_pair(nu, i, j)
                for t in (0.3, 0.5, 0.7, 0.9):
                    assert ic.renyi(t, sub_mu.probs[0], sub_mu.probs[1]) >= ic.renyi(
                        t, sub_nu.probs[0], sub_nu.probs[1]
                    ) - 1e-8

    def test_failing_pair_reported(self):
        mu = ic.uninformative(3, 2)
        nu = ic.new_experiment([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        res = ic.pairwise_dominates(mu, nu)
        assert not res.dominates and res.failing_pair is not None

    def test_threads_agree(self):
        mu = ic.new_experiment([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        nu = ic.new_experiment([[0.7, 0.3], [0.52, 0.48], [0.3, 0.7]])
        a = ic.pairwise_dominates(mu, nu, threads=1)
        b = ic.pairwise_dominates(mu, nu, threads=3)
        assert a.dominates == b.dominates
