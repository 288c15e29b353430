"""Garbling, dominance feasibility, and the pairwise order."""

import contextlib
import importlib.util
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost import blackwell
from infocost.errors import InfoCostError, NotBinary, RowNotStochastic, ShapeMismatch, StateMismatch

# the benchmark's own dichotomy criterion, kept apart from the library as an independent reference
_spec = importlib.util.spec_from_file_location("bench_checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
bench_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_checks)

# HiGHS's tightest feasibility tolerances; at its defaults (1e-7) a near tie's
# optimum can be reported as 0 while the best kernel misses by 1e-8
TIGHT_LP = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

SYM75 = ic.new_experiment([[0.75, 0.25], [0.25, 0.75]])
# pairwise dominant, but not Blackwell dominant (see test_pairwise_but_not_blackwell_witness)
WITNESS_MU = ic.new_experiment([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
WITNESS_NU = ic.new_experiment([[0.7, 0.3], [0.52, 0.48], [0.3, 0.7]])
# pairs (0, 1) and (0, 2) dominate, pair (0, 3) does not
LATE_FAIL_MU = ic.new_experiment([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5], [0.5, 0.5]])
LATE_FAIL_NU = ic.new_experiment([[0.8, 0.2], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])


def near_ties(a, b):
    """Pairs (0, 1) and (0, 2) are near ties with shortfall a / 2 and b / 2 and
    LP optimum equal to it; pair (0, 3) fails by far.  States 0-2 of the
    source are uninformative, so the target's spread there is all shortfall."""
    mu = ic.new_experiment([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
    nu = ic.new_experiment([[0.5, 0.5], [0.5 - a, 0.5 + a], [0.5 - b, 0.5 + b], [0.05, 0.95]])
    return mu, nu


def dense_constraints(mu, nu):
    """The dominance LP's constraint matrices built densely, as a reference."""
    ns, nt = mu.n_signals, nu.n_signals
    nvar = ns * nt + 1
    src = np.arange(ns)
    a_eq = np.zeros((ns, nvar))
    a_eq[src[:, None], src[:, None] * nt + np.arange(nt)] = 1.0
    i, t, s = np.ix_(np.arange(mu.n_states), np.arange(nt), src)
    a_ub = np.zeros((mu.n_states, nt, 2, nvar))
    a_ub[i, t, 0, s * nt + t] = mu.probs[i, s]
    a_ub[i, t, 1, s * nt + t] = -mu.probs[i, s]
    a_ub[..., -1] = -1.0
    return a_ub.reshape(-1, nvar), a_eq


def lp_core(mu, nu, tol=blackwell.DEFAULT_TOL):
    """The dominance LP with no pair screen in front: the only way a
    reversed garbling, which the screen rejects, still reaches the LP."""
    return blackwell._garbling_lp(mu, nu, tol)


@contextlib.contextmanager
def recorded_lps(**options):
    """Record every blackwell.linprog call as (args, kwargs, result), solving
    with the given HiGHS options in place of the caller's."""
    calls = []
    original = blackwell.linprog

    def spy(*args, **kwargs):
        res = original(*args, **{**kwargs, "options": {**kwargs["options"], **options}})
        calls.append((args, kwargs, res))
        return res

    with mock.patch.object(blackwell, "linprog", spy):
        yield calls


@pytest.fixture
def lp_calls():
    with recorded_lps() as calls:
        yield calls


@pytest.fixture
def pairs_checked(monkeypatch):
    """The state pairs whose shortfall pairwise_dominates computed, in order."""
    pairs = []
    original = blackwell._shortfall

    def spy(a, b):
        pairs.append((a, b))
        return original(a, b)

    monkeypatch.setattr(blackwell, "_shortfall", spy)
    return pairs


def _stochastic(draw, rows, cols):
    """A row-stochastic matrix from small integer weights, so zero entries,
    zero columns and tied likelihood ratios are common."""
    w = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)), dtype=float)
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def garbling_pairs(draw, n_states):
    """(mu, nu) on n_states states: a garbling, a reversed garbling, or a
    garbling mixed with weight delta into another experiment, a near tie."""
    ns, nt = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mu = ic.new_experiment(_stochastic(draw, n_states, ns))
    nu = ic.garble(mu, ic.GarblingKernel(_stochastic(draw, ns, nt)))
    kind = draw(st.sampled_from(["garbling", "reversed", "near_tie"]))
    if kind == "reversed":
        return nu, mu
    if kind == "near_tie":
        delta = 10.0 ** draw(st.floats(-11.0, -5.0))
        nu = ic.new_experiment((1.0 - delta) * nu.probs + delta * _stochastic(draw, n_states, nt))
    return mu, nu


@st.composite
def screen_pairs(draw):
    """(mu, nu) on 2-5 states with 2-32 signals each, Dirichlet rows of
    concentration 0.1 to 10: a reversed garbling, or two independent draws."""
    n, ns, nt = draw(st.integers(2, 5)), draw(st.integers(2, 32)), draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = 10.0 ** draw(st.floats(-1.0, 1.0))
    mu = ic.new_experiment(rng.dirichlet(np.full(ns, alpha), size=n))
    if draw(st.booleans()):
        return ic.garble(mu, ic.GarblingKernel(rng.dirichlet(np.full(nt, alpha), size=ns))), mu
    return mu, ic.new_experiment(rng.dirichlet(np.full(nt, alpha), size=n))


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

    @pytest.mark.parametrize("rows, cols", [(2, 2.5), (2.0, 3), (True, 2), (2, 0)])
    def test_random_kernel_rejects_non_integer_shapes(self, rows, cols):
        with pytest.raises(ShapeMismatch):
            ic.random_kernel(rows, cols, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_random_kernel_rejects_a_seed_that_is_not_a_count(self, seed):
        with pytest.raises(InfoCostError, match="seed must be an integer >= 0"):
            ic.random_kernel(2, 2, seed)

    def test_kernel_validation(self):
        with pytest.raises(RowNotStochastic):
            ic.GarblingKernel(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestDominates:
    def test_self_dominance(self):
        res = ic.dominates(SYM75, SYM75)
        assert res.dominates and res.max_violation <= 1e-9

    def test_dominates_uninformative(self):
        assert ic.dominates(SYM75, ic.uninformative(2, 3)).dominates
        # a zero in the source and a one-signal target: the sparse rows lose an entry
        with_zero = ic.new_experiment([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        assert ic.dominates(with_zero, ic.uninformative(2, 1)).dominates

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

    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_rows_match_the_dense_model(self, lp_calls, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n, ns, nt = 2 + seed % 4, 8 + 2 * seed, 24 - 2 * seed
        probs = rng.dirichlet(np.ones(ns), size=n)
        probs[0, seed % ns] = 0.0  # a zero entry, which the dense model drops
        mu = ic.new_experiment(probs / probs.sum(axis=1, keepdims=True))
        nu = ic.garble(mu, ic.random_kernel(ns, nt, seed=seed))
        for source, target, decide in ((mu, nu, ic.dominates), (nu, mu, lp_core)):
            res = decide(source, target)
            (c,), kwargs, sparse = lp_calls.pop()
            a_ub, a_eq = dense_constraints(source, target)
            assert kwargs["A_ub"].nnz <= a_ub.shape[0] * (source.n_signals + 1)
            assert np.all(kwargs["A_ub"].data != 0)  # no stored zeros, as in the dense model
            assert np.array_equal(kwargs["A_ub"].toarray(), a_ub)
            assert np.array_equal(kwargs["A_eq"].toarray(), a_eq)
            nk = source.n_signals * target.n_signals
            dense = linprog(c, A_ub=a_ub, b_ub=kwargs["b_ub"], A_eq=a_eq, b_eq=kwargs["b_eq"],
                            bounds=[(0.0, 1.0)] * nk + [(0.0, None)], method="highs", options=kwargs["options"])
            assert dense.x.tobytes() == sparse.x.tobytes()
            psi = np.clip(dense.x[:-1].reshape(source.n_signals, -1), 0.0, None)
            kernel = ic.GarblingKernel(psi / psi.sum(axis=1, keepdims=True))
            assert res.max_violation == np.abs(source.probs @ kernel.psi - target.probs).max()
            assert res.dominates == (source is mu)
            if res.dominates:
                assert res.certificate.psi.tobytes() == kernel.psi.tobytes()

    def test_certificate_rows_off_by_more_than_the_kernel_check_are_renormalized(self):
        # HiGHS's kernel rows for this near tie (r = 5.6e-9) miss 1 by more
        # than GarblingKernel's 1e-9, which raised RowNotStochastic.  At
        # HiGHS's default feasibility tolerance of 1e-7 that kernel missed nu
        # by 1.5e-8, above tol though some kernel misses by at most r
        mu = ic.new_experiment([[0.2857142857142857, 0.7142857142857143], [0.5, 0.5]])
        nu = ic.new_experiment(
            [
                [0.30952381338238255, 0.1428571441257148, 0.5476190424919027],
                [0.29166666105059297, 0.25000001752215, 0.4583333214272571],
            ]
        )
        res = ic.dominates(mu, nu)
        assert res.dominates and ic.pairwise_dominates(mu, nu).dominates
        kernel = res.certificate.psi
        assert np.all(kernel >= 0.0) and np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(ic.garble(mu, res.certificate).probs - nu.probs).max() <= res.max_violation <= 1e-8

    def test_a_near_tie_is_decided_on_its_kernel_miss(self):
        # the best kernel misses nu by 1.5e-8, above tol but within HiGHS's
        # default feasibility tolerance of 1e-7, at which it reported eps 0
        mu = ic.new_experiment([[0.5, 0.5], [0.5, 0.5]])
        nu = ic.new_experiment([[0.5, 0.5], [0.5 - 3e-8, 0.5 + 3e-8]])
        res = ic.dominates(mu, nu)
        assert not res.dominates and res.certificate is None and res.marginal
        assert res.max_violation >= 1.5e-8 * (1.0 - 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4).flatmap(garbling_pairs), st.sampled_from([0.0, 1e-8, 1e-6]))
    def test_every_certificate_rebuilds_its_target_within_the_reported_violation(self, pair, tol):
        mu, nu = pair
        res = ic.dominates(mu, nu, tol)
        tol = max(tol, blackwell.MIN_TOL)
        assert res.dominates == (res.max_violation <= tol) == (res.certificate is not None)
        assert res.marginal == (tol < res.max_violation <= 100 * tol)
        if res.dominates:
            assert np.abs(ic.garble(mu, res.certificate).probs - nu.probs).max() <= res.max_violation

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 12), st.integers(1, 12), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
    # pair (0, 3) has a shortfall of 1.1e-16, and its LP at MIN_TOL misses by 1.04e-9
    @example(4, 12, 4, -0.953125, 4)
    def test_an_exact_garbling_dominates_at_zero_tolerance(self, n, ns, nt, log_alpha, seed):
        # Dirichlet rows of concentration 0.1 to 10: HiGHS's kernel misses
        # such a garbling by up to about 1e-9, decided at MIN_TOL
        rng = np.random.default_rng(seed)
        alpha = 10.0**log_alpha
        mu = ic.new_experiment(rng.dirichlet(np.full(ns, alpha), size=n))
        nu = ic.garble(mu, ic.GarblingKernel(rng.dirichlet(np.full(nt, alpha), size=ns)))
        assert ic.dominates(mu, nu, 0.0).dominates
        assert ic.pairwise_dominates(mu, nu, tol=0.0).dominates

    @settings(max_examples=100, deadline=None)
    @given(screen_pairs(), st.sampled_from([0.0, 1e-8, 1e-5]))
    # the coin flip misses full information by 1/2, and the bound is 1/2 less the slack
    @example((ic.uninformative(2, 1), ic.new_experiment(np.eye(2))), 0.0)
    def test_a_screened_verdict_is_the_lps(self, pair, tol):
        mu, nu = pair
        res = ic.dominates(mu, nu, tol)
        if res.screened_pair is None:
            lp = lp_core(mu, nu, tol)
            assert (res.dominates, res.max_violation, res.marginal) == (lp.dominates, lp.max_violation, lp.marginal)
            return
        assert not res.dominates and not res.marginal and res.certificate is None
        assert res.max_violation > blackwell.MARGINAL_FACTOR * max(tol, blackwell.MIN_TOL)
        i, j = res.screened_pair
        # the full LP, and the LP on the screened pair alone, which any full kernel also solves
        for source, target in ((mu, nu), (ic.restrict_pair(mu, i, j), ic.restrict_pair(nu, i, j))):
            lp = lp_core(source, target, tol)
            assert not lp.dominates and not lp.marginal
            assert lp.max_violation >= res.max_violation

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
        mu, nu = WITNESS_MU, WITNESS_NU
        pw = ic.pairwise_dominates(mu, nu)
        full = ic.dominates(mu, nu)
        assert pw.dominates
        assert not full.dominates and not full.marginal

    def test_pairwise_coherence_on_restrictions(self):
        mu, nu = WITNESS_MU, WITNESS_NU
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

    @pytest.mark.parametrize(
        "mu, nu, checked",
        [(WITNESS_NU, WITNESS_MU, 1), (LATE_FAIL_MU, LATE_FAIL_NU, 3), (WITNESS_MU, WITNESS_NU, 3)],
    )
    def test_stops_at_the_first_failing_pair(self, lp_calls, pairs_checked, mu, nu, checked):
        res = ic.pairwise_dominates(mu, nu)
        pairs = list(itertools.combinations(range(mu.n_states), 2))[:checked]
        assert len(pairs_checked) == checked
        # every pair here is decided by its shortfall alone
        assert res.lp_pairs == len(lp_calls) == 0
        shortfalls = [ic.dichotomy_shortfall(*(ic.restrict_pair(e, *p) for e in (mu, nu)))[0] for p in pairs]
        assert res.shortfall == max([0.0] + shortfalls)
        if res.dominates:
            assert res.failing_pair is None
        else:
            assert res.failing_pair == pairs[-1]
            assert not ic.dominates(*(ic.restrict_pair(e, *res.failing_pair) for e in (mu, nu))).dominates

    @pytest.mark.parametrize("b, failing_pair", [(1.5e-5, (0, 3)), (3e-5, (0, 2))])
    def test_near_ties_go_to_the_lp(self, lp_calls, pairs_checked, b, failing_pair):
        # r in (tol / 2, 2 tol]: neither bound decides, so the LP does; it
        # passes pair (0, 1) at eps 0.75 tol and pair (0, 2) when b / 2 <= tol.
        # tol is far above HiGHS's 1e-7 feasibility tolerance, which would
        # report eps 0 for the same near ties at the default 1e-8.
        tol = 1e-5
        mu, nu = near_ties(1.5e-5, b)
        res = ic.pairwise_dominates(mu, nu, tol)
        assert not res.dominates and res.failing_pair == failing_pair
        assert len(pairs_checked) == failing_pair[1]
        assert res.lp_pairs == len(lp_calls) == 2
        assert [call[2].x[-1] for call in lp_calls] == pytest.approx([0.75e-5, b / 2], rel=1e-9)
        shortfalls = [ic.dichotomy_shortfall(*(ic.restrict_pair(e, 0, j) for e in (mu, nu)))[0]
                      for j in range(1, failing_pair[1] + 1)]
        assert res.shortfall == max(shortfalls)

    def test_rounding_level_shortfalls_pass_without_the_lp_at_zero_tolerance(self, lp_calls):
        # the pass screen floors tol at MIN_TOL, as the LP and the fail screen do
        mu = ic.random_experiment(3, 4, seed=3, min_prob=0.02)
        nu = ic.garble(mu, ic.random_kernel(4, 3, seed=4))
        assert ic.pairwise_dominates(mu, nu).lp_pairs == 0
        res = ic.pairwise_dominates(mu, nu, tol=0.0)
        assert res.dominates
        assert res.lp_pairs == len(lp_calls) == 0

    @pytest.mark.parametrize("shift, lp_pairs", [(1e-9, 1), (1e-8, 0)])
    def test_the_screen_fails_early_only_past_the_lp_floor(self, lp_calls, shift, lp_pairs):
        # at tol 0 the LP decides at MIN_TOL = 1e-9, so the screen sends it
        # a shortfall of 5e-10 rather than failing it, and both agree
        mu = ic.new_experiment([[0.5, 0.5], [0.5, 0.5]])
        nu = ic.new_experiment([[0.5, 0.5], [0.5 - shift, 0.5 + shift]])
        plain, res = ic.dominates(mu, nu, 0.0), ic.pairwise_dominates(mu, nu, 0.0)
        assert res.dominates == plain.dominates == (shift / 2 <= blackwell.MIN_TOL)
        assert res.lp_pairs == lp_pairs and len(lp_calls) == 1 + lp_pairs


class TestDichotomyShortfall:
    def test_uninformative_against_full_information(self):
        # g_nu(t) - g_mu(t) = min(1, t), so r = 1/2 at t = 1, and the LP's best
        # kernel (the coin flip) misses by 1/2: both bounds are tight here
        mu, nu = ic.uninformative(2, 1), ic.new_experiment(np.eye(2))
        assert ic.dichotomy_shortfall(mu, nu) == (0.5, 1.0)
        assert lp_core(mu, nu).max_violation == pytest.approx(0.5, abs=1e-12)
        screened = ic.dominates(mu, nu)
        assert screened.screened_pair == (0, 1)
        assert screened.max_violation == pytest.approx(0.5, abs=1e-12)
        r, _ = ic.dichotomy_shortfall(nu, mu)
        assert r <= 0.0

    def test_rejects_other_than_two_matching_states(self):
        with pytest.raises(StateMismatch):
            ic.dichotomy_shortfall(SYM75, WITNESS_MU)
        with pytest.raises(NotBinary):
            ic.dichotomy_shortfall(WITNESS_MU, WITNESS_NU)

    @settings(max_examples=300, deadline=None)
    @given(garbling_pairs(2))
    def test_sign_matches_the_bench_reference(self, pair):
        mu, nu = pair
        r, t = ic.dichotomy_shortfall(mu, nu)
        assert np.sign(r) == np.sign(bench_checks.dichotomy_violation(mu.probs, nu.probs))
        kinks = [0.0] + [m[0, s] / m[1, s] for m in (mu.probs, nu.probs) for s in range(m.shape[1]) if m[1, s] > 0]
        assert t in kinks

    @settings(max_examples=150, deadline=None)
    @given(garbling_pairs(2), st.sampled_from([1e-8, 1e-7, 1e-6, 1e-4]))
    def test_screen_agrees_with_the_lp(self, pair, tol):
        # the LP is solved to 1e-10, so its verdict is exact next to the
        # screen's factor-2 margins around tol
        mu, nu = pair
        r, _ = ic.dichotomy_shortfall(mu, nu)
        with recorded_lps(**TIGHT_LP) as lps:
            plain = lp_core(mu, nu, tol)
            (_, _, lp), = lps
            res = ic.pairwise_dominates(mu, nu, tol)
        eps, missed = float(lp.x[-1]), plain.max_violation  # the LP's optimum, its kernel's miss
        lower = 2.0 * r / nu.n_signals
        assert eps <= r + 1e-12
        assert lower <= missed + 1e-12  # a bound on every kernel, not only the optimum
        assert lower <= eps + 1e-9  # the reported optimum, to HiGHS's tolerance
        assert res.lp_pairs == len(lps) - 1
        if res.lp_pairs == 0:
            assert res.dominates == plain.dominates
