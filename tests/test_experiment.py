"""Experiment construction, operators, and posterior computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost.errors import (
    BadAlpha,
    BadCostSpec,
    BadPsi,
    DimensionMismatch,
    EqualStates,
    GammaOutOfRange,
    InfeasibleFloor,
    InfoCostError,
    KTooSmall,
    NegativeEntry,
    NotADistribution,
    PriorNotFullSupport,
    RowNotStochastic,
    StateMismatch,
    TooFewStates,
    WeightOutOfRange,
)

from infocost.experiment import normalized_rows

SYM75 = [[0.75, 0.25], [0.25, 0.75]]


class TestConstruction:
    def test_valid_2x2(self):
        mu = ic.new_experiment(SYM75)
        assert mu.n_states == 2 and mu.n_signals == 2
        assert np.allclose(mu.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_row_not_stochastic(self):
        with pytest.raises(RowNotStochastic):
            ic.new_experiment([[0.6, 0.3], [0.5, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            ic.new_experiment([[1.1, -0.1], [0.5, 0.5]])

    def test_too_few_states(self):
        with pytest.raises(TooFewStates):
            ic.new_experiment([[0.5, 0.5]])

    def test_immutable(self):
        mu = ic.new_experiment(SYM75)
        with pytest.raises(ValueError):
            mu.probs[0, 0] = 0.3

    def test_json_round_trip(self):
        mu = ic.new_experiment([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        again = ic.FiniteExperiment.from_json(mu.to_json())
        assert np.array_equal(again.probs, mu.probs)


class TestMixture:
    def test_signal_counts_and_rows(self):
        mu = ic.new_experiment(SYM75)
        nu = ic.new_experiment([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        mix = ic.mixture(mu, nu, 0.4)
        assert mix.n_signals == 5
        assert np.allclose(mix.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_self_mixture_keeps_divergences(self):
        mu = ic.new_experiment(SYM75)
        mix = ic.mixture(mu, mu, 0.5)
        for param in ic.default_param_grid(2, 9, seed=3):
            assert ic.unified_divergence(param, mix) == pytest.approx(
                ic.unified_divergence(param, mu), abs=1e-12
            )

    def test_weight_out_of_range(self):
        mu = ic.new_experiment(SYM75)
        with pytest.raises(WeightOutOfRange):
            ic.mixture(mu, mu, 0.0)
        with pytest.raises(WeightOutOfRange):
            ic.mixture(mu, mu, 1.0)

    def test_state_mismatch(self):
        mu = ic.new_experiment(SYM75)
        nu = ic.uninformative(3, 2)
        with pytest.raises(StateMismatch):
            ic.mixture(mu, nu, 0.5)


class TestProductAndPower:
    def test_product_shape(self):
        mu = ic.new_experiment(SYM75)
        assert ic.product(mu, mu).n_signals == 4

    def test_kl_additive_over_product(self):
        mu = ic.random_experiment(2, 3, seed=1, min_prob=0.05)
        nu = ic.random_experiment(2, 4, seed=2, min_prob=0.05)
        both = ic.product(mu, nu)
        expected = ic.kl(mu.probs[0], mu.probs[1]) + ic.kl(nu.probs[0], nu.probs[1])
        assert ic.kl(both.probs[0], both.probs[1]) == pytest.approx(expected, abs=1e-12)

    def test_product_with_uninformative_keeps_divergences(self):
        mu = ic.random_experiment(3, 3, seed=5, min_prob=0.05)
        both = ic.product(mu, ic.uninformative(3, 2))
        for param in ic.default_param_grid(3, 12, seed=11):
            assert ic.unified_divergence(param, both) == pytest.approx(
                ic.unified_divergence(param, mu), abs=1e-10
            )

    def test_product_commutes_in_divergence(self):
        mu = ic.random_experiment(2, 2, seed=8, min_prob=0.1)
        nu = ic.random_experiment(2, 3, seed=9, min_prob=0.1)
        for param in ic.default_param_grid(2, 9, seed=4):
            assert ic.unified_divergence(param, ic.product(mu, nu)) == pytest.approx(
                ic.unified_divergence(param, ic.product(nu, mu)), abs=1e-10
            )

    def test_power_identity_and_size(self):
        mu = ic.new_experiment(SYM75)
        assert ic.power(mu, 1) is mu
        assert ic.power(mu, 4).n_signals == 16

    def test_power_triples_kl(self):
        mu = ic.random_experiment(2, 3, seed=12, min_prob=0.05)
        single = ic.kl(mu.probs[0], mu.probs[1])
        cubed = ic.power(mu, 3)
        assert ic.kl(cubed.probs[0], cubed.probs[1]) == pytest.approx(3 * single, abs=1e-10)


class TestDilute:
    def test_halves_kl(self):
        mu = ic.new_experiment(SYM75)
        diluted = ic.dilute(mu, 0.5)
        assert ic.kl(diluted.probs[0], diluted.probs[1]) == pytest.approx(
            0.5 * ic.kl(mu.probs[0], mu.probs[1]), abs=1e-12
        )

    def test_sup_divergence_invariant(self):
        mu = ic.random_experiment(2, 4, seed=3, min_prob=0.02)
        for a in (0.1, 0.5, 0.9):
            diluted = ic.dilute(mu, a)
            assert ic.sup_divergence(diluted.probs[0], diluted.probs[1]) == pytest.approx(
                ic.sup_divergence(mu.probs[0], mu.probs[1]), abs=1e-12
            )

    def test_uninformative_stays_costless(self):
        diluted = ic.dilute(ic.uninformative(2, 3), 0.3)
        for param in ic.default_param_grid(2, 9, seed=1):
            assert ic.unified_divergence(param, diluted) == pytest.approx(0.0, abs=1e-12)


class TestRestrictPair:
    def test_picks_rows(self):
        mu = ic.random_experiment(3, 4, seed=2, min_prob=0.02)
        sub = ic.restrict_pair(mu, 0, 2)
        assert np.array_equal(sub.probs[0], mu.probs[0])
        assert np.array_equal(sub.probs[1], mu.probs[2])

    def test_equal_states_rejected(self):
        mu = ic.random_experiment(3, 4, seed=2, min_prob=0.02)
        with pytest.raises(EqualStates):
            ic.restrict_pair(mu, 1, 1)

    def test_restrict_then_posteriors_marginalizes(self):
        mu = ic.random_experiment(3, 4, seed=21, min_prob=0.05)
        q = np.array([0.2, 0.5, 0.3])
        i, j = 0, 2
        sub = ic.restrict_pair(mu, i, j)
        q2 = np.array([q[i], q[j]]) / (q[i] + q[j])
        direct = ic.posteriors(sub, q2)
        full = ic.posteriors(mu, q)
        pair_mass = full.posteriors[:, i] + full.posteriors[:, j]
        expect_w = full.weights * pair_mass / (q[i] + q[j])
        expect_p = full.posteriors[:, [i, j]] / pair_mass[:, None]
        assert np.allclose(direct.weights, expect_w, atol=1e-12)
        assert np.allclose(direct.posteriors, expect_p, atol=1e-12)


class TestPosteriors:
    def test_uninformative_single_atom(self):
        pd = ic.posteriors(ic.uninformative(2, 3), [0.3, 0.7])
        merged = {tuple(np.round(p, 12)) for p in pd.posteriors}
        assert merged == {(0.3, 0.7)}
        assert pd.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bayes_rule_by_hand(self):
        pd = ic.posteriors(ic.new_experiment(SYM75), [0.5, 0.5])
        assert np.allclose(pd.posteriors, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)
        assert np.allclose(pd.weights, [0.5, 0.5], atol=1e-12)

    def test_prior_validation(self):
        mu = ic.new_experiment(SYM75)
        with pytest.raises(PriorNotFullSupport):
            ic.posteriors(mu, [1.0, 0.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bayes_plausibility(self, seed):
        mu = ic.random_experiment(3, 4, seed=seed, min_prob=0.0)
        rng = np.random.default_rng(seed + 1)
        q = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        q = q / q.sum()
        pd = ic.posteriors(mu, q)
        assert np.max(np.abs(pd.barycenter() - q)) < 1e-10

    def test_round_trip_to_experiment(self):
        mu = ic.random_experiment(2, 4, seed=5, min_prob=0.05)
        pd = ic.posteriors(mu, [0.4, 0.6])
        back = ic.experiment_from_posteriors(pd)
        assert np.allclose(back.probs, mu.probs, atol=1e-12)


class TestRandomExperiment:
    def test_deterministic_in_seed(self):
        a = ic.random_experiment(2, 4, seed=77, min_prob=0.01)
        b = ic.random_experiment(2, 4, seed=77, min_prob=0.01)
        assert np.array_equal(a.probs, b.probs)

    def test_floor_respected(self):
        mu = ic.random_experiment(2, 4, seed=3, min_prob=0.01)
        assert np.all(mu.probs >= 0.01)

    def test_infeasible_floor(self):
        with pytest.raises(InfeasibleFloor):
            ic.random_experiment(2, 4, seed=3, min_prob=0.3)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_rejects_a_seed_that_is_not_a_count(self, seed):
        with pytest.raises(InfoCostError, match="seed must be an integer >= 0"):
            ic.random_experiment(2, 3, seed)

    def test_bulk_validity(self):
        for seed in range(1000):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.02)
            ic.new_experiment(mu.probs)  # must not raise

    def test_stacked_rows_validate_and_renormalize_like_new_experiment(self):
        # the floored draws random_experiment validates and wraps
        draws = [np.random.default_rng(seed).dirichlet(np.ones(5), size=3) for seed in range(7)]
        raw = [0.02 + (1.0 - 0.02 * 5) * d for d in draws]
        stack = normalized_rows(np.stack(raw))
        for one, probs in zip(raw, stack):
            assert np.array_equal(ic.new_experiment(one).probs, probs)
        assert np.array_equal(ic.random_experiment(3, 5, 4, 0.02).probs, stack[4])
        bad = np.stack(raw)
        bad[5, 1, 2] += 1e-6
        with pytest.raises(RowNotStochastic):
            normalized_rows(bad)
        bad[5, 1, 2] = -0.0001
        with pytest.raises(NegativeEntry):
            normalized_rows(bad)
        with pytest.raises(InfeasibleFloor):
            ic.random_experiment(2, 50, 0, 0.02)

    def test_nan_floor_is_infeasible(self):
        with pytest.raises(InfeasibleFloor):
            ic.random_experiment(2, 3, seed=1, min_prob=float("nan"))

    @pytest.mark.parametrize(
        "n_states, n_signals, error",
        [
            (2, 2.0, RowNotStochastic),
            (2, True, RowNotStochastic),
            (2, 0, RowNotStochastic),
            (2.0, 3, TooFewStates),
            (True, 3, TooFewStates),
            (1, 3, TooFewStates),
        ],
    )
    def test_rejects_non_integer_counts(self, n_states, n_signals, error):
        with pytest.raises(error):
            ic.random_experiment(n_states, n_signals, 1)

    @given(st.integers(0, 10_000), st.floats(0.15, 0.8))
    @settings(max_examples=60, deadline=None)
    def test_mixture_rows_stay_stochastic(self, seed, a):
        mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.0)
        nu = ic.random_experiment(2, 4, seed=seed + 1, min_prob=0.0)
        mix = ic.mixture(mu, nu, a)
        prod = ic.product(mu, nu)
        assert np.max(np.abs(mix.probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(prod.probs.sum(axis=1) - 1.0)) < 1e-12


NAN = float("nan")
HALF = ic.InteriorParam([0.5, 0.5])


NAN_CASES = {
    "new_experiment": (lambda: ic.new_experiment([[NAN, 0.5], [0.5, 0.5]]), NegativeEntry),
    "posterior_weights": (
        lambda: ic.posterior_distribution([0.5, 0.5], SYM75, [NAN, 0.5]),
        RowNotStochastic,
    ),
    "posterior_prior": (
        lambda: ic.posterior_distribution([NAN, 0.5], SYM75, [0.5, 0.5]),
        PriorNotFullSupport,
    ),
    "posterior_beliefs": (
        lambda: ic.posterior_distribution([0.5, 0.5], [[NAN, 0.25], [0.25, 0.75]], [0.5, 0.5]),
        RowNotStochastic,
    ),
    "posteriors_prior": (
        lambda: ic.posteriors(ic.new_experiment(SYM75), [NAN, 0.5]),
        PriorNotFullSupport,
    ),
    "ps_cost_prior": (
        lambda: ic.PosteriorSeparableCost([NAN, 0.5], ic.ShannonEntropy()),
        PriorNotFullSupport,
    ),
    "convex_ps_prior": (
        lambda: ic.ConvexPSCost([NAN, 0.5], ic.ShannonEntropy(), ic.IdentityTransform()),
        PriorNotFullSupport,
    ),
    "ri_problem_prior": (
        lambda: ic.RIProblem([NAN, 0.5], [[1.0, 0.0], [0.0, 1.0]]),
        PriorNotFullSupport,
    ),
    "kl_cost_beta": (lambda: ic.KLCost([[0.0, NAN], [1.0, 0.0]]), BadCostSpec),
    "renyi_cost_lam": (lambda: ic.RenyiCost(NAN, HALF), BadCostSpec),
    "renyi_log_lam": (lambda: ic.RenyiLogTransform(NAN, 0.5), BadCostSpec),
    "interior_param": (lambda: ic.InteriorParam([NAN, 0.5]), BadAlpha),
    "weighted_kl_param": (lambda: ic.WeightedKLParam(0, [0.0, NAN]), BadPsi),
    "sup_param": (lambda: ic.SupParam([1.0, NAN]), BadPsi),
    "measure_weight": (lambda: ic.DivergenceMeasure(((NAN, HALF),)), BadPsi),
    "garbling_kernel": (lambda: ic.GarblingKernel([[NAN, 0.5], [0.5, 0.5]]), RowNotStochastic),
    "symmetric_lam": (lambda: ic.SymmetricInstance(8.0, 4.0, NAN, 0.5), DimensionMismatch),
    "diluted_gamma": (
        lambda: ic.diluted_power_divergence(ic.new_experiment(SYM75), 2, NAN, [1.0, -1.0]),
        GammaOutOfRange,
    ),
    "kl_pair": (lambda: ic.kl([NAN, 1.0], [0.5, 0.5]), NotADistribution),
    "renyi_pair": (lambda: ic.renyi(0.5, [NAN, 1.0], [0.5, 0.5]), NotADistribution),
    "sup_divergence_pair": (lambda: ic.sup_divergence([0.5, 0.5], [NAN, 1.0]), NotADistribution),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_constructors_reject_nan(case):
    build, error = NAN_CASES[case]
    with pytest.raises(error):
        build()


SYM75_POSTERIORS = ic.posteriors(ic.new_experiment(SYM75), np.array([0.5, 0.5]))
HALF_ALPHA = [ic.InteriorParam(np.array([0.5, 0.5]))]
COUNT_CASES = {
    "coarsen_fraction": (lambda: ic.coarsen(SYM75_POSTERIORS, 2.5), KTooSmall),
    "coarsen_bool": (lambda: ic.coarsen(SYM75_POSTERIORS, True), KTooSmall),
    "sandwich_fraction": (
        lambda: ic.sandwich_report(ic.new_experiment(SYM75), np.array([0.5, 0.5]), [2.5], HALF_ALPHA),
        KTooSmall,
    ),
    "uninformative_no_signals": (lambda: ic.uninformative(2, 0), RowNotStochastic),
    "uninformative_fractional_signals": (lambda: ic.uninformative(2, 1.5), RowNotStochastic),
    "uninformative_float_states": (lambda: ic.uninformative(2.0), TooFewStates),
    "power_fraction": (lambda: ic.power(ic.new_experiment(SYM75), 2.5), WeightOutOfRange),
    "power_bool": (lambda: ic.power(ic.new_experiment(SYM75), True), WeightOutOfRange),
    "diluted_power_bool": (
        lambda: ic.diluted_power_divergence(ic.new_experiment(SYM75), True, 0.6, [1.0, -1.0]),
        GammaOutOfRange,
    ),
    "diluted_power_fraction": (
        lambda: ic.diluted_power_divergence(ic.new_experiment(SYM75), 2.5, 0.6, [1.0, -1.0]),
        GammaOutOfRange,
    ),
}


@pytest.mark.parametrize("case", COUNT_CASES)
def test_counts_must_be_integers(case):
    build, error = COUNT_CASES[case]
    with pytest.raises(error, match="integer"):
        build()


def test_numpy_integer_counts_are_accepted():
    mu = ic.new_experiment(SYM75)
    assert ic.coarsen(SYM75_POSTERIORS, np.int64(3)).k == 3
    assert ic.power(mu, np.int64(2)).n_signals == 4
    assert ic.uninformative(np.int64(3), np.int64(2)).probs.shape == (3, 2)
