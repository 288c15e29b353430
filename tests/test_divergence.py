"""Divergence family: hand-derived values, limits, and structural properties."""

import math
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost import divergence
from infocost.divergence import _chernoff_objective
from infocost.errors import (
    BadAlpha,
    BadPsi,
    GammaOutOfRange,
    InfoCostError,
    LengthMismatch,
    NotBinary,
    TooFewStates,
    TOutOfRange,
)

SYM75 = ic.new_experiment([[0.75, 0.25], [0.25, 0.75]])

# closed forms derived by direct evaluation of the defining sums
RENYI_HALF_75 = -2.0 * math.log(2.0 * math.sqrt(0.1875))  # = 0.287682...
KL_75 = 0.5 * math.log(3.0)
SUP_75 = math.log(3.0)


class TestPairwise:
    def test_renyi_zero_on_equal(self):
        assert ic.renyi(0.5, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_renyi_hand_value(self):
        assert ic.renyi(0.5, [0.75, 0.25], [0.25, 0.75]) == pytest.approx(RENYI_HALF_75, abs=1e-12)

    def test_renyi_finite_with_revealing_signal(self):
        # single surviving term: sqrt(1 * 0.5)
        assert ic.renyi(0.5, [1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_renyi_disjoint_supports_infinite(self):
        assert ic.renyi(0.5, [1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_renyi_order_validation(self):
        with pytest.raises(TOutOfRange):
            ic.renyi(1.0, [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(LengthMismatch):
            ic.renyi(0.5, [0.5, 0.5], [0.2, 0.3, 0.5])

    def test_kl_values(self):
        assert ic.kl([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert ic.kl([0.75, 0.25], [0.25, 0.75]) == pytest.approx(KL_75, abs=1e-12)
        assert ic.kl([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_sup_values(self):
        assert ic.sup_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert ic.sup_divergence([0.75, 0.25], [0.25, 0.75]) == pytest.approx(SUP_75, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_order_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        p, q = p / p.sum(), q / q.sum()
        r_low = ic.renyi(0.3, p, q)
        r_high = ic.renyi(0.8, p, q)
        d_kl = ic.kl(p, q)
        d_sup = ic.sup_divergence(p, q)
        assert r_low <= r_high + 1e-12
        assert r_high <= d_kl + 1e-12
        assert d_kl <= d_sup + 1e-12


class TestExtendedDivergence:
    def test_zero_on_uninformative(self):
        mu = ic.uninformative(3, 4)
        for _ in range(3):
            for param in ic.default_param_grid(3, 12, seed=2):
                assert ic.unified_divergence(param, mu) == pytest.approx(0.0, abs=1e-12)

    def test_binary_matches_renyi(self):
        for t in (0.5, 0.6, 0.9):
            got = ic.extended_divergence([t, 1.0 - t], SYM75)
            assert got == pytest.approx(ic.renyi(t, SYM75.probs[0], SYM75.probs[1]), abs=1e-12)

    def test_merged_states_collapse_to_binary_sum(self):
        # duplicate rows fold into one exponent, so the inner sums agree
        r = np.array([0.6, 0.4])
        r2 = np.array([0.15, 0.85])
        mu3 = ic.new_experiment([r, r, r2])
        mu2 = ic.new_experiment([r, r2])
        # prefactors differ (1/3 vs 2/3 maxima), so divergences scale accordingly
        d3 = ic.extended_divergence([1 / 3, 1 / 3, 1 / 3], mu3)
        d2 = ic.extended_divergence([2 / 3, 1 / 3], mu2)
        assert d3 * (1 / 3 - 1.0) == pytest.approx(d2 * (2 / 3 - 1.0), abs=1e-12)

    def test_bad_alpha(self):
        with pytest.raises(BadAlpha):
            ic.extended_divergence([1.0, 0.0], SYM75)  # vertex
        with pytest.raises(BadAlpha):
            ic.extended_divergence([0.7, 0.2], SYM75)  # does not sum to one
        with pytest.raises(BadAlpha):
            ic.extended_divergence([0.5, 0.6, -0.1], ic.uninformative(3, 2))  # negative, max < 1


class TestUnified:
    def test_weighted_kl_single_term(self):
        param = ic.WeightedKLParam(0, np.array([0.0, 1.0]))
        assert ic.unified_divergence(param, SYM75) == pytest.approx(KL_75, abs=1e-12)

    def test_interior_equals_renyi(self):
        param = ic.InteriorParam(np.array([0.5, 0.5]))
        assert ic.unified_divergence(param, SYM75) == pytest.approx(RENYI_HALF_75, abs=1e-12)

    def test_sup_param(self):
        param = ic.SupParam(np.array([1.0, -1.0]))
        assert ic.unified_divergence(param, SYM75) == pytest.approx(SUP_75, abs=1e-12)

    def test_sup_param_validation(self):
        with pytest.raises(BadPsi):
            ic.SupParam(np.array([1.0, 1.0, -2.0]))  # two coordinates at 1
        with pytest.raises(BadPsi):
            ic.SupParam(np.array([1.0, -0.5]))  # does not sum to zero
        with pytest.raises(BadPsi):
            ic.SupParam(np.array([1.0, 0.5, -1.5]))  # positive off coordinate

    def test_param_json_round_trip(self):
        for param in ic.default_param_grid(3, 12, seed=0):
            again = ic.param_from_json(ic.param_to_json(param))
            assert type(again) is type(param)
            assert ic.unified_divergence(again, ic.random_experiment(3, 3, 4, 0.05)) == (
                ic.unified_divergence(param, ic.random_experiment(3, 3, 4, 0.05))
            )

    def test_param_json_golden_text(self):
        params = [
            ic.InteriorParam(np.array([0.25, 0.75])),
            ic.WeightedKLParam(1, np.array([1.0, 0.0])),
            ic.SupParam(np.array([1.0, -1.0])),
        ] + ic.default_param_grid(3, 6, seed=0)
        assert [ic.param_to_json(p) for p in params] == [
            '{"kind": "interior", "alpha": [0.25, 0.75]}',
            '{"kind": "kl", "pivot": 1, "beta": [1.0, 0.0]}',
            '{"kind": "sup", "psi": [1.0, -1.0]}',
            '{"kind": "interior", "alpha": [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]}',
            '{"kind": "interior", "alpha": [0.39546198954297845, 0.5930180594914135, 0.011519950965607977]}',
            '{"kind": "kl", "pivot": 2, "beta": [0.0041065446691540605, 0.9958934553308461, 0.0]}',
            '{"kind": "sup", "psi": [-0.7075857981849016, 1.0, -0.2924142018150983]}',
            '{"kind": "interior", "alpha": [0.07843342413702581, 0.29250598732691274, 0.6290605885360614]}',
            '{"kind": "kl", "pivot": 2, "beta": [0.9996083146075878, 0.0003916853924121879, 0.0]}',
        ]

    def test_param_json_unknown_kind(self):
        with pytest.raises(BadPsi):
            ic.param_from_json('{"kind": "shannon"}')
        with pytest.raises(BadPsi):
            ic.param_to_json(ic.DivergenceMeasure(((1.0, ic.SupParam(np.array([1.0, -1.0]))),)))

    @pytest.mark.parametrize("pivot", [1.9, 1.0, True, "1", None])
    def test_pivot_must_be_an_integer(self, pivot):
        # a pivot is never truncated: 1.9 does not read as 1
        with pytest.raises(BadPsi):
            ic.WeightedKLParam(pivot, np.array([1.0, 0.0]))
        with pytest.raises(BadPsi):
            ic.param_from_json({"kind": "kl", "pivot": pivot, "beta": [1, 0]})

    def test_numpy_integer_pivot(self):
        param = ic.WeightedKLParam(np.int64(1), np.array([1.0, 0.0]))
        assert ic.unified_divergence(param, SYM75) == pytest.approx(KL_75, abs=1e-12)
        assert ic.param_to_json(param) == '{"kind": "kl", "pivot": 1, "beta": [1.0, 0.0]}'


def as_cost(param):
    """The divergence as a one-atom cost, where the cost families admit it."""
    return ic.MaxRenyiCost((ic.DivergenceMeasure(((1.0, param),)),))


class TestZeroConventions:
    """Hand-computed points where a zero entry decides the value; the divergence
    and the stack cost evaluator must agree on the same matrix."""

    def check(self, param, rows, expected):
        mu = ic.new_experiment(rows)
        got = ic.unified_divergence(param, mu)
        assert got == (math.inf if math.isinf(expected) else pytest.approx(expected, abs=1e-15))
        if isinstance(param, ic.InteriorParam) and not param.is_nonnegative():
            return  # exponents above 1 define divergences, not costs
        specs = [as_cost(param)]
        if isinstance(param, ic.InteriorParam):
            specs.append(ic.RenyiCost(1.0, param))
        for spec in specs:
            assert ic.eval_costs(spec, mu.probs[None])[0] == got

    def test_zero_exponent_reads_zero_entries_as_one(self):
        # 0 ** 0 = 1: the third state's zero drops out with its exponent
        alpha = ic.InteriorParam(np.array([0.6, 0.4, 0.0]))
        rows = [[0.75, 0.25], [0.25, 0.75], [1.0, 0.0]]
        total = 0.75**0.6 * 0.25**0.4 + 0.25**0.6 * 0.75**0.4
        self.check(alpha, rows, math.log(total) / (0.6 - 1.0))

    def test_zero_under_positive_exponent_drops_its_signal(self):
        # the third signal never occurs in state 0: sum = 2 sqrt(1/8)
        alpha = ic.InteriorParam(np.array([0.5, 0.5]))
        self.check(alpha, [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]], math.log(2.0))

    def test_positive_zero_beats_negative_zero(self):
        # alpha = (2, -1): the shared zero signal adds 0 ** 2 * 0 ** -1 = 0, not +inf
        alpha = ic.InteriorParam(np.array([2.0, -1.0]))
        self.check(alpha, [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]], math.log(4.0 / 3.0))
        # the sup branch: the designated state's zero beats the other's
        psi = ic.SupParam(np.array([1.0, -1.0, 0.0]))
        rows = [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.2, 0.3, 0.5]]
        self.check(psi, rows, math.log(2.0))

    def test_negative_zero_alone_is_infinite(self):
        rows = [[0.5, 0.5], [1.0, 0.0]]
        self.check(ic.InteriorParam(np.array([2.0, -1.0])), rows, math.inf)
        self.check(ic.SupParam(np.array([1.0, -1.0])), rows, math.inf)
        self.check(ic.WeightedKLParam(0, np.array([0.0, 1.0])), rows, math.inf)

    def test_disjoint_supports_are_infinite(self):
        rows = [[1.0, 0.0], [0.0, 1.0]]
        self.check(ic.InteriorParam(np.array([0.5, 0.5])), rows, math.inf)
        self.check(ic.InteriorParam(np.array([0.9, 0.1])), rows, math.inf)

    def test_sup_ignores_signals_that_never_occur(self):
        psi = ic.SupParam(np.array([1.0, -1.0]))
        self.check(psi, [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]], math.log(2.0))
        self.check(psi, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], 0.0)

    @pytest.mark.parametrize("eps", [1.5e-316, 1e-308])
    def test_subnormal_entry_under_the_largest_exponent(self, eps):
        # p_i / p_k would overflow where p_k = eps is subnormal
        alpha = ic.InteriorParam(np.array([0.7, 0.3]))
        mu = ic.new_experiment([[1.0 - eps, eps], [0.0, 1.0]])
        expected = -7.0 / 3.0 * math.log(eps)  # the sum is eps ** 0.7
        assert ic.unified_divergence(alpha, mu) == pytest.approx(expected, rel=1e-13)
        assert ic.eval_costs(ic.RenyiCost(1.0, alpha), mu.probs[None])[0] == pytest.approx(expected, rel=1e-13)
        # the sup branch: signal 1 occurs in state 0 and never in state 2
        psi = ic.SupParam(np.array([1.0, -0.5, -0.5]))
        self.check(psi, [[1.0 - eps, eps], [0.5, 0.5], [1.0, 0.0]], math.inf)

    def test_zero_kl_weight_never_makes_nan(self):
        # KL(row 0 || row 2) is +inf, but its weight is zero
        rows = [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]
        wkl = ic.WeightedKLParam(0, np.array([0.0, 1.0, 0.0]))
        self.check(wkl, rows, 0.5 * math.log(4.0 / 3.0))
        mixed = ic.DivergenceMeasure(((1.0, wkl), (0.0, ic.SupParam(np.array([1.0, 0.0, -1.0])))))
        spec = ic.MaxRenyiCost((mixed,))
        assert ic.eval_costs(spec, np.array([rows])) == pytest.approx([0.5 * math.log(4.0 / 3.0)], abs=1e-15)


def exponents_near_vertex(rng, n, gap):
    """alpha with max(alpha) = 1 - gap (gap > 0) or 1 + |gap| (gap < 0) at a random state."""
    k = int(rng.integers(n))
    alpha = np.zeros(n)
    alpha[np.arange(n) != k] = gap * rng.dirichlet(np.ones(n - 1))
    alpha[k] = 1.0 - alpha.sum()
    return alpha


def mp_divergence(alpha, probs):
    """log(sum_s prod_i p_i(s) ** alpha_i) / (max(alpha) - 1) at 60 digits, on the
    normalized rows and with the largest exponent set to 1 minus the others."""
    k = int(np.argmax(alpha))
    with mpmath.workdps(60):
        rows = [[mpmath.mpf(x) for x in row] for row in probs.tolist()]
        rows = [[x / mpmath.fsum(row) for x in row] for row in rows]
        a = [mpmath.mpf(x) for x in alpha.tolist()]
        a[k] = 1 - mpmath.fsum(a[:k] + a[k + 1 :])
        total = mpmath.fsum(
            mpmath.fprod(row[s] ** ai for row, ai in zip(rows, a)) for s in range(len(rows[0]))
        )
        return float(mpmath.log(total) / (a[k] - 1))


class TestAccuracyNearTheVertices:
    """The Rényi forms keep full relative accuracy as max(alpha) approaches 1."""

    GAPS = (1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_high_precision(self, n):
        rng = np.random.default_rng(n)
        mus = [ic.random_experiment(n, 3 + seed % 6, seed=seed, min_prob=0.02) for seed in range(6)]
        for gap in self.GAPS:
            for sign in (1.0, -1.0):
                param = ic.InteriorParam(exponents_near_vertex(rng, n, sign * gap))
                for mu in mus:
                    ref = mp_divergence(param.alpha, mu.probs)
                    got = ic.unified_divergence(param, mu)
                    assert abs(got - ref) <= 1e-13 * abs(ref), (gap, sign, got, ref)
                    if sign > 0:  # exponents above 1 define divergences, not costs
                        cost = ic.eval_costs(ic.RenyiCost(1.0, param), mu.probs[None])[0]
                        assert abs(cost - ref) <= 1e-13 * abs(ref), (gap, cost, ref)

    def test_keeps_small_sums_when_nearly_revealing(self):
        # the sum of products is about 2 sqrt(eps): far below the rounding of 1 - sum
        for eps in (1e-8, 1e-20, 1e-40):
            mu = ic.new_experiment([[1.0 - eps, eps, 0.0], [eps, 1.0 - eps - 1e-3, 1e-3], [0.5, 0.25, 0.25]])
            for alpha in ([0.5, 0.5, 0.0], [0.45, 0.45, 0.1], [0.9, 0.05, 0.05]):
                param = ic.InteriorParam(np.array(alpha))
                ref = mp_divergence(param.alpha, mu.probs)
                got = ic.unified_divergence(param, mu)
                cost = ic.eval_costs(ic.RenyiCost(1.0, param), mu.probs[None])[0]
                assert abs(got - ref) <= 1e-13 * ref and cost == got, (eps, alpha, got, ref)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exactly_zero_when_uninformative(self, n):
        rng = np.random.default_rng(n)
        flat = ic.uninformative(n, 13)
        for gap in self.GAPS:
            param = ic.InteriorParam(exponents_near_vertex(rng, n, gap))
            assert ic.unified_divergence(param, flat) == 0.0
            assert ic.eval_costs(ic.RenyiCost(1.0, param), flat.probs[None])[0] == 0.0
            above = ic.InteriorParam(exponents_near_vertex(rng, n, -gap))
            assert ic.unified_divergence(above, flat) == 0.0


class TestAdditivityAndMonotonicity:
    def test_additivity_over_product(self):
        for seed in range(20):
            mu = ic.random_experiment(3, 3, seed=seed, min_prob=0.05)
            nu = ic.random_experiment(3, 4, seed=seed + 100, min_prob=0.05)
            both = ic.product(mu, nu)
            for param in ic.default_param_grid(3, 9, seed=7):
                total = ic.unified_divergence(param, both)
                parts = ic.unified_divergence(param, mu) + ic.unified_divergence(param, nu)
                assert total == pytest.approx(parts, abs=1e-9)

    def test_blackwell_monotone_under_garbling(self):
        for seed in range(10):
            mu = ic.random_experiment(2, 4, seed=seed, min_prob=0.05)
            nu = ic.garble(mu, ic.random_kernel(4, 3, seed=seed + 5))
            for param in ic.default_param_grid(2, 9, seed=3):
                assert ic.unified_divergence(param, mu) >= ic.unified_divergence(param, nu) - 1e-9

    def test_interior_mixture_convex_weighted_kl_linear(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.05)
            nu = ic.random_experiment(2, 3, seed=seed + 50, min_prob=0.05)
            a = float(rng.uniform(0.2, 0.8))
            mix = ic.mixture(mu, nu, a)
            interior = ic.InteriorParam(np.array([0.5, 0.5]))
            lhs = ic.unified_divergence(interior, mix)
            rhs = a * ic.unified_divergence(interior, mu) + (1 - a) * ic.unified_divergence(interior, nu)
            assert lhs <= rhs + 1e-9
            wkl = ic.WeightedKLParam(0, np.array([0.0, 1.0]))
            lhs = ic.unified_divergence(wkl, mix)
            rhs = a * ic.unified_divergence(wkl, mu) + (1 - a) * ic.unified_divergence(wkl, nu)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_nonnegative_on_grid(self):
        for seed in range(10):
            mu = ic.random_experiment(3, 3, seed=seed, min_prob=0.02)
            for param in ic.default_param_grid(3, 12, seed=5):
                assert ic.unified_divergence(param, mu) >= -1e-12

    def test_parameter_continuity(self):
        mu = ic.random_experiment(2, 3, seed=9, min_prob=0.05)
        base = np.array([0.6, 0.4])
        d0 = ic.extended_divergence(base, mu)
        for eps in (1e-4, 1e-5):
            shifted = base + np.array([eps, -eps])
            d1 = ic.extended_divergence(shifted, mu)
            assert abs(d1 - d0) < 50.0 * eps  # empirical Lipschitz envelope


class TestGeneralized:
    def test_gamma_one_is_weighted_kl(self):
        mu = ic.random_experiment(2, 3, seed=4, min_prob=0.05)
        psi = np.array([1.0, -1.0])
        assert ic.generalized_divergence(1.0, psi, mu) == pytest.approx(
            ic.kl(mu.probs[0], mu.probs[1]), abs=1e-12
        )

    def test_gamma_limit_onto_kl(self):
        for seed in range(5):
            mu = ic.random_experiment(3, 3, seed=seed, min_prob=0.05)
            psi = np.array([1.0, -0.4, -0.6])
            at_one = ic.generalized_divergence(1.0, psi, mu)
            for gamma in (1.0 - 1e-5, 1.0 + 1e-5):
                assert abs(ic.generalized_divergence(gamma, psi, mu) - at_one) <= 1e-3

    def test_gamma_two_dominates_kl(self):
        for seed in range(10):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.05)
            psi = np.array([1.0, -1.0])
            assert ic.generalized_divergence(2.0, psi, mu) >= ic.kl(mu.probs[0], mu.probs[1]) - 1e-12

    def test_gamma_infinite_is_sup(self):
        mu = ic.random_experiment(2, 4, seed=6, min_prob=0.05)
        psi = np.array([1.0, -1.0])
        assert ic.generalized_divergence(math.inf, psi, mu) == pytest.approx(
            ic.sup_divergence(mu.probs[0], mu.probs[1]), abs=1e-12
        )

    def test_gamma_out_of_range(self):
        with pytest.raises(GammaOutOfRange):
            ic.generalized_divergence(0.2, np.array([1.0, -1.0]), SYM75)


class TestDilutedPower:
    def test_k1_matches_plain(self):
        mu = ic.random_experiment(2, 3, seed=13, min_prob=0.05)
        psi = np.array([1.0, -1.0])
        for gamma in (0.5, 0.7, 2.0):
            assert ic.diluted_power_divergence(mu, 1, gamma, psi) == pytest.approx(
                ic.generalized_divergence(gamma, psi, mu), abs=1e-12
            )

    def test_matches_constructed_experiment(self):
        mu = ic.random_experiment(2, 2, seed=14, min_prob=0.1)
        psi = np.array([1.0, -1.0])
        for k in range(2, 6):
            built = ic.dilute(ic.power(mu, k), 1.0 / k)
            for gamma in (0.6, 1.5):
                assert ic.diluted_power_divergence(mu, k, gamma, psi) == pytest.approx(
                    ic.generalized_divergence(gamma, psi, built), abs=1e-10
                )

    def test_limit_directions(self):
        mu = ic.random_experiment(2, 2, seed=15, min_prob=0.1)
        psi = np.array([1.0, -1.0])
        low = [ic.diluted_power_divergence(mu, k, 0.6, psi) for k in (1, 4, 16, 64)]
        high = [ic.diluted_power_divergence(mu, k, 2.0, psi) for k in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(low, low[1:])) and low[-1] < 0.05
        assert all(a < b for a, b in zip(high, high[1:])) and high[-1] > high[0]

    def test_large_powers_stay_finite(self):
        # S = 0.75**2 / 0.25 + 0.25**2 / 0.75 = 7/3; S**900 overflows a float, and
        # log(1 + (S**k - 1) / k) = k log S - log k up to a term below 1e-300
        value = ic.diluted_power_divergence(SYM75, 900, 2.0, np.array([1.0, -1.0]))
        assert value == pytest.approx(900 * math.log(7.0 / 3.0) - math.log(900), rel=1e-12)

    def test_k_must_be_a_positive_integer(self):
        psi = [1.0, -1.0]
        for k in (2.5, 2.0, 0, -1, np.float64(3.0)):
            with pytest.raises(GammaOutOfRange):
                ic.diluted_power_divergence(SYM75, k, 0.6, psi)
        assert ic.diluted_power_divergence(SYM75, np.int64(3), 0.6, psi) == (
            ic.diluted_power_divergence(SYM75, 3, 0.6, psi)
        )


class TestChernoffAndPrivacy:
    def test_uninformative_zero(self):
        assert ic.chernoff_information(ic.uninformative(2, 3)) == pytest.approx(0.0, abs=1e-12)
        assert ic.privacy_loss(ic.uninformative(2, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_hand_value(self):
        # symmetry puts the optimum at the midpoint order, where the value is
        # half the order-1/2 divergence
        assert ic.chernoff_information(SYM75) == pytest.approx(0.5 * RENYI_HALF_75, abs=1e-9)

    def test_bounded_by_both_kl_directions(self):
        # zero entries included, where the value must not depend on which state is row 0
        rng = np.random.default_rng(5)
        zeroed = []
        while len(zeroed) < 60:
            m = rng.dirichlet(np.ones(4), size=2) * (rng.random((2, 4)) > 0.3)
            if m.sum(axis=1).all():
                zeroed.append(ic.new_experiment(m / m.sum(axis=1, keepdims=True)))
        randoms = [ic.random_experiment(2, 3, seed=seed, min_prob=0.02) for seed in range(100)]
        for mu in randoms + zeroed:
            bound = min(ic.kl(mu.probs[0], mu.probs[1]), ic.kl(mu.probs[1], mu.probs[0]))
            value = ic.chernoff_information(mu)
            assert value <= bound + 1e-9
            swapped = ic.new_experiment(mu.probs[::-1])
            assert ic.chernoff_information(swapped) == pytest.approx(value, rel=1e-8, abs=1e-8)

    def test_zero_entry_hand_value(self):
        # sum_s mu_0^t mu_1^(1-t) is 2^(t-1) for t in (0, 1] and +inf for t < 0,
        # so the supremum log 2 is approached as t -> 0+ (the swap mirrors it at 1)
        for rows in ([[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]):
            assert ic.chernoff_information(ic.new_experiment(rows)) == pytest.approx(
                math.log(2.0), abs=1e-9
            )

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.75, 0.25], [0.25, 0.75]],
            [[0.5, 0.5], [0.5, 0.5]],
            [[1.0, 0.0], [0.5, 0.5]],
            [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
            [[0.1, 0.2, 0.7], [0.6, 0.3, 0.1]],
        ],
    )
    def test_one_golden_search_without_a_grid(self, rows, monkeypatch):
        # a golden-section search over [0, 1] to 1e-12 makes 61 objective calls
        calls = []

        def counting(mu, t):
            calls.append(t)
            return _chernoff_objective(mu, t)

        monkeypatch.setattr(divergence, "_chernoff_objective", counting)
        ic.chernoff_information(ic.new_experiment(rows))
        assert len(calls) <= 64 and all(0.0 <= t <= 1.0 for t in calls)

    def test_privacy_values(self):
        assert ic.privacy_loss(SYM75) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_privacy_dilution_invariant(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.02)
            a = float(rng.uniform(0.05, 0.95))
            assert ic.privacy_loss(ic.dilute(mu, a)) == pytest.approx(
                ic.privacy_loss(mu), abs=1e-12
            )

    def test_not_binary(self):
        with pytest.raises(NotBinary):
            ic.chernoff_information(ic.uninformative(3, 2))
        with pytest.raises(NotBinary):
            ic.privacy_loss(ic.uninformative(3, 2))


class TestPosteriorForm:
    def test_agrees_with_experiment_form(self):
        # the experiment a posterior distribution induces carries the same divergences
        for seed in range(10):
            mu = ic.random_experiment(3, 4, seed=seed, min_prob=0.05)
            for q in ([1 / 3, 1 / 3, 1 / 3], [0.2, 0.5, 0.3]):
                induced = ic.experiment_from_posteriors(ic.posteriors(mu, q))
                for param in ic.default_param_grid(3, 9, seed=8):
                    assert ic.unified_divergence(param, induced) == pytest.approx(
                        ic.unified_divergence(param, mu), abs=1e-10
                    )


@pytest.mark.parametrize("weight", ["0.5", True, None, [0.5]])
def test_measure_rejects_non_numeric_weights(weight):
    # a weight is used as written: a string or a bool is not coerced by float()
    with pytest.raises(TypeError, match="real numbers"):
        ic.DivergenceMeasure(((weight, ic.InteriorParam(np.array([0.5, 0.5]))),))


def test_measure_accepts_numpy_and_integer_weights():
    half = ic.InteriorParam(np.array([0.5, 0.5]))
    measure = ic.DivergenceMeasure(((np.float64(0.25), half), (1, half), (np.int64(2), half)))
    assert [w for w, _ in measure.atoms] == [0.25, 1.0, 2.0]


SUBNORMALS = (5e-324, 1.5e-316, 1e-310, 2e-308)


MODES = ("plain", "zeros", "subnormal", "sharp")


def _stack(rng, b, n, s, mode):
    """probs[b, n, s] with rows summing to 1, in one of ``MODES``: plain, with
    zero entries, with subnormal entries (which the pivot row of some
    parameters then holds), or nearly disjoint, where an interior sum of
    products falls below 0.01."""
    if mode == "sharp":
        tiny = 10.0 ** rng.uniform(-14, -3, size=(b, n, 1))
        probs = np.broadcast_to(tiny, (b, n, s)).copy()
        for i in range(n):
            probs[:, i, (i + rng.integers(s)) % s] = 0.0
            probs[:, i] += (1.0 - probs[:, i].sum(axis=-1, keepdims=True)) * (probs[:, i] == 0.0)
        return probs
    probs = rng.dirichlet(np.ones(s), size=(b, n))
    if mode == "zeros":
        probs[rng.random((b, n, s)) < 0.3] = 0.0
    elif mode == "subnormal":
        hit = rng.random((b, n, s)) < 0.3
        probs[hit] = rng.choice(SUBNORMALS, size=int(hit.sum()))
    empty = probs.sum(axis=-1) == 0.0
    probs[empty, 0] = 1.0
    return probs / probs.sum(axis=-1, keepdims=True)


@st.composite
def kernel_stacks(draw, n):
    """probs[B, n, s] in one of ``MODES``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, s = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return _stack(rng, b, n, s, draw(st.sampled_from(MODES)))


@st.composite
def ragged_stacks(draw, n):
    """A ragged stack: one to nine matrices of 1 to 70 signals side by side,
    each in its own one of ``MODES``, as probs[B, n, S] and the bounds of the
    matrices along the signal axis.  Matrices of one to three signals come
    often, and a stack of two or more holds a 1-signal matrix, the narrowest
    segment a sum or maximum over signals can take."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.integers(1, 2))
    sizes = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 70)), min_size=1, max_size=9))
    if len(sizes) > 1:
        sizes[draw(st.integers(0, len(sizes) - 1))] = 1
    modes = draw(st.lists(st.sampled_from(MODES), min_size=len(sizes), max_size=len(sizes)))
    matrices = [_stack(rng, b, n, s, mode) for s, mode in zip(sizes, modes)]
    return np.concatenate(matrices, axis=-1), tuple(accumulate(sizes, initial=0))


def _simplex(rng, n, zeros):
    """A point of the simplex in R^n, with some entries zeroed when ``zeros``."""
    x = rng.dirichlet(np.ones(n))
    if zeros and n > 1:
        x[rng.random(n) < 0.4] = 0.0
        if not x.any():
            x[rng.integers(n)] = 1.0
    return x / x.sum()


@st.composite
def param_grids(draw, n):
    """A mixed grid of the three branches: interior exponents nonnegative (some
    zero, some tied for the largest) or above 1 (some zero beside it),
    weighted-KL and sup parameters with zero weights, and repeats of earlier
    parameters, as the same object or an equal copy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["interior", "interior_zeros", "uniform", "above", "kl", "sup", "repeat", "copy"]
    params = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        k = int(rng.integers(n))
        rest = np.arange(n) != k
        if kind in ("repeat", "copy") and params:
            earlier = params[int(rng.integers(len(params)))]
            params.append(earlier if kind == "repeat" else divergence.param_from_json(divergence.param_to_json(earlier)))
        elif kind == "uniform":
            params.append(ic.InteriorParam(np.full(n, 1.0 / n)))
        elif kind == "above":
            alpha = np.zeros(n)
            alpha[rest] = -rng.uniform(0.05, 2.0) * _simplex(rng, n - 1, zeros=True)
            alpha[k] = 1.0 - alpha.sum()
            params.append(ic.InteriorParam(alpha))
        elif kind == "kl":
            beta = np.zeros(n)
            beta[rest] = _simplex(rng, n - 1, zeros=True)
            params.append(ic.WeightedKLParam(k, beta))
        elif kind == "sup":
            psi = np.zeros(n)
            psi[rest] = -_simplex(rng, n - 1, zeros=True)
            psi[k] = 1.0
            params.append(ic.SupParam(psi))
        else:
            alpha = _simplex(rng, n, zeros=kind == "interior_zeros")
            if alpha.max() < 1.0 - 1e-9:
                params.append(ic.InteriorParam(alpha))
    return params


class TestGridKernel:
    """``_divergences(params, probs)`` prices each parameter and matrix as if alone."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_its_parameter_alone(self, data):
        n = data.draw(st.one_of(st.integers(2, 5), st.integers(6, 12)), label="n")
        probs = data.draw(kernel_stacks(n), label="probs")
        params = data.draw(param_grids(n), label="params")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grid = divergence._divergences(divergence._Plan(params), probs)
            assert grid.shape == (len(params), probs.shape[0])
            for row, param in zip(grid, params):
                assert row.tobytes() == divergence._divergences(divergence._Plan([param]), probs)[0].tobytes()
                for value, matrix in zip(row.tolist(), probs):
                    assert repr(value) == repr(ic.unified_divergence(param, ic.FiniteExperiment(matrix)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_ragged_stack_prices_each_matrix_alone(self, data):
        n = data.draw(st.one_of(st.integers(2, 4), st.integers(5, 12)), label="n")
        probs, bounds = data.draw(ragged_stacks(n), label="stack")
        params = data.draw(param_grids(n), label="params")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ragged = divergence._divergences(divergence._Plan(params), probs, bounds)
            assert ragged.shape == (len(params), probs.shape[0], len(bounds) - 1)
            for m, (a, b) in enumerate(zip(bounds, bounds[1:])):
                alone = divergence._divergences(divergence._Plan(params), probs[..., a:b].copy())
                assert ragged[..., m].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_kl_parameters_of_many_pairs_are_each_alone(self, seed):
        # parameters of as many pairs (here two of 11 and two of 3) are summed
        # as one array, and their rows put back in the order given; from 8
        # pairs on NumPy sums pairwise, so counts above 8 are checked too
        rng = np.random.default_rng(seed)
        n = 12
        params = []
        for count in (1, 3, 8, 9, 11, 11, 3):
            pivot = int(rng.integers(n))
            beta = np.zeros(n)
            beta[rng.choice([j for j in range(n) if j != pivot], count, replace=False)] = rng.dirichlet(np.ones(count))
            params.append(ic.WeightedKLParam(pivot, beta / beta.sum()))
        probs = rng.dirichlet(np.ones(5), size=(3, n))
        probs[0, 1, 2] = 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grid = divergence._divergences(divergence._Plan(params), probs)
            for row, param in zip(grid, params):
                assert row.tobytes() == divergence._divergences(divergence._Plan([param]), probs)[0].tobytes()

    @pytest.mark.parametrize("b", [1, 4])
    def test_empty_grid(self, b):
        assert divergence._divergences(divergence._Plan([]), np.full((b, 3, 2), 0.5)).shape == (0, b)

    def test_unknown_parameter(self):
        with pytest.raises(BadPsi):
            divergence._Plan([ic.InteriorParam(np.array([0.5, 0.5])), "kl"])


@pytest.mark.parametrize(
    "args, error",
    [
        ((1, 4), TooFewStates),
        ((2.0, 4), TooFewStates),
        ((2, 0), InfoCostError),
        ((2, -1), InfoCostError),
        ((2, 2.5), InfoCostError),
        ((2, 4, -1), InfoCostError),
        ((2, 4, 1.5), InfoCostError),
    ],
)
def test_default_param_grid_checks_its_counts(args, error):
    # a domain error, not an empty grid (which makes an empty sandwich
    # report) or a bare TypeError or NumPy ValueError
    with pytest.raises(InfoCostError) as caught:
        ic.default_param_grid(*args)
    assert caught.type is error
