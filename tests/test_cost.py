"""Cost families: evaluation, potential/transform identities, convexity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost.errors import (
    BadCostSpec,
    DimensionMismatch,
    NoSecondDerivative,
    NotADistribution,
    TransformDomain,
)

SYM75 = ic.new_experiment([[0.75, 0.25], [0.25, 0.75]])
KL_75 = 0.5 * math.log(3.0)
RENYI_HALF_75 = -2.0 * math.log(2.0 * math.sqrt(0.1875))


def kl_spec(b01=1.0, b10=1.0):
    return ic.KLCost(np.array([[0.0, b01], [b10, 0.0]]))


def wkl_measure(pivot, beta):
    return ic.DivergenceMeasure(((1.0, ic.WeightedKLParam(pivot, np.asarray(beta, float))),))


class TestEvalCost:
    def test_uninformative_is_free(self):
        mu = ic.uninformative(2, 3)
        specs = [
            kl_spec(),
            ic.MaxKLCost((np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))),
            ic.RenyiCost(2.0, ic.InteriorParam(np.array([0.5, 0.5]))),
            ic.MaxRenyiCost((wkl_measure(0, [0.0, 1.0]), wkl_measure(1, [1.0, 0.0]))),
            ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy()),
            ic.ConvexPSCost(
                np.array([0.5, 0.5]),
                ic.RenyiPotential(np.array([0.5, 0.5])),
                ic.RenyiLogTransform(1.0, 0.5),
            ),
        ]
        for spec in specs:
            assert ic.eval_cost(spec, mu) == pytest.approx(0.0, abs=1e-12)

    def test_kl_hand_sum(self):
        assert ic.eval_cost(kl_spec(), SYM75) == pytest.approx(2.0 * KL_75, abs=1e-12)

    def test_max_renyi_picks_larger_direction(self):
        mu = ic.new_experiment([[0.9, 0.1], [0.5, 0.5]])
        spec = ic.MaxRenyiCost((wkl_measure(0, [0.0, 1.0]), wkl_measure(1, [1.0, 0.0])))
        kl01 = ic.kl(mu.probs[0], mu.probs[1])
        kl10 = ic.kl(mu.probs[1], mu.probs[0])
        assert ic.eval_cost(spec, mu) == pytest.approx(max(kl01, kl10), abs=1e-12)

    def test_kl_equals_single_weighted_measure(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.02)
            b01, b10 = rng.uniform(0.2, 2.0, size=2)
            spec_kl = kl_spec(b01, b10)
            measure = ic.DivergenceMeasure(
                (
                    (b01, ic.WeightedKLParam(0, np.array([0.0, 1.0]))),
                    (b10, ic.WeightedKLParam(1, np.array([1.0, 0.0]))),
                )
            )
            spec_max = ic.MaxRenyiCost((measure,))
            assert ic.eval_cost(spec_kl, mu) == pytest.approx(
                ic.eval_cost(spec_max, mu), abs=1e-12
            )

    def test_power_homogeneity(self):
        spec = ic.MaxRenyiCost(
            (
                ic.DivergenceMeasure(
                    (
                        (0.7, ic.InteriorParam(np.array([0.5, 0.5]))),
                        (0.3, ic.WeightedKLParam(0, np.array([0.0, 1.0]))),
                    )
                ),
                wkl_measure(1, [1.0, 0.0]),
            )
        )
        for seed in range(10):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.05)
            c1 = ic.eval_cost(spec, mu)
            for k in (2, 3):
                ck = ic.eval_cost(spec, ic.power(mu, k))
                assert ck == pytest.approx(k * c1, rel=1e-9, abs=1e-9)

    def test_interior_strictly_mixture_convex(self):
        mu = SYM75
        nu = ic.new_experiment([[0.6, 0.4], [0.4, 0.6]])
        spec = ic.RenyiCost(1.0, ic.InteriorParam(np.array([0.5, 0.5])))
        mixed = ic.eval_cost(spec, ic.mixture(mu, nu, 0.5))
        avg = 0.5 * ic.eval_cost(spec, mu) + 0.5 * ic.eval_cost(spec, nu)
        assert mixed < avg - 1e-6  # strict gap
        lin = ic.eval_cost(kl_spec(), ic.mixture(mu, nu, 0.5))
        lin_avg = 0.5 * ic.eval_cost(kl_spec(), mu) + 0.5 * ic.eval_cost(kl_spec(), nu)
        assert lin == pytest.approx(lin_avg, abs=1e-9)

    def test_infinite_cost_propagates(self):
        revealing = ic.new_experiment([[1.0, 0.0], [0.0, 1.0]])
        assert ic.eval_cost(kl_spec(), revealing) == math.inf
        assert ic.eval_cost(
            ic.MaxRenyiCost((wkl_measure(0, [0.0, 1.0]),)), revealing
        ) == math.inf
        # interior exponents stay finite on partially revealing experiments
        spec = ic.RenyiCost(1.0, ic.InteriorParam(np.array([0.5, 0.5])))
        partial = ic.new_experiment([[1.0, 0.0], [0.5, 0.5]])
        assert ic.eval_cost(spec, partial) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ic.eval_cost(kl_spec(), ic.uninformative(3, 2))
        with pytest.raises(DimensionMismatch):
            ic.eval_costs(kl_spec(), np.full((1, 3, 2), 0.5))

    def test_cost_rejects_exponents_above_one(self):
        with pytest.raises(BadCostSpec):
            ic.RenyiCost(1.0, ic.InteriorParam(np.array([2.0, -1.0])))
        with pytest.raises(BadCostSpec):
            ic.MaxRenyiCost(
                (ic.DivergenceMeasure(((1.0, ic.InteriorParam(np.array([2.0, -1.0]))),)),)
            )


def batched_specs(rng, n):
    """One specification per family that eval_costs evaluates in one pass."""
    prior = 0.2 / n + 0.8 * rng.dirichlet(np.ones(n))
    betas = rng.uniform(0.1, 1.0, size=(2, n, n)) * (1.0 - np.eye(n))
    betas[1, 0, 1] = 0.0
    alphas = rng.dirichlet(np.ones(n), size=2)
    if n > 2:
        alphas[1, 0] = 0.0  # a zero exponent drops its state from the product
        alphas[1] /= alphas[1].sum()
    a, b = ic.InteriorParam(alphas[0]), ic.InteriorParam(alphas[1])
    return {
        "kl": ic.KLCost(betas[0]),
        "max_kl": ic.MaxKLCost(tuple(betas)),
        "renyi": ic.RenyiCost(0.7, a),
        "max_renyi": ic.MaxRenyiCost(
            (ic.DivergenceMeasure(((0.5, a), (0.0, b), (0.5, b))), ic.DivergenceMeasure(((1.0, b),)))
        ),
        "shannon": ic.PosteriorSeparableCost(prior, ic.ShannonEntropy()),
    }


def all_specs(rng, n):
    """batched_specs plus weighted-KL and sup atoms, the other potentials and
    the Rényi convex transform."""
    specs = batched_specs(rng, n)
    prior = specs["shannon"].prior
    alpha = specs["renyi"].param.alpha
    psi = np.concatenate(([1.0], np.full(n - 1, -1.0 / (n - 1))))
    wkl = ic.WeightedKLParam(0, np.concatenate(([0.0], np.full(n - 1, 1.0 / (n - 1)))))
    mixed = ic.DivergenceMeasure(((0.4, ic.SupParam(psi)), (0.3, wkl), (0.3, specs["renyi"].param)))
    specs.update(
        max_renyi_mixed=ic.MaxRenyiCost((mixed, ic.DivergenceMeasure(((1.0, wkl),)))),
        tsallis=ic.PosteriorSeparableCost(prior, ic.Tsallis(1.5)),
        kl_potential=ic.PosteriorSeparableCost(prior, ic.KLPotential(specs["kl"].beta)),
        renyi_potential=ic.PosteriorSeparableCost(prior, ic.RenyiPotential(alpha)),
        convex_ps=ic.ConvexPSCost(
            prior, ic.RenyiPotential(alpha), ic.RenyiLogTransform(1.3, float(alpha.max()))
        ),
    )
    return specs


def rounding_tol(spec):
    """1e-12, except under the Rényi log transform: its slope at 0 is
    lam / (1 - alpha_max), which scales up the rounding of its argument."""
    if isinstance(spec, ic.ConvexPSCost) and isinstance(spec.transform, ic.RenyiLogTransform):
        return 1e-12 / (1.0 - spec.transform.alpha_max)
    return 1e-12


def perturbed_stack(rng, b, n, s):
    """Choice matrices as the solver's gradient makes them: entries moved up by
    1e-6 or down to max(x - 1e-6, 0), off the simplex, with exact zeros."""
    probs = rng.dirichlet(np.ones(s), size=(b, n))
    probs[rng.random(probs.shape) < 0.25] = 0.0
    step = rng.choice([0.0, 1e-6, -1e-6], size=probs.shape, p=[0.8, 0.1, 0.1])
    return np.maximum(probs + step, 0.0)


def stochastic_stack(rng, b, n, s):
    """Row-stochastic matrices in which about a quarter of the entries are exact zeros."""
    probs = rng.dirichlet(np.ones(s), size=(b, n))
    probs[rng.random(probs.shape) < 0.25] = 0.0
    probs[np.all(probs == 0.0, axis=-1), 0] = 1.0
    return probs / probs.sum(axis=-1, keepdims=True)


def scalar_costs(spec, probs):
    return [ic.eval_cost(spec, ic.FiniteExperiment(p)) for p in probs]


def kl_reference(beta, probs):
    n = probs.shape[0]
    return sum(
        beta[i, j] * ic.kl(probs[i], probs[j]) for i in range(n) for j in range(n) if beta[i, j] > 0
    )


def renyi_reference(alpha, probs):
    """log(sum_s prod_i p_i(s)^alpha_i) / (max alpha - 1), with 0^0 = 1."""
    total = np.sum(np.prod(probs ** alpha[:, None], axis=0))
    return math.log(total) / (alpha.max() - 1.0) if total > 0 else math.inf


def mutual_information(prior, probs):
    """sum_i q_i sum_s p_i(s) log(p_i(s) / m(s)) with m = q . p."""
    m = prior @ probs
    n, s = probs.shape
    return sum(
        prior[i] * probs[i, t] * math.log(probs[i, t] / m[t])
        for i in range(n)
        for t in range(s)
        if probs[i, t] > 0
    )


def reference_cost(spec, probs):
    if isinstance(spec, ic.KLCost):
        return kl_reference(spec.beta, probs)
    if isinstance(spec, ic.MaxKLCost):
        return max(kl_reference(b, probs) for b in spec.betas)
    if isinstance(spec, ic.RenyiCost):
        return spec.lam * renyi_reference(spec.param.alpha, probs)
    if isinstance(spec, ic.MaxRenyiCost):
        return max(
            sum(w * renyi_reference(p.alpha, probs) for w, p in m.atoms if w > 0)
            for m in spec.measures
        )
    return mutual_information(spec.prior, probs)


class TestEvalCosts:
    @given(
        st.integers(0, 10_000),
        st.sampled_from(["kl", "max_kl", "renyi", "max_renyi", "shannon"]),
        st.integers(2, 4),
        st.integers(2, 64),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_independent_references(self, seed, family, n, s, b):
        rng = np.random.default_rng(seed)
        spec = batched_specs(rng, n)[family]
        probs = stochastic_stack(rng, b, n, s)
        got = ic.eval_costs(spec, probs)
        for value, p in zip(got, probs):
            ref = reference_cost(spec, p)
            assert value == (math.inf if math.isinf(ref) else pytest.approx(ref, rel=1e-12))

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 64), st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_independent(self, seed, n, s, b):
        # the solver compares gradient-stack costs with single-matrix line-search costs
        rng = np.random.default_rng(seed)
        probs = perturbed_stack(rng, b, n, s)
        specs = all_specs(rng, n)
        renyi = specs["convex_ps"]
        specs["convex_ps_expm1"] = ic.ConvexPSCost(
            renyi.prior, renyi.potential, ic.CustomTransform(math.expm1)
        )
        for spec in specs.values():
            expected = scalar_costs(spec, probs)
            np.testing.assert_array_equal(ic.eval_costs(spec, probs), expected)
            np.testing.assert_array_equal(ic.eval_costs(spec, np.asfortranarray(probs)), expected)

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_zero_when_uninformative(self, seed, n, s):
        rng = np.random.default_rng(seed)
        mu = ic.FiniteExperiment(stochastic_stack(rng, 1, n, s)[0])
        flat, single = ic.uninformative(n, s), ic.uninformative(n)
        specs = all_specs(rng, n)
        for name, spec in specs.items():
            tol = rounding_tol(spec)
            assert ic.eval_cost(spec, mu) >= -tol, name
            assert ic.eval_cost(spec, flat) == pytest.approx(0.0, abs=tol), name
            if isinstance(spec, (ic.PosteriorSeparableCost, ic.ConvexPSCost)):
                # posteriors q_i / (q . 1) round away from the prior
                assert ic.eval_cost(spec, single) == pytest.approx(0.0, abs=tol), name
            else:
                assert ic.eval_cost(spec, single) == 0.0, name

    def test_row_past_transform_domain_is_infinite(self):
        # the solver's finite differences raise an entry of a revealing policy
        spec = ic.ConvexPSCost(
            np.array([0.5, 0.5]), ic.RenyiPotential(np.array([0.5, 0.5])), ic.RenyiLogTransform(1.0, 0.5)
        )
        probs = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.75, 0.25], [0.25, 0.75]]])
        probs[0, 0, 0] += 1e-6
        got = ic.eval_costs(spec, probs)
        assert got[0] == math.inf
        assert got[1] == ic.eval_cost(spec, SYM75) == pytest.approx(RENYI_HALF_75, abs=1e-12)

    def test_infinite_rows(self):
        probs = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]])
        for spec in batched_specs(np.random.default_rng(0), 2).values():
            got = ic.eval_costs(spec, probs)
            np.testing.assert_array_equal(got, scalar_costs(spec, probs))
            assert got[0] == math.inf or isinstance(spec, ic.PosteriorSeparableCost)

    def test_rejects_nan_and_negative_entries(self):
        for bad in ([[math.nan, 0.5, 0.5], [0.2, 0.3, 0.5]], [[-0.1, 0.6, 0.5], [0.2, 0.3, 0.5]]):
            probs = np.array(bad)
            for name, spec in all_specs(np.random.default_rng(1), 2).items():
                with pytest.raises(NotADistribution):
                    ic.eval_cost(spec, ic.FiniteExperiment(probs))
                with pytest.raises(NotADistribution):
                    ic.eval_costs(spec, np.stack([np.full((2, 3), 1 / 3), probs]))


def convex_specs(rng, n):
    """all_specs without its sup atom, plus weighted-KL atoms, the identity
    transform and a Tsallis order below 1: the families the solver runs one
    ascent for."""
    specs = all_specs(rng, n)
    mixed = specs.pop("max_renyi_mixed")
    wkl, renyi = mixed.measures[0].atoms[1][1], specs["renyi"].param
    prior, potential = specs["shannon"].prior, specs["renyi_potential"].potential
    specs.update(
        max_renyi_wkl=ic.MaxRenyiCost(
            (ic.DivergenceMeasure(((0.6, wkl), (0.4, renyi))), ic.DivergenceMeasure(((1.0, wkl),)))
        ),
        tsallis_low=ic.PosteriorSeparableCost(prior, ic.Tsallis(0.5)),
        convex_ps_identity=ic.ConvexPSCost(prior, potential, ic.IdentityTransform()),
    )
    return specs


class TestConvexity:
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_midpoint_convex_along_segments(self, seed, n, s):
        # the solver's single ascent for these families rests on this property
        rng = np.random.default_rng(seed)
        ends = stochastic_stack(rng, 2, n, s)
        t = np.sort(rng.random(2))
        x, y = ((1.0 - u) * ends[0] + u * ends[1] for u in t)
        stack = np.stack([x, y, 0.5 * (x + y)])
        for name, spec in convex_specs(rng, n).items():
            cx, cy, cmid = ic.eval_costs(spec, stack)
            avg = 0.5 * (cx + cy)
            assert cmid <= avg + rounding_tol(spec) * max(1.0, abs(avg)), name

    def test_solver_runs_one_ascent_exactly_for_the_convex_families(self):
        from infocost.ri_solver import _one_ascent

        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            assert all(_one_ascent(spec) for spec in convex_specs(rng, n).values())
            specs = all_specs(rng, n)
            prior, mixed = specs["shannon"].prior, specs["max_renyi_mixed"]
            sup = ic.DivergenceMeasure(((1.0, mixed.measures[0].atoms[0][1]),))
            multi_start = [
                mixed,
                ic.MaxRenyiCost((sup,)),
                ic.PosteriorSeparableCost(prior, ic.CustomPotential(lambda p, q: float(np.sum(p * p)))),
                ic.ConvexPSCost(prior, ic.ShannonEntropy(), ic.CustomTransform(math.expm1)),
                ic.ConvexPSCost(prior, ic.CustomPotential(lambda p, q: 0.0), ic.IdentityTransform()),
            ]
            assert not any(_one_ascent(spec) for spec in multi_start)


class TestBlackwellMonotonicity:
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 16), st.integers(1, 8), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_garbling_never_raises_cost(self, seed, n, s, t, permute):
        rng = np.random.default_rng(seed)
        mu = ic.FiniteExperiment(stochastic_stack(rng, 1, n, s)[0])
        if permute:
            psi = np.eye(s)[rng.permutation(s)]
        else:
            psi = stochastic_stack(rng, 1, s, t)[0]
        nu = ic.garble(mu, ic.GarblingKernel(psi))
        specs = all_specs(rng, n)
        for name, spec in specs.items():
            before, after = ic.eval_cost(spec, mu), ic.eval_cost(spec, nu)
            slack = rounding_tol(spec) * max(1.0, abs(before))
            assert after <= before + slack, name
            if permute:  # mu is a garbling of nu as well
                assert before <= after + slack, name


class TestPosteriorSeparable:
    def test_kl_potential_reproduces_kl_cost(self):
        for seed in range(10):
            mu = ic.random_experiment(2, 3, seed=seed, min_prob=0.05)
            beta = np.array([[0.0, 0.8], [1.3, 0.0]])
            for q in ([0.5, 0.5], [0.3, 0.7]):
                ps = ic.PosteriorSeparableCost(np.asarray(q), ic.KLPotential(beta))
                direct = ic.eval_cost(ic.KLCost(beta), mu)
                assert ic.eval_cost(ps, mu) == pytest.approx(direct, abs=1e-10)

    def test_shannon_is_mutual_information(self):
        # binary symmetric experiment: I = log2 + p log p + (1-p) log(1-p)
        p = 0.75
        expected = math.log(2.0) + p * math.log(p) + (1 - p) * math.log(1 - p)
        ps = ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy())
        assert ic.eval_cost(ps, SYM75) == pytest.approx(expected, abs=1e-12)

    def test_tsallis_product_superadditive_witness(self):
        # frozen witness: prior 0.9 on state 1, symmetric 0.75 experiment.
        # Hand evaluation with phi(p) = 2p(1-p): C(mu) = 27/1400 and
        # C(mu (x) mu) = 9/205, so bundling is strictly dearer than buying twice.
        ps = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.Tsallis(2.0))
        mu = SYM75
        single = ic.eval_cost(ps, mu)
        prod = ic.eval_cost(ps, ic.product(mu, mu))
        assert prod > 2 * single + 1e-6
        assert single == pytest.approx(27.0 / 1400.0, abs=1e-12)
        assert prod == pytest.approx(9.0 / 205.0, abs=1e-12)

    def test_shannon_product_subadditive(self):
        ps = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.ShannonEntropy())
        for seed in range(10):
            mu = ic.random_experiment(2, 2, seed=seed, min_prob=0.05)
            nu = ic.random_experiment(2, 3, seed=seed + 30, min_prob=0.05)
            assert ic.eval_cost(ps, ic.product(mu, nu)) <= ic.eval_cost(ps, mu) + ic.eval_cost(
                ps, nu
            ) + 1e-9


class TestRenyiTransformIdentity:
    def test_matches_direct_for_any_prior(self):
        alpha = np.array([0.5, 0.5])
        for q in ([0.5, 0.5], [0.3, 0.7], [0.9, 0.1]):
            direct, composed = ic.renyi_cost_as_transform_check(1.0, alpha, q, SYM75)
            assert direct == pytest.approx(RENYI_HALF_75, abs=1e-12)
            assert composed == pytest.approx(direct, abs=1e-10)

    def test_uninformative_pair_is_zero(self):
        direct, composed = ic.renyi_cost_as_transform_check(
            1.5, np.array([0.4, 0.6]), [0.5, 0.5], ic.uninformative(2, 3)
        )
        assert direct == pytest.approx(0.0, abs=1e-12)
        assert composed == pytest.approx(0.0, abs=1e-10)

    def test_transform_domain_error(self):
        with pytest.raises(TransformDomain):
            ic.cost.apply_transform(ic.RenyiLogTransform(1.0, 0.5), 1.5)

    def test_perfectly_revealing_maps_to_infinity(self):
        assert ic.cost.apply_transform(ic.RenyiLogTransform(1.0, 0.5), 1.0) == math.inf
        # rounding can carry a revealing experiment's potential cost just past 1, or just short of it
        assert ic.cost.apply_transform(ic.RenyiLogTransform(1.0, 0.5), 1.0 + 2**-52) == math.inf
        assert ic.cost.apply_transform(ic.RenyiLogTransform(1.0, 0.5), 1.0 - 2**-53) == math.inf
        revealing = ic.new_experiment([[0.63, 0.25, 0.12, 0.0], [0.0, 0.0, 0.0, 1.0]])
        potential = ic.RenyiPotential(np.array([0.5, 0.5]))
        prior = np.array([0.7, 0.3])
        assert ic.eval_cost(ic.PosteriorSeparableCost(prior, potential), revealing) < 1.0
        spec = ic.ConvexPSCost(prior, potential, ic.RenyiLogTransform(1.0, 0.5))
        assert ic.eval_cost(spec, revealing) == math.inf


class TestFCriterion:
    def test_shannon_value(self):
        assert ic.f_criterion(ic.ShannonEntropy(), 0.5) == pytest.approx(-0.25, abs=1e-12)
        # F(p) = -p(1-p) at a generic point
        assert ic.f_criterion(ic.ShannonEntropy(), 0.3) == pytest.approx(-0.21, abs=1e-12)

    def test_tsallis_sigma2(self):
        # F(p) = -sigma (p^sigma (1-p)^2 + p^2 (1-p)^sigma) by differentiation
        assert ic.f_criterion(ic.Tsallis(2.0), 0.5) == pytest.approx(-0.25, abs=1e-12)
        p = 0.8
        expected = -2.0 * (p**2 * (1 - p) ** 2 + p**2 * (1 - p) ** 2)
        assert ic.f_criterion(ic.Tsallis(2.0), p) == pytest.approx(expected, abs=1e-12)

    def test_tsallis_limit_onto_shannon(self):
        for p in (0.2, 0.5, 0.8):
            near = ic.f_criterion(ic.Tsallis(1.001), p)
            assert abs(near - ic.f_criterion(ic.ShannonEntropy(), p)) < 1e-3

    def test_no_second_derivative(self):
        with pytest.raises(NoSecondDerivative):
            ic.f_criterion(ic.KLPotential(np.array([[0.0, 1.0], [0.0, 0.0]])), 0.5)
        with pytest.raises(NoSecondDerivative):
            ic.f_criterion(ic.CustomPotential(lambda p, q: 0.0), 0.5)


class TestSubadditivityCheck:
    def test_shannon_passes(self):
        report = ic.ups_subadditivity_check(ic.ShannonEntropy())
        assert report.subadditive and report.witness_p is None

    def test_tsallis_sigma2_fails_near_08(self):
        report = ic.ups_subadditivity_check(ic.Tsallis(2.0))
        assert not report.subadditive
        assert 0.75 < report.witness_p < 0.85

    def test_tsallis_sigma12_fails_at_large_odds(self):
        report = ic.ups_subadditivity_check(ic.Tsallis(1.2), grid_size=4001)
        assert not report.subadditive
        assert report.witness_p > 0.9

    def test_xform_lhs_hand_value(self):
        # sigma=2, x=4: 2(1+16) + 2(16+1) - 8(4+4) = 4
        assert ic.tsallis_xform_lhs(2.0, 4.0) == pytest.approx(4.0, abs=1e-9)

    def test_xform_sign_matches_f_convexity(self):
        # convex region of F for sigma=2 lies between the roots of 6p^2-6p+1
        for p, convex in ((0.5, True), (0.9, False)):
            x = p / (1 - p)
            lhs = ic.tsallis_xform_lhs(2.0, x)
            assert (lhs <= 0) == convex


class TestSerialization:
    def test_round_trips(self):
        specs = [
            kl_spec(0.5, 1.5),
            ic.MaxKLCost((np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))),
            ic.RenyiCost(2.0, ic.InteriorParam(np.array([0.4, 0.6]))),
            ic.MaxRenyiCost((wkl_measure(0, [0.0, 1.0]),)),
            ic.PosteriorSeparableCost(np.array([0.3, 0.7]), ic.Tsallis(2.0)),
            ic.ConvexPSCost(
                np.array([0.5, 0.5]),
                ic.RenyiPotential(np.array([0.5, 0.5])),
                ic.RenyiLogTransform(1.0, 0.5),
            ),
        ]
        mu = ic.random_experiment(2, 3, seed=17, min_prob=0.05)
        for spec in specs:
            again = ic.cost_from_json(ic.cost_to_json(spec))
            assert ic.eval_cost(again, mu) == pytest.approx(ic.eval_cost(spec, mu), abs=1e-12)

    def test_custom_not_serializable(self):
        spec = ic.PosteriorSeparableCost(
            np.array([0.5, 0.5]), ic.CustomPotential(lambda p, q: float(np.sum(p * p)))
        )
        with pytest.raises(BadCostSpec):
            ic.cost_to_json(spec)
