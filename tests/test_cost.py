"""Cost families: evaluation, potential/transform identities, convexity checks."""

import json
import math
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost.cost import _cost_gradient, _costs
from infocost.errors import (
    BadCostSpec,
    BadPsi,
    DimensionMismatch,
    InfoCostError,
    NoSecondDerivative,
    NotADistribution,
)
from test_ri_solver import every_family

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

    def test_no_public_value_is_negative_zero(self):
        mu = ic.uninformative(2, 3)
        psi = [1.0, -1.0]
        values = [
            ic.renyi(0.4, mu.probs[0], mu.probs[1]),
            ic.extended_divergence([0.3, 0.7], mu),
            ic.unified_divergence(ic.InteriorParam(np.array([0.3, 0.7])), mu),
            ic.generalized_divergence(0.6, psi, mu),
            ic.chernoff_information(mu),
            ic.diluted_power_divergence(mu, 3, 0.6, psi),
            ic.eval_cost(ic.RenyiCost(1.0, ic.InteriorParam(np.array([0.3, 0.7]))), mu),
            ic.eval_cost(
                ic.ConvexPSCost(
                    np.array([0.5, 0.5]), ic.RenyiPotential(np.array([0.5, 0.5])), ic.RenyiLogTransform(1.0, 0.5)
                ),
                mu,
            ),
        ]
        assert [math.copysign(1.0, v) for v in values] == [1.0] * len(values)
        assert values == [0.0] * len(values)

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
    """Matrices off the simplex, which eval_costs accepts: entries moved up by
    1e-6 or down to max(x - 1e-6, 0), with exact zeros."""
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


def renyi_reference(alpha, probs, denominator=None):
    """log(sum_s prod_i p_i(s)^alpha_i) / denominator at 60 digits, with 0^0 = 1.

    Without a denominator this is the divergence as the library defines it,
    as in ``test_divergence.mp_divergence``: on the normalized rows, with the
    largest exponent alpha_k set to 1 minus the others, over
    -sum_{i != k} alpha_i.  The float alpha sums to 1 only within 1e-12,
    which max(alpha) - 1 would carry into the quotient.  A given denominator
    takes alpha and the rows as they are.
    """
    with mpmath.workdps(60):
        rows = [[mpmath.mpf(x) for x in row] for row in probs.tolist()]
        a = [mpmath.mpf(x) for x in alpha.tolist()]
        if denominator is None:
            k = int(np.argmax(alpha))
            rows = [[x / mpmath.fsum(row) for x in row] for row in rows]
            a[k] = 1 - mpmath.fsum(a[:k] + a[k + 1 :])
            denominator = a[k] - 1
        total = mpmath.fsum(mpmath.fprod(row[s] ** ai for row, ai in zip(rows, a)) for s in range(len(rows[0])))
        return float(mpmath.log(total) / denominator) if total > 0 else math.inf


def renyi_potential_reference(alpha, probs):
    """1 - sum_s prod_i p_i(s)^alpha_i, with 0^0 = 1: the expected potential
    1 - prod_i (p_i / q_i)^alpha_i of the posteriors, whose exponents sum to 1."""
    return 1.0 - np.sum(np.prod(probs ** alpha[:, None], axis=0))


def tsallis_reference(sigma, prior, probs):
    """sum_s m(s) phi(posterior of s) - phi(prior), phi(p) = (sum_i p_i^sigma - 1) / (sigma - 1)."""

    def phi(p):
        return (sum(x**sigma for x in p) - 1.0) / (sigma - 1.0)

    m = prior @ probs
    signals = (t for t in range(probs.shape[1]) if m[t] > 0)
    return sum(m[t] * phi(prior * probs[:, t] / m[t]) for t in signals) - phi(prior)


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
    if isinstance(spec, ic.ConvexPSCost):  # the transform's own denominator
        alpha = spec.potential.alpha
        return spec.transform.lam * renyi_reference(alpha, probs, alpha.max() - 1.0)
    if isinstance(spec.potential, ic.Tsallis):
        return tsallis_reference(spec.potential.sigma, spec.prior, probs)
    if isinstance(spec.potential, ic.KLPotential):
        return kl_reference(spec.potential.beta, probs)
    if isinstance(spec.potential, ic.RenyiPotential):
        return renyi_potential_reference(spec.potential.alpha, probs)
    return mutual_information(spec.prior, probs)


class TestEvalCosts:
    @given(
        st.integers(0, 10_000),
        st.sampled_from(
            ["kl", "max_kl", "renyi", "max_renyi", "shannon", "tsallis", "kl_potential", "renyi_potential", "convex_ps"]
        ),
        st.integers(2, 4),
        st.integers(2, 64),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    @example(seed=782, family="renyi", n=2, s=2, b=3)  # alpha = (3.7e-5, 0.99996)
    def test_matches_independent_references(self, seed, family, n, s, b):
        rng = np.random.default_rng(seed)
        spec = all_specs(rng, n)[family]
        probs = stochastic_stack(rng, b, n, s)
        got = ic.eval_costs(spec, probs)
        for value, p in zip(got, probs):
            ref = reference_cost(spec, p)
            assert value == (math.inf if math.isinf(ref) else pytest.approx(ref, rel=rounding_tol(spec)))

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 64), st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_independent(self, seed, n, s, b):
        # a stack prices each matrix as it would be priced alone
        rng = np.random.default_rng(seed)
        probs = perturbed_stack(rng, b, n, s)
        specs = all_specs(rng, n)
        renyi = specs["convex_ps"]
        specs["convex_ps_expm1"] = ic.ConvexPSCost(
            renyi.prior, renyi.potential, ic.CustomTransform(math.expm1)
        )
        specs["custom_potential"] = ic.PosteriorSeparableCost(
            renyi.prior, ic.CustomPotential(lambda p, q: float(np.sum(p * p / q)))
        )
        if n > 2:
            zero_exponent = specs["max_renyi"].measures[1].atoms[0][1].alpha
            specs["renyi_potential_zero"] = ic.PosteriorSeparableCost(
                renyi.prior, ic.RenyiPotential(zero_exponent)
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

    def test_max_renyi_sums_each_measure_atom_by_atom(self):
        # one interior exponent vector in both measures, as the same object and
        # as an equal copy, and zero-weight atoms, one of them +inf on two rows:
        # each measure is the sum of its nonzero atoms in atom order
        shared = ic.InteriorParam(np.array([0.5, 0.5, 0.0]))
        copy = ic.InteriorParam(shared.alpha.copy())
        other = ic.InteriorParam(np.array([0.2, 0.3, 0.5]))
        wkl = ic.WeightedKLParam(0, np.array([0.0, 0.4, 0.6]))
        sup = ic.SupParam(np.array([-0.5, 1.0, -0.5]))
        first = ic.DivergenceMeasure(((0.4, shared), (0.0, wkl), (1.3, other), (0.7, copy), (0.25, sup)))
        second = ic.DivergenceMeasure(((0.0, other), (2.0, shared), (0.0, wkl), (0.5, copy)))
        spec = ic.MaxRenyiCost((first, second))
        probs = np.random.default_rng(3).dirichlet(np.ones(4), size=(5, 3))
        probs[1, 1, 2] = probs[3, 1, 0] = 0.0  # KL(row 0 || row 1) is +inf there
        probs /= probs.sum(axis=-1, keepdims=True)
        expected = []
        for p in probs:
            mu = ic.FiniteExperiment(p)
            sums = []
            for measure in spec.measures:
                total = 0.0
                for w, param in measure.atoms:
                    if w != 0.0:
                        total += w * ic.unified_divergence(param, mu)
                sums.append(total)
            expected.append(max(sums))
        assert ic.unified_divergence(wkl, ic.FiniteExperiment(probs[1])) == math.inf
        assert all(math.isfinite(v) for v in expected)
        assert ic.eval_costs(spec, probs).tolist() == expected
        assert [ic.eval_cost(spec, ic.FiniteExperiment(p)) for p in probs] == expected

    def test_custom_potential_sees_only_posteriors(self):
        # signal 1 never occurs; its all-zero belief is not passed to fn
        seen = []

        def chi2(p, q):
            seen.append(p.copy())
            return float(np.sum(p * p / q))

        spec = ic.PosteriorSeparableCost(np.array([0.4, 0.6]), ic.CustomPotential(chi2))
        probs = np.array([[[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]]])
        cost = ic.eval_costs(spec, probs)[0]
        assert len(seen) == 3 and all(abs(p.sum() - 1.0) <= 1e-15 for p in seen)  # two posteriors, the prior
        assert cost == pytest.approx(ic.eval_cost(spec, ic.new_experiment(probs[0][:, [0, 2]])), rel=1e-15)

    def test_row_past_transform_domain_is_infinite(self):
        # one entry of a revealing policy raised off the simplex
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
        # and infinite ones, which cost NaN, a finite number or +inf by family unchecked
        bad_rows = ([math.nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [math.inf, 0.0, 0.0])
        for bad in ([row, [0.2, 0.3, 0.5]] for row in bad_rows):
            probs = np.array(bad)
            for name, spec in all_specs(np.random.default_rng(1), 2).items():
                with pytest.raises(NotADistribution):
                    ic.eval_cost(spec, ic.FiniteExperiment(probs))
                with pytest.raises(NotADistribution):
                    ic.eval_costs(spec, np.stack([np.full((2, 3), 1 / 3), probs]))


class TestPlan:
    """Each specification prices through the plan it made at construction."""

    @given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_one_plan_prices_a_stack_as_each_matrix_alone(self, seed, b, s):
        # the solver's planned entries, one plan over a whole stack and then
        # matrix after matrix, against eval_costs and _cost_gradient of each
        # matrix under a plan made afresh (replace() builds the spec again)
        rng = np.random.default_rng(seed)
        prior = 0.1 + 0.8 * rng.dirichlet(np.ones(2))
        probs = stochastic_stack(rng, b, 2, s)
        for name, spec in every_family(prior).items():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                planned = _costs(spec, probs)
                finite = [p for p, c in zip(probs, planned) if math.isfinite(c)]
                grads = [spec._plan.gradient(p) for p in finite]
                fresh = [_cost_gradient(replace(spec), p) for p in finite]
            alone = np.array([ic.eval_costs(replace(spec), p[None])[0] for p in probs])
            assert planned.tobytes() == alone.tobytes(), name
            assert all(g.tobytes() == f.tobytes() for g, f in zip(grads, fresh)), name


# weights of a KL matrix: zeros, subnormals, the least normal float and ordinary weights
KL_WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]), st.floats(1e-3, 10.0))


def per_pair_measure(beta):
    """sum_ij beta_ij KL(mu_i || mu_j) written as a divergence measure: the
    order-1 atom WeightedKLParam(i, e_j) of weight beta_ij for each positive
    entry (an all-zero matrix keeps one atom of weight 0)."""
    n = beta.shape[0]
    atoms = [(beta[i, j], ic.WeightedKLParam(i, np.eye(n)[j])) for i in range(n) for j in range(n) if beta[i, j] > 0]
    return ic.DivergenceMeasure(tuple(atoms) or ((0.0, ic.WeightedKLParam(0, np.eye(n)[1])),))


class TestWeightedKLRepresentation:
    """A weighted-KL cost is the measure of its per-pair order-1 atoms, and a
    max-KL cost the maximum over those measures."""

    @given(st.data(), st.integers(2, 4), st.integers(1, 3), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_kl_costs_price_as_max_renyi_of_per_pair_measures(self, data, n, k, s, seed):
        betas = []
        for _ in range(k):
            beta = np.reshape(data.draw(st.lists(KL_WEIGHTS, min_size=n * n, max_size=n * n)), (n, n))
            beta = beta * (1.0 - np.eye(n))
            beta[data.draw(st.integers(0, n - 1))] *= data.draw(st.sampled_from([0.0, 1.0]))  # a zero row, or not
            betas.append(beta)
        rng = np.random.default_rng(seed)
        probs = stochastic_stack(rng, 5, n, s)
        positive = rng.dirichlet(np.ones(s), size=n)
        cases = [
            (
                ic.KLCost(betas[0]),
                ic.MaxRenyiCost((per_pair_measure(betas[0]),)),
                {"kind": "kl", "beta": betas[0].tolist()},
            ),
            (
                ic.MaxKLCost(tuple(betas)),
                ic.MaxRenyiCost(tuple(per_pair_measure(b) for b in betas)),
                {"kind": "max_kl", "betas": [b.tolist() for b in betas]},
            ),
        ]
        for spec, measures, payload in cases:
            assert ic.eval_costs(spec, probs).tobytes() == ic.eval_costs(measures, probs).tobytes()
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                assert _cost_gradient(spec, positive).tobytes() == _cost_gradient(measures, positive).tobytes()
            # the JSON form stays the weight matrices, not the measures the plan prices
            assert ic.cost_to_json(spec) == json.dumps(payload)


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
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            assert all(spec._plan.concave for spec in convex_specs(rng, n).values())
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
            assert not any(spec._plan.concave for spec in multi_start)


def max_pieces(spec, p):
    """The values at p of the pieces of each maximum in the cost: its members,
    and every sup atom's floor at 0 and psi . log p(s) per signal."""
    if isinstance(spec, ic.MaxKLCost):
        members = [ic.KLCost(b) for b in spec.betas]
    elif isinstance(spec, ic.MaxRenyiCost):
        members = [ic.MaxRenyiCost((m,)) for m in spec.measures]
    else:
        members = [spec]
    pieces = [[ic.eval_costs(member, p[None])[0] for member in members]]
    if isinstance(spec, ic.MaxRenyiCost):
        sups = (a for m in spec.measures for _, a in m.atoms if isinstance(a, ic.SupParam))
        pieces += [[0.0, *(a.psi @ np.log(p))] for a in sups]
    return pieces


def gradient_specs(rng, n):
    """Every family with a gradient: all_specs, convex_specs, a custom potential
    and a custom transform."""
    specs = all_specs(rng, n) | convex_specs(rng, n)
    prior = specs["shannon"].prior
    specs.update(
        custom_potential=ic.PosteriorSeparableCost(prior, ic.CustomPotential(lambda p, q: float(np.sum(p * p / q)))),
        custom_transform=ic.ConvexPSCost(prior, ic.ShannonEntropy(), ic.CustomTransform(math.expm1)),
    )
    return specs


def check_gradient(seed, n, s):
    """_cost_gradient against fourth-order central differences of eval_costs
    (step 1e-5) along the directions +h at signal a, -h at signal 0 of one
    row, which stay on the simplex.  A maximum within 1e-2 of a kink is
    skipped: there the differences straddle it.  The Rényi log scales up its
    argument's rounding by lam / (1 - alpha_max), past what differences
    resolve, so it is differenced as the Rényi cost it equals (criterion 5)."""
    rng = np.random.default_rng(seed)
    p = 0.05 / s + 0.95 * rng.dirichlet(np.ones(s), size=n)
    steps = np.zeros((n, s - 1, n, s))
    rows = np.arange(n)
    steps[rows, :, rows, 1:] = np.eye(s - 1)
    steps[rows, :, rows, 0] = -1.0
    steps = 1e-5 * steps.reshape(-1, n, s)
    for name, spec in gradient_specs(rng, n).items():
        if any(len(v) > 1 and np.diff(sorted(v))[-1] < 1e-2 for v in max_pieces(spec, p)):
            continue
        priced = spec
        if isinstance(spec, ic.ConvexPSCost) and isinstance(spec.transform, ic.RenyiLogTransform):
            priced = ic.RenyiCost(spec.transform.lam, ic.InteriorParam(spec.potential.alpha))
        c = [ic.eval_costs(priced, p + k * steps) for k in (-2, -1, 1, 2)]
        fd = (8.0 * (c[2] - c[1]) - (c[3] - c[0])) / 12e-5
        slopes = (_cost_gradient(spec, p) * steps).sum(axis=(1, 2)) / 1e-5
        np.testing.assert_allclose(slopes, fd, rtol=0, atol=1e-6, err_msg=name)


class TestCostGradient:
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 5))
    @example(seed=2728, n=2, s=2)  # a step off the simplex once halved this reference
    @settings(max_examples=100, deadline=None)
    def test_matches_central_differences(self, seed, n, s):
        check_gradient(seed, n, s)

    def test_tie_takes_the_mean_of_the_tied_gradients(self):
        betas = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
        p = np.array([[0.6, 0.3, 0.1], [0.3, 0.6, 0.1]])  # KL(mu_0 || mu_1) = KL(mu_1 || mu_0)
        members = [_cost_gradient(ic.KLCost(b), p) for b in betas]
        assert not np.allclose(members[0], members[1])
        mean = 0.5 * (members[0] + members[1])
        np.testing.assert_allclose(_cost_gradient(ic.MaxKLCost(betas), p), mean, rtol=1e-15)

    def test_identities_carry_over_to_gradients(self):
        # KLPotential(beta) is KLCost(beta) at every prior.  The Rényi log of a
        # Rényi-potential cost is the Rényi cost (criterion 5) on the simplex, so
        # there the two gradients agree up to a constant along each row.
        rng = np.random.default_rng(6)
        for n, s in [(2, 2), (2, 3), (3, 4), (4, 2), (4, 5)] * 4:
            prior = 0.2 / n + 0.8 * rng.dirichlet(np.ones(n))
            beta = rng.uniform(0.1, 1.0, (n, n)) * (1.0 - np.eye(n))
            alpha = rng.dirichlet(np.ones(n))
            p = 0.05 / s + 0.95 * rng.dirichlet(np.ones(s), size=n)
            kl_potential = _cost_gradient(ic.PosteriorSeparableCost(prior, ic.KLPotential(beta)), p)
            np.testing.assert_allclose(kl_potential, _cost_gradient(ic.KLCost(beta), p), rtol=0, atol=1e-12)
            composed = ic.ConvexPSCost(prior, ic.RenyiPotential(alpha), ic.RenyiLogTransform(1.3, float(alpha.max())))
            direct = ic.RenyiCost(1.3, ic.InteriorParam(alpha))
            grads = (_cost_gradient(composed, p), _cost_gradient(direct, p))
            centred = [g - g.mean(axis=1, keepdims=True) for g in grads]
            scale = max(1.0, float(np.abs(centred[1]).max()))
            np.testing.assert_allclose(*centred, rtol=0, atol=rounding_tol(composed) * scale)

    def test_sup_atom_subgradient_by_hand(self):
        sup = ic.MaxRenyiCost((ic.DivergenceMeasure(((0.5, ic.SupParam(np.array([1.0, -1.0]))),)),))
        # psi . log p(s) is log 3, 0, log(1/5): signal 0 alone wins, so 0.5 psi / p(0) there
        p = np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
        np.testing.assert_allclose(_cost_gradient(sup, p), [[0.5 / 0.6, 0.0, 0.0], [-2.5, 0.0, 0.0]], rtol=1e-15)
        # log 2 at signals 0 and 1: the mean of their two subgradients
        p = np.array([[0.4, 0.4, 0.2], [0.2, 0.2, 0.6]])
        np.testing.assert_allclose(_cost_gradient(sup, p), [[0.625, 0.625, 0.0], [-1.25, -1.25, 0.0]], rtol=1e-15)
        # uninformative: every psi . log p(s) is 0, so the floor at 0 wins
        np.testing.assert_array_equal(_cost_gradient(sup, np.full((2, 3), 1.0 / 3.0)), np.zeros((2, 3)))


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

    @pytest.mark.parametrize(
        "build",
        [ic.PosteriorSeparableCost, lambda q, phi: ic.ConvexPSCost(q, phi, ic.IdentityTransform())],
        ids=["posterior_separable", "convex_ps"],
    )
    @pytest.mark.parametrize(
        "prior, potential",
        [
            ([0.3, 0.3, 0.4], ic.KLPotential(np.array([[0.0, 1.0], [1.0, 0.0]]))),
            ([0.5, 0.5], ic.KLPotential(np.ones((3, 3)) - np.eye(3))),
            ([0.3, 0.3, 0.4], ic.RenyiPotential(np.array([0.5, 0.5]))),
            ([0.5, 0.5], ic.RenyiPotential(np.array([0.3, 0.3, 0.4]))),
        ],
        ids=["kl_smaller", "kl_larger", "renyi_smaller", "renyi_larger"],
    )
    def test_potential_must_have_the_prior_states(self, build, prior, potential):
        # a smaller potential used to price only its own states, a larger one
        # to raise a bare IndexError
        with pytest.raises(BadCostSpec, match=f"the potential is {5 - len(prior)}-state, the prior {len(prior)}-state"):
            build(np.array(prior), potential)

    @pytest.mark.parametrize("transform", [None, "renyi_log", ic.ShannonEntropy()], ids=["none", "string", "potential"])
    def test_convex_ps_rejects_an_unknown_transform(self, transform):
        # built silently, None would price as the identity and the others fail only when priced
        with pytest.raises(BadCostSpec, match="unknown transform"):
            ic.ConvexPSCost(np.array([0.5, 0.5]), ic.ShannonEntropy(), transform)

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

    def test_perfectly_revealing_maps_to_infinity(self):
        # rounding can carry a revealing experiment's potential cost just past 1, or just short of it
        edges = np.array([1.0, 1.0 + 2**-52, 1.0 - 2**-53])
        assert ic.cost._transforms(ic.RenyiLogTransform(1.0, 0.5), edges).tolist() == [math.inf] * 3
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

    @pytest.mark.parametrize("grid_size", [0, 1, 2, -1, True, 2.5])
    def test_grid_without_a_triple_is_rejected(self, grid_size):
        # a grid with no convexity triple holds no evidence either way
        with pytest.raises(InfoCostError, match="grid_size must be an integer >= 3"):
            ic.ups_subadditivity_check(ic.Tsallis(2.0), grid_size=grid_size)

    def test_three_points_make_one_triple(self):
        # beliefs 1/4, 1/2, 3/4 all lie inside the convex region of sigma = 2
        report = ic.ups_subadditivity_check(ic.Tsallis(2.0), grid_size=3)
        assert report.subadditive and report.grid_size == 3 and report.max_violation < 0

    def test_xform_lhs_hand_value(self):
        # sigma=2, x=4: 2(1+16) + 2(16+1) - 8(4+4) = 4
        assert ic.tsallis_xform_lhs(2.0, 4.0) == pytest.approx(4.0, abs=1e-9)

    def test_xform_sign_matches_f_convexity(self):
        # convex region of F for sigma=2 lies between the roots of 6p^2-6p+1
        for p, convex in ((0.5, True), (0.9, False)):
            x = p / (1 - p)
            lhs = ic.tsallis_xform_lhs(2.0, x)
            assert (lhs <= 0) == convex


@pytest.mark.parametrize(
    "build",
    [
        lambda: ic.RenyiCost(math.inf, ic.InteriorParam(np.array([0.5, 0.5]))),
        lambda: ic.RenyiLogTransform(math.inf, 0.5),
        lambda: ic.Tsallis(math.inf),
        lambda: ic.KLCost(np.array([[0.0, math.inf], [1.0, 0.0]])),
        lambda: ic.MaxKLCost((np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [math.inf, 0.0]]))),
        lambda: ic.KLPotential(np.array([[0.0, math.inf], [1.0, 0.0]])),
        lambda: ic.DivergenceMeasure(((math.inf, ic.InteriorParam(np.array([0.5, 0.5]))),)),
        lambda: ic.RenyiCost(math.nan, ic.InteriorParam(np.array([0.5, 0.5]))),
        lambda: ic.DivergenceMeasure(((math.nan, ic.InteriorParam(np.array([0.5, 0.5]))),)),
    ],
)
def test_constructors_reject_non_finite_scales(build):
    # an infinite scale would cost NaN (Tsallis: 0) on an uninformative experiment
    with pytest.raises((BadCostSpec, BadPsi)):
        build()


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: ic.eval_costs(spec, np.full((1, 2, 2), 0.5)),
        lambda spec: ic.eval_cost(spec, SYM75),
        ic.spec_n_states,
        lambda spec: ic.solve(ic.matching_problem(8.0, 5.0), spec),
        lambda spec: ic.check_axiom(spec, ic.Axiom.ADDITIVITY),
        ic.run_suite,
    ],
    ids=["eval_costs", "eval_cost", "spec_n_states", "solve", "check_axiom", "run_suite"],
)
def test_a_non_spec_is_a_bad_cost_spec(call):
    # not an AttributeError from reaching for the plan
    with pytest.raises(BadCostSpec, match="unknown cost specification"):
        call(object())


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

    def test_custom_transform_not_serializable(self):
        spec = ic.ConvexPSCost(np.array([0.5, 0.5]), ic.ShannonEntropy(), ic.CustomTransform(lambda x: x * x))
        with pytest.raises(BadCostSpec):
            ic.cost_to_json(spec)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "nope"},
            {"kind": "posterior_separable", "prior": [0.5, 0.5], "potential": {"kind": "nope"}},
            {"kind": "convex_ps", "prior": [0.5, 0.5], "potential": {"kind": "shannon"}, "transform": {"kind": "nope"}},
            # a potential is no cost, though both are tagged objects
            {"kind": "shannon"},
        ],
    )
    def test_unknown_kind(self, payload):
        with pytest.raises(BadCostSpec):
            ic.cost_from_json(payload)

    def test_nested_json_string_is_not_parsed(self):
        param = json.dumps({"kind": "interior", "alpha": [0.5, 0.5]})
        with pytest.raises(TypeError):
            ic.cost_from_json({"kind": "renyi", "lambda": 1.0, "param": param})

    def test_golden_text(self):
        # the exact text of one specification of every cost, potential and transform kind
        interior = ic.InteriorParam(np.array([0.25, 0.75]))
        kl_param = ic.WeightedKLParam(1, np.array([1.0, 0.0]))
        sup = ic.SupParam(np.array([1.0, -1.0]))
        prior = np.array([0.3, 0.7])
        half = np.array([0.5, 0.5])
        specs = [
            ic.KLCost(np.array([[0.0, 0.5], [1.5, 0.0]])),
            ic.MaxKLCost((np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [2.0, 0.0]]))),
            ic.RenyiCost(2.0, interior),
            ic.MaxRenyiCost(
                (ic.DivergenceMeasure(((0.5, interior), (0.25, kl_param))), ic.DivergenceMeasure(((1.0, sup),)))
            ),
            ic.PosteriorSeparableCost(prior, ic.ShannonEntropy()),
            ic.PosteriorSeparableCost(prior, ic.Tsallis(2.5)),
            ic.PosteriorSeparableCost(prior, ic.KLPotential(np.array([[0.0, 1.0], [0.5, 0.0]]))),
            ic.PosteriorSeparableCost(prior, ic.RenyiPotential(np.array([0.4, 0.6]))),
            ic.ConvexPSCost(half, ic.ShannonEntropy(), ic.IdentityTransform()),
            ic.ConvexPSCost(half, ic.RenyiPotential(half), ic.RenyiLogTransform(1.5, 0.5)),
        ]
        assert [ic.cost_to_json(spec) for spec in specs] == [
            '{"kind": "kl", "beta": [[0.0, 0.5], [1.5, 0.0]]}',
            '{"kind": "max_kl", "betas": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}',
            '{"kind": "renyi", "lambda": 2.0, "param": {"kind": "interior", "alpha": [0.25, 0.75]}}',
            '{"kind": "max_renyi", "measures": [{"atoms": [{"weight": 0.5, "param": {"kind": "interior", "alpha": [0.25, 0.75]}}, {"weight": 0.25, "param": {"kind": "kl", "pivot": 1, "beta": [1.0, 0.0]}}]}, {"atoms": [{"weight": 1.0, "param": {"kind": "sup", "psi": [1.0, -1.0]}}]}]}',
            '{"kind": "posterior_separable", "prior": [0.3, 0.7], "potential": {"kind": "shannon"}}',
            '{"kind": "posterior_separable", "prior": [0.3, 0.7], "potential": {"kind": "tsallis", "sigma": 2.5}}',
            '{"kind": "posterior_separable", "prior": [0.3, 0.7], "potential": {"kind": "kl_potential", "beta": [[0.0, 1.0], [0.5, 0.0]]}}',
            '{"kind": "posterior_separable", "prior": [0.3, 0.7], "potential": {"kind": "renyi_potential", "alpha": [0.4, 0.6]}}',
            '{"kind": "convex_ps", "prior": [0.5, 0.5], "potential": {"kind": "shannon"}, "transform": {"kind": "identity"}}',
            '{"kind": "convex_ps", "prior": [0.5, 0.5], "potential": {"kind": "renyi_potential", "alpha": [0.5, 0.5]}, "transform": {"kind": "renyi_log", "lambda": 1.5, "alpha_max": 0.5}}',
        ]
        for spec in specs:
            assert ic.cost_to_json(ic.cost_from_json(ic.cost_to_json(spec))) == ic.cost_to_json(spec)

    def test_readme_examples_round_trip(self):
        # every JSON example of the README's file-format section decodes and
        # re-encodes to an equal payload
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### File formats", 1)[1].split("\n## ", 1)[0]
        params, costs = section.split("```json")[1:3]
        experiment = json.loads(section.split("Experiment: `", 1)[1].split("`", 1)[0])
        assert json.loads(ic.FiniteExperiment.from_json(experiment).to_json()) == experiment
        for block, decode, encode, count in (
            (params, ic.param_from_json, ic.param_to_json, 3),
            (costs, ic.cost_from_json, ic.cost_to_json, 6),
        ):
            payloads = json_objects(block.split("```", 1)[0])
            assert len(payloads) == count
            for payload in payloads:
                assert json.loads(encode(decode(payload))) == payload


def json_objects(text: str) -> list:
    """The JSON objects written one after another in a text."""
    decoder, objects, i = json.JSONDecoder(), [], 0
    while text[i:].strip():
        i += len(text[i:]) - len(text[i:].lstrip())
        payload, i = decoder.raw_decode(text, i)
        objects.append(payload)
    return objects
