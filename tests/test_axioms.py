"""Axiom harness: the pass/fail fingerprints of each cost family."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost import axioms
from infocost.axioms import MIN_PROB, SUITE_AXIOMS, Axiom
from infocost.errors import BadAxiomProfile
from infocost.experiment import ROW_SUM_TOL


def kl_spec():
    return ic.KLCost(np.array([[0.0, 1.0], [0.7, 0.0]]))


def renyi_spec():
    return ic.RenyiCost(1.0, ic.InteriorParam(np.array([0.5, 0.5])))


def maxkl_spec():
    return ic.MaxKLCost(
        (np.array([[0.0, 1.0], [0.1, 0.0]]), np.array([[0.0, 0.1], [1.0, 0.0]]))
    )


def maxrenyi_spec():
    m1 = ic.DivergenceMeasure(
        (
            (0.6, ic.InteriorParam(np.array([0.5, 0.5]))),
            (0.4, ic.WeightedKLParam(0, np.array([0.0, 1.0]))),
        )
    )
    m2 = ic.DivergenceMeasure(((1.0, ic.WeightedKLParam(1, np.array([1.0, 0.0]))),))
    return ic.MaxRenyiCost((m1, m2))


def privacy_spec():
    return ic.MaxRenyiCost(
        (
            ic.DivergenceMeasure(((1.0, ic.SupParam(np.array([1.0, -1.0]))),)),
            ic.DivergenceMeasure(((1.0, ic.SupParam(np.array([-1.0, 1.0]))),)),
        )
    )


def report_for(reports, axiom):
    return next(r for r in reports if r.axiom == Axiom(axiom).value)


FAMILIES = ("kl", "max_kl", "renyi", "max_renyi", "ps_shannon", "ps_tsallis", "ps_kl", "convex_ps")


def family_spec(family, n, seed=0):
    """A cost of one built-in family on n states, its parameters drawn from the seed."""
    rng = np.random.default_rng(seed)

    def beta():
        b = rng.uniform(0.1, 1.0, size=(n, n))
        np.fill_diagonal(b, 0.0)
        return b

    alpha = rng.dirichlet(np.ones(n))
    prior = 0.2 / n + 0.8 * rng.dirichlet(np.ones(n))
    if family == "kl":
        return ic.KLCost(beta())
    if family == "max_kl":
        return ic.MaxKLCost((beta(), beta()))
    if family == "renyi":
        return ic.RenyiCost(float(rng.uniform(0.5, 1.5)), ic.InteriorParam(alpha))
    if family == "max_renyi":
        psi = np.concatenate([[1.0], -rng.dirichlet(np.ones(n - 1))])
        kl_beta = np.concatenate([[0.0], rng.dirichlet(np.ones(n - 1))])
        return ic.MaxRenyiCost(
            (
                ic.DivergenceMeasure(((0.6, ic.InteriorParam(alpha)), (0.4, ic.SupParam(psi)))),
                ic.DivergenceMeasure(((1.0, ic.WeightedKLParam(0, kl_beta)),)),
            )
        )
    if family == "ps_shannon":
        return ic.PosteriorSeparableCost(prior, ic.ShannonEntropy())
    if family == "ps_tsallis":
        return ic.PosteriorSeparableCost(prior, ic.Tsallis(float(rng.uniform(1.5, 2.5))))
    if family == "ps_kl":
        return ic.PosteriorSeparableCost(prior, ic.KLPotential(beta()))
    assert family == "convex_ps"
    transform = ic.RenyiLogTransform(float(rng.uniform(0.5, 1.5)), float(alpha.max()))
    return ic.ConvexPSCost(prior, ic.RenyiPotential(alpha), transform)


# -- reference: the harness drawn from the block stream, one eval_cost per experiment --

_EXPERIMENTS_PER_SAMPLE = {
    Axiom.MIXTURE_CONVEXITY: 2,
    Axiom.MIXTURE_LINEARITY: 2,
    Axiom.SUB_ADDITIVITY: 2,
    Axiom.ADDITIVITY: 2,
    Axiom.IDENTITY_ADDITIVITY: 1,
    Axiom.DILUTION_LINEARITY: 1,
    Axiom.MAXIMAL_DILUTION_CONCAVITY: 1,
    Axiom.INDEPENDENCE: 3,
    Axiom.BLACKWELL_MONOTONICITY: 1,
}
_UNWEIGHTED = (Axiom.IDENTITY_ADDITIVITY, Axiom.BLACKWELL_MONOTONICITY)


def _reference_counts(rng, cap, size):
    if cap <= 2:
        return [cap] * size
    return [int(c) for c in rng.integers(2, cap + 1, size=size)]


def _reference_block(axiom, rng, profile, n_states, m):
    """m samples on n_states states from the block stream: every signal count,
    one Dirichlet call per distinct count in increasing order, the weights,
    then (for Blackwell monotonicity) the kernels' target counts and one
    Dirichlet call per distinct kernel shape in increasing order."""
    cap = profile.n_signals
    per = _EXPERIMENTS_PER_SAMPLE[axiom]
    counts = _reference_counts(rng, cap, m * per)
    matrices = [None] * len(counts)
    for s in sorted(set(counts)):
        which = [i for i, c in enumerate(counts) if c == s]
        raw = rng.dirichlet(np.ones(s), size=(len(which), n_states))
        for i, draw in zip(which, raw):
            matrices[i] = ic.new_experiment(MIN_PROB + (1.0 - MIN_PROB * s) * draw).probs.tolist()
    samples = [{"tol": profile.tol, "experiments": matrices[k * per : (k + 1) * per]} for k in range(m)]
    if axiom not in _UNWEIGHTED:
        for sample, a in zip(samples, rng.uniform(0.1, 0.9, size=m)):
            sample["weight"] = float(a)
    if axiom is Axiom.BLACKWELL_MONOTONICITY:
        cols = _reference_counts(rng, cap, m)
        for shape in sorted(set(zip(counts, cols))):
            which = [k for k in range(m) if (counts[k], cols[k]) == shape]
            rows, c = shape
            for k, psi in zip(which, rng.dirichlet(np.ones(c), size=(len(which), rows))):
                samples[k]["kernel"] = psi.tolist()
    return samples


def _reference_residual(spec, axiom, sample):
    exps = [ic.new_experiment(m) for m in sample["experiments"]]
    a = sample.get("weight")
    cost = lambda mu: ic.eval_cost(spec, mu)  # noqa: E731
    if axiom in (Axiom.MIXTURE_CONVEXITY, Axiom.MIXTURE_LINEARITY):
        mu, nu = exps
        c_mix, cm, cn = cost(ic.mixture(mu, nu, a)), cost(mu), cost(nu)
        rhs = a * cm + (1.0 - a) * cn
        scale = max(1.0, abs(cm), abs(cn), abs(rhs))
        if not all(map(math.isfinite, (c_mix, cm, cn))):
            return math.nan, scale
        diff = c_mix - rhs
        return (diff if axiom is Axiom.MIXTURE_CONVEXITY else abs(diff)), scale
    if axiom in (Axiom.SUB_ADDITIVITY, Axiom.ADDITIVITY):
        mu, nu = exps
        c_prod, cm, cn = cost(ic.product(mu, nu)), cost(mu), cost(nu)
        scale = max(1.0, abs(cm), abs(cn), abs(cm + cn))
        if not all(map(math.isfinite, (c_prod, cm, cn))):
            return math.nan, scale
        diff = c_prod - (cm + cn)
        return (diff if axiom is Axiom.SUB_ADDITIVITY else abs(diff)), scale
    if axiom is Axiom.IDENTITY_ADDITIVITY:
        (mu,) = exps
        cm = cost(mu)
        worst, scale = -math.inf, max(1.0, abs(cm))
        if not math.isfinite(cm):
            return math.nan, scale
        for k in (2, 3):
            ck = cost(ic.power(mu, k))
            if not math.isfinite(ck):
                return math.nan, scale
            scale = max(scale, abs(ck))
            worst = max(worst, abs(ck - k * cm))
        return worst, scale
    if axiom in (Axiom.DILUTION_LINEARITY, Axiom.MAXIMAL_DILUTION_CONCAVITY):
        (mu,) = exps
        cm, c_dil, c_phi = cost(mu), cost(ic.dilute(mu, a)), cost(ic.uninformative(mu.n_states))
        scale = max(1.0, abs(cm))
        if not all(map(math.isfinite, (cm, c_dil, c_phi))):
            return math.nan, scale
        if axiom is Axiom.DILUTION_LINEARITY:
            return abs(c_dil - (a * cm + (1.0 - a) * c_phi)), scale
        return abs(c_dil - cm), scale
    if axiom is Axiom.INDEPENDENCE:
        mu, mu2, nu = exps
        cm, cm2 = cost(mu), cost(mu2)
        scale = max(1.0, abs(cm), abs(cm2))
        if not all(map(math.isfinite, (cm, cm2))):
            return math.nan, scale
        delta = cm - cm2
        if abs(delta) <= 10.0 * sample["tol"] * scale:
            return math.nan, scale
        d_mix = cost(ic.mixture(mu, nu, a)) - cost(ic.mixture(mu2, nu, a))
        if not math.isfinite(d_mix):
            return math.nan, scale
        return -math.copysign(1.0, delta) * d_mix, scale
    (mu,) = exps
    nu = ic.garble(mu, ic.GarblingKernel(np.asarray(sample["kernel"], dtype=float)))
    cm, cn = cost(mu), cost(nu)
    scale = max(1.0, abs(cm))
    if not all(map(math.isfinite, (cm, cn))):
        return math.nan, scale
    return cn - cm, scale


def reference_check(spec, axiom, profile, block):
    """check_axiom one sample at a time, pricing each experiment on its own;
    samples are drawn ``block`` at a time."""
    axiom = Axiom(axiom)
    rng = np.random.default_rng(profile.seed)
    samples = []
    for start in range(0, profile.n_samples, block):
        samples += _reference_block(axiom, rng, profile, ic.spec_n_states(spec), min(block, profile.n_samples - start))
    worst, witness, evaluated = -math.inf, None, 0
    for sample in samples:
        res, scale = _reference_residual(spec, axiom, sample)
        if math.isnan(res):
            continue
        evaluated += 1
        violation = float(res / scale - profile.tol)
        if violation > worst:
            worst = violation
            witness = dict(sample, raw_residual=float(res), scale=float(scale))
    if evaluated == 0:
        worst = math.inf
    return axioms.AxiomReport(axiom.value, profile.n_samples, evaluated, float(worst), witness, bool(worst <= 0.0))


class TestCheckAxiom:
    def test_kl_mixture_linear(self):
        rep = ic.check_axiom(kl_spec(), Axiom.MIXTURE_LINEARITY, profile=ic.AxiomProfile(n_samples=200, seed=1))
        assert rep.passed and rep.worst_violation <= 0

    def test_kl_additive(self):
        rep = ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=2))
        assert rep.passed

    def test_renyi_passes_independence(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.INDEPENDENCE, profile=ic.AxiomProfile(n_samples=200, seed=3))
        assert rep.passed

    def test_renyi_fails_mixture_linearity_with_witness(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.MIXTURE_LINEARITY, profile=ic.AxiomProfile(n_samples=200, seed=4))
        assert not rep.passed and rep.worst_violation > 1e-6
        again = ic.reevaluate_witness(renyi_spec(), Axiom.MIXTURE_LINEARITY, rep.witness)
        assert again == rep.worst_violation

    @pytest.mark.parametrize("axiom", ["mixture_linearity", "independence", "dilution_linearity"])
    def test_witness_replays_at_its_own_tolerance(self, axiom):
        spec = ic.RenyiCost(1.0, ic.InteriorParam(np.array([0.3, 0.7])))
        rep = ic.check_axiom(spec, axiom, profile=ic.AxiomProfile(n_samples=60, seed=3, tol=1e-3))
        assert rep.witness["tol"] == 1e-3
        assert ic.reevaluate_witness(spec, axiom, rep.witness) == rep.worst_violation

    def test_renyi_still_mixture_convex(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.MIXTURE_CONVEXITY, profile=ic.AxiomProfile(n_samples=200, seed=5))
        assert rep.passed

    def test_determinism(self):
        a = ic.check_axiom(maxkl_spec(), Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=100, seed=11))
        b = ic.check_axiom(maxkl_spec(), Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=100, seed=11))
        assert a == b

    def test_reports_evaluated_samples(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.INDEPENDENCE, profile=ic.AxiomProfile(n_samples=50, seed=3))
        assert rep.samples == 50 and 0 < rep.evaluated <= 50
        # a zero cost ties every pair, so the ordinal check skips all samples
        free = ic.RenyiCost(0.0, ic.InteriorParam(np.array([0.5, 0.5])))
        rep = ic.check_axiom(free, Axiom.INDEPENDENCE, profile=ic.AxiomProfile(n_samples=50, seed=3))
        assert rep.samples == 50 and rep.evaluated == 0 and rep.witness is None

    def test_no_evidence_does_not_pass(self):
        # a zero cost ties every pair, so the ordinal check skips all samples
        free = ic.RenyiCost(0.0, ic.InteriorParam(np.array([0.5, 0.5])))
        rep = ic.check_axiom(free, Axiom.INDEPENDENCE, profile=ic.AxiomProfile(n_samples=20, seed=1))
        assert rep.evaluated == 0 and rep.witness is None
        assert not rep.passed and rep.worst_violation == math.inf
        assert rep.passed == (rep.worst_violation <= 0.0)
        assert json.loads(rep.to_json())["passed"] is False

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        axiom=st.sampled_from(list(Axiom)),
        n_states=st.integers(2, 3),
        cap=st.integers(1, 6),
        n_samples=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 5, axioms.BLOCK]),
    )
    def test_property_batched_report_equals_per_sample_reference(
        self, family, axiom, n_states, cap, n_samples, seed, block
    ):
        spec = family_spec(family, n_states, seed)
        profile = ic.AxiomProfile(n_signals=cap, n_samples=n_samples, seed=seed)
        with mock.patch.object(axioms, "BLOCK", block):
            got = ic.check_axiom(spec, axiom, profile=profile)
        assert got == reference_check(spec, axiom, profile, block)
        if got.witness is not None:
            again = ic.reevaluate_witness(spec, axiom, got.witness)
            assert again == got.worst_violation

    def test_one_eval_costs_call_per_priced_shape(self, monkeypatch):
        shapes = []

        def counting(spec, probs):
            shapes.append(np.shape(probs)[1:])
            return ic.eval_costs(spec, probs)

        monkeypatch.setattr(axioms, "eval_costs", counting)
        profile = ic.AxiomProfile(n_signals=4, n_samples=30, seed=3)
        for axiom in Axiom:
            shapes.clear()
            ic.check_axiom(maxrenyi_spec(), axiom, profile=profile)
            assert len(shapes) == len(set(shapes)) <= 20, axiom


class _CountingGenerator:
    """A Generator that records each method call and its result."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self._calls.append((name, out))
            return out

        return call


class TestBlockDraw:
    @settings(max_examples=120, deadline=None)
    @given(
        axiom=st.sampled_from(list(Axiom)),
        n_states=st.integers(2, 3),
        cap=st.integers(1, 49),
        m=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_draws_are_floored_stochastic_and_in_range(self, axiom, n_states, cap, m, seed):
        profile = ic.AxiomProfile(n_signals=cap, n_samples=m, seed=seed)
        samples, stacks = axioms._draw_block(axiom, np.random.default_rng(seed), profile, n_states, m)
        per = _EXPERIMENTS_PER_SAMPLE[axiom]
        assert len(samples) == m
        assert sorted(i for idx, _ in stacks for i in idx.tolist()) == list(range(m * per))
        counts = {}
        for idx, stack in stacks:
            s = stack.shape[2]
            assert stack.shape == (len(idx), n_states, s)
            assert s == cap if cap <= 2 else 2 <= s <= cap
            assert np.all(stack >= MIN_PROB)
            assert np.all(np.abs(stack.sum(axis=-1) - 1.0) <= ROW_SUM_TOL)
            counts.update((i, s) for i in idx.tolist())
        for k, sample in enumerate(samples):
            assert ("weight" in sample) == (axiom not in _UNWEIGHTED)
            if "weight" in sample:
                assert 0.1 <= sample["weight"] < 0.9
            if axiom is Axiom.BLACKWELL_MONOTONICITY:
                psi = np.asarray(sample["kernel"])
                assert psi.shape[0] == counts[k]
                assert psi.shape[1] == cap if cap <= 2 else 2 <= psi.shape[1] <= cap
                assert np.all(psi >= 0) and np.all(np.abs(psi.sum(axis=1) - 1.0) <= 1e-9)

    @pytest.mark.parametrize("axiom", list(Axiom))
    def test_one_stream_and_few_generator_calls_per_block(self, axiom, monkeypatch):
        """Per block: one integers call for the counts, one dirichlet call per
        distinct count and one uniform call for the weights; Blackwell
        monotonicity adds one integers call and one dirichlet call per
        distinct kernel shape.  That is at most (distinct shapes + 3) calls."""
        streams, calls = [], []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            streams.append(seed)
            return _CountingGenerator(default_rng(seed), calls)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(axioms, "BLOCK", 7)
        profile = ic.AxiomProfile(n_signals=6, n_samples=20, seed=5)
        ic.check_axiom(kl_spec(), axiom, profile=profile)
        assert streams == [5]
        per = _EXPERIMENTS_PER_SAMPLE[axiom]
        blackwell = axiom is Axiom.BLACKWELL_MONOTONICITY
        blocks = 0
        while calls:
            name, counts = calls.pop(0)
            assert name == "integers" and counts.shape == (min(7, 20 - 7 * blocks) * per,)
            shapes = len(set(counts.tolist()))
            expected = ["dirichlet"] * shapes + ["uniform"] * (axiom not in _UNWEIGHTED)
            if blackwell:
                cols = calls[shapes][1]
                kernels = len(set(zip(counts.tolist(), cols.tolist())))
                expected += ["integers"] + ["dirichlet"] * kernels
                shapes += kernels
            assert [name for name, _ in calls[: len(expected)]] == expected
            assert len(expected) + 1 <= shapes + 3
            del calls[: len(expected)]
            blocks += 1
        assert blocks == 3


class TestAxiomProfile:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_samples", 0),
            ("n_samples", True),
            ("n_signals", 0),
            ("n_signals", 50),
            ("n_signals", 60),
            ("seed", -1),
            ("seed", 1.5),
            ("tol", -1e-9),
            ("tol", math.nan),
            ("tol", math.inf),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(BadAxiomProfile, match=field):
            ic.AxiomProfile(**{field: value})

    def test_signal_cap_edges(self):
        assert 1.0 / MIN_PROB == 50
        for cap in (1, 49):
            profile = ic.AxiomProfile(n_signals=cap, n_samples=3, seed=1)
            assert ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, profile=profile).evaluated == 3

    def test_check_axiom_arguments_are_validated(self):
        with pytest.raises(ValueError, match="not_an_axiom"):
            ic.check_axiom(kl_spec(), "not_an_axiom")
        with pytest.raises(BadAxiomProfile, match="tol"):
            ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, profile=ic.AxiomProfile(tol=-1.0))

    @pytest.mark.parametrize("loose", [{"n_samples": 5}, {"seed": 3}, {"tol": 0.5}, {"n_samples": 5, "seed": 3}])
    def test_loose_settings_beside_a_profile_are_rejected(self, loose):
        # every setting travels in the profile; check_axiom has no second route
        with pytest.raises(TypeError):
            ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=50), **loose)


class TestFamilyFingerprints:
    def test_maxkl_dilution_linear_but_not_additive(self):
        spec = maxkl_spec()
        assert ic.check_axiom(spec, Axiom.DILUTION_LINEARITY, profile=ic.AxiomProfile(n_samples=200, seed=6)).passed
        assert ic.check_axiom(spec, Axiom.SUB_ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=7)).passed
        rep = ic.check_axiom(spec, Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=8))
        assert not rep.passed and rep.worst_violation > 1e-6
        again = ic.reevaluate_witness(spec, Axiom.ADDITIVITY, rep.witness)
        assert again == rep.worst_violation

    def test_renyi_fails_dilution_linearity(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.DILUTION_LINEARITY, profile=ic.AxiomProfile(n_samples=200, seed=9))
        assert not rep.passed

    def test_maxrenyi_convexity_trio(self):
        spec = maxrenyi_spec()
        for axiom, seed in (
            (Axiom.MIXTURE_CONVEXITY, 10),
            (Axiom.SUB_ADDITIVITY, 11),
            (Axiom.IDENTITY_ADDITIVITY, 12),
            (Axiom.BLACKWELL_MONOTONICITY, 13),
        ):
            assert ic.check_axiom(spec, axiom, profile=ic.AxiomProfile(n_samples=200, seed=seed)).passed, axiom

    def test_single_measure_additive_two_measure_not(self):
        single = ic.MaxRenyiCost((maxrenyi_spec().measures[0],))
        assert ic.check_axiom(single, Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=14)).passed
        two = maxrenyi_spec()
        rep_add = ic.check_axiom(two, Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=15))
        rep_sub = ic.check_axiom(two, Axiom.SUB_ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=15))
        assert not rep_add.passed and rep_add.worst_violation > 1e-6
        assert rep_sub.passed

    def test_tsallis_ps_fails_sub_additivity(self):
        spec = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.Tsallis(2.0))
        rep = ic.check_axiom(spec, Axiom.SUB_ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=16))
        assert not rep.passed and rep.worst_violation > 1e-6
        again = ic.reevaluate_witness(spec, Axiom.SUB_ADDITIVITY, rep.witness)
        assert again == rep.worst_violation

    def test_shannon_ps_passes_sub_additivity(self):
        spec = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.ShannonEntropy())
        assert ic.check_axiom(spec, Axiom.SUB_ADDITIVITY, profile=ic.AxiomProfile(n_samples=200, seed=17)).passed
        assert ic.check_axiom(spec, Axiom.MIXTURE_LINEARITY, profile=ic.AxiomProfile(n_samples=200, seed=18)).passed

    def test_privacy_cost_maximally_dilution_concave(self):
        spec = privacy_spec()
        rep = ic.check_axiom(spec, Axiom.MAXIMAL_DILUTION_CONCAVITY, profile=ic.AxiomProfile(n_samples=200, seed=19))
        assert rep.passed and rep.worst_violation <= 0


class TestRunSuite:
    def test_suite_is_deterministic(self):
        profile = ic.AxiomProfile(n_samples=60, seed=21)
        a = ic.run_suite(maxkl_spec(), profile)
        b = ic.run_suite(maxkl_spec(), profile)
        assert a == b

    def test_suite_covers_core_axioms(self):
        profile = ic.AxiomProfile(n_samples=40, seed=22)
        reports = ic.run_suite(kl_spec(), profile)
        assert {r.axiom for r in reports} == {a.value for a in SUITE_AXIOMS}

    def test_suite_appends_dilution_concavity_for_sup_costs(self):
        profile = ic.AxiomProfile(n_samples=40, seed=23)
        reports = ic.run_suite(privacy_spec(), profile)
        assert Axiom.MAXIMAL_DILUTION_CONCAVITY.value in {r.axiom for r in reports}

    def test_maxkl_suite_fingerprint(self):
        profile = ic.AxiomProfile(n_samples=150, seed=24)
        reports = ic.run_suite(maxkl_spec(), profile)
        assert report_for(reports, Axiom.DILUTION_LINEARITY).passed
        assert not report_for(reports, Axiom.MIXTURE_LINEARITY).passed
        assert not report_for(reports, Axiom.ADDITIVITY).passed
        assert report_for(reports, Axiom.SUB_ADDITIVITY).passed
        assert report_for(reports, Axiom.BLACKWELL_MONOTONICITY).passed

    def test_failing_witnesses_reproduce(self):
        failed = 0
        profile = ic.AxiomProfile(n_signals=4, n_samples=60, seed=25)
        for n_states in (2, 3):
            for family in FAMILIES:
                spec = family_spec(family, n_states, seed=n_states)
                for rep in ic.run_suite(spec, profile):
                    if not rep.passed:
                        failed += 1
                        again = ic.reevaluate_witness(spec, rep.axiom, rep.witness)
                        assert again == rep.worst_violation, (family, n_states, rep.axiom)
        assert failed >= 20

    def test_report_json(self):
        rep = ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, profile=ic.AxiomProfile(n_samples=50, seed=26))
        text = rep.to_json()
        assert '"axiom": "additivity"' in text
        assert '"samples": 50, "evaluated": 50,' in text
