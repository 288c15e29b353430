"""Axiom harness: the pass/fail fingerprints of each cost family."""

import numpy as np
import pytest

import infocost as ic
from infocost.axioms import SUITE_AXIOMS, Axiom
from infocost.errors import AxiomNotApplicable


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


class TestCheckAxiom:
    def test_kl_mixture_linear(self):
        rep = ic.check_axiom(kl_spec(), Axiom.MIXTURE_LINEARITY, n_samples=200, seed=1)
        assert rep.passed and rep.worst_violation <= 0

    def test_kl_additive(self):
        rep = ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, n_samples=200, seed=2)
        assert rep.passed

    def test_renyi_passes_independence(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.INDEPENDENCE, n_samples=200, seed=3)
        assert rep.passed

    def test_renyi_fails_mixture_linearity_with_witness(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.MIXTURE_LINEARITY, n_samples=200, seed=4)
        assert not rep.passed and rep.worst_violation > 1e-6
        again = ic.reevaluate_witness(renyi_spec(), Axiom.MIXTURE_LINEARITY, rep.witness)
        assert again >= 0.5 * rep.worst_violation

    def test_renyi_still_mixture_convex(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.MIXTURE_CONVEXITY, n_samples=200, seed=5)
        assert rep.passed

    def test_determinism(self):
        a = ic.check_axiom(maxkl_spec(), Axiom.ADDITIVITY, n_samples=100, seed=11)
        b = ic.check_axiom(maxkl_spec(), Axiom.ADDITIVITY, n_samples=100, seed=11)
        assert a == b

    def test_reports_evaluated_samples(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.INDEPENDENCE, n_samples=50, seed=3)
        assert rep.samples == 50 and 0 < rep.evaluated <= 50
        # a zero cost ties every pair, so the ordinal check skips all samples
        free = ic.RenyiCost(0.0, ic.InteriorParam(np.array([0.5, 0.5])))
        rep = ic.check_axiom(free, Axiom.INDEPENDENCE, n_samples=50, seed=3)
        assert rep.samples == 50 and rep.evaluated == 0 and rep.witness is None

    def test_dimension_guard(self):
        profile = ic.AxiomProfile(n_states=3)
        with pytest.raises(AxiomNotApplicable):
            ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, profile=profile)


class TestFamilyFingerprints:
    def test_maxkl_dilution_linear_but_not_additive(self):
        spec = maxkl_spec()
        assert ic.check_axiom(spec, Axiom.DILUTION_LINEARITY, 200, seed=6).passed
        assert ic.check_axiom(spec, Axiom.SUB_ADDITIVITY, 200, seed=7).passed
        rep = ic.check_axiom(spec, Axiom.ADDITIVITY, 200, seed=8)
        assert not rep.passed and rep.worst_violation > 1e-6
        again = ic.reevaluate_witness(spec, Axiom.ADDITIVITY, rep.witness)
        assert again >= 0.5 * rep.worst_violation

    def test_renyi_fails_dilution_linearity(self):
        rep = ic.check_axiom(renyi_spec(), Axiom.DILUTION_LINEARITY, 200, seed=9)
        assert not rep.passed

    def test_maxrenyi_convexity_trio(self):
        spec = maxrenyi_spec()
        for axiom, seed in (
            (Axiom.MIXTURE_CONVEXITY, 10),
            (Axiom.SUB_ADDITIVITY, 11),
            (Axiom.IDENTITY_ADDITIVITY, 12),
            (Axiom.BLACKWELL_MONOTONICITY, 13),
        ):
            assert ic.check_axiom(spec, axiom, 200, seed=seed).passed, axiom

    def test_single_measure_additive_two_measure_not(self):
        single = ic.MaxRenyiCost((maxrenyi_spec().measures[0],))
        assert ic.check_axiom(single, Axiom.ADDITIVITY, 200, seed=14).passed
        two = maxrenyi_spec()
        rep_add = ic.check_axiom(two, Axiom.ADDITIVITY, 200, seed=15)
        rep_sub = ic.check_axiom(two, Axiom.SUB_ADDITIVITY, 200, seed=15)
        assert not rep_add.passed and rep_add.worst_violation > 1e-6
        assert rep_sub.passed

    def test_tsallis_ps_fails_sub_additivity(self):
        spec = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.Tsallis(2.0))
        rep = ic.check_axiom(spec, Axiom.SUB_ADDITIVITY, 200, seed=16)
        assert not rep.passed and rep.worst_violation > 1e-6
        again = ic.reevaluate_witness(spec, Axiom.SUB_ADDITIVITY, rep.witness)
        assert again >= 0.5 * rep.worst_violation

    def test_shannon_ps_passes_sub_additivity(self):
        spec = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.ShannonEntropy())
        assert ic.check_axiom(spec, Axiom.SUB_ADDITIVITY, 200, seed=17).passed
        assert ic.check_axiom(spec, Axiom.MIXTURE_LINEARITY, 200, seed=18).passed

    def test_privacy_cost_maximally_dilution_concave(self):
        spec = privacy_spec()
        rep = ic.check_axiom(spec, Axiom.MAXIMAL_DILUTION_CONCAVITY, 200, seed=19)
        assert rep.passed and rep.worst_violation <= 0


class TestRunSuite:
    def test_suite_is_deterministic(self):
        profile = ic.AxiomProfile(n_states=2, n_samples=60, seed=21)
        a = ic.run_suite(maxkl_spec(), profile)
        b = ic.run_suite(maxkl_spec(), profile)
        assert a == b

    def test_suite_covers_core_axioms(self):
        profile = ic.AxiomProfile(n_states=2, n_samples=40, seed=22)
        reports = ic.run_suite(kl_spec(), profile)
        assert {r.axiom for r in reports} == {a.value for a in SUITE_AXIOMS}

    def test_suite_appends_dilution_concavity_for_sup_costs(self):
        profile = ic.AxiomProfile(n_states=2, n_samples=40, seed=23)
        reports = ic.run_suite(privacy_spec(), profile)
        assert Axiom.MAXIMAL_DILUTION_CONCAVITY.value in {r.axiom for r in reports}

    def test_maxkl_suite_fingerprint(self):
        profile = ic.AxiomProfile(n_states=2, n_samples=150, seed=24)
        reports = ic.run_suite(maxkl_spec(), profile)
        assert report_for(reports, Axiom.DILUTION_LINEARITY).passed
        assert not report_for(reports, Axiom.MIXTURE_LINEARITY).passed
        assert not report_for(reports, Axiom.ADDITIVITY).passed
        assert report_for(reports, Axiom.SUB_ADDITIVITY).passed
        assert report_for(reports, Axiom.BLACKWELL_MONOTONICITY).passed

    def test_failing_witnesses_reproduce(self):
        profile = ic.AxiomProfile(n_states=2, n_samples=150, seed=25)
        for spec in (renyi_spec(), maxkl_spec(), maxrenyi_spec()):
            for rep in ic.run_suite(spec, profile):
                if not rep.passed:
                    again = ic.reevaluate_witness(spec, rep.axiom, rep.witness)
                    assert again >= 0.5 * rep.worst_violation, (type(spec), rep.axiom)

    def test_report_json(self):
        rep = ic.check_axiom(kl_spec(), Axiom.ADDITIVITY, 50, seed=26)
        text = rep.to_json()
        assert '"axiom": "additivity"' in text
        assert '"samples": 50, "evaluated": 50,' in text
