"""Randomized falsification harness for the cost-function axioms.

Each check samples bounded experiments, evaluates the defining equality or
inequality of an axiom, and reports the worst violation found together with a
witness that reproduces it standalone.  Equality axioms are judged relative
to max(1, |cost|); near-ties are skipped in the ordinal independence test
rather than adjudicated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .blackwell import GarblingKernel, garble, random_kernel
from .cost import CostSpec, _has_sup_atom, eval_cost, spec_n_states
from .errors import AxiomNotApplicable
from .experiment import (
    FiniteExperiment,
    dilute,
    mixture,
    new_experiment,
    power,
    product,
    random_experiment,
    uninformative,
)


MIN_PROB = 0.02  # floor of every sampled entry, which keeps log likelihood ratios bounded


class Axiom(str, Enum):
    MIXTURE_CONVEXITY = "mixture_convexity"
    MIXTURE_LINEARITY = "mixture_linearity"
    SUB_ADDITIVITY = "sub_additivity"
    ADDITIVITY = "additivity"
    IDENTITY_ADDITIVITY = "identity_additivity"
    DILUTION_LINEARITY = "dilution_linearity"
    INDEPENDENCE = "independence"
    BLACKWELL_MONOTONICITY = "blackwell_monotonicity"
    MAXIMAL_DILUTION_CONCAVITY = "maximal_dilution_concavity"


@dataclass(frozen=True)
class AxiomProfile:
    """Sampling profile: dimensions, sample count, seed, and tolerance."""

    n_states: int = 2
    n_signals: int = 3
    n_samples: int = 200
    seed: int = 0
    tol: float = 1e-9


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    samples: int
    evaluated: int
    worst_violation: float
    witness: Optional[dict]
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "axiom": self.axiom,
                "samples": self.samples,
                "evaluated": self.evaluated,
                "worst_violation": self.worst_violation,
                "passed": self.passed,
                "witness": self.witness,
            }
        )


def _n_signals(rng: np.random.Generator, cap: int) -> int:
    return int(rng.integers(2, cap + 1)) if cap > 2 else cap


def _draw(rng: np.random.Generator, n_states: int, cap: int) -> FiniteExperiment:
    seed = int(rng.integers(0, 2**31 - 1))
    return random_experiment(n_states, _n_signals(rng, cap), seed, MIN_PROB)


def _residual(spec: CostSpec, axiom: Axiom, sample: dict) -> tuple[float, float]:
    """Signed violation and its scale for one sampled instance.

    Positive residuals are violations; equality axioms use the absolute
    deviation.  Returns (nan, scale) when the sample is uninformative for the
    axiom (near-ties in the ordinal test, non-finite values).
    """
    exps = [new_experiment(m) for m in sample["experiments"]]
    a = sample.get("weight")
    if axiom in (Axiom.MIXTURE_CONVEXITY, Axiom.MIXTURE_LINEARITY):
        mu, nu = exps
        c_mix = eval_cost(spec, mixture(mu, nu, a))
        cm, cn = eval_cost(spec, mu), eval_cost(spec, nu)
        rhs = a * cm + (1.0 - a) * cn
        scale = max(1.0, abs(cm), abs(cn), abs(rhs))
        if not all(map(math.isfinite, (c_mix, cm, cn))):
            return math.nan, scale
        diff = c_mix - rhs
        return (diff if axiom is Axiom.MIXTURE_CONVEXITY else abs(diff)), scale
    if axiom in (Axiom.SUB_ADDITIVITY, Axiom.ADDITIVITY):
        mu, nu = exps
        c_prod = eval_cost(spec, product(mu, nu))
        cm, cn = eval_cost(spec, mu), eval_cost(spec, nu)
        scale = max(1.0, abs(cm), abs(cn), abs(cm + cn))
        if not all(map(math.isfinite, (c_prod, cm, cn))):
            return math.nan, scale
        diff = c_prod - (cm + cn)
        return (diff if axiom is Axiom.SUB_ADDITIVITY else abs(diff)), scale
    if axiom is Axiom.IDENTITY_ADDITIVITY:
        (mu,) = exps
        cm = eval_cost(spec, mu)
        worst, scale = -math.inf, max(1.0, abs(cm))
        if not math.isfinite(cm):
            return math.nan, scale
        for k in (2, 3):
            ck = eval_cost(spec, power(mu, k))
            if not math.isfinite(ck):
                return math.nan, scale
            scale = max(scale, abs(ck))
            worst = max(worst, abs(ck - k * cm))
        return worst, scale
    if axiom in (Axiom.DILUTION_LINEARITY, Axiom.MAXIMAL_DILUTION_CONCAVITY):
        (mu,) = exps
        cm = eval_cost(spec, mu)
        c_dil = eval_cost(spec, dilute(mu, a))
        c_phi = eval_cost(spec, uninformative(mu.n_states))
        scale = max(1.0, abs(cm))
        if not all(map(math.isfinite, (cm, c_dil, c_phi))):
            return math.nan, scale
        if axiom is Axiom.DILUTION_LINEARITY:
            return abs(c_dil - (a * cm + (1.0 - a) * c_phi)), scale
        return abs(c_dil - cm), scale
    if axiom is Axiom.INDEPENDENCE:
        mu, mu2, nu = exps
        cm, cm2 = eval_cost(spec, mu), eval_cost(spec, mu2)
        scale = max(1.0, abs(cm), abs(cm2))
        if not all(map(math.isfinite, (cm, cm2))):
            return math.nan, scale
        delta = cm - cm2
        if abs(delta) <= 10.0 * sample["tol"] * scale:
            return math.nan, scale  # sign of a near-zero difference is meaningless
        d_mix = eval_cost(spec, mixture(mu, nu, a)) - eval_cost(spec, mixture(mu2, nu, a))
        if not math.isfinite(d_mix):
            return math.nan, scale
        return -math.copysign(1.0, delta) * d_mix, scale
    if axiom is Axiom.BLACKWELL_MONOTONICITY:
        (mu,) = exps
        kernel = GarblingKernel(np.asarray(sample["kernel"], dtype=float))
        nu = garble(mu, kernel)
        cm, cn = eval_cost(spec, mu), eval_cost(spec, nu)
        scale = max(1.0, abs(cm))
        if not all(map(math.isfinite, (cm, cn))):
            return math.nan, scale
        return cn - cm, scale
    raise AxiomNotApplicable(f"unknown axiom {axiom!r}")


def _sample_inputs(axiom: Axiom, rng: np.random.Generator, profile: AxiomProfile) -> dict:
    n_states, cap = profile.n_states, profile.n_signals
    sample: dict = {"tol": profile.tol}
    if axiom in (Axiom.MIXTURE_CONVEXITY, Axiom.MIXTURE_LINEARITY, Axiom.SUB_ADDITIVITY, Axiom.ADDITIVITY):
        sample["experiments"] = [
            _draw(rng, n_states, cap).probs.tolist(),
            _draw(rng, n_states, cap).probs.tolist(),
        ]
        sample["weight"] = float(rng.uniform(0.1, 0.9))
    elif axiom in (Axiom.IDENTITY_ADDITIVITY,):
        sample["experiments"] = [_draw(rng, n_states, cap).probs.tolist()]
    elif axiom in (Axiom.DILUTION_LINEARITY, Axiom.MAXIMAL_DILUTION_CONCAVITY):
        sample["experiments"] = [_draw(rng, n_states, cap).probs.tolist()]
        sample["weight"] = float(rng.uniform(0.1, 0.9))
    elif axiom is Axiom.INDEPENDENCE:
        sample["experiments"] = [_draw(rng, n_states, cap).probs.tolist() for _ in range(3)]
        sample["weight"] = float(rng.uniform(0.1, 0.9))
    elif axiom is Axiom.BLACKWELL_MONOTONICITY:
        mu = _draw(rng, n_states, cap)
        sample["experiments"] = [mu.probs.tolist()]
        cols = _n_signals(rng, cap)
        kernel = random_kernel(mu.n_signals, cols, int(rng.integers(0, 2**31 - 1)))
        sample["kernel"] = kernel.psi.tolist()
    else:
        raise AxiomNotApplicable(f"unknown axiom {axiom!r}")
    return sample


def check_axiom(
    spec: CostSpec,
    axiom: Axiom | str,
    n_samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
    profile: Optional[AxiomProfile] = None,
) -> AxiomReport:
    """Sample instances of one axiom's defining relation and report the worst case.

    The report passes iff no sampled residual exceeds the tolerance relative
    to max(1, |cost|).  ``evaluated`` counts the samples that gave a residual
    (the rest were uninformative and skipped); with none the report passes
    without evidence.  The stored witness re-evaluates standalone through
    :func:`reevaluate_witness`.
    """
    axiom = Axiom(axiom)
    n_states = spec_n_states(spec)
    if profile is None:
        profile = AxiomProfile(n_states=n_states, n_samples=n_samples, seed=seed, tol=tol)
    if profile.n_states != n_states:
        raise AxiomNotApplicable(
            f"spec is {n_states}-state but the profile asks for {profile.n_states}"
        )
    rng = np.random.default_rng(profile.seed)
    worst = -math.inf
    witness = None
    evaluated = 0
    for _ in range(profile.n_samples):
        sample = _sample_inputs(axiom, rng, profile)
        res, scale = _residual(spec, axiom, sample)
        if math.isnan(res):
            continue
        evaluated += 1
        violation = float(res / scale - profile.tol)
        if violation > worst:
            worst = violation
            witness = dict(sample, raw_residual=float(res), scale=float(scale))
    if worst == -math.inf:
        worst = -profile.tol
    return AxiomReport(
        axiom.value, profile.n_samples, evaluated, float(worst), witness, bool(worst <= 0.0)
    )


def reevaluate_witness(spec: CostSpec, axiom: Axiom | str, witness: dict, tol: float = 1e-9) -> float:
    """Recompute the violation of a stored witness from its raw matrices."""
    res, scale = _residual(spec, Axiom(axiom), dict(witness, tol=tol))
    if math.isnan(res):
        return -tol
    return res / scale - tol


SUITE_AXIOMS = (
    Axiom.BLACKWELL_MONOTONICITY,
    Axiom.MIXTURE_CONVEXITY,
    Axiom.MIXTURE_LINEARITY,
    Axiom.DILUTION_LINEARITY,
    Axiom.INDEPENDENCE,
    Axiom.SUB_ADDITIVITY,
    Axiom.ADDITIVITY,
    Axiom.IDENTITY_ADDITIVITY,
)


def run_suite(spec: CostSpec, profile: Optional[AxiomProfile] = None) -> list[AxiomReport]:
    """Run the axiom battery appropriate to a cost family, deterministically."""
    if profile is None:
        profile = AxiomProfile(n_states=spec_n_states(spec))
    axioms = list(SUITE_AXIOMS)
    if _has_sup_atom(spec):
        axioms.append(Axiom.MAXIMAL_DILUTION_CONCAVITY)
    reports = []
    for i, axiom in enumerate(axioms):
        sub = replace(profile, seed=profile.seed + 1000 * i)
        reports.append(check_axiom(spec, axiom, profile=sub))
    return reports
