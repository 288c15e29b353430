"""Randomized falsification harness for the cost-function axioms.

Each check samples bounded experiments, evaluates the defining equality or
inequality of an axiom, and reports the worst violation found together with a
witness that reproduces it standalone.  Equality axioms are judged relative
to max(1, |cost|); near-ties are skipped in the ordinal independence test
rather than adjudicated.

A check runs in blocks of ``BLOCK`` samples and in three steps: draw the
whole block from the check's one seeded stream in a few vectorized calls
(see :func:`_draw_block` for the order), validate and renormalize each drawn
equal-shape stack as a whole, then build each sample's derived experiments
(mixtures, products, garblings, ...) and price every equal-shape stack of
them with one :func:`eval_costs` call.  Each value equals the cost of that
experiment evaluated alone.  Because a block is drawn as a whole, ``BLOCK``
sets the stream once ``n_samples`` exceeds it, and the samples of a shorter
run are not a prefix of a longer run's.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from typing import Optional

import numpy as np

from .blackwell import GarblingKernel, garble
from .cost import CostSpec, _has_sup_atom, eval_costs, spec_n_states
from .errors import BadAxiomProfile
from .experiment import (
    FiniteExperiment,
    _freeze,
    _is_count,
    _jsonable,
    mixture,
    new_experiment,
    normalized_rows,
    power,
    product,
    uninformative,
)


MIN_PROB = 0.02  # floor of every sampled entry, which keeps log likelihood ratios bounded
BLOCK = 1024  # samples drawn and priced together, so memory does not grow with n_samples


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
    """Sampling profile: signal cap, sample count, seed, and tolerance.

    ``n_signals`` caps the signals of each sampled experiment; it must stay
    below ``1 / MIN_PROB`` so the entry floor is feasible.  The state count
    is not a setting: a check samples experiments on its cost's own states.
    """

    n_signals: int = 3
    n_samples: int = 200
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        for name, low in (("n_signals", 1), ("n_samples", 1), ("seed", 0)):
            v = getattr(self, name)
            if not _is_count(v, low):
                raise BadAxiomProfile(f"{name} must be an integer >= {low}, got {v!r}")
        if MIN_PROB * self.n_signals >= 1.0:
            raise BadAxiomProfile(
                f"n_signals must be below {1.0 / MIN_PROB:g}, the most that fit the entry floor {MIN_PROB}, "
                f"got {self.n_signals}"
            )
        if not (isinstance(self.tol, numbers.Real) and 0.0 <= self.tol < math.inf):
            raise BadAxiomProfile(f"tol must be finite and nonnegative, got {self.tol!r}")


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    samples: int
    evaluated: int
    worst_violation: float
    witness: Optional[dict]
    passed: bool

    def to_json(self) -> str:
        """The report as strict JSON: an infinite ``worst_violation`` is "inf"."""
        keys = ("axiom", "samples", "evaluated", "worst_violation", "passed", "witness")
        return json.dumps(_jsonable({k: getattr(self, k) for k in keys}))


# experiments drawn per sample, and whether a mixture weight is drawn after them
_INPUTS = {
    Axiom.MIXTURE_CONVEXITY: (2, True),
    Axiom.MIXTURE_LINEARITY: (2, True),
    Axiom.SUB_ADDITIVITY: (2, True),
    Axiom.ADDITIVITY: (2, True),
    Axiom.IDENTITY_ADDITIVITY: (1, False),
    Axiom.DILUTION_LINEARITY: (1, True),
    Axiom.MAXIMAL_DILUTION_CONCAVITY: (1, True),
    Axiom.INDEPENDENCE: (3, True),
    Axiom.BLACKWELL_MONOTONICITY: (1, False),
}


def _signal_counts(rng: np.random.Generator, cap: int, size) -> np.ndarray:
    """Signal counts uniform on [2, cap] in one ``integers`` call, or all
    ``cap`` (and no call) when cap <= 2."""
    return rng.integers(2, cap + 1, size=size) if cap > 2 else np.full(size, cap)


def _draw_block(
    axiom: Axiom, rng: np.random.Generator, profile: AxiomProfile, n_states: int, m: int
) -> tuple[list[dict], list]:
    """Draw m samples on ``n_states`` states from ``rng``, in this order:

    1. the signal count of every experiment of the block, sample by sample,
       in one ``integers`` call (none when ``n_signals`` <= 2);
    2. for each distinct count s, in increasing order, one
       ``dirichlet(np.ones(s), size=(c, n_states))`` call for the c
       experiments of that count, in sample order, each entry floored as
       ``MIN_PROB + (1 - MIN_PROB * s) * raw``;
    3. the weights, in one ``uniform(0.1, 0.9, size=m)`` call, for the axioms
       that mix or dilute;
    4. for Blackwell monotonicity, the kernels' target counts as in step 1,
       then one ``dirichlet`` call per distinct (rows, cols) pair, in
       increasing order, for the kernels of that shape in sample order.

    Returns the samples, without their experiments, and the drawn stacks as
    ``(indices, stack)`` pairs: ``stack[j]`` is experiment ``indices[j]`` of
    the block, numbered sample by sample.
    """
    count, weighted = _INPUTS[axiom]
    counts = _signal_counts(rng, profile.n_signals, m * count)
    stacks = []
    for s in sorted(set(counts.tolist())):  # np.unique would import numpy.ma, about 1 MB
        idx = np.flatnonzero(counts == s)
        raw = rng.dirichlet(np.ones(s), size=(idx.size, n_states))
        stacks.append((idx, MIN_PROB + (1.0 - MIN_PROB * s) * raw))
    samples: list[dict] = [{"tol": profile.tol} for _ in range(m)]
    if weighted:
        for sample, a in zip(samples, rng.uniform(0.1, 0.9, size=m).tolist()):
            sample["weight"] = a
    if axiom is Axiom.BLACKWELL_MONOTONICITY:  # one experiment per sample, so counts[i] is sample i's
        cols = _signal_counts(rng, profile.n_signals, m)
        for r, c in sorted(set(zip(counts.tolist(), cols.tolist()))):
            idx = np.flatnonzero((counts == r) & (cols == c))
            for i, psi in zip(idx, rng.dirichlet(np.ones(c), size=(idx.size, r))):
                samples[i]["kernel"] = psi.tolist()
    return samples, stacks


def _build(samples: list[dict], stacks: list, count: int) -> list[list[FiniteExperiment]]:
    """Validate and renormalize every drawn stack twice, as :func:`new_experiment`
    would each matrix: a sample's ``experiments`` become the once-normalized
    matrices a witness stores, and the returned experiments hold them
    normalized again, which is what :func:`reevaluate_witness` rebuilds from
    the witness.  Each sample has ``count`` experiments."""
    once: list = [None] * (count * len(samples))
    twice: list = [None] * len(once)
    for idx, raw in stacks:
        rows = normalized_rows(raw)
        for i, a, b in zip(idx.tolist(), rows, _freeze(normalized_rows(rows))):
            once[i], twice[i] = a, FiniteExperiment(b)
    built = []
    for k, s in enumerate(samples):
        s["experiments"] = once[k * count : (k + 1) * count]
        built.append(twice[k * count : (k + 1) * count])
    return built


def _derived(
    axiom: Axiom, sample: dict, exps: list[FiniteExperiment], phi: FiniteExperiment
) -> list[FiniteExperiment]:
    """The experiments whose costs decide one sample, in the order :func:`_combine`
    reads them; ``phi`` is the one-signal uninformative experiment."""
    a = sample.get("weight")
    if axiom in (Axiom.MIXTURE_CONVEXITY, Axiom.MIXTURE_LINEARITY):
        mu, nu = exps
        return [mixture(mu, nu, a), mu, nu]
    if axiom in (Axiom.SUB_ADDITIVITY, Axiom.ADDITIVITY):
        mu, nu = exps
        return [product(mu, nu), mu, nu]
    if axiom is Axiom.IDENTITY_ADDITIVITY:
        (mu,) = exps
        return [mu, power(mu, 2), power(mu, 3)]
    if axiom in (Axiom.DILUTION_LINEARITY, Axiom.MAXIMAL_DILUTION_CONCAVITY):
        (mu,) = exps
        return [mu, mixture(mu, phi, a), phi]  # mixing with phi is dilution
    if axiom is Axiom.INDEPENDENCE:
        mu, mu2, nu = exps
        return [mu, mu2, mixture(mu, nu, a), mixture(mu2, nu, a)]
    (mu,) = exps  # Blackwell monotonicity
    return [mu, garble(mu, GarblingKernel(np.asarray(sample["kernel"], dtype=float)))]


def _combine(axiom: Axiom, sample: dict, costs: list[float]) -> tuple[float, float]:
    """Signed violation and its scale for one sample, from the costs of its
    :func:`_derived` experiments.

    Positive residuals are violations; equality axioms use the absolute
    deviation.  Returns (nan, nan) when the sample is uninformative for the
    axiom (a non-finite cost, or a near-tie in the ordinal test).
    """
    if not all(map(math.isfinite, costs)):
        return math.nan, math.nan
    a = sample.get("weight")
    if axiom in (Axiom.MIXTURE_CONVEXITY, Axiom.MIXTURE_LINEARITY, Axiom.SUB_ADDITIVITY, Axiom.ADDITIVITY):
        c_joint, cm, cn = costs
        mixed = axiom in (Axiom.MIXTURE_CONVEXITY, Axiom.MIXTURE_LINEARITY)
        rhs = a * cm + (1.0 - a) * cn if mixed else cm + cn
        diff = c_joint - rhs
        scale = max(1.0, abs(cm), abs(cn), abs(rhs))
        return (diff if axiom in (Axiom.MIXTURE_CONVEXITY, Axiom.SUB_ADDITIVITY) else abs(diff)), scale
    if axiom is Axiom.IDENTITY_ADDITIVITY:
        cm, c2, c3 = costs
        return max(abs(c2 - 2 * cm), abs(c3 - 3 * cm)), max(1.0, abs(cm), abs(c2), abs(c3))
    if axiom in (Axiom.DILUTION_LINEARITY, Axiom.MAXIMAL_DILUTION_CONCAVITY):
        cm, c_dil, c_phi = costs
        if axiom is Axiom.DILUTION_LINEARITY:
            return abs(c_dil - (a * cm + (1.0 - a) * c_phi)), max(1.0, abs(cm))
        return abs(c_dil - cm), max(1.0, abs(cm))
    if axiom is Axiom.INDEPENDENCE:
        cm, cm2, c_mix, c_mix2 = costs
        scale = max(1.0, abs(cm), abs(cm2))
        delta = cm - cm2
        if abs(delta) <= 10.0 * sample["tol"] * scale:
            return math.nan, math.nan  # sign of a near-zero difference is meaningless
        return -math.copysign(1.0, delta) * (c_mix - c_mix2), scale
    cm, cn = costs  # Blackwell monotonicity
    return cn - cm, max(1.0, abs(cm))


def _price(spec: CostSpec, exps: list[FiniteExperiment]) -> list[float]:
    """The cost of each experiment, one :func:`eval_costs` call per equal-shape stack."""
    groups: dict = {}
    for i, e in enumerate(exps):
        groups.setdefault(e.probs.shape, []).append(i)
    costs: list = [None] * len(exps)
    for idx in groups.values():
        for i, value in zip(idx, eval_costs(spec, np.stack([exps[i].probs for i in idx])).tolist()):
            costs[i] = value
    return costs


def check_axiom(spec: CostSpec, axiom: Axiom | str, profile: Optional[AxiomProfile] = None) -> AxiomReport:
    """Sample instances of one axiom's defining relation and report the worst case.

    The sampling settings come from ``profile`` (``AxiomProfile()`` when left
    out); the experiments are drawn on the cost's own ``spec_n_states(spec)``
    states.

    The report passes iff no sampled residual exceeds the tolerance relative
    to max(1, |cost|).  ``evaluated`` counts the samples that gave a residual
    (the rest were uninformative and skipped).  With none there is no
    evidence either way: ``worst_violation`` is inf, there is no witness,
    and the report does not pass, so ``passed == (worst_violation <= 0)``
    holds in every report.  The stored witness re-evaluates standalone
    through :func:`reevaluate_witness`.

    Samples are drawn ``BLOCK`` at a time from one ``default_rng(seed)``
    stream, each block in a few vectorized calls in the order
    :func:`_draw_block` documents, and their experiments are priced in
    equal-shape stacks; every value equals the one a sample evaluated on its
    own gives.  The stream depends on the block partition, so ``BLOCK`` sets
    it once ``n_samples`` exceeds it, and a shorter run's samples are not a
    prefix of a longer run's.
    """
    axiom = Axiom(axiom)
    profile = profile or AxiomProfile()
    n_states = spec_n_states(spec)
    rng = np.random.default_rng(profile.seed)
    count = _INPUTS[axiom][0]
    phi = uninformative(n_states)
    worst = -math.inf
    witness = None
    evaluated = 0
    for start in range(0, profile.n_samples, BLOCK):
        samples, stacks = _draw_block(axiom, rng, profile, n_states, min(BLOCK, profile.n_samples - start))
        derived = [_derived(axiom, s, exps, phi) for s, exps in zip(samples, _build(samples, stacks, count))]
        costs = iter(_price(spec, [e for d in derived for e in d]))
        for sample, d in zip(samples, derived):
            res, scale = _combine(axiom, sample, list(islice(costs, len(d))))
            if math.isnan(res):
                continue
            evaluated += 1
            violation = float(res / scale - profile.tol)
            if violation > worst:
                worst = violation
                witness = dict(
                    sample,
                    experiments=[m.tolist() for m in sample["experiments"]],
                    raw_residual=float(res),
                    scale=float(scale),
                )
    if evaluated == 0:
        worst = math.inf
    return AxiomReport(
        axiom.value, profile.n_samples, evaluated, float(worst), witness, bool(worst <= 0.0)
    )


def reevaluate_witness(spec: CostSpec, axiom: Axiom | str, witness: dict) -> float:
    """Recompute the violation of a stored witness from its raw matrices, at
    the tolerance it was found at."""
    axiom = Axiom(axiom)
    tol = witness["tol"]
    exps = [new_experiment(m) for m in witness["experiments"]]
    phi = uninformative(exps[0].n_states)
    res, scale = _combine(axiom, witness, _price(spec, _derived(axiom, witness, exps, phi)))
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
    """Run the axiom battery appropriate to a cost family, deterministically,
    with the settings of ``profile`` (``AxiomProfile()`` when left out)."""
    profile = profile or AxiomProfile()
    axioms = list(SUITE_AXIOMS)
    if _has_sup_atom(spec):
        axioms.append(Axiom.MAXIMAL_DILUTION_CONCAVITY)
    reports = []
    for i, axiom in enumerate(axioms):
        sub = replace(profile, seed=profile.seed + 1000 * i)
        reports.append(check_axiom(spec, axiom, profile=sub))
    return reports
