"""Cost families over experiments.

Six specifications are supported: weighted-KL sums, maxima of those over a
finite set of weight matrices, scaled single divergences, maxima of finite
divergence mixtures, posterior-separable costs built from a convex potential,
and increasing convex transforms of posterior-separable costs.

Sign convention: potentials are stored convex (entropy-style concave
potentials are negated), and the posterior-separable cost is the expected
potential of the posterior minus the potential of the prior.

Every family is priced on a stack of matrices ``probs[B, n, s]`` by
``eval_costs``.  Divergences go through the one divergence kernel; potentials
through ``_potentials`` and transforms through ``_transforms``, each one NumPy
pass per built-in kind.  Only custom potentials and transforms are called
value by value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Union

import numpy as np

from .divergence import (
    PARAM_KINDS,
    DivergenceMeasure,
    InteriorParam,
    SupParam,
    WeightedKLParam,
    _divergences,
    _from_payload,
    _kls,
    _log_ratios,
    _to_payload,
    extended_divergence,
)
from .errors import BadCostSpec, DimensionMismatch, NoSecondDerivative, NotADistribution
from .experiment import FiniteExperiment, _check_prior, _freeze


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShannonEntropy:
    """Negated Shannon entropy: sum_i p_i log p_i."""


@dataclass(frozen=True)
class Tsallis:
    """Negated generalized entropy (sum_i p_i^sigma - 1) / (sigma - 1), sigma > 0, != 1."""

    sigma: float

    def __post_init__(self):
        if not (0 < self.sigma < math.inf) or self.sigma == 1.0:
            raise BadCostSpec(f"sigma must be finite, positive and != 1, got {self.sigma!r}")


@dataclass(frozen=True, eq=False)
class KLPotential:
    """The convex potential whose posterior-separable cost is the weighted-KL cost.

    Phi(p) = sum_ij beta_ij (p_i/q_i) log((p_i/q_i) / (p_j/q_j)); it vanishes
    at the prior and its expectation under the posterior distribution of an
    experiment is exactly sum_ij beta_ij KL(mu_i || mu_j).
    """

    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        _check_beta(b)
        object.__setattr__(self, "beta", _freeze(b.copy()))


@dataclass(frozen=True, eq=False)
class RenyiPotential:
    """Phi(p) = 1 - prod_i (p_i/q_i)^alpha_i for a nonnegative interior alpha."""

    alpha: np.ndarray

    def __post_init__(self):
        param = InteriorParam(np.asarray(self.alpha, dtype=float))
        if not param.is_nonnegative():
            raise BadCostSpec("potential exponents must be nonnegative")
        object.__setattr__(self, "alpha", param.alpha)


@dataclass(frozen=True)
class CustomPotential:
    """User-supplied convex potential fn(p, q); d2(x) is the second derivative
    of the concave-entropy counterpart in the binary belief x, if available."""

    fn: Callable[[np.ndarray, np.ndarray], float]
    d2: Optional[Callable[[float], float]] = None


PotentialSpec = Union[ShannonEntropy, Tsallis, KLPotential, RenyiPotential, CustomPotential]


def _potentials(potential: PotentialSpec, post: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The convex potential at every posterior of a stack ``post[..., n, s]``
    (states on the second-to-last axis) under prior q.  Built-in potentials
    take one NumPy pass; a custom potential is called posterior by posterior."""
    if isinstance(potential, ShannonEntropy):
        return np.where(post > 0, post * np.log(post), 0.0).sum(axis=-2)
    if isinstance(potential, Tsallis):
        return ((post**potential.sigma).sum(axis=-2) - 1.0) / (potential.sigma - 1.0)
    if isinstance(potential, KLPotential):
        # beta_ij r_i (log r_i - log r_j), dropped where r_i = 0, +inf where r_j = 0 < r_i
        r = np.moveaxis(post / q[:, None], -2, 0)
        log_r = np.log(r)
        terms = (
            np.where(r[i] > 0, potential.beta[i, j] * r[i] * (log_r[i] - log_r[j]), 0.0)
            for i, j in zip(*np.nonzero(potential.beta))
        )
        return sum(terms, np.zeros(r.shape[1:]))
    if isinstance(potential, RenyiPotential):
        # elementwise products, not a matmul: a batched matmul may round one matrix
        # of a stack differently from the same matrix alone
        active = potential.alpha > 0
        logs = np.log(post[..., active, :]) - np.log(q[active])[:, None]
        return 1.0 - np.exp((potential.alpha[active][:, None] * logs).sum(axis=-2))
    if isinstance(potential, CustomPotential):
        # the all-zero belief of a signal that never occurs is no posterior
        beliefs = np.moveaxis(post, -2, -1).reshape(-1, q.shape[0])
        values = [float(potential.fn(p, q)) if p.any() else 0.0 for p in beliefs]
        return np.array(values).reshape(post.shape[:-2] + post.shape[-1:])
    raise BadCostSpec(f"unknown potential {potential!r}")


def entropy_second_derivative(potential: PotentialSpec, x: float) -> float:
    """Second derivative of the concave entropy H at binary belief x in (0, 1)."""
    if not (0.0 < x < 1.0):
        raise NoSecondDerivative(f"belief must be interior, got {x!r}")
    if isinstance(potential, ShannonEntropy):
        return -1.0 / (x * (1.0 - x))
    if isinstance(potential, Tsallis):
        s = potential.sigma
        return -s * (x ** (s - 2.0) + (1.0 - x) ** (s - 2.0))
    if isinstance(potential, CustomPotential):
        if potential.d2 is None:
            raise NoSecondDerivative("custom potential has no second derivative")
        return float(potential.d2(x))
    raise NoSecondDerivative(
        f"{type(potential).__name__} is prior-dependent; the binary convexity "
        "criterion applies to prior-independent potentials only"
    )


def f_criterion(potential: PotentialSpec, p: float) -> float:
    """p^2 (1-p)^2 H''(p) for the concave entropy H of a binary potential.

    This is the quantity whose convexity in p characterizes sub-additivity of
    the posterior-separable cost at every full-support prior.
    """
    return p * p * (1.0 - p) * (1.0 - p) * entropy_second_derivative(potential, p)


def tsallis_xform_lhs(sigma: float, x: float) -> float:
    """Odds-form criterion: F''(p) >= 0 iff this is <= 0 at x = p/(1-p)."""
    return (
        2.0 * (1.0 + x**sigma)
        + sigma * (sigma - 1.0) * (x**2 + x ** (sigma - 2.0))
        - 4.0 * sigma * (x ** (sigma - 1.0) + x)
    )


@dataclass(frozen=True)
class SubadditivityReport:
    subadditive: bool
    witness_p: Optional[float]
    max_violation: float
    grid_size: int


def ups_subadditivity_check(potential: PotentialSpec, grid_size: int = 2001) -> SubadditivityReport:
    """Test convexity of the F-criterion on an interior belief grid.

    Midpoint convexity is checked on consecutive grid triples with tolerance
    1e-9.  The reported witness is the smallest belief above 1/2 at which
    local convexity of F fails (the failure region is symmetric).
    """
    xs = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    f = np.array([f_criterion(potential, x) for x in xs])
    gaps = f[1:-1] - 0.5 * (f[:-2] + f[2:])  # > 0 means concave locally
    max_violation = float(np.max(gaps)) if gaps.size else 0.0
    subadditive = max_violation <= 1e-9
    witness = None
    if not subadditive:
        mids = xs[1:-1]
        bad = gaps > 1e-9
        upper = bad & (mids > 0.5)
        pool = mids[upper] if np.any(upper) else mids[bad]
        witness = float(np.min(pool))
    return SubadditivityReport(subadditive, witness, max_violation, grid_size)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityTransform:
    pass


@dataclass(frozen=True)
class RenyiLogTransform:
    """c(x) = (lam / (alpha_max - 1)) log(1 - x): convex and increasing for
    alpha_max < 1, with domain x <= 1 (x = 1 maps to +inf)."""

    lam: float
    alpha_max: float

    def __post_init__(self):
        if not (0 <= self.lam < math.inf):
            raise BadCostSpec(f"lam must be finite and nonnegative, got {self.lam!r}")
        if not (0.0 < self.alpha_max < 1.0):
            raise BadCostSpec("alpha_max must lie in (0, 1)")


@dataclass(frozen=True)
class CustomTransform:
    """User-supplied increasing convex transform."""

    fn: Callable[[float], float]


TransformSpec = Union[IdentityTransform, RenyiLogTransform, CustomTransform]


def _transforms(transform: TransformSpec, x: np.ndarray) -> np.ndarray:
    """The transform at every entry of ``x[B]``.  The Rényi log maps
    x >= 1 - 1e-12 to +inf: a fully revealing experiment's Rényi-potential
    cost is 1 give or take rounding, and a row off the simplex can carry it
    past 1.  A custom transform is called entry by entry."""
    if isinstance(transform, IdentityTransform):
        return x
    if isinstance(transform, RenyiLogTransform):
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = transform.lam / (transform.alpha_max - 1.0) * np.log(1.0 - x) + 0.0  # not -0.0 at x = 0
        return np.where(x >= 1.0 - 1e-12, math.inf, scaled)
    if isinstance(transform, CustomTransform):
        return np.array([float(transform.fn(v)) for v in x.tolist()])
    raise BadCostSpec(f"unknown transform {transform!r}")


# ---------------------------------------------------------------------------
# cost specifications
# ---------------------------------------------------------------------------


def _check_beta(b: np.ndarray) -> None:
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 2:
        raise BadCostSpec("beta must be a square matrix of size >= 2")
    if not np.all((b >= 0) & (b < math.inf)):
        raise BadCostSpec("beta must be finite and nonnegative")
    if np.any(np.abs(np.diag(b)) > 0):
        raise BadCostSpec("beta must have a zero diagonal")


@dataclass(frozen=True, eq=False)
class KLCost:
    """C(mu) = sum_ij beta_ij KL(mu_i || mu_j)."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        _check_beta(b)
        object.__setattr__(self, "beta", _freeze(b.copy()))


@dataclass(frozen=True, eq=False)
class MaxKLCost:
    """Maximum of weighted-KL costs over a finite set of weight matrices."""

    betas: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(b, dtype=float) for b in self.betas)
        if not mats:
            raise BadCostSpec("need at least one weight matrix")
        for b in mats:
            _check_beta(b)
            if b.shape != mats[0].shape:
                raise BadCostSpec("weight matrices must share a shape")
        object.__setattr__(self, "betas", tuple(_freeze(b.copy()) for b in mats))


@dataclass(frozen=True)
class RenyiCost:
    """C(mu) = lam * D(mu) for a single nonnegative interior exponent vector."""

    lam: float
    param: InteriorParam

    def __post_init__(self):
        if not (0 <= self.lam < math.inf):
            raise BadCostSpec(f"lam must be finite and nonnegative, got {self.lam!r}")
        if not isinstance(self.param, InteriorParam) or not self.param.is_nonnegative():
            raise BadCostSpec(
                "the scaled-divergence cost requires a nonnegative interior exponent vector"
            )


@dataclass(frozen=True)
class MaxRenyiCost:
    """Maximum over a finite set of measures of mixed divergences.

    Interior atoms must have nonnegative exponents (exponents above 1 define
    valid divergences but not valid costs); weighted-KL and sup atoms are
    accepted as-is.
    """

    measures: tuple

    def __post_init__(self):
        if not self.measures:
            raise BadCostSpec("need at least one measure")
        n = None
        for m in self.measures:
            if not isinstance(m, DivergenceMeasure):
                raise BadCostSpec(f"expected DivergenceMeasure, got {m!r}")
            for _, p in m.atoms:
                if isinstance(p, InteriorParam) and not p.is_nonnegative():
                    raise BadCostSpec("interior cost atoms must have nonnegative exponents")
                if n is None:
                    n = p.n_states
                elif p.n_states != n:
                    raise BadCostSpec("all atoms must share the state count")


def _init_ps(cost) -> None:
    """Freeze a posterior-separable cost's prior and price its potential there
    once, for ``_ps_values`` (a custom potential is called at construction)."""
    q = _freeze(_check_prior(cost.prior).copy())
    object.__setattr__(cost, "prior", q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        object.__setattr__(cost, "_prior_potential", _potentials(cost.potential, q[:, None], q)[0])


@dataclass(frozen=True, eq=False)
class PosteriorSeparableCost:
    """Expected convex potential of the posterior minus potential of the prior."""

    prior: np.ndarray
    potential: PotentialSpec

    def __post_init__(self):
        _init_ps(self)


@dataclass(frozen=True, eq=False)
class ConvexPSCost:
    """Increasing convex transform of a posterior-separable cost."""

    prior: np.ndarray
    potential: PotentialSpec
    transform: TransformSpec

    def __post_init__(self):
        _init_ps(self)


CostSpec = Union[KLCost, MaxKLCost, RenyiCost, MaxRenyiCost, PosteriorSeparableCost, ConvexPSCost]


def spec_n_states(spec: CostSpec) -> int:
    """The state-space dimension a cost specification is built for."""
    if isinstance(spec, KLCost):
        return spec.beta.shape[0]
    if isinstance(spec, MaxKLCost):
        return spec.betas[0].shape[0]
    if isinstance(spec, RenyiCost):
        return spec.param.n_states
    if isinstance(spec, MaxRenyiCost):
        return spec.measures[0].n_states
    if isinstance(spec, (PosteriorSeparableCost, ConvexPSCost)):
        return spec.prior.shape[0]
    raise BadCostSpec(f"unknown cost specification {spec!r}")


def _has_sup_atom(spec: CostSpec) -> bool:
    """Whether a max-Rényi cost has a sup atom, the one divergence that is
    only quasi-convex and maximally dilution concave."""
    return isinstance(spec, MaxRenyiCost) and any(
        isinstance(p, SupParam) for m in spec.measures for _, p in m.atoms
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _kl_forms(beta: np.ndarray, kl: np.ndarray) -> np.ndarray:
    """sum_ij beta_ij KL(mu_i || mu_j) over a stack, from its pair divergences."""
    terms = (beta[i, j] * kl[:, i, j] for i, j in zip(*np.nonzero(beta)))
    return sum(terms, np.zeros(kl.shape[0]))


def _measure_integrals(measures: tuple, probs: np.ndarray) -> list:
    """sum_atoms w * D_param of each measure over a stack.  One kernel call
    prices every atom of nonzero weight of every measure; each measure then
    sums its atoms in order."""
    divergences = iter(_divergences([p for m in measures for w, p in m.atoms if w != 0.0], probs))
    integrals = []
    for m in measures:
        terms = (w * next(divergences) for w, _ in m.atoms if w != 0.0)
        integrals.append(sum(terms, np.zeros(probs.shape[0])))
    return integrals


def _ps_values(spec: Union[PosteriorSeparableCost, ConvexPSCost], probs: np.ndarray) -> np.ndarray:
    """The posterior-separable cost over a stack.  A signal that never occurs
    gets the all-zero belief, where every potential is finite, so its term
    is zero."""
    prior = spec.prior
    marginal = prior @ probs
    post = prior[None, :, None] * probs / np.where(marginal > 0, marginal, 1.0)[:, None, :]
    terms = marginal * _potentials(spec.potential, post, prior)
    return terms.sum(axis=1) - spec._prior_potential


def eval_costs(spec: CostSpec, probs) -> np.ndarray:
    """Evaluate a cost specification on a stack of matrices ``probs[B, n, s]``.

    Entry b is the cost of the experiment ``probs[b]`` and depends on that
    matrix alone, so it equals ``eval_cost(spec, FiniteExperiment(probs[b]))``
    exactly.  Rows need not be stochastic, but every entry must be a
    nonnegative number; a row that carries a transform's argument above its
    domain costs +inf.
    Weighted-KL sums, every built-in potential and every built-in transform
    take one NumPy pass over the stack.  Divergences take one call of the
    divergence kernel, ``divergence._divergences``: a Rényi cost's one
    parameter, or every atom of every measure of a max-Rényi cost at once.
    Custom potentials are called per posterior and custom transforms per
    value.  The Rényi atoms read each matrix's row of largest exponent as
    summing to 1, which off-simplex rows do not: there the value differs
    from the literal sum by that row's excess mass.
    """
    # C order for every caller: a matmul's rounding can depend on the memory layout
    probs = np.ascontiguousarray(probs, dtype=float)
    n = spec_n_states(spec)
    if probs.ndim != 3 or probs.shape[1] != n:
        raise DimensionMismatch(f"spec is {n}-state, stack has shape {probs.shape}")
    if not (probs >= 0).all():
        raise NotADistribution("signal probabilities must be nonnegative numbers")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if isinstance(spec, (KLCost, MaxKLCost)):
            kl = _kls(probs[:, :, None], probs[:, None])
            betas = (spec.beta,) if isinstance(spec, KLCost) else spec.betas
            return reduce(np.maximum, [_kl_forms(b, kl) for b in betas])
        if isinstance(spec, RenyiCost):
            if spec.lam == 0.0:
                return np.zeros(probs.shape[0])
            return spec.lam * _divergences((spec.param,), probs)[0]
        if isinstance(spec, MaxRenyiCost):
            return reduce(np.maximum, _measure_integrals(spec.measures, probs))
        if isinstance(spec, PosteriorSeparableCost):
            return _ps_values(spec, probs)
        if isinstance(spec, ConvexPSCost):
            return _transforms(spec.transform, _ps_values(spec, probs))
    raise BadCostSpec(f"unknown cost specification {spec!r}")


def eval_cost(spec: CostSpec, mu: FiniteExperiment) -> float:
    """Evaluate a cost specification on an experiment (extended real >= 0)."""
    n = spec_n_states(spec)
    if n != mu.n_states:
        raise DimensionMismatch(f"spec is {n}-state, experiment has {mu.n_states}")
    return float(eval_costs(spec, mu.probs[None])[0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _kl_gradient(beta: np.ndarray, p: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """The gradient of sum_ij beta_ij KL(mu_i || mu_j) in the entries of p[n, s],
    given log_p = log(p)."""
    grad = np.zeros_like(p)
    for i, j in zip(*np.nonzero(beta)):
        grad[i] += beta[i, j] * (log_p[i] - log_p[j] + 1.0)
        grad[j] -= beta[i, j] * p[i] / p[j]
    return grad


def _potential_slopes(potential: PotentialSpec, post: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Phi(g) + grad Phi(g) . (e_x - g) at row x, column a, for the posteriors
    g = ``post[:, a]``; a custom potential takes a one-sided difference along
    the chord from g toward e_x, which stays on the simplex."""
    if isinstance(potential, ShannonEntropy):
        return np.log(post)
    if isinstance(potential, Tsallis):
        s = potential.sigma
        return (s * post ** (s - 1.0) - 1.0) / (s - 1.0) - (post**s).sum(axis=0)
    phi = _potentials(potential, post, q)
    if isinstance(potential, CustomPotential):
        # a signal that never occurs keeps its all-zero belief, which fn never sees
        chord = np.where(post.any(axis=0), post + 1e-8 * (np.eye(q.shape[0])[:, :, None] - post), 0.0)
        return phi + (_potentials(potential, chord, q) - phi) / 1e-8
    if isinstance(potential, KLPotential):
        r = post / q[:, None]
        grad = _kl_gradient(potential.beta, r, np.log(r)) / q[:, None]
    else:  # Rényi: grad Phi = (Phi - 1) alpha / g
        grad = (phi - 1.0) * potential.alpha[:, None] / post
    return phi + grad - np.where(post > 0, post * grad, 0.0).sum(axis=0)


def _atoms_gradient(atoms, p: np.ndarray) -> np.ndarray:
    """The gradient of sum w * D_param over (w, param) atoms.

    Interior: D = log S / -sum_{i != k} alpha_i with S = sum_s T(s) and
    T(s) = prod_i p_i(s) ** alpha_i, so row i is alpha_i T / (p_i S) over
    the same denominator; a zero exponent leaves its row out of T.  Sup:
    D = max(0, max_s psi . log p(s)) has the subgradient psi / p(s*) at the
    argmax signals s* (their mean where tied), and 0 where the floor wins.
    """
    grad = np.zeros_like(p)
    for w, param in atoms:
        if w == 0.0:
            continue
        if isinstance(param, SupParam):
            ratios = _log_ratios([param.psi], p[None])[1][0, 0]
            top = np.fmax.reduce(ratios)
            if top > 0:
                at = ratios >= top * (1.0 - 1e-12)
                grad[:, at] += w / at.sum() * param.psi[:, None] / p[:, at]
            continue
        if isinstance(param, WeightedKLParam):
            beta = np.zeros((p.shape[0], p.shape[0]))
            beta[param.pivot] = param.beta
            grad += w * _kl_gradient(beta, p, np.log(p))
            continue
        others = param.alpha.tolist()
        on = param.alpha > 0 if 0.0 in others else slice(None)
        others.remove(max(others))  # the denominator is -sum_{i != k} alpha_i
        alpha, p_on = param.alpha[on, None], p[on]
        t = np.exp((alpha * np.log(p_on)).sum(axis=0))
        grad[on] += (w / (t.sum() * -math.fsum(others)) * alpha) * t / p_on
    return grad


def _tied(members: tuple, values: list) -> list:
    """The members of a maximum whose values lie within 1e-12 (relative) of it."""
    top = max(values)
    return [m for m, v in zip(members, values) if v >= top - 1e-12 * abs(top)]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _cost_gradient(spec: CostSpec, p: np.ndarray) -> np.ndarray:
    """dC/dp for one choice matrix p[n, s] with a finite cost.

    Exact where p > 0, up to the difference step of a custom potential or
    transform; a zero entry may carry -inf or NaN.  A maximum gets the mean
    gradient of its members within 1e-12 (relative) of the top: a
    subgradient at a tie.  A posterior-separable cost has dC/dp(x, a) = q_x
    times ``_potential_slopes`` at (x, a).  The Rényi atoms' row k is
    differentiated as written, while ``eval_costs`` reads it as summing to
    1: off the simplex the two differ by a constant along that row.
    """
    if isinstance(spec, (KLCost, MaxKLCost)):
        betas = (spec.beta,) if isinstance(spec, KLCost) else spec.betas
        log_p = np.log(p)
        if len(betas) > 1:
            # the pair KLs from the same logs; a finite cost has no p_i > 0 = p_j
            kl = np.where(p[:, None] > 0, p[:, None] * (log_p[:, None] - log_p[None]), 0.0).sum(axis=-1)
            betas = _tied(betas, [_kl_forms(b, kl[None])[0] for b in betas])
        return sum(_kl_gradient(b, p, log_p) for b in betas) / len(betas)
    if isinstance(spec, RenyiCost):
        return _atoms_gradient(((spec.lam, spec.param),), p)
    if isinstance(spec, MaxRenyiCost):
        measures = spec.measures
        if len(measures) > 1:
            measures = _tied(measures, [v[0] for v in _measure_integrals(measures, p[None])])
        return sum(_atoms_gradient(m.atoms, p) for m in measures) / len(measures)
    q = spec.prior
    marginal = q @ p
    post = q[:, None] * p / np.where(marginal > 0, marginal, 1.0)
    grad = q[:, None] * _potential_slopes(spec.potential, post, q)
    if isinstance(spec, ConvexPSCost) and not isinstance(spec.transform, IdentityTransform):
        # the chain rule, with c' central differences for a custom transform
        t, x = spec.transform, _ps_values(spec, p[None])[0]
        if isinstance(t, RenyiLogTransform):
            return grad * t.lam / ((1.0 - t.alpha_max) * (1.0 - x))
        return grad * (t.fn(x + 1e-6) - t.fn(x - 1e-6)) / 2e-6
    return grad


def renyi_cost_as_transform_check(
    lam: float, alpha, q, mu: FiniteExperiment
) -> tuple[float, float]:
    """Evaluate the scaled divergence directly and as a transformed
    posterior-separable cost; the two agree for every full-support prior."""
    param = alpha if isinstance(alpha, InteriorParam) else InteriorParam(np.asarray(alpha, float))
    if not param.is_nonnegative():
        raise BadCostSpec("exponents must be nonnegative for the potential form")
    direct = lam * extended_divergence(param, mu) if lam > 0 else 0.0
    composed = eval_cost(
        ConvexPSCost(
            np.asarray(q, dtype=float),
            RenyiPotential(param.alpha),
            RenyiLogTransform(lam, float(param.alpha.max())),
        ),
        mu,
    )
    return direct, composed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


COST_KINDS = {
    "kl": KLCost,
    "max_kl": MaxKLCost,
    "renyi": RenyiCost,
    "max_renyi": MaxRenyiCost,
    "posterior_separable": PosteriorSeparableCost,
    "convex_ps": ConvexPSCost,
}
# the kind -> class table of each field that holds a nested specification;
# custom potentials and transforms are construction-time only, not serializable
_NESTED_KINDS = {
    "param": PARAM_KINDS,
    "potential": {
        "shannon": ShannonEntropy,
        "tsallis": Tsallis,
        "kl_potential": KLPotential,
        "renyi_potential": RenyiPotential,
    },
    "transform": {"identity": IdentityTransform, "renyi_log": RenyiLogTransform},
}


def cost_to_json(spec: CostSpec) -> str:
    return json.dumps(_to_payload(spec, COST_KINDS, BadCostSpec, _NESTED_KINDS))


def cost_from_json(text) -> CostSpec:
    """Read a cost specification from JSON text or from the object it parses to."""
    payload = json.loads(text) if isinstance(text, str) else text
    return _from_payload(payload, COST_KINDS, BadCostSpec, _NESTED_KINDS)
