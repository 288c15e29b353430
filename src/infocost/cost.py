"""Cost families over experiments.

Six specifications are supported: weighted-KL sums, maxima of those over a
finite set of weight matrices, scaled single divergences, maxima of finite
divergence mixtures, posterior-separable costs built from a convex potential,
and increasing convex transforms of posterior-separable costs.

Sign convention: potentials are stored convex (entropy-style concave
potentials are negated), and the posterior-separable cost is the expected
potential of the posterior minus the potential of the prior.

Every specification makes its evaluation plan once, at construction, in
one of the paper's two representations: a ``_MeasurePlan`` for a maximum
over measures of divergences (Rényi and max-Rényi costs, and weighted-KL
and max-KL costs, whose sum_ij beta_ij KL(mu_i || mu_j) is one order-1 atom
``WeightedKLParam(i, e_j)`` of weight beta_ij per pair), a ``_PosteriorPlan``
for a posterior-separable cost or a transform of one.  Each family's
values, gradient and rules exist once, in its plan: it checks the family's
inputs and records its facts, the state count ``n_states``, the ``prior``
(None for a measure plan), ``sup`` (any sup atom), ``concave`` (convex
in the choice matrix, so the solver's objective is concave) and
``mutual_information`` (the Shannon cost itself, whose optimal choice rule
is logit in the action marginal), which the solver and the axiom harness
read instead of telling the families apart.
Every family is priced on a stack of matrices ``probs[B, n, s]``:
divergences through the one divergence kernel, potentials through
``_PosteriorPlan.phi`` and transforms through ``_transforms``, each one
NumPy pass per built-in kind.  Only custom potentials and transforms are
called value by value.  The kernel also differentiates every atom
(``divergence._gradients``), so a measure plan holds only the kernel's plan
and the measures' weights, and adds up values and gradients alike.
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
    _gradients,
    _kl_gradient,
    _Plan,
    _to_payload,
    extended_divergence,
)
from .errors import BadCostSpec, DimensionMismatch, InfoCostError, NoSecondDerivative, NotADistribution
from .experiment import FiniteExperiment, _check_prior, _freeze, _is_count, _posterior_map


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
        object.__setattr__(self, "beta", _beta_matrix(self.beta))


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
    local convexity of F fails (the failure region is symmetric).  The grid
    must hold one triple at least: grid_size is an integer >= 3.
    """
    if not _is_count(grid_size, 3):
        raise InfoCostError(f"grid_size must be an integer >= 3, got {grid_size!r}")
    xs = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    f = np.array([f_criterion(potential, x) for x in xs])
    gaps = f[1:-1] - 0.5 * (f[:-2] + f[2:])  # > 0 means concave locally
    max_violation = float(np.max(gaps))
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


def _check_lam(lam) -> None:
    """A cost's scale lam must be finite and nonnegative."""
    if not (0 <= lam < math.inf):
        raise BadCostSpec(f"lam must be finite and nonnegative, got {lam!r}")


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
        _check_lam(self.lam)
        if not (0.0 < self.alpha_max < 1.0):
            raise BadCostSpec("alpha_max must lie in (0, 1)")


@dataclass(frozen=True)
class CustomTransform:
    """User-supplied increasing convex transform."""

    fn: Callable[[float], float]


TransformSpec = Union[IdentityTransform, RenyiLogTransform, CustomTransform]


def _transforms(transform: TransformSpec, x: np.ndarray) -> np.ndarray:
    """A Rényi log or custom transform at every entry of ``x[B]`` (a plan
    drops the identity).  The Rényi log maps x >= 1 - 1e-12 to +inf: a fully
    revealing experiment's Rényi-potential cost is 1 give or take rounding,
    and a row off the simplex can carry it past 1.  A custom transform is
    called entry by entry."""
    if isinstance(transform, RenyiLogTransform):
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = transform.lam / (transform.alpha_max - 1.0) * np.log(1.0 - x) + 0.0  # not -0.0 at x = 0
        return np.where(x >= 1.0 - 1e-12, math.inf, scaled)
    return np.array([float(transform.fn(v)) for v in x.tolist()])


# ---------------------------------------------------------------------------
# cost specifications
# ---------------------------------------------------------------------------


def _beta_matrix(beta) -> np.ndarray:
    """A frozen copy of a KL weight matrix, which must be square of size >= 2,
    finite and nonnegative, with a zero diagonal."""
    b = np.asarray(beta, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 2:
        raise BadCostSpec("beta must be a square matrix of size >= 2")
    if not np.all((b >= 0) & (b < math.inf)):
        raise BadCostSpec("beta must be finite and nonnegative")
    if np.any(np.abs(np.diag(b)) > 0):
        raise BadCostSpec("beta must have a zero diagonal")
    return _freeze(b.copy())


@dataclass(frozen=True, eq=False)
class KLCost:
    """C(mu) = sum_ij beta_ij KL(mu_i || mu_j)."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _beta_matrix(self.beta))
        object.__setattr__(self, "_plan", _MeasurePlan([_kl_atoms(self.beta)], len(self.beta)))


@dataclass(frozen=True, eq=False)
class MaxKLCost:
    """Maximum of weighted-KL costs over a finite set of weight matrices."""

    betas: tuple

    def __post_init__(self):
        mats = tuple(_beta_matrix(b) for b in self.betas)
        if not mats:
            raise BadCostSpec("need at least one weight matrix")
        if any(b.shape != mats[0].shape for b in mats):
            raise BadCostSpec("weight matrices must share a shape")
        object.__setattr__(self, "betas", mats)
        object.__setattr__(self, "_plan", _MeasurePlan([_kl_atoms(b) for b in mats], len(mats[0])))


@dataclass(frozen=True)
class RenyiCost:
    """C(mu) = lam * D(mu) for a single nonnegative interior exponent vector."""

    lam: float
    param: InteriorParam

    def __post_init__(self):
        _check_lam(self.lam)
        if not isinstance(self.param, InteriorParam):
            raise BadCostSpec("the scaled-divergence cost requires an interior exponent vector")
        object.__setattr__(self, "_plan", _MeasurePlan([((self.lam, self.param),)], self.param.n_states))


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
        for m in self.measures:
            if not isinstance(m, DivergenceMeasure):
                raise BadCostSpec(f"expected DivergenceMeasure, got {m!r}")
        object.__setattr__(self, "_plan", _MeasurePlan([m.atoms for m in self.measures], self.measures[0].n_states))


def _init_ps(cost, transform: TransformSpec) -> None:
    """Freeze a posterior-separable cost's prior, or that of a transform of
    one, and make its plan, which checks the potential and the transform and
    prices the potential at the prior (a custom potential is called at
    construction)."""
    q = _freeze(_check_prior(cost.prior).copy())
    object.__setattr__(cost, "prior", q)
    object.__setattr__(cost, "_plan", _PosteriorPlan(q, cost.potential, transform))


@dataclass(frozen=True, eq=False)
class PosteriorSeparableCost:
    """Expected convex potential of the posterior minus potential of the prior."""

    prior: np.ndarray
    potential: PotentialSpec

    def __post_init__(self):
        _init_ps(self, IdentityTransform())


@dataclass(frozen=True, eq=False)
class ConvexPSCost:
    """Increasing convex transform of a posterior-separable cost."""

    prior: np.ndarray
    potential: PotentialSpec
    transform: TransformSpec

    def __post_init__(self):
        _init_ps(self, self.transform)


CostSpec = Union[KLCost, MaxKLCost, RenyiCost, MaxRenyiCost, PosteriorSeparableCost, ConvexPSCost]


def _plan_of(spec: CostSpec):
    """The plan a cost specification made at construction, which holds its
    family's facts: ``n_states``, ``prior`` (None for a measure plan),
    ``sup``, ``concave`` and ``mutual_information``."""
    if not isinstance(spec, CostSpec):
        raise BadCostSpec(f"unknown cost specification {spec!r}")
    return spec._plan


def spec_n_states(spec: CostSpec) -> int:
    """The state-space dimension a cost specification is built for."""
    return _plan_of(spec).n_states


# ---------------------------------------------------------------------------
# evaluation plans
# ---------------------------------------------------------------------------


def _pairs(beta: np.ndarray) -> list:
    """(i, j, beta_ij) for each nonzero entry of a KL weight matrix, row by row."""
    return [(i, j, beta[i, j]) for i, j in zip(*np.nonzero(beta))]


def _kl_atoms(beta: np.ndarray) -> list:
    """sum_ij beta_ij KL(mu_i || mu_j) as the atoms of a divergence measure:
    (beta_ij, WeightedKLParam(i, e_j)) for each of the ``_pairs`` of beta."""
    e = np.eye(len(beta))
    return [(b, WeightedKLParam(i, e[j])) for i, j, b in _pairs(beta)]


def _tied(members: list, values: list) -> list:
    """The members of a maximum whose values lie within 1e-12 (relative) of it."""
    top = max(values)
    return [m for m, v in zip(members, values) if v >= top - 1e-12 * abs(top)]


class _MeasurePlan:
    """How a maximum over measures of divergences is priced, worked out once:
    one divergence-kernel plan of every atom of nonzero weight, measure by
    measure, and their weights.  A Rényi cost is one measure of one atom, a
    weighted-KL cost one measure of one atom per pair, and a max-KL or
    max-Rényi cost one measure per member.

    Every atom, zero weights included, must be built for ``n_states``
    states, and an interior atom must have nonnegative exponents.  ``sup``
    tells whether any atom is a sup atom, the one divergence that is only
    quasi-convex and maximally dilution concave.  Without one the cost is
    convex in the choice matrix (``concave``: the solver's objective is):
    KL is jointly convex, a nonnegative interior divergence is minus the log
    of a concave sum over a negative constant, and nonnegative mixtures and
    maxima keep convexity.  No measure plan is ``mutual_information``."""

    __slots__ = ("n_states", "prior", "sup", "concave", "mutual_information", "kernel", "weights")

    def __init__(self, measures: list, n_states: int):
        for atoms in measures:
            for _, p in atoms:
                if isinstance(p, InteriorParam) and not p.is_nonnegative():
                    raise BadCostSpec("interior cost atoms must have nonnegative exponents")
                if p.n_states != n_states:
                    raise BadCostSpec("all atoms must share the state count")
        self.n_states, self.prior = n_states, None
        self.sup = any(isinstance(p, SupParam) for atoms in measures for _, p in atoms)
        self.concave, self.mutual_information = not self.sup, False
        kept = [[(w, p) for w, p in atoms if w != 0.0] for atoms in measures]
        self.kernel = _Plan([p for atoms in kept for _, p in atoms])
        self.weights = [[w for w, _ in atoms] for atoms in kept]

    def _integrals(self, values: np.ndarray, zero: np.ndarray) -> list:
        """sum_atoms w * value of each measure, from the kernel's ``values``
        of every atom (divergences or gradients): each measure adds its
        atoms in order, starting from ``zero``."""
        values = iter(values)
        integrals = []
        for ws in self.weights:
            total = zero
            for w in ws:
                total = total + w * next(values)
            integrals.append(total)
        return integrals

    def values(self, probs: np.ndarray) -> np.ndarray:
        return reduce(np.maximum, self._integrals(_divergences(self.kernel, probs), np.zeros(probs.shape[0])))

    def gradient(self, p: np.ndarray) -> np.ndarray:
        grads = self._integrals(_gradients(self.kernel, p), np.zeros_like(p))
        if len(grads) > 1:
            grads = _tied(grads, [v[0] for v in self._integrals(_divergences(self.kernel, p[None]), np.zeros(1))])
        return grads[0] if len(grads) == 1 else sum(grads) / len(grads)  # the tied members' mean


class _PosteriorPlan:
    """How a posterior-separable cost, or an increasing convex transform of
    one, is priced, worked out once: the potential's terms that depend on
    the prior and its weights alone, its value at the prior, and whether a
    transform applies (the identity does not).

    A KL or Rényi potential must be built for the prior's ``n_states``
    states, and the transform must be a built-in or custom one.  There is
    no sup atom, and the cost is convex in the choice matrix (``concave``)
    unless a custom potential or transform leaves that to the caller's
    word: a posterior-separable cost is a perspective of its convex
    potential, and an increasing convex transform keeps convexity.  The
    Shannon potential without a transform is ``mutual_information``: the
    cost is the mutual information of state and signal, in nats."""

    __slots__ = (
        "n_states", "prior", "sup", "concave", "mutual_information", "column", "potential",
        "pairs", "active", "exponents", "log_q", "at_prior", "transform",
    )

    def __init__(self, q: np.ndarray, potential: PotentialSpec, transform: TransformSpec):
        self.n_states, self.prior, self.sup = len(q), q, False
        self.column, self.potential = q[:, None], potential
        if isinstance(potential, (KLPotential, RenyiPotential)):
            k = len(potential.beta if isinstance(potential, KLPotential) else potential.alpha)
            if k != self.n_states:
                raise BadCostSpec(f"the potential is {k}-state, the prior {self.n_states}-state")
        if isinstance(potential, KLPotential):
            self.pairs = _pairs(potential.beta)
        elif isinstance(potential, RenyiPotential):
            self.active = potential.alpha > 0
            self.exponents = potential.alpha[self.active][:, None]
            self.log_q = np.log(q[self.active])[:, None]
        elif not isinstance(potential, (ShannonEntropy, Tsallis, CustomPotential)):
            raise BadCostSpec(f"unknown potential {potential!r}")
        if not isinstance(transform, (IdentityTransform, RenyiLogTransform, CustomTransform)):
            raise BadCostSpec(f"unknown transform {transform!r}")
        self.transform = None if isinstance(transform, IdentityTransform) else transform
        self.concave = not isinstance(potential, CustomPotential) and not isinstance(transform, CustomTransform)
        self.mutual_information = isinstance(potential, ShannonEntropy) and self.transform is None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.at_prior = self.phi(self.column)[0]

    def phi(self, post: np.ndarray) -> np.ndarray:
        """The convex potential at every posterior of a stack ``post[..., n, s]``
        (states on the second-to-last axis).  Built-in potentials take one
        NumPy pass; a custom potential is called posterior by posterior."""
        potential = self.potential
        if isinstance(potential, ShannonEntropy):
            return np.where(post > 0, post * np.log(post), 0.0).sum(axis=-2)
        if isinstance(potential, Tsallis):
            return ((post**potential.sigma).sum(axis=-2) - 1.0) / (potential.sigma - 1.0)
        if isinstance(potential, KLPotential):
            # beta_ij r_i (log r_i - log r_j), dropped where r_i = 0, +inf where r_j = 0 < r_i
            r = np.moveaxis(post / self.column, -2, 0)
            log_r = np.log(r)
            terms = (np.where(r[i] > 0, b * r[i] * (log_r[i] - log_r[j]), 0.0) for i, j, b in self.pairs)
            return sum(terms, np.zeros(r.shape[1:]))
        if isinstance(potential, RenyiPotential):
            # elementwise products, not a matmul: a batched matmul may round one matrix
            # of a stack differently from the same matrix alone
            logs = np.log(post[..., self.active, :]) - self.log_q
            return 1.0 - np.exp((self.exponents * logs).sum(axis=-2))
        # the all-zero belief of a signal that never occurs is no posterior
        beliefs = np.moveaxis(post, -2, -1).reshape(-1, self.prior.shape[0])
        values = [float(potential.fn(p, self.prior)) if p.any() else 0.0 for p in beliefs]
        return np.array(values).reshape(post.shape[:-2] + post.shape[-1:])

    def slopes(self, post: np.ndarray) -> np.ndarray:
        """Phi(g) + grad Phi(g) . (e_x - g) at row x, column a, for the
        posteriors g = ``post[:, a]`` of one matrix; a custom potential takes a
        one-sided difference along the chord from g toward e_x, which stays on
        the simplex."""
        potential = self.potential
        if isinstance(potential, ShannonEntropy):
            return np.log(post)
        if isinstance(potential, Tsallis):
            s = potential.sigma
            return (s * post ** (s - 1.0) - 1.0) / (s - 1.0) - (post**s).sum(axis=0)
        phi = self.phi(post)
        if isinstance(potential, CustomPotential):
            # a signal that never occurs keeps its all-zero belief, which fn never sees
            chord = np.where(post.any(axis=0), post + 1e-8 * (np.eye(post.shape[0])[:, :, None] - post), 0.0)
            return phi + (self.phi(chord) - phi) / 1e-8
        if isinstance(potential, KLPotential):
            r = post / self.column
            grad = _kl_gradient(self.pairs, r, np.log(r), np.zeros_like(r)) / self.column
        else:  # Rényi: grad Phi = (Phi - 1) alpha / g
            grad = (phi - 1.0) * potential.alpha[:, None] / post
        return phi + grad - np.where(post > 0, post * grad, 0.0).sum(axis=0)

    def _separable(self, probs: np.ndarray) -> np.ndarray:
        """The posterior-separable cost over a stack.  The all-zero belief of
        a signal that never occurs is finite under every potential, so its
        term is zero."""
        marginal, post = _posterior_map(self.prior, probs)
        return (marginal * self.phi(post)).sum(axis=1) - self.at_prior

    def values(self, probs: np.ndarray) -> np.ndarray:
        x = self._separable(probs)
        return x if self.transform is None else _transforms(self.transform, x)

    def gradient(self, p: np.ndarray) -> np.ndarray:
        grad = self.column * self.slopes(_posterior_map(self.prior, p)[1])
        t = self.transform
        if t is None:
            return grad
        # the chain rule, with c' central differences for a custom transform
        x = self._separable(p[None])[0]
        if isinstance(t, RenyiLogTransform):
            return grad * t.lam / ((1.0 - t.alpha_max) * (1.0 - x))
        return grad * (t.fn(x + 1e-6) - t.fn(x - 1e-6)) / 2e-6


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _costs(spec: CostSpec, probs: np.ndarray) -> np.ndarray:
    """``eval_costs`` of a C-contiguous float stack ``probs[B, n, s]`` of the
    spec's state count, which it does not check: the nonnegativity check,
    then the plan the spec made at construction.  Callers silence
    floating-point warnings."""
    # NaN is not >= 0, and the least entry is NaN when any is
    if not probs.min(initial=0.0) >= 0.0:
        raise NotADistribution("signal probabilities must be nonnegative numbers")
    return spec._plan.values(probs)


def eval_costs(spec: CostSpec, probs) -> np.ndarray:
    """Evaluate a cost specification on a stack of matrices ``probs[B, n, s]``.

    Entry b is the cost of the experiment ``probs[b]`` and depends on that
    matrix alone, so it equals ``eval_cost(spec, FiniteExperiment(probs[b]))``
    exactly.  Rows need not be stochastic, but every entry must be a
    finite nonnegative number; a row that carries a transform's argument
    above its domain costs +inf.
    The stack's shape (the spec's states and, as :func:`new_experiment`
    requires, at least one signal) and entries are checked here; the rest is
    the plan each specification makes once, at construction (``_MeasurePlan``,
    ``_PosteriorPlan``), which the solver also prices through.  Every
    built-in potential and every built-in transform takes one NumPy pass
    over the stack.  Divergences take one call of the divergence kernel,
    ``divergence._divergences``, for every atom of every measure at once: a
    Rényi cost's one parameter, a weighted-KL or max-KL cost's one
    order-1 atom per weighted pair, or a max-Rényi cost's atoms.
    Custom potentials are called per posterior and custom transforms per
    value.  The Rényi atoms read each matrix's row of largest exponent as
    summing to 1, which off-simplex rows do not: there the value differs
    from the literal sum by that row's excess mass.
    """
    # C order for every caller: a matmul's rounding can depend on the memory layout
    probs = np.ascontiguousarray(probs, dtype=float)
    n = spec_n_states(spec)
    if probs.ndim != 3 or probs.shape[1] != n or probs.shape[2] == 0:
        raise DimensionMismatch(f"spec is {n}-state, stack has shape {probs.shape}")
    # NaN is not < inf either; _costs rejects negative entries
    if not probs.max(initial=0.0) < math.inf:
        raise NotADistribution("signal probabilities must be finite")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _costs(spec, probs)


def eval_cost(spec: CostSpec, mu: FiniteExperiment) -> float:
    """Evaluate a cost specification on an experiment (extended real >= 0)."""
    return float(eval_costs(spec, mu.probs[None])[0])


def _cost_gradient(spec: CostSpec, p: np.ndarray) -> np.ndarray:
    """dC/dp for one choice matrix p[n, s] with a finite cost, from the plan
    the spec made at construction.  Callers silence floating-point warnings.

    Exact where p > 0, up to the difference step of a custom potential or
    transform; a zero entry may carry -inf or NaN.  A maximum gets the mean
    gradient of its members within 1e-12 (relative) of the top: a
    subgradient at a tie.  A posterior-separable cost has dC/dp(x, a) = q_x
    times its plan's ``slopes`` at (x, a).  The Rényi atoms' row k is
    differentiated as written, while ``eval_costs`` reads it as summing to
    1: off the simplex the two differ by a constant along that row.
    """
    return spec._plan.gradient(p)


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
