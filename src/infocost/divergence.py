"""The divergence family over finite experiments.

Covers pairwise Rényi and Kullback-Leibler divergences, their sup-order limit,
the multi-state extension with exponent vectors on the simplex hyperplane, the
unified three-branch parameterization, the (gamma, psi) reparameterization,
Chernoff information, and the two-sided sup-divergence privacy measure.

Infinity is a first-class return value throughout: malformed inputs raise,
absolute-continuity failures return ``math.inf``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    BadAlpha,
    BadPsi,
    GammaOutOfRange,
    LengthMismatch,
    NotADistribution,
    NotBinary,
    StateMismatch,
    TOutOfRange,
)
from .experiment import (
    FiniteExperiment,
    PosteriorDistribution,
    _freeze,
    experiment_from_posteriors,
)

PARAM_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InteriorParam:
    """Exponent vector on the hyperplane sum(alpha) = 1, away from the vertices.

    Two regimes are admitted: all entries nonnegative with max < 1, or some
    entry strictly above 1 (which forces negative entries elsewhere).  The
    prefactor of the divergence is 1 / (max(alpha) - 1) in both regimes.
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 1 or a.shape[0] < 2:
            raise BadAlpha("alpha must be a vector of length >= 2")
        if abs(a.sum() - 1.0) > PARAM_SUM_TOL:
            raise BadAlpha(f"alpha must sum to 1, got {a.sum()!r}")
        amax = a.max()
        nonneg_interior = bool(np.all(a >= 0.0) and amax < 1.0)
        above_one = bool(amax > 1.0)
        if not (nonneg_interior or above_one):
            raise BadAlpha(
                "alpha must be nonnegative with max < 1, or have an entry > 1"
            )
        object.__setattr__(self, "alpha", _freeze(a.copy()))

    @property
    def n_states(self) -> int:
        return self.alpha.shape[0]

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.alpha >= 0.0))


@dataclass(frozen=True, eq=False)
class WeightedKLParam:
    """A pivot state and nonnegative weights on the KL divergences from it."""

    pivot: int
    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if b.ndim != 1 or b.shape[0] < 2:
            raise BadPsi("beta must be a vector of length >= 2")
        if not (0 <= self.pivot < b.shape[0]):
            raise BadPsi(f"pivot {self.pivot} out of range")
        if not np.all(b >= 0):
            raise BadPsi("beta must be nonnegative")
        if abs(b[self.pivot]) > PARAM_SUM_TOL:
            raise BadPsi("beta must vanish at the pivot")
        if not (abs(b.sum() - 1.0) <= PARAM_SUM_TOL):
            raise BadPsi(f"beta must sum to 1, got {b.sum()!r}")
        object.__setattr__(self, "beta", _freeze(b.copy()))

    @property
    def n_states(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True, eq=False)
class SupParam:
    """Direction vector for the sup-order divergence.

    Exactly one coordinate equals 1 (the designated state); the rest are
    nonpositive and the entries sum to zero, so the divergence is nonnegative.
    """

    psi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.psi, dtype=float)
        if p.ndim != 1 or p.shape[0] < 2:
            raise BadPsi("psi must be a vector of length >= 2")
        if not (abs(p.sum()) <= PARAM_SUM_TOL):
            raise BadPsi(f"psi must sum to 0, got {p.sum()!r}")
        ones = np.flatnonzero(np.abs(p - 1.0) <= PARAM_SUM_TOL)
        if ones.shape[0] != 1:
            raise BadPsi("exactly one coordinate of psi must equal 1")
        others = np.delete(p, ones[0])
        if np.any(others > PARAM_SUM_TOL):
            raise BadPsi("psi must be nonpositive away from the designated state")
        object.__setattr__(self, "psi", _freeze(p.copy()))

    @property
    def pivot(self) -> int:
        return int(np.flatnonzero(np.abs(self.psi - 1.0) <= PARAM_SUM_TOL)[0])

    @property
    def n_states(self) -> int:
        return self.psi.shape[0]


DivergenceParam = Union[InteriorParam, WeightedKLParam, SupParam]


@dataclass(frozen=True, eq=False)
class DivergenceMeasure:
    """A finite nonnegative weighting of divergence parameters."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(w), p) for w, p in self.atoms)
        if not atoms:
            raise BadPsi("a divergence measure needs at least one atom")
        for w, p in atoms:
            if not (w >= 0):
                raise BadPsi("atom weights must be nonnegative")
            if not isinstance(p, (InteriorParam, WeightedKLParam, SupParam)):
                raise BadPsi(f"unknown divergence parameter {p!r}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n_states(self) -> int:
        return self.atoms[0][1].n_states


# ---------------------------------------------------------------------------
# pairwise divergences
# ---------------------------------------------------------------------------


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if pv.shape != qv.shape or pv.ndim != 1:
        raise LengthMismatch(f"shapes {pv.shape} vs {qv.shape}")
    for v in (pv, qv):
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
            raise NotADistribution("inputs must be probability vectors")
    return pv, qv


def renyi(t: float, p, q) -> float:
    """Rényi divergence of order t in (0, 1) between two distributions.

    Terms with a zero in either coordinate drop out of the sum; the value is
    +inf exactly when the supports are disjoint.
    """
    if not (0.0 < t < 1.0):
        raise TOutOfRange(f"order must lie in (0, 1), got {t!r}")
    pv, qv = _check_pair(p, q)
    mask = (pv > 0) & (qv > 0)
    total = float(np.sum(pv[mask] ** t * qv[mask] ** (1.0 - t)))
    if total == 0.0:
        return math.inf
    return math.log(min(total, 1.0)) / (t - 1.0)  # the sum is <= 1 up to rounding


def _kl_raw(pv: np.ndarray, qv: np.ndarray) -> float:
    pos = pv > 0
    if np.any(qv[pos] == 0.0):
        return math.inf
    return float(np.sum(pv[pos] * (np.log(pv[pos]) - np.log(qv[pos]))))


def kl(p, q) -> float:
    """Kullback-Leibler divergence, +inf on absolute-continuity failure."""
    pv, qv = _check_pair(p, q)
    return _kl_raw(pv, qv)


def sup_divergence(p, q) -> float:
    """Log of the largest likelihood ratio p(s)/q(s) over signals with p(s) > 0."""
    pv, qv = _check_pair(p, q)
    pos = pv > 0
    if np.any(qv[pos] == 0.0):
        return math.inf
    return float(np.max(np.log(pv[pos]) - np.log(qv[pos])))


# ---------------------------------------------------------------------------
# multi-state divergences
# ---------------------------------------------------------------------------


def _signal_log_products(probs: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """log prod_i probs[i, s] ** alpha[i] per signal, with zero conventions.

    alpha_i = 0 contributes nothing (0**0 := 1).  A zero probability with a
    positive exponent sends the term to 0 (log -inf) and dominates a zero with
    a negative exponent, mirroring the 0 * log(0/0) = 0 convention of KL.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(probs)  # -inf where probs == 0
    active = alpha != 0.0
    contrib = alpha[active, None] * logs[active, :]
    zero_wins = np.any(np.isneginf(contrib), axis=0)
    inf_hits = np.any(np.isposinf(contrib), axis=0)
    finite = np.where(np.isfinite(contrib), contrib, 0.0)
    out = finite.sum(axis=0)
    out[inf_hits] = math.inf
    out[zero_wins] = -math.inf
    return out


def hellinger_sum(mu: FiniteExperiment, alpha: np.ndarray) -> float:
    """sum_s prod_i mu_i(s) ** alpha_i with the zero conventions above."""
    probs = mu.probs
    if np.all(probs > 0.0):
        return float(np.sum(np.exp(alpha @ np.log(probs))))
    logv = _signal_log_products(probs, alpha)
    if np.any(np.isposinf(logv)):
        return math.inf
    return float(np.sum(np.exp(logv[np.isfinite(logv)])))


def extended_divergence(alpha, mu: FiniteExperiment) -> float:
    """Multi-state Rényi divergence with exponent vector alpha.

    The value is log of the weighted-product sum divided by (max(alpha) - 1);
    it is zero iff all rows of the experiment coincide, and +inf either when
    the product sum vanishes (nonnegative alpha) or blows up (an exponent
    above 1 hitting a zero entry).
    """
    param = alpha if isinstance(alpha, InteriorParam) else InteriorParam(np.asarray(alpha, float))
    if param.n_states != mu.n_states:
        raise StateMismatch(f"alpha length {param.n_states} vs {mu.n_states} states")
    a = param.alpha
    total = hellinger_sum(mu, a)
    prefactor = 1.0 / (a.max() - 1.0)
    if total == 0.0:
        return math.inf if prefactor < 0 else 0.0
    if math.isinf(total):
        return math.inf if prefactor > 0 else 0.0
    # the sum sits on the zero side of 1 in exact arithmetic; clamp rounding
    total = min(total, 1.0) if prefactor < 0 else max(total, 1.0)
    return prefactor * math.log(total)


def _weighted_kl(mu: FiniteExperiment, pivot: int, beta: np.ndarray) -> float:
    total = 0.0
    for j in range(mu.n_states):
        if j == pivot or beta[j] == 0.0:
            continue
        d = _kl_raw(mu.probs[pivot], mu.probs[j])
        if math.isinf(d):
            return math.inf
        total += beta[j] * d
    return total


def _sup_psi(mu: FiniteExperiment, psi: np.ndarray) -> float:
    vals = _signal_log_products(mu.probs, psi)
    # signals that never occur in any state carry no likelihood information
    occurs = mu.probs.sum(axis=0) > 0
    vals = vals[occurs]
    if vals.size == 0:
        return 0.0
    return max(float(np.max(vals)), 0.0)


def unified_divergence(param: DivergenceParam, mu: FiniteExperiment) -> float:
    """Dispatch over the three-branch divergence parameterization."""
    if param.n_states != mu.n_states:
        raise StateMismatch(f"parameter is {param.n_states}-state, experiment {mu.n_states}")
    if isinstance(param, InteriorParam):
        return extended_divergence(param, mu)
    if isinstance(param, WeightedKLParam):
        return _weighted_kl(mu, param.pivot, param.beta)
    if isinstance(param, SupParam):
        return _sup_psi(mu, param.psi)
    raise BadPsi(f"unknown divergence parameter {param!r}")


def _direction(psi, mu: FiniteExperiment) -> SupParam:
    sup = psi if isinstance(psi, SupParam) else SupParam(np.asarray(psi, float))
    if sup.n_states != mu.n_states:
        raise StateMismatch(f"psi length {sup.n_states} vs {mu.n_states} states")
    return sup


def _exponents(gamma: float, sup: SupParam) -> np.ndarray:
    """The exponent vector e_pivot + (gamma - 1) psi."""
    alpha = np.zeros(sup.n_states)
    alpha[sup.pivot] = 1.0
    return alpha + (gamma - 1.0) * sup.psi


def generalized_divergence(gamma: float, psi, mu: FiniteExperiment) -> float:
    """Evaluate the (gamma, psi) parameterization of the divergence family.

    gamma in [1/n_states, +inf]; psi sums to zero with one coordinate equal
    to 1.  gamma = 1 gives the weighted-KL branch with weights -psi, gamma =
    +inf the sup branch, and otherwise the exponent vector e_k + (gamma-1)psi
    is evaluated as an extended divergence.
    """
    sup = _direction(psi, mu)
    if math.isnan(gamma) or gamma < 1.0 / mu.n_states:
        raise GammaOutOfRange(f"gamma must be >= 1/{mu.n_states}, got {gamma!r}")
    if math.isinf(gamma):
        return _sup_psi(mu, sup.psi)
    if gamma == 1.0:
        k = sup.pivot
        beta = -sup.psi.copy()
        beta[k] = 0.0
        return _weighted_kl(mu, k, beta)
    return extended_divergence(InteriorParam(_exponents(gamma, sup)), mu)


def diluted_power_divergence(mu: FiniteExperiment, k: int, gamma: float, psi) -> float:
    """Closed form of the divergence of the 1/k-diluted k-fold power of mu.

    Requires gamma not in {1, inf} and gamma equal to the largest exponent of
    e_pivot + (gamma-1) psi, so the 1/(gamma-1) prefactor matches the general
    evaluator on the explicitly constructed experiment.
    """
    sup = _direction(psi, mu)
    if math.isinf(gamma) or gamma == 1.0 or not (gamma >= 1.0 / mu.n_states):
        raise GammaOutOfRange(f"gamma must be finite, != 1, >= 1/{mu.n_states}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise GammaOutOfRange(f"k must be a positive integer, got {k!r}")
    alpha = _exponents(gamma, sup)
    if abs(alpha.max() - gamma) > 1e-12:
        raise BadPsi("gamma must equal the largest exponent of the induced alpha")
    total = hellinger_sum(mu, alpha)
    if math.isinf(total):
        return math.inf
    inner = (k - 1.0) / k + (total**k) / k
    if inner == 0.0:
        return math.inf if gamma < 1.0 else -math.inf
    return math.log(inner) / (gamma - 1.0)


# ---------------------------------------------------------------------------
# posterior-form evaluation
# ---------------------------------------------------------------------------


def posterior_divergence(param: DivergenceParam, pd: PosteriorDistribution) -> float:
    """Evaluate a divergence from a distribution over posterior beliefs.

    Agrees with :func:`unified_divergence` on the experiment inducing ``pd``,
    for any full-support prior.
    """
    return unified_divergence(param, experiment_from_posteriors(pd))


# ---------------------------------------------------------------------------
# binary-state summary measures
# ---------------------------------------------------------------------------


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section search on a unimodal f: (argmax, max) over [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _chernoff_objective(mu: FiniteExperiment, t: float) -> float:
    p0, p1 = mu.probs[0], mu.probs[1]
    pos = p0 > 0
    with np.errstate(divide="ignore"):
        logs = t * np.log(p0[pos]) + (1.0 - t) * np.log(p1[pos])
    if 1.0 - t == 0.0:  # 0 ** 0 := 1 at the right endpoint
        logs = np.where(np.isnan(logs), t * np.log(p0[pos]), logs)
    total = float(np.sum(np.exp(logs[~np.isneginf(logs)])))
    if total == 0.0:
        return math.inf
    return -math.log(total)


def chernoff_information(mu: FiniteExperiment) -> float:
    """Best binary hypothesis-testing error exponent.

    Maximizes -log sum_s mu_0(s)^t mu_1(s)^(1-t) over t in [-1, 1], by a
    201-point grid followed by golden-section refinement to 1e-10 in t.
    The objective is treated as unimodal.
    """
    if mu.n_states != 2:
        raise NotBinary(f"need 2 states, got {mu.n_states}")
    grid = np.linspace(-1.0, 1.0, 201)
    vals = [_chernoff_objective(mu, t) for t in grid]
    best = int(np.argmax(vals))
    if math.isinf(vals[best]):
        return math.inf
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    _, value = _golden_max(lambda t: _chernoff_objective(mu, t), lo, hi)
    return max(value, float(np.max(vals)))


def privacy_loss(mu: FiniteExperiment) -> float:
    """Two-sided sup-divergence: the worst log likelihood ratio in either direction."""
    if mu.n_states != 2:
        raise NotBinary(f"need 2 states, got {mu.n_states}")
    return max(
        sup_divergence(mu.probs[0], mu.probs[1]),
        sup_divergence(mu.probs[1], mu.probs[0]),
    )


# ---------------------------------------------------------------------------
# parameter grids and serialization
# ---------------------------------------------------------------------------


def default_param_grid(n_states: int, count: int, seed: int = 0) -> list[DivergenceParam]:
    """A deterministic mixed grid of interior, weighted-KL, and sup parameters."""
    rng = np.random.default_rng(seed)
    params: list[DivergenceParam] = [InteriorParam(np.full(n_states, 1.0 / n_states))]
    kinds = ["interior", "kl", "sup"]
    i = 0
    while len(params) < count:
        kind = kinds[i % 3]
        i += 1
        if kind == "interior":
            a = rng.dirichlet(np.ones(n_states))
            if a.max() >= 1.0 - 1e-9:
                continue
            params.append(InteriorParam(a))
        elif kind == "kl":
            pivot = i % n_states
            b = np.zeros(n_states)
            b[np.arange(n_states) != pivot] = rng.dirichlet(np.ones(n_states - 1))
            params.append(WeightedKLParam(pivot, b))
        else:
            pivot = (i + 1) % n_states
            psi = np.zeros(n_states)
            psi[np.arange(n_states) != pivot] = -rng.dirichlet(np.ones(n_states - 1))
            psi[pivot] = 1.0
            params.append(SupParam(psi))
    return params[:count]


def param_to_json(param: DivergenceParam) -> str:
    if isinstance(param, InteriorParam):
        payload = {"kind": "interior", "alpha": param.alpha.tolist()}
    elif isinstance(param, WeightedKLParam):
        payload = {"kind": "kl", "pivot": param.pivot, "beta": param.beta.tolist()}
    elif isinstance(param, SupParam):
        payload = {"kind": "sup", "psi": param.psi.tolist()}
    else:
        raise BadPsi(f"unknown divergence parameter {param!r}")
    return json.dumps(payload)


def param_from_json(text: str) -> DivergenceParam:
    payload = json.loads(text) if isinstance(text, str) else text
    kind = payload.get("kind")
    if kind == "interior":
        return InteriorParam(np.asarray(payload["alpha"], dtype=float))
    if kind == "kl":
        return WeightedKLParam(int(payload["pivot"]), np.asarray(payload["beta"], dtype=float))
    if kind == "sup":
        return SupParam(np.asarray(payload["psi"], dtype=float))
    raise BadPsi(f"unknown parameter kind {kind!r}")
