"""The divergence family over finite experiments.

Covers pairwise Rényi and Kullback-Leibler divergences, their sup-order limit,
the multi-state extension with exponent vectors on the simplex hyperplane, the
unified three-branch parameterization, the (gamma, psi) reparameterization,
Chernoff information, and the two-sided sup-divergence privacy measure.

Every branch is evaluated by one stack kernel, ``_divergences(param,
probs[B, n, s])``, which the cost evaluator calls on whole stacks and every
scalar function here calls on a stack of one.  Its zero conventions:
0 ** 0 = 1, so a zero exponent drops its state; a zero under a positive
exponent drops its signal, and wins over a zero under a negative exponent;
a zero under a negative exponent alone gives +inf; a zero weighted-KL weight
drops its term, infinite or not.  The interior branch computes sum - 1 from
differences of logs against the row of largest exponent, so its relative
accuracy does not degrade as max(alpha) approaches 1.

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
from .experiment import FiniteExperiment, _freeze

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
# the divergence kernel
# ---------------------------------------------------------------------------


def _log_ratios(w: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row k = argmax(w) of a stack and L[b, s] = sum_{i != k} w_i log(p_i(s) / p_k(s)).

    For weights summing to 0 or 1, L(s) is w . log p(s) with w_k read as the
    rest of the sum, so no log is scaled by a weight near 1 before the
    differences cancel.  A zero weight drops its state (0 ** 0 = 1).  A zero
    under a negative weight alone gives +inf; a zero under a positive weight
    gives -inf or NaN, which the callers read as that zero winning.
    """
    ws = w.tolist()
    k = ws.index(max(ws))
    pk = np.ascontiguousarray(probs[:, k])  # a strided view slows every later use
    if 0.0 in ws:
        active = [i for i, wi in enumerate(ws) if wi != 0.0]
        w, probs = w[active], probs[:, active]
    # row k's own term is w_k log(1) = 0
    return pk, w @ np.log(probs / pk[:, None])


def _log_sums(alpha: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """log sum_s prod_i p_i(s) ** alpha_i over a stack.

    Computed as log1p(sum - 1) with sum - 1 = sum_s p_k(s) expm1(L(s)), which
    reads row k as summing to 1, so every term is a difference from the
    start.  A zero under a positive exponent makes the term -p_k(s) (its
    signal drops).  Below a sum of 0.01 the difference from 1 has lost too
    many of the sum's own digits, so there the terms p_k(s) exp(L(s)) are
    added up directly.  The exact sum lies in [0, 1] when max(alpha) < 1 and
    in [1, +inf] above; the clamp removes rounding past those ends.
    """
    pk, ratios = _log_ratios(alpha, probs)
    excess = np.fmax(pk * np.expm1(ratios), -pk).sum(axis=-1)
    if max(alpha.tolist()) > 1.0:
        return np.log1p(np.maximum(excess, 0.0))
    log_sums = np.log1p(np.minimum(excess, 0.0))
    if min(excess.tolist()) < -0.99:
        direct = np.fmax(pk * np.exp(ratios), 0.0).sum(axis=-1)
        log_sums = np.where(excess < -0.99, np.log(direct), log_sums)
    return log_sums


def _kls(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) along the last axis, broadcasting the others; +inf where p > 0 = q."""
    pos = p > 0
    terms = np.where(pos, p * (np.log(p) - np.log(q)), 0.0)
    return np.where((pos & (q == 0.0)).any(axis=-1), np.inf, terms.sum(axis=-1))


def _divergences(param: "DivergenceParam", probs: np.ndarray) -> np.ndarray:
    """The divergence of every experiment in a stack ``probs[B, n, s]``.

    The one evaluator of each branch; entry b depends on ``probs[b]`` alone.
    Interior: log(sum) / (max(alpha) - 1), with the denominator taken as
    -sum_{i != k} alpha_i, never as a difference from 1.  Weighted-KL: the
    weighted KL divergences from the pivot, skipping zero weights.  Sup: the
    largest psi . log p(s), floored at 0, where a signal with a zero under a
    positive weight (one that never occurs, say) never wins.  Callers
    silence floating-point warnings: zeros make infinities and NaNs on the
    way.
    """
    if isinstance(param, InteriorParam):
        others = param.alpha.tolist()
        others.remove(max(others))
        return _log_sums(param.alpha, probs) / -math.fsum(others)
    if isinstance(param, WeightedKLParam):
        on = param.beta > 0
        kls = _kls(probs[:, param.pivot, None, :], probs[:, on])
        return (kls * param.beta[on]).sum(axis=-1)
    if isinstance(param, SupParam):
        return np.fmax(np.fmax.reduce(_log_ratios(param.psi, probs)[1], axis=-1), 0.0)
    raise BadPsi(f"unknown divergence parameter {param!r}")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _divergence(param: "DivergenceParam", probs: np.ndarray) -> float:
    """:func:`_divergences` on a stack of one matrix."""
    return float(_divergences(param, probs[None])[0])


# ---------------------------------------------------------------------------
# pairwise divergences
# ---------------------------------------------------------------------------


def _check_pair(p, q) -> np.ndarray:
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if pv.shape != qv.shape or pv.ndim != 1:
        raise LengthMismatch(f"shapes {pv.shape} vs {qv.shape}")
    for v in (pv, qv):
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
            raise NotADistribution("inputs must be probability vectors")
    return np.stack([pv, qv])


def renyi(t: float, p, q) -> float:
    """Rényi divergence of order t in (0, 1) between two distributions.

    Terms with a zero in either coordinate drop out of the sum; the value is
    +inf exactly when the supports are disjoint.
    """
    if not (0.0 < t < 1.0):
        raise TOutOfRange(f"order must lie in (0, 1), got {t!r}")
    value = _divergence(InteriorParam(np.array([t, 1.0 - t])), _check_pair(p, q))
    # the extended form divides by max(t, 1 - t) - 1, the order-t form by t - 1
    return value * (min(t, 1.0 - t) / (1.0 - t))


def kl(p, q) -> float:
    """Kullback-Leibler divergence, +inf on absolute-continuity failure."""
    return _divergence(WeightedKLParam(0, np.array([0.0, 1.0])), _check_pair(p, q))


def sup_divergence(p, q) -> float:
    """Log of the largest likelihood ratio p(s)/q(s) over signals with p(s) > 0."""
    return _divergence(SupParam(np.array([1.0, -1.0])), _check_pair(p, q))


# ---------------------------------------------------------------------------
# multi-state divergences
# ---------------------------------------------------------------------------


def extended_divergence(alpha, mu: FiniteExperiment) -> float:
    """Multi-state Rényi divergence with exponent vector alpha.

    The value is log of the weighted-product sum divided by (max(alpha) - 1);
    it is zero iff all rows of the experiment coincide, and +inf either when
    the product sum vanishes (nonnegative alpha) or blows up (an exponent
    above 1 hitting a zero entry).
    """
    param = alpha if isinstance(alpha, InteriorParam) else InteriorParam(np.asarray(alpha, float))
    return unified_divergence(param, mu)


def unified_divergence(param: DivergenceParam, mu: FiniteExperiment) -> float:
    """Dispatch over the three-branch divergence parameterization."""
    if param.n_states != mu.n_states:
        raise StateMismatch(f"parameter is {param.n_states}-state, experiment {mu.n_states}")
    return _divergence(param, mu.probs)


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
        param = sup
    elif gamma == 1.0:
        beta = np.maximum(-sup.psi, 0.0)  # psi may exceed 0 by rounding off the pivot
        beta[sup.pivot] = 0.0
        param = WeightedKLParam(sup.pivot, beta)
    else:
        param = InteriorParam(_exponents(gamma, sup))
    return _divergence(param, mu.probs)


def diluted_power_divergence(mu: FiniteExperiment, k: int, gamma: float, psi) -> float:
    """Closed form of the divergence of the 1/k-diluted k-fold power of mu.

    Requires gamma not in {1, inf} and gamma equal to the largest exponent of
    e_pivot + (gamma-1) psi, so the 1/(gamma-1) prefactor matches the general
    evaluator on the explicitly constructed experiment.  With S the Hellinger
    sum of mu, the value is log(1 + (S**k - 1) / k) / (gamma - 1), evaluated
    from log S without forming S.
    """
    sup = _direction(psi, mu)
    if math.isinf(gamma) or gamma == 1.0 or not (gamma >= 1.0 / mu.n_states):
        raise GammaOutOfRange(f"gamma must be finite, != 1, >= 1/{mu.n_states}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise GammaOutOfRange(f"k must be a positive integer, got {k!r}")
    alpha = _exponents(gamma, sup)
    if abs(alpha.max() - gamma) > 1e-12:
        raise BadPsi("gamma must equal the largest exponent of the induced alpha")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = k * _log_sums(alpha, mu.probs[None])[0]
        # log(1 + (e**x - 1) / k); above x = 1, factor e**x out so it cannot overflow
        inner = np.log1p(np.expm1(x) / k) if x < 1.0 else x + np.log(np.exp(-x) - np.expm1(-x) / k)
        return float(inner / (gamma - 1.0))


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
    """-log sum_s mu_0(s)^t mu_1(s)^(1-t), with the kernel's zero conventions."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(-_log_sums(np.array([t, 1.0 - t]), mu.probs[None])[0])


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


def param_from_json(text) -> DivergenceParam:
    """Read a parameter from JSON text or from the object it parses to."""
    return _param_from_payload(json.loads(text) if isinstance(text, str) else text)


def _param_from_payload(payload: dict) -> DivergenceParam:
    if not isinstance(payload, dict):
        raise TypeError(f"a parameter must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind == "interior":
        return InteriorParam(np.asarray(payload["alpha"], dtype=float))
    if kind == "kl":
        return WeightedKLParam(int(payload["pivot"]), np.asarray(payload["beta"], dtype=float))
    if kind == "sup":
        return SupParam(np.asarray(payload["psi"], dtype=float))
    raise BadPsi(f"unknown parameter kind {kind!r}")
