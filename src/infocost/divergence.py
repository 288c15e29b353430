"""The divergence family over finite experiments.

Covers pairwise Rényi and Kullback-Leibler divergences, their sup-order limit,
the multi-state extension with exponent vectors on the simplex hyperplane, the
unified three-branch parameterization, the (gamma, psi) reparameterization,
Chernoff information, and the two-sided sup-divergence privacy measure.

Every branch is evaluated by one kernel in two steps.  ``_Plan(params)``
does the work on a list of parameters alone, once, each parameter as given:
the pivot row k (largest exponent) and weights of each interior and sup
parameter, the interior denominators, the KL pairs the weighted-KL
parameters use, and those parameters grouped by their count of pairs.
``_divergences(plan, probs[B, n, s])`` then prices the plan on a stack as a
``[P, B]`` array, or, given the bounds of a ragged stack (matrices of
different signal counts side by side along the signal axis), as
``[P, B, M]``.  An interior or sup value is a log-mean-exp or maximum over
signals of L(s) = sum_{i != k} w_i log(p_i(s) / p_k(s)), whose terms are
added state by state, elementwise (see ``_log_ratios``); only the sums and
maxima over signals run per matrix.  The sandwich prices its
parameter grid on the experiment and all its companions in one ragged call,
each cost its atoms on a whole stack from a plan it made once, and every
scalar function here one parameter on a stack of one.  Each value is
bit-identical to pricing its parameter and matrix alone.
``_gradients(plan, p[n, s])`` differentiates the same plan at one matrix,
``[P, n, s]``: each branch's derivative is written here alone, and the
cost families' gradients go through it.

The kernel's zero conventions: 0 ** 0 = 1, so a zero exponent drops its
state; a zero under a positive exponent drops its signal, and wins over a
zero under a negative exponent; a zero under a negative exponent alone gives
+inf; a zero weighted-KL weight drops its term, infinite or not.  The
interior branch computes sum - 1 from differences of logs against the row of
largest exponent, so its relative accuracy does not degrade as max(alpha)
approaches 1.

Infinity is a first-class return value throughout: malformed inputs raise,
absolute-continuity failures return ``math.inf``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import (
    BadAlpha,
    BadPsi,
    GammaOutOfRange,
    InfoCostError,
    LengthMismatch,
    NotADistribution,
    NotBinary,
    StateMismatch,
    TOutOfRange,
    TooFewStates,
)
from .experiment import ROW_SUM_TOL, FiniteExperiment, _freeze, _is_count

PARAM_SUM_TOL = 1e-12
TINY = np.finfo(float).tiny  # the smallest normal float


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
        if not np.all(np.isfinite(a)):  # before the sum, which is NaN for inf - inf
            raise BadAlpha("alpha must be finite")
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
        if isinstance(self.pivot, bool) or not isinstance(self.pivot, (int, np.integer)):
            raise BadPsi(f"pivot must be an integer, got {self.pivot!r}")
        if not (0 <= self.pivot < b.shape[0]):
            raise BadPsi(f"pivot {self.pivot} out of range")
        if not np.all(b >= 0):
            raise BadPsi("beta must be nonnegative")
        if abs(b[self.pivot]) > PARAM_SUM_TOL:
            raise BadPsi("beta must vanish at the pivot")
        if not (abs(b.sum() - 1.0) <= PARAM_SUM_TOL):
            raise BadPsi(f"beta must sum to 1, got {b.sum()!r}")
        object.__setattr__(self, "pivot", int(self.pivot))  # a NumPy integer is no JSON number
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
        for w, _ in self.atoms:
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise TypeError(f"atom weights must be real numbers, got {w!r}")
        atoms = tuple((float(w), p) for w, p in self.atoms)
        if not atoms:
            raise BadPsi("a divergence measure needs at least one atom")
        for w, p in atoms:
            if not (0 <= w < math.inf):
                raise BadPsi(f"atom weights must be finite and nonnegative, got {w!r}")
            if not isinstance(p, (InteriorParam, WeightedKLParam, SupParam)):
                raise BadPsi(f"unknown divergence parameter {p!r}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n_states(self) -> int:
        return self.atoms[0][1].n_states


# ---------------------------------------------------------------------------
# the divergence kernel
# ---------------------------------------------------------------------------


def _per_segment(ufunc, x: np.ndarray, bounds) -> np.ndarray:
    """``ufunc``'s reduction of the last axis of x onto a last axis of
    segments: [bounds[m], bounds[m + 1]) for each m, or the whole axis as one
    segment when ``bounds`` is None.

    Each segment reduces as if it were alone.  A sum takes its segment as a
    slice, because ``np.add.reduceat`` adds in sequence where a slice's sum
    adds pairwise; the maxima are exact in any order.
    """
    if bounds is None:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    if ufunc is np.add:
        return np.stack([x[..., a:b].sum(axis=-1) for a, b in zip(bounds, bounds[1:])], axis=-1)
    return ufunc.reduceat(x, bounds[:-1], axis=-1)


class _Cuts:
    """How :func:`_log_ratios` reads a list of weight vectors, worked out
    once: the row k = argmax(w) of each, and for each state i that some w
    weighs, (i, each w_i, whether each w weighs it or None when all do) as
    ``[G, 1, 1]`` arrays.  Row k's own term, w_k log 1 = 0, is left out.
    The vectors themselves are kept as ``weights[G, n, 1]``."""

    __slots__ = ("weights", "pivots", "slots", "terms")

    def __init__(self, ws):
        weights = np.array(ws)
        self.weights = weights[:, :, None]
        ks = [w.index(max(w)) for w in weights.tolist()]  # the first largest entry, as argmax takes
        self.pivots = list(dict.fromkeys(ks))  # the distinct rows k, in order of first use
        self.slots = [self.pivots.index(k) for k in ks] if len(self.pivots) > 1 else None
        weights = weights[:, :, None, None]
        on = weights != 0.0
        on[np.arange(len(ks)), ks] = False
        self.terms = []
        for i in range(len(ws[0])):
            if on[:, i].any():
                self.terms.append((i, weights[:, i], None if on[:, i].all() else on[:, i]))


def _log_ratios(cuts: _Cuts, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row k = argmax(w) of a stack ``probs[B, n, S]`` and L[b, s] = sum_{i != k}
    w_i log(p_i(s) / p_k(s)), for each weight vector w of :class:`_Cuts`: the
    rows stacked as ``pk[G, B, S]`` (``pk[1, B, S]`` when every w shares one)
    and the L as ``L[G, B, S]``.

    For weights summing to 0 or 1, L(s) is w . log p(s) with w_k read as the
    rest of the sum, so no log is scaled by a weight near 1 before the
    differences cancel.  A zero weight drops its state (0 ** 0 = 1).  A zero
    under a negative weight alone gives +inf; a zero under a positive weight
    gives -inf or NaN, which the callers read as that zero winning.

    Where 0 < p_k(s) is below the smallest normal float, p_i / p_k can
    overflow to +inf, so those signals take log p_i - log p_k instead; every
    other signal keeps the quotient.

    The logs are taken once per pivot row over every signal.  L adds its
    terms state by state, in order, elementwise over every w and signal, and
    a term left out adds -0.0, which changes no sum: each entry of L depends
    on its own weights and signal alone, bit for bit, in any stack.
    """
    rows, logs = [], []
    for k in cuts.pivots:
        pk = np.ascontiguousarray(probs[:, k])  # a strided view slows every later use
        log = np.log(probs / pk[:, None])
        if pk.min(initial=1.0) < TINY:
            sub = (pk > 0.0) & (pk < TINY)
            if sub.any():
                log = np.where(sub[:, None], np.log(probs) - np.log(pk)[:, None], log)
        rows.append(pk)
        logs.append(log)

    def per_w(xs):  # one x per pivot row as x[G, ...]; a shared one is broadcast, not copied per w
        return xs[0][None] if cuts.slots is None else np.stack(xs).take(cuts.slots, axis=0)

    pk = per_w(rows)
    ratios = None
    for i, w, on in cuts.terms:
        log_i = per_w([log[:, i] for log in logs])  # state i's logs alone, not every state's
        term = w * log_i if on is None else np.where(on, w * log_i, -0.0)
        ratios = term if ratios is None else ratios + term
    return pk, ratios


def _log_sums(pk: np.ndarray, ratios: np.ndarray, above: bool, bounds=None) -> np.ndarray:
    """log sum_s prod_i p_i(s) ** alpha_i over each segment of a stack (see
    :func:`_per_segment`), for exponent vectors whose largest entry lies
    above 1 (``above``) or all below it, from their :func:`_log_ratios`:
    ``[G, B, M]``.

    Computed as log1p(sum - 1) with sum - 1 = sum_s p_k(s) expm1(L(s)), which
    reads row k as summing to 1, so every term is a difference from the
    start.  A zero under a positive exponent makes the term -p_k(s) (its
    signal drops).  Below a sum of 0.01 the difference from 1 has lost too
    many of the sum's own digits, so there the terms p_k(s) exp(L(s)) are
    added up directly.  The exact sum lies in [0, 1] when max(alpha) < 1 and
    in [1, +inf] above; the clamp removes rounding past those ends.
    """
    excess = _per_segment(np.add, np.fmax(pk * np.expm1(ratios), -pk), bounds)
    if above:
        return np.log1p(np.maximum(excess, 0.0))
    log_sums = np.log1p(np.minimum(excess, 0.0))
    if min(excess.ravel().tolist(), default=0.0) < -0.99:  # an empty stack has no sums
        direct = _per_segment(np.add, np.fmax(pk * np.exp(ratios), 0.0), bounds)
        log_sums = np.where(excess < -0.99, np.log(direct), log_sums)
    return log_sums


def _kls(p: np.ndarray, q: np.ndarray, bounds=None) -> np.ndarray:
    """KL(p || q) over each segment of the last axis (see :func:`_per_segment`),
    broadcasting the others.  Where p > 0 = q the term is +inf and no term is
    -inf or NaN, so that segment sums to +inf."""
    return _per_segment(np.add, np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0), bounds)


def _interior_denominator(alpha: list) -> float:
    """-sum_{i != k} alpha_i for the largest exponent alpha_k of a list:
    max(alpha) - 1 on the simplex, never taken as a difference from 1."""
    return -math.fsum(sorted(alpha)[:-1])


class _Plan:
    """The work :func:`_divergences` does on a list of parameters alone,
    done once.  Each parameter is priced as given, repeats included.
    Interior and sup parameters share one :func:`_log_ratios` pass, and the
    interior ones are summed in two groups, largest exponent below and above
    1.  Weighted-KL parameters share the KL divergence of each pair
    (pivot, j) of positive weight, and those with as many pairs are weighted
    and summed as one array.  :func:`_gradients` reads the same plan, with
    each weighted-KL parameter's own (pivot, j, weight) terms."""

    __slots__ = ("cuts", "denominators", "interiors", "sups", "pairs", "kls", "kl_terms", "order")

    def __init__(self, params):
        # the positions in params of each group: interior below 1, interior above 1, sup, weighted-KL
        groups: tuple = ([], [], [], [])
        denominators: tuple = ([], [])
        for k, param in enumerate(params):
            if isinstance(param, InteriorParam):
                alpha = param.alpha.tolist()
                g = int(max(alpha) > 1.0)
                denominators[g].append(_interior_denominator(alpha))
            elif isinstance(param, SupParam):
                g = 2
            elif isinstance(param, WeightedKLParam):
                g = 3
            else:
                raise BadPsi(f"unknown divergence parameter {param!r}")
            groups[g].append(k)
        # the interior weight vectors, below 1 then above 1, then the sup ones
        ws = [params[k].alpha for k in groups[0] + groups[1]] + [params[k].psi for k in groups[2]]
        self.cuts = _Cuts(ws) if ws else None
        # the _interior_denominator of each interior parameter as [G, 1, 1], and
        # (above 1, its rows) of each nonempty interior group
        self.denominators = np.array(denominators[0] + denominators[1])[:, None, None]
        edges = [0, len(denominators[0]), len(self.denominators)]
        self.interiors = [(g == 1, slice(edges[g], edges[g + 1])) for g in (0, 1) if denominators[g]]
        self.sups = len(groups[2])
        pairs: dict = {}  # (pivot, j) -> its position
        counts: dict = {}  # c -> (pair positions, weights, position in params, terms) of each parameter with c pairs
        for k in groups[3]:
            pivot, beta = params[k].pivot, params[k].beta.tolist()
            on = [j for j, b in enumerate(beta) if b > 0.0]
            at, weights, ks, terms = counts.setdefault(len(on), ([], [], [], []))
            at.append([pairs.setdefault((pivot, j), len(pairs)) for j in on])
            weights.append([beta[j] for j in on])
            ks.append(k)
            terms.append([(pivot, j, beta[j]) for j in on])
        self.kls = [(np.array(at), np.array(weights)) for at, weights, *_ in counts.values()]  # [P, c] each
        self.kl_terms = [t for *_, terms in counts.values() for t in terms]  # as the rows come out
        self.pairs = [np.array(ends) for ends in zip(*pairs)]  # the pairs (i, j): [i of each, j of each]
        # the position in params of each row, as the rows come out; each
        # parameter's row is the inverse, None when the two are in order
        rows = groups[0] + groups[1] + groups[2] + [k for _, _, ks, _ in counts.values() for k in ks]
        self.order = None if rows == sorted(rows) else sorted(range(len(rows)), key=rows.__getitem__)


def _divergences(plan: _Plan, probs: np.ndarray, bounds=None) -> np.ndarray:
    """The divergence of every experiment in a stack ``probs[B, n, s]`` under
    every parameter of a :class:`_Plan`: ``[P, B]``.

    With ``bounds``, the signal axis holds a ragged stack: the matrices
    ``probs[b, :, bounds[m]:bounds[m + 1]]`` side by side, which may differ in
    signal count, priced as ``[P, B, M]``.  The elementwise work runs once
    over every signal; only the sums and maxima over signals run per matrix
    (see :func:`_per_segment`).

    The one evaluator of each branch; entry (p, b[, m]) depends on its
    parameter and matrix alone, bit for bit.  Interior: log(sum) over
    :func:`_interior_denominator`, which is max(alpha) - 1 on the simplex.
    Weighted-KL: the weighted KL divergences from the pivot, skipping zero
    weights.  Sup: the largest psi . log p(s), floored at 0, where a signal
    with a zero under a positive weight (one that never occurs, say) never
    wins; + 0.0 turns a floor of -0.0 (every term 0) into 0.0.  Callers
    silence floating-point warnings: zeros make infinities and NaNs.
    """
    parts = []  # the parameters' rows, group by group
    if plan.cuts:
        pk, ratios = _log_ratios(plan.cuts, probs)
        for above, rows in plan.interiors:
            log_sums = _log_sums(pk if len(pk) == 1 else pk[rows], ratios[rows], above, bounds)
            # + 0.0 turns the -0.0 of log 1 over a negative denominator into 0.0
            parts.append(log_sums / plan.denominators[rows] + 0.0)
        if plan.sups:
            parts.append(np.fmax(_per_segment(np.fmax, ratios[len(plan.denominators) :], bounds), 0.0) + 0.0)
    if plan.kls:
        pivots, others = plan.pairs
        kls = _kls(probs.take(pivots, axis=1), probs.take(others, axis=1), bounds).swapaxes(-1, -2)  # [B, M, pair]
        # [B, M, P, c] for the parameters with c pairs: each parameter's pairs
        # contiguous, summed as one row, as it would be alone
        parts += [(kls.take(at, axis=-1) * beta).sum(axis=-1).transpose(2, 0, 1) for at, beta in plan.kls]
    if not parts:
        return np.empty((0,) + probs.shape[:-2] + ((len(bounds) - 1,) if bounds else ()))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if plan.order is not None:
        out = out.take(plan.order, axis=0)
    return out if bounds else out[..., 0]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _divergence(plan: _Plan, probs: np.ndarray) -> float:
    """:func:`_divergences` of a plan of one parameter on a stack of one matrix."""
    return float(_divergences(plan, probs[None])[0, 0])


def _kl_gradient(pairs: list, p: np.ndarray, log_p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """grad plus the gradient of sum b KL(p_i || p_j) over the (i, j, b)
    ``pairs`` in the entries of p[n, s], given log_p = log(p)."""
    for i, j, b in pairs:
        grad[i] += b * (log_p[i] - log_p[j] + 1.0)
        grad[j] -= b * p[i] / p[j]
    return grad


def _gradients(plan: _Plan, p: np.ndarray) -> np.ndarray:
    """The gradient in the entries of one matrix ``p[n, s]`` of its
    divergence under every parameter of a :class:`_Plan`: ``[P, n, s]``.

    Interior: row i is alpha_i T / (p_i S d), with T(s) = prod_i p_i(s) **
    alpha_i, S = sum_s T(s) and d the :func:`_interior_denominator`; a zero
    exponent drops its state from T and leaves its row 0.  Sup: psi / p(s*)
    at the argmax signals s* of the plan's :func:`_log_ratios` (their mean
    where tied), and 0 where the floor wins.  Weighted-KL: its pairs' terms
    (:func:`_kl_gradient`).  Exact where p > 0; a zero entry may carry -inf
    or NaN.  Callers silence floating-point warnings.
    """
    parts = []  # the parameters' rows, group by group, as in _divergences
    log_p = np.log(p)
    count = len(plan.denominators)
    if count:
        alpha = plan.cuts.weights[:count]
        on = alpha != 0.0
        t = np.exp(np.where(on, alpha * log_p, 0.0).sum(axis=1, keepdims=True))  # [G, 1, s]
        parts.append(np.where(on, alpha * t / (p * (t.sum(axis=-1, keepdims=True) * plan.denominators)), 0.0))
    if plan.sups:
        ratios = _log_ratios(plan.cuts, p[None])[1][count:]  # [G, 1, s]
        top = np.fmax.reduce(ratios, axis=-1, keepdims=True)
        at = (ratios >= top * (1.0 - 1e-12)) & (top > 0)
        tied = np.maximum(at.sum(axis=-1, keepdims=True), 1)  # 1 where the floor wins, which takes no signal
        parts.append(np.where(at, plan.cuts.weights[count:] / (p * tied), 0.0))
    if plan.kl_terms:
        rows = np.zeros((len(plan.kl_terms),) + p.shape)
        for row, pairs in zip(rows, plan.kl_terms):
            _kl_gradient(pairs, p, log_p, row)
        parts.append(rows)
    if not parts:
        return np.empty((0,) + p.shape)
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return out if plan.order is None else out.take(plan.order, axis=0)


# ---------------------------------------------------------------------------
# pairwise divergences
# ---------------------------------------------------------------------------


def _check_pair(p, q) -> np.ndarray:
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if pv.shape != qv.shape or pv.ndim != 1:
        raise LengthMismatch(f"shapes {pv.shape} vs {qv.shape}")
    for v in (pv, qv):
        if not (np.all(v >= 0.0) and abs(v.sum() - 1.0) <= ROW_SUM_TOL):
            raise NotADistribution("inputs must be probability vectors")
    return np.stack([pv, qv])


def renyi(t: float, p, q) -> float:
    """Rényi divergence of order t in (0, 1) between two distributions.

    Terms with a zero in either coordinate drop out of the sum; the value is
    +inf exactly when the supports are disjoint.
    """
    if not (0.0 < t < 1.0):
        raise TOutOfRange(f"order must lie in (0, 1), got {t!r}")
    value = _divergence(_Plan((InteriorParam(np.array([t, 1.0 - t])),)), _check_pair(p, q))
    # the extended form divides by max(t, 1 - t) - 1, the order-t form by t - 1
    return value * (min(t, 1.0 - t) / (1.0 - t))


def kl(p, q) -> float:
    """Kullback-Leibler divergence, +inf on absolute-continuity failure."""
    return _divergence(_Plan((WeightedKLParam(0, np.array([0.0, 1.0])),)), _check_pair(p, q))


def sup_divergence(p, q) -> float:
    """Log of the largest likelihood ratio p(s)/q(s) over signals with p(s) > 0."""
    return _divergence(_Plan((SupParam(np.array([1.0, -1.0])),)), _check_pair(p, q))


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
    return _divergence(_Plan((param,)), mu.probs)


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
    return _divergence(_Plan((param,)), mu.probs)


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
    if not _is_count(k, 1):
        raise GammaOutOfRange(f"k must be a positive integer, got {k!r}")
    alpha = _exponents(gamma, sup)
    if abs(alpha.max() - gamma) > 1e-12:
        raise BadPsi("gamma must equal the largest exponent of the induced alpha")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = k * _log_sums(*_log_ratios(_Cuts([alpha]), mu.probs[None]), max(alpha.tolist()) > 1.0)[0, 0, 0]
        # log(1 + (e**x - 1) / k); above x = 1, factor e**x out so it cannot overflow
        inner = np.log1p(np.expm1(x) / k) if x < 1.0 else x + np.log(np.exp(-x) - np.expm1(-x) / k)
        return float(inner / (gamma - 1.0) + 0.0)  # + 0.0: not -0.0 below gamma = 1


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
        alpha = np.array([t, 1.0 - t])
        # 0.0 - x rather than -x, which is -0.0 at x = 0
        return float(0.0 - _log_sums(*_log_ratios(_Cuts([alpha]), mu.probs[None]), False)[0, 0, 0])


def chernoff_information(mu: FiniteExperiment) -> float:
    """Best binary hypothesis-testing error exponent.

    Maximizes -log sum_s mu_0(s)^t mu_1(s)^(1-t) over t by one golden-section
    search on [0, 1] to 1e-12 in t.  The objective is concave in t, as minus a
    log-sum-exp of affine functions; it is >= 0 on (0, 1) by Hölder and <= 0
    (or -inf) outside [0, 1] by Jensen, so [0, 1] holds the maximum.
    """
    if mu.n_states != 2:
        raise NotBinary(f"need 2 states, got {mu.n_states}")
    _, value = _golden_max(lambda t: _chernoff_objective(mu, t), 0.0, 1.0, tol=1e-12)
    return value


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
    """A deterministic mixed grid of ``count`` >= 1 interior, weighted-KL,
    and sup parameters on ``n_states`` >= 2 states, drawn from ``seed`` >= 0."""
    if not _is_count(n_states, 2):
        raise TooFewStates(f"need an integer number of states >= 2, got {n_states!r}")
    if not _is_count(count, 1):
        raise InfoCostError(f"count must be an integer >= 1, got {count!r}")
    if not _is_count(seed, 0):
        raise InfoCostError(f"seed must be an integer >= 0, got {seed!r}")
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


PARAM_KINDS = {"interior": InteriorParam, "kl": WeightedKLParam, "sup": SupParam}
_JSON_KEYS = {"lam": "lambda"}  # the one field whose JSON key is not its name


def _to_payload(spec, kinds: dict, error: type, nested: dict) -> dict:
    """The JSON object of a specification: its kind in the kind -> class table
    ``kinds``, then its fields in order.  A field named in ``nested`` holds a
    specification of the role that table serves; ``measures`` holds divergence
    measures, each ``{"atoms": [{"weight", "param"}]}``; arrays and tuples of
    arrays become lists.  A class with no kind (a custom callable) raises
    ``error``."""
    kind = next((k for k, cls in kinds.items() if type(spec) is cls), None)
    if kind is None:
        raise error(f"{type(spec).__name__} has no JSON form")
    payload = {"kind": kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name in nested:
            value = _to_payload(value, nested[f.name], error, nested)
        elif f.name == "measures":
            value = [
                {"atoms": [{"weight": w, "param": _to_payload(p, PARAM_KINDS, error, {})} for w, p in m.atoms]}
                for m in value
            ]
        elif isinstance(value, (tuple, np.ndarray)):
            value = np.asarray(value).tolist()
        payload[_JSON_KEYS.get(f.name, f.name)] = value
    return payload


def _from_payload(payload, kinds: dict, error: type, nested: dict):
    """The specification a JSON object describes, read as :func:`_to_payload`
    writes it.  Every other value goes to the constructor unchanged, which
    validates it.  A payload that is not an object, a JSON string included,
    raises TypeError, and an unknown kind raises ``error``."""
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    cls = kinds.get(payload.get("kind"))
    if cls is None:
        raise error(f"unknown kind {payload.get('kind')!r}")
    values = []
    for f in fields(cls):
        value = payload[_JSON_KEYS.get(f.name, f.name)]
        if f.name in nested:
            value = _from_payload(value, nested[f.name], error, nested)
        elif f.name == "measures":
            value = tuple(
                DivergenceMeasure(
                    tuple((a["weight"], _from_payload(a["param"], PARAM_KINDS, error, {})) for a in m["atoms"])
                )
                for m in value
            )
        values.append(value)
    return cls(*values)


def param_to_json(param: DivergenceParam) -> str:
    return json.dumps(_to_payload(param, PARAM_KINDS, BadPsi, {}))


def param_from_json(text) -> DivergenceParam:
    """Read a parameter from JSON text or from the object it parses to."""
    return _from_payload(json.loads(text) if isinstance(text, str) else text, PARAM_KINDS, BadPsi, {})
