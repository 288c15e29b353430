"""Finite statistical experiments and the operators acting on them.

An experiment is a row-stochastic matrix: one signal distribution per state.
Signal labels are anonymous indices; mixtures concatenate signal spaces and
products use the Cartesian index ``s * n_signals(nu) + t``.  All values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    EqualStates,
    InfeasibleFloor,
    InfoCostError,
    InvalidState,
    NegativeEntry,
    PriorNotFullSupport,
    RowNotStochastic,
    StateMismatch,
    TooFewStates,
    WeightOutOfRange,
)

# Input rows may be off by this much before we reject them; constructed
# experiments are renormalized so their rows sum to 1 within 1e-12.
ROW_SUM_TOL = 1e-9
BAYES_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _jsonable(x):
    """x in strict JSON's values: arrays and tuples as lists, NumPy floats as
    floats, and a non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(x, float):
        return float(x) if math.isfinite(x) else repr(float(x))  # repr spells inf, -inf, nan
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _check_prior(prior) -> np.ndarray:
    """Validate a full-support prior vector; NaN entries fail the checks."""
    q = np.asarray(prior, dtype=float)
    if q.ndim != 1 or q.shape[0] < 2 or not (np.all(q > 0) and abs(q.sum() - 1.0) <= ROW_SUM_TOL):
        raise PriorNotFullSupport("prior must be strictly positive and sum to 1")
    return q


@dataclass(frozen=True, eq=False)
class FiniteExperiment:
    """A family of signal distributions, one per state.

    ``probs[i, s]`` is the probability of signal ``s`` in state ``i``.  Use
    :func:`new_experiment` to build a validated instance; the raw constructor
    is reserved for internal call sites that already hold a stochastic matrix.
    """

    probs: np.ndarray

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_signals(self) -> int:
        return self.probs.shape[1]

    def to_json(self) -> str:
        payload = {
            "states": self.n_states,
            "signals": self.n_signals,
            "probs": self.probs.tolist(),
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text) -> "FiniteExperiment":
        """Read an experiment from JSON text or from the object it parses to;
        a declared ``states`` or ``signals`` must match ``probs``."""
        payload = json.loads(text) if isinstance(text, str) else text
        mu = new_experiment(payload["probs"])
        if payload.get("states", mu.n_states) != mu.n_states:
            raise StateMismatch("declared state count does not match the matrix")
        if payload.get("signals", mu.n_signals) != mu.n_signals:
            raise RowNotStochastic("declared signal count does not match the matrix")
        return mu


def new_experiment(probs) -> FiniteExperiment:
    """Validate a matrix of signal probabilities and wrap it as an experiment.

    Rows may be off stochastic by up to 1e-9; they are renormalized so the
    constructed experiment's rows sum to one at machine precision.
    """
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise RowNotStochastic("probs must be a nonempty rectangular matrix")
    if arr.shape[0] < 2:
        raise TooFewStates(f"need at least 2 states, got {arr.shape[0]}")
    return FiniteExperiment(_freeze(normalized_rows(arr)))


def normalized_rows(arr: np.ndarray) -> np.ndarray:
    """Validate the rows (last axis) of an array of signal probabilities and
    renormalize them, as :func:`new_experiment` does for one matrix; a stack
    ``[B, n, s]`` gets, matrix by matrix, the same bits."""
    if not np.all(arr >= 0):
        raise NegativeEntry("signal probabilities must be nonnegative")
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise RowNotStochastic(f"row {i} sums to {sums.flat[i]!r}")
    return arr / sums[..., None]


def _is_count(v, low: int) -> bool:
    """Whether v is an integer (a bool is not) of at least low."""
    return not isinstance(v, bool) and isinstance(v, numbers.Integral) and v >= low


def uninformative(n_states: int, n_signals: int = 1) -> FiniteExperiment:
    """The experiment whose signal distribution is identical in every state."""
    if not _is_count(n_states, 2):
        raise TooFewStates(f"need an integer number of states >= 2, got {n_states!r}")
    if not _is_count(n_signals, 1):  # as new_experiment rejects a matrix with no signals
        raise RowNotStochastic(f"need an integer number of signals >= 1, got {n_signals!r}")
    row = np.full(n_signals, 1.0 / n_signals)
    return FiniteExperiment(_freeze(np.tile(row, (n_states, 1))))


def mixture(mu: FiniteExperiment, nu: FiniteExperiment, a: float) -> FiniteExperiment:
    """Randomize over two experiments with the branch observable.

    The signal space is the disjoint union, so the result has
    ``mu.n_signals + nu.n_signals`` signals.
    """
    if mu.n_states != nu.n_states:
        raise StateMismatch(f"{mu.n_states} states vs {nu.n_states}")
    if not (0.0 < a < 1.0):
        raise WeightOutOfRange(f"mixture weight must lie in (0, 1), got {a!r}")
    probs = np.hstack([a * mu.probs, (1.0 - a) * nu.probs])
    return FiniteExperiment(_freeze(probs))


def product(mu: FiniteExperiment, nu: FiniteExperiment) -> FiniteExperiment:
    """Observe independent draws from both experiments."""
    if mu.n_states != nu.n_states:
        raise StateMismatch(f"{mu.n_states} states vs {nu.n_states}")
    n = mu.n_states
    probs = (mu.probs[:, :, None] * nu.probs[:, None, :]).reshape(n, -1)
    return FiniteExperiment(_freeze(probs))


def power(mu: FiniteExperiment, k: int) -> FiniteExperiment:
    """k independent draws from the same experiment."""
    if not _is_count(k, 1):
        raise WeightOutOfRange(f"power exponent must be an integer >= 1, got {k!r}")
    out = mu
    for _ in range(k - 1):
        out = product(out, mu)
    return out


def dilute(mu: FiniteExperiment, a: float) -> FiniteExperiment:
    """Mix an experiment with a single-signal uninformative one."""
    if not (0.0 < a < 1.0):
        raise WeightOutOfRange(f"dilution weight must lie in (0, 1), got {a!r}")
    return mixture(mu, uninformative(mu.n_states), a)


def restrict_pair(mu: FiniteExperiment, i: int, j: int) -> FiniteExperiment:
    """Keep only states i and j; the signal space is unchanged."""
    for s in (i, j):
        if not (0 <= s < mu.n_states):
            raise InvalidState(f"state {s} out of range for {mu.n_states} states")
    if i == j:
        raise EqualStates(f"states must differ, got {i} twice")
    return FiniteExperiment(_freeze(mu.probs[[i, j], :].copy()))


@dataclass(frozen=True, eq=False)
class PosteriorDistribution:
    """A finitely supported distribution over posterior beliefs.

    ``posteriors[a]`` is the belief vector of atom ``a`` and ``weights[a]`` its
    probability.  The weighted mean of the atoms equals the prior (Bayes
    plausibility).
    """

    prior: np.ndarray
    posteriors: np.ndarray
    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return self.prior.shape[0]

    def barycenter(self) -> np.ndarray:
        return self.weights @ self.posteriors


def posterior_distribution(prior, posteriors, weights) -> PosteriorDistribution:
    """Validated constructor for :class:`PosteriorDistribution`."""
    q = _check_prior(prior)
    p = np.asarray(posteriors, dtype=float)
    w = np.asarray(weights, dtype=float)
    if p.ndim != 2 or p.shape[0] != w.shape[0] or p.shape[1] != q.shape[0]:
        raise StateMismatch("posterior matrix and weights have inconsistent shapes")
    if not (np.all(p >= -1e-12) and np.all(np.abs(p.sum(axis=1) - 1.0) <= ROW_SUM_TOL)):
        raise RowNotStochastic("each posterior must lie in the simplex")
    if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= ROW_SUM_TOL):
        raise RowNotStochastic("atom weights must be nonnegative and sum to 1")
    if not (np.max(np.abs(w @ p - q)) <= BAYES_TOL):
        raise RowNotStochastic("atoms are not Bayes plausible for the prior")
    return PosteriorDistribution(_freeze(q.copy()), _freeze(np.clip(p, 0.0, None)), _freeze(w.copy()))


def _posterior_map(prior: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The signal marginals ``prior @ probs`` and the Bayes posteriors, one per
    column of ``post[..., n, s]``, for a matrix or a stack.  A signal that
    never occurs gets the all-zero belief."""
    marginal = prior @ probs
    return marginal, prior[:, None] * probs / np.where(marginal > 0, marginal, 1.0)[..., None, :]


def posteriors(mu: FiniteExperiment, q) -> PosteriorDistribution:
    """Bayes-update the prior q on each signal of mu.

    Each signal with positive unconditional probability contributes one atom;
    zero-probability signals are dropped.
    """
    qv = np.asarray(q, dtype=float)
    if qv.shape != (mu.n_states,):
        raise StateMismatch(f"prior length {qv.shape} vs {mu.n_states} states")
    _check_prior(qv)
    marginal, post = _posterior_map(qv, mu.probs)
    keep = marginal > 0
    return PosteriorDistribution(
        _freeze(qv.copy()), _freeze(post[:, keep].T.copy()), _freeze(marginal[keep].copy())
    )


def experiment_from_posteriors(pd: PosteriorDistribution) -> FiniteExperiment:
    """Invert posterior computation: signals = atoms, mu_i(s) = w_s p_i(s) / q_i."""
    probs = (pd.weights[:, None] * pd.posteriors / pd.prior[None, :]).T
    return FiniteExperiment(_freeze(probs))


def random_experiment(
    n_states: int, n_signals: int, seed: int, min_prob: float = 0.0
) -> FiniteExperiment:
    """Draw a uniform-ish random experiment, deterministic in the seed: each
    row a flat Dirichlet draw, floored at ``min_prob``.

    All entries are at least ``min_prob``, which keeps log likelihood ratios
    bounded; min_prob * n_signals must stay below 1.
    """
    if not _is_count(n_states, 2):
        raise TooFewStates(f"need an integer number of states >= 2, got {n_states!r}")
    if not _is_count(n_signals, 1):
        raise RowNotStochastic(f"need an integer number of signals >= 1, got {n_signals!r}")
    if not (min_prob >= 0 and min_prob * n_signals < 1.0):  # NaN fails too
        raise InfeasibleFloor(
            f"min_prob={min_prob} infeasible for {n_signals} signals"
        )
    if not _is_count(seed, 0):
        raise InfoCostError(f"seed must be an integer >= 0, got {seed!r}")
    raw = np.random.default_rng(seed).dirichlet(np.ones(n_signals), size=n_states)
    return new_experiment(min_prob + (1.0 - min_prob * n_signals) * raw)
