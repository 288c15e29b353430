"""Finite sandwich approximation for binary-state posterior distributions.

Coarsening a belief distribution on a k-cell grid produces two finite
companions: a conditional-mean contraction (dominated by the original) and an
endpoint spread (dominating it), whose divergences pinch the original's as k
grows.  Cells are half-open with the last cell closed, so grid-aligned atoms
stay put.  The sandwich report prices a whole parameter grid on the
experiment and every companion with one call of the divergence kernel,
``divergence._divergences``, on a ragged stack: the matrices side by side
along the signal axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .divergence import DivergenceParam, _Plan, _divergences
from .errors import KTooSmall, NotBinary, StateMismatch, UnboundedExperiment
from .experiment import (
    FiniteExperiment,
    PosteriorDistribution,
    _is_count,
    experiment_from_posteriors,
    posterior_distribution,
    posteriors,
)


@dataclass(frozen=True)
class SandwichPair:
    """Contraction and spread of a belief distribution at grid resolution k."""

    under: PosteriorDistribution
    over: PosteriorDistribution
    k: int


def _beliefs(pd: PosteriorDistribution) -> np.ndarray:
    if pd.n_states != 2:
        raise NotBinary(f"need 2 states, got {pd.n_states}")
    return pd.posteriors[:, 1]


def _from_beliefs(prior: np.ndarray, beliefs: np.ndarray, weights: np.ndarray) -> PosteriorDistribution:
    post = np.column_stack([1.0 - beliefs, beliefs])
    return posterior_distribution(prior, post, weights)


def coarsen(pi: PosteriorDistribution, k: int) -> SandwichPair:
    """Build the k-cell contraction and spread of a binary belief distribution.

    The contraction keeps one atom per nonempty cell at the cell's conditional
    mean, cells in order of first appearance; the spread splits each atom onto
    its cell endpoints with the barycentric weights that preserve its mean,
    endpoints in increasing order.  Zero-weight atoms are ignored.  Both are
    renormalized so weights sum to one exactly.
    """
    if not _is_count(k, 2):
        raise KTooSmall(f"need an integer k >= 2, got {k!r}")
    keep = pi.weights != 0.0
    xs, ws = _beliefs(pi)[keep], pi.weights[keep]
    # bincount sums each bin in input order, as a per-atom loop would; it runs
    # over np.unique's slots, never over all k cells, so a large k costs nothing
    cells = np.minimum(np.floor(xs * k), k - 1)
    _, first, slot = np.unique(cells, return_index=True, return_inverse=True)
    order = np.argsort(first)
    under_w = np.bincount(slot, ws)[order]
    under_x = np.bincount(slot, ws * xs)[order] / under_w

    lower = ((cells + 1.0) / k - xs) * k  # barycentric weight on the lower endpoint
    ends = np.column_stack([cells, cells + 1.0]).ravel()
    shares = np.column_stack([lower, 1.0 - lower]).ravel()
    hit = shares > 0.0
    points, slot = np.unique(ends[hit], return_inverse=True)
    over_w = np.bincount(slot, np.repeat(ws, 2)[hit] * shares[hit])

    under = _from_beliefs(pi.prior, under_x, under_w / under_w.sum())
    over = _from_beliefs(pi.prior, points / k, over_w / over_w.sum())
    return SandwichPair(under, over, k)


@dataclass(frozen=True)
class SandwichRow:
    k: int
    param: DivergenceParam
    d_under: float
    d_mu: float
    d_over: float

    @property
    def gap(self) -> float:
        return self.d_over - self.d_under


def sandwich_report(mu: FiniteExperiment, q, k_list, param_grid) -> list[SandwichRow]:
    """Evaluate divergences of an experiment against its grid companions.

    The experiment must be bounded (no zero entries); for each k and each
    parameter the contraction is weakly cheaper and the spread weakly dearer,
    and the worst gap shrinks as k grows.  ``param_grid`` is any iterable of
    parameters, read once.  The whole grid is priced by one divergence kernel
    call on a ragged stack of the experiment and each k's contraction and
    spread; every value equals ``unified_divergence`` of its parameter and
    experiment.  Rows run over k, then over the grid in order.
    """
    if np.any(mu.probs == 0.0):
        raise UnboundedExperiment("experiment has zero entries")
    params = tuple(param_grid)
    for param in params:
        if param.n_states != mu.n_states:
            raise StateMismatch(f"parameter is {param.n_states}-state, experiment {mu.n_states}")
    pi = posteriors(mu, q)
    pairs = [coarsen(pi, k) for k in k_list]
    experiments = [mu] + [experiment_from_posteriors(pd) for pair in pairs for pd in (pair.under, pair.over)]
    probs = np.concatenate([e.probs for e in experiments], axis=1)[None]
    bounds = tuple(accumulate((e.n_signals for e in experiments), initial=0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_mu, *companions = _divergences(_Plan(params), probs, bounds)[:, 0].T.tolist()
    rows = []
    for pair, d_under, d_over in zip(pairs, companions[::2], companions[1::2]):
        rows += [SandwichRow(pair.k, *values) for values in zip(params, d_under, d_mu, d_over)]
    return rows
