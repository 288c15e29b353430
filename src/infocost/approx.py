"""Finite sandwich approximation for binary-state posterior distributions.

Coarsening a belief distribution on a k-cell grid produces two finite
companions: a conditional-mean contraction (dominated by the original) and an
endpoint spread (dominating it), whose divergences pinch the original's as k
grows.  Cells are half-open with the last cell closed, so grid-aligned atoms
stay put.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceParam, unified_divergence
from .errors import KTooSmall, NotBinaryState, UnboundedExperiment
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
        raise NotBinaryState(f"need 2 states, got {pd.n_states}")
    return pd.posteriors[:, 1]


def _from_beliefs(prior: np.ndarray, beliefs: np.ndarray, weights: np.ndarray) -> PosteriorDistribution:
    post = np.column_stack([1.0 - beliefs, beliefs])
    return posterior_distribution(prior, post, weights)


def _cell(x: float, k: int) -> int:
    return min(int(np.floor(x * k)), k - 1)


def coarsen(pi: PosteriorDistribution, k: int) -> SandwichPair:
    """Build the k-cell contraction and spread of a binary belief distribution.

    The contraction keeps one atom per nonempty cell at the cell's conditional
    mean; the spread splits each atom onto its cell endpoints with the
    barycentric weights that preserve its mean.  Both are renormalized so
    weights sum to one exactly.
    """
    if not _is_count(k, 2):
        raise KTooSmall(f"need an integer k >= 2, got {k!r}")
    xs = _beliefs(pi)
    ws = pi.weights

    under_map: dict[int, tuple[float, float]] = {}
    over_map: dict[float, float] = {}
    for x, w in zip(xs, ws):
        if w == 0.0:
            continue
        j = _cell(float(x), k)
        mass, first_moment = under_map.get(j, (0.0, 0.0))
        under_map[j] = (mass + w, first_moment + w * float(x))
        lo, hi = j / k, (j + 1) / k
        a = (hi - float(x)) * k  # barycentric weight on the lower endpoint
        for point, share in ((lo, a), (hi, 1.0 - a)):
            if share <= 0.0:
                continue
            over_map[point] = over_map.get(point, 0.0) + w * share

    under_x = np.array([m1 / m for m, m1 in under_map.values()])
    under_w = np.array([m for m, _ in under_map.values()])
    over_points = sorted(over_map)
    over_x = np.array(over_points)
    over_w = np.array([over_map[p] for p in over_points])

    under = _from_beliefs(pi.prior, under_x, under_w / under_w.sum())
    over = _from_beliefs(pi.prior, over_x, over_w / over_w.sum())
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
    and the worst gap shrinks as k grows.
    """
    if np.any(mu.probs == 0.0):
        raise UnboundedExperiment("experiment has zero entries")
    pi = posteriors(mu, q)
    d_mu = [unified_divergence(param, mu) for param in param_grid]
    rows = []
    for k in k_list:
        pair = coarsen(pi, k)
        under = experiment_from_posteriors(pair.under)
        over = experiment_from_posteriors(pair.over)
        for param, d in zip(param_grid, d_mu):
            d_under, d_over = unified_divergence(param, under), unified_divergence(param, over)
            rows.append(SandwichRow(k, param, d_under, d, d_over))
    return rows
