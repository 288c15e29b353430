"""Blackwell dominance via garbling feasibility.

An experiment dominates another when a row-stochastic kernel maps the first's
signal distributions onto the second's.  Dominance is decided by a linear
program minimizing the worst matching violation; the kernel is returned as a
certificate whenever the verdict is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import InfoCostError, RowNotStochastic, ShapeMismatch, StateMismatch
from .experiment import FiniteExperiment, _freeze, restrict_pair

DEFAULT_TOL = 1e-8
MARGINAL_FACTOR = 100.0


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    SciPy is needed only by the dominance LP; importing it at module level
    would add its load time to every use of the package.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True, eq=False)
class GarblingKernel:
    """Row-stochastic map from source signals to target signals."""

    psi: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.psi, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ShapeMismatch("kernel must be a nonempty matrix")
        if not np.all(m >= 0):
            raise RowNotStochastic("kernel entries must be nonnegative")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise RowNotStochastic("kernel rows must sum to 1")
        object.__setattr__(self, "psi", _freeze(m / sums[:, None]))

    @property
    def rows(self) -> int:
        return self.psi.shape[0]

    @property
    def cols(self) -> int:
        return self.psi.shape[1]


def identity_kernel(n: int) -> GarblingKernel:
    return GarblingKernel(np.eye(n))


def random_kernel(rows: int, cols: int, seed: int) -> GarblingKernel:
    rng = np.random.default_rng(seed)
    return GarblingKernel(rng.dirichlet(np.ones(cols), size=rows))


def compose(first: GarblingKernel, second: GarblingKernel) -> GarblingKernel:
    """Kernel applying `first` then `second`."""
    if first.cols != second.rows:
        raise ShapeMismatch(f"{first.cols} columns vs {second.rows} rows")
    return GarblingKernel(first.psi @ second.psi)


def garble(mu: FiniteExperiment, kernel: GarblingKernel) -> FiniteExperiment:
    """Push each signal distribution of mu through the kernel."""
    if kernel.rows != mu.n_signals:
        raise ShapeMismatch(f"kernel has {kernel.rows} rows, experiment {mu.n_signals} signals")
    return FiniteExperiment(_freeze(mu.probs @ kernel.psi))


@dataclass(frozen=True)
class DominanceResult:
    dominates: bool
    certificate: Optional[GarblingKernel]
    max_violation: float
    marginal: bool


def dominates(mu: FiniteExperiment, nu: FiniteExperiment, tol: float = DEFAULT_TOL) -> DominanceResult:
    """Decide whether nu is a garbling of mu, within tolerance tol.

    Solves min eps over row-stochastic kernels psi subject to
    |sum_s psi[s, t] mu_i(s) - nu_i(t)| <= eps for every state and target
    signal.  Verdicts whose best eps lies in (tol, 100 tol] carry a marginal
    flag instead of being silently decided.  No dimension limit is enforced;
    the intended envelope is up to ~64 signals per experiment.
    """
    if mu.n_states != nu.n_states:
        raise StateMismatch(f"{mu.n_states} states vs {nu.n_states}")
    if not (0 <= tol < math.inf):
        raise InfoCostError(f"tol must be finite and nonnegative, got {tol!r}")
    ns, nt = mu.n_signals, nu.n_signals
    nvar = ns * nt + 1  # kernel entries plus the violation bound

    c = np.zeros(nvar)
    c[-1] = 1.0

    # kernel entry psi[s, t] is variable s * nt + t
    src = np.arange(ns)
    a_eq = np.zeros((ns, nvar))
    a_eq[src[:, None], src[:, None] * nt + np.arange(nt)] = 1.0
    b_eq = np.ones(ns)

    # rows (i, t, +) and (i, t, -): +-(sum_s psi[s, t] mu_i(s) - nu_i(t)) <= eps;
    # the minus rows are negated copies of the plus rows, zeros included
    i, t, s = np.ix_(np.arange(mu.n_states), np.arange(nt), src)
    a_ub = np.zeros((mu.n_states, nt, 2, nvar))
    a_ub[:, :, 1] = -0.0
    a_ub[i, t, 0, s * nt + t] = mu.probs[i, s]
    a_ub[i, t, 1, s * nt + t] = -mu.probs[i, s]
    a_ub[..., -1] = -1.0
    a_ub = a_ub.reshape(-1, nvar)
    b_ub = np.stack([nu.probs, -nu.probs], -1).ravel()

    bounds = [(0.0, 1.0)] * (ns * nt) + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise InfoCostError(f"feasibility solve failed: {res.message}")
    eps = float(res.x[-1])
    ok = eps <= tol
    marginal = (not ok) and eps <= MARGINAL_FACTOR * tol
    certificate = None
    if ok:
        psi = np.clip(res.x[:-1].reshape(ns, nt), 0.0, None)
        certificate = GarblingKernel(psi)
    return DominanceResult(ok, certificate, eps, marginal)


@dataclass(frozen=True)
class PairwiseResult:
    dominates: bool
    failing_pair: Optional[tuple[int, int]]
    max_violation: float


def pairwise_dominates(
    mu: FiniteExperiment,
    nu: FiniteExperiment,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> PairwiseResult:
    """Check Blackwell dominance on every two-state restriction.

    Strictly stronger than plain dominance for three or more states: a pair
    of experiments can be pairwise dominant while no single kernel works for
    all states at once.
    """
    if mu.n_states != nu.n_states:
        raise StateMismatch(f"{mu.n_states} states vs {nu.n_states}")
    pairs = list(combinations(range(mu.n_states), 2))

    def check(pair: tuple[int, int]) -> DominanceResult:
        i, j = pair
        return dominates(restrict_pair(mu, i, j), restrict_pair(nu, i, j), tol)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(check, pairs))
    else:
        results = [check(p) for p in pairs]

    worst = 0.0
    for pair, res in zip(pairs, results):
        worst = max(worst, res.max_violation)
        if not res.dominates:
            return PairwiseResult(False, pair, worst)
    return PairwiseResult(True, None, worst)
