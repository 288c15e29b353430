"""Blackwell dominance via garbling feasibility.

An experiment dominates another when a row-stochastic kernel maps the first's
signal distributions onto the second's.  :func:`dominates` decides this by a
linear program minimizing the worst matching violation; the kernel is
returned as a certificate whenever the verdict is positive.

On two states (a dichotomy) the order has a closed form (Blackwell 1953;
Torgersen 1991, *Comparison of Statistical Experiments*, ch. 9): mu dominates
nu iff g_mu(t) >= g_nu(t) for every t >= 0, where
g(t) = sum_s (p_0(s) - t p_1(s))^+.  :func:`dichotomy_shortfall` measures how
far that criterion fails, and :func:`pairwise_dominates` decides every
two-state restriction by it first, solving the LP only for the near ties
the criterion's bounds leave open.  Plain dominance implies dominance on
every pair of states, so :func:`dominates` runs the same pair walk first and
rejects, with no LP, a non-garbling that one pair's shortfall proves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import InfoCostError, NotBinary, RowNotStochastic, ShapeMismatch, StateMismatch
from .experiment import ROW_SUM_TOL, FiniteExperiment, _freeze, _is_count, restrict_pair

DEFAULT_TOL = 1e-8
MARGINAL_FACTOR = 100.0
ROUNDING_ULPS = 4  # rounding allowance of a dichotomy shortfall, in units of 2**-52 per signal
MIN_TOL = 1e-9  # the finest tol the dominance LP decides: HiGHS solves to no finer than a tenth of it


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
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
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
    """A kernel whose rows are flat Dirichlet draws, deterministic in the seed."""
    for name, v in (("rows", rows), ("cols", cols)):
        if not _is_count(v, 1):
            raise ShapeMismatch(f"kernel {name} must be an integer >= 1, got {v!r}")
    if not _is_count(seed, 0):
        raise InfoCostError(f"seed must be an integer >= 0, got {seed!r}")
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
    """Verdict of :func:`dominates`.

    ``dominates`` is the verdict, and ``certificate`` the kernel that proves
    a positive one (None otherwise).  ``marginal`` flags a negative verdict
    whose ``max_violation`` is at most MARGINAL_FACTOR times
    T = max(tol, MIN_TOL).  ``screened_pair`` says which route decided, and
    so which number ``max_violation`` holds:

    - None: the dominance LP decided, and ``max_violation`` is the measured
      miss max |mu psi - nu| of its kernel psi;
    - a state pair (i, j): that pair's dichotomy shortfall proved the
      negative verdict with no LP, and ``max_violation`` is a certified
      lower bound on the miss of every kernel.
    """

    dominates: bool
    certificate: Optional[GarblingKernel]
    max_violation: float
    marginal: bool
    screened_pair: Optional[tuple[int, int]] = None


def _check_comparable(mu: FiniteExperiment, nu: FiniteExperiment, tol: float = 0.0) -> None:
    """Two experiments to compare must share their states, at a finite tol >= 0."""
    if mu.n_states != nu.n_states:
        raise StateMismatch(f"{mu.n_states} states vs {nu.n_states}")
    if not (0 <= tol < math.inf):
        raise InfoCostError(f"tol must be finite and nonnegative, got {tol!r}")


def dominates(mu: FiniteExperiment, nu: FiniteExperiment, tol: float = DEFAULT_TOL) -> DominanceResult:
    """Decide whether nu is a garbling of mu, within tolerance tol.

    First a screen: the state pairs are walked in `itertools.combinations`
    order, and each pair's dichotomy shortfall r bounds the LP optimum from
    below by 2 (r - slack) / nu.n_signals (see :func:`pairwise_dominates`).
    A kernel for all states is one for the pair, so that bound holds for
    every kernel's miss.  At the first pair where it exceeds
    MARGINAL_FACTOR max(tol, MIN_TOL), the call returns False, not marginal,
    with that bound as ``max_violation`` and the pair as ``screened_pair``.
    Such a call loads no SciPy.  Every other call, garblings included, is
    decided by the dominance LP (:func:`_garbling_lp`): ``max_violation`` is
    then its kernel's measured miss, the kernel is the certificate when that
    miss is at most max(tol, MIN_TOL), and a miss up to MARGINAL_FACTOR
    times that sets ``marginal``.
    """
    _check_comparable(mu, nu, tol)
    floor = MARGINAL_FACTOR * max(tol, MIN_TOL)
    for pair, r, slack in _pair_shortfalls(mu, nu):
        bound = 2.0 * (r - slack) / nu.n_signals
        if bound > floor:
            return DominanceResult(False, None, bound, False, pair)
    return _garbling_lp(mu, nu, tol)


def _garbling_lp(mu: FiniteExperiment, nu: FiniteExperiment, tol: float) -> DominanceResult:
    """The dominance LP: decide whether nu is a garbling of mu, within tol.

    Solves min eps over row-stochastic kernels psi subject to
    |sum_s psi[s, t] mu_i(s) - nu_i(t)| <= eps for every state and target
    signal.  HiGHS meets the constraints only to its feasibility tolerances,
    set to tol / 10 (at most its default 1e-7), so eps (``max_violation``)
    is measured on its kernel, clipped and its rows renormalized, as
    max |mu psi - nu|.  A tol below MIN_TOL = 1e-9 is decided at MIN_TOL, as
    HiGHS solves to no finer than 1e-10: an exact garbling passes at tol 0.
    The kernel is the certificate when eps <= tol, and an eps in
    (tol, 100 tol] sets a marginal flag instead of being silently decided.
    The constraints are passed as sparse rows: a matching row holds the
    nonzero mu_i(s) of one kernel column plus eps (at most ns + 1 entries),
    a row-sum row one kernel row.
    No dimension limit is enforced; the intended envelope is up to ~64
    signals per experiment.
    """
    from scipy.sparse import csr_array

    n, ns, nt = mu.n_states, mu.n_signals, nu.n_signals
    nk = ns * nt  # kernel entry psi[s, t] is variable s * nt + t, eps is variable nk

    c = np.zeros(nk + 1)
    c[-1] = 1.0

    # row s: sum_t psi[s, t] = 1
    a_eq = csr_array((np.ones(nk), np.arange(nk), np.arange(0, nk + 1, nt)), shape=(ns, nk + 1))
    b_eq = np.ones(ns)

    # rows (i, t, +) and (i, t, -): +-(sum_s psi[s, t] mu_i(s) - nu_i(t)) <= eps,
    # each holding column t of psi and then eps
    cols = np.empty((nt, ns + 1), dtype=np.intp)
    cols[:, :ns] = np.arange(0, nk, nt) + np.arange(nt)[:, None]
    cols[:, ns] = nk
    vals = np.concatenate([np.stack([mu.probs, -mu.probs], 1), np.full((n, 2, 1), -1.0)], -1)
    data = np.repeat(vals, nt, axis=0).ravel()
    indices = np.tile(np.repeat(cols, 2, axis=0), (n, 1)).ravel()
    a_ub = csr_array((data, indices, np.arange(0, data.size + 1, ns + 1)), shape=(2 * n * nt, nk + 1))
    a_ub.eliminate_zeros()  # as a dense matrix would lose them
    b_ub = np.stack([nu.probs, -nu.probs], -1).ravel()

    bounds = np.tile([0.0, 1.0], (nk + 1, 1))
    bounds[-1, 1] = math.inf
    tol = max(tol, MIN_TOL)
    ftol = min(tol / 10, 1e-7)  # at most HiGHS's default
    options = {"primal_feasibility_tolerance": ftol, "dual_feasibility_tolerance": ftol}
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs", options=options)
    if not res.success:
        raise InfoCostError(f"feasibility solve failed: {res.message}")
    psi = np.clip(res.x[:-1].reshape(ns, nt), 0.0, None)
    kernel = GarblingKernel(psi / psi.sum(axis=1, keepdims=True))
    eps = float(np.abs(mu.probs @ kernel.psi - nu.probs).max())
    ok = eps <= tol
    marginal = (not ok) and eps <= MARGINAL_FACTOR * tol
    return DominanceResult(ok, kernel if ok else None, eps, marginal)


def _shortfall(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(r, t) of :func:`dichotomy_shortfall` for two-row matrices a (source) and b (target)."""
    with np.errstate(over="ignore"):  # a ratio over a subnormal entry may overflow
        kinks = [m[0][m[1] > 0] / m[1][m[1] > 0] for m in (a, b)]
    t = np.concatenate([[0.0], *kinks])
    t = t[np.isfinite(t)]

    def g(m):
        return np.maximum(m[0] - t[:, None] * m[1], 0.0).sum(axis=1)

    r = (g(b) - g(a)) / (1.0 + t)
    k = int(np.argmax(r))
    return float(r[k]), float(t[k])


def _pair_shortfalls(mu: FiniteExperiment, nu: FiniteExperiment):
    """Yield ((i, j), r, slack) for each state pair in `itertools.combinations`
    order: r is the pair's dichotomy shortfall, from rows i and j, and
    slack = ROUNDING_ULPS (s_mu + s_nu) 2**-52 covers the rounding in r and
    in the rows' sums."""
    slack = ROUNDING_ULPS * (mu.n_signals + nu.n_signals) * 2.0**-52
    for i, j in combinations(range(mu.n_states), 2):
        r, _ = _shortfall(mu.probs[[i, j]], nu.probs[[i, j]])
        yield (i, j), r, slack


def dichotomy_shortfall(mu: FiniteExperiment, nu: FiniteExperiment) -> tuple[float, float]:
    """How far a two-state experiment falls short of dominating another.

    Returns (r, t): r = max over t >= 0 of (g_nu(t) - g_mu(t)) / (1 + t), with
    g(t) = sum_s (p_0(s) - t p_1(s))^+, and the t where it is attained.  Both
    g are piecewise linear with kinks at the likelihood ratios
    p_0(s) / p_1(s), so the quotient is monotone between kinks and tends to 0
    as t grows: t = 0 and the kinks of both experiments suffice.  mu
    dominates nu iff r <= 0, up to rounding.  The dominance LP's optimum eps
    lies in [2 r / nu.n_signals, r]; see :func:`pairwise_dominates`.
    """
    _check_comparable(mu, nu)
    if mu.n_states != 2:
        raise NotBinary(f"the dichotomy criterion needs 2 states, got {mu.n_states}")
    return _shortfall(mu.probs, nu.probs)


@dataclass(frozen=True)
class PairwiseResult:
    """Verdict of :func:`pairwise_dominates`.

    ``failing_pair`` is the first pair, in ``combinations`` order, that does
    not dominate (None when every pair does).  ``shortfall`` is the worst
    dichotomy shortfall r over the pairs checked, floored at 0.0, and
    ``lp_pairs`` counts the pairs whose verdict needed the dominance LP.
    """

    dominates: bool
    failing_pair: Optional[tuple[int, int]]
    shortfall: float
    lp_pairs: int


def pairwise_dominates(mu: FiniteExperiment, nu: FiniteExperiment, tol: float = DEFAULT_TOL) -> PairwiseResult:
    """Check Blackwell dominance on every two-state restriction.

    Strictly stronger than plain dominance for three or more states: a pair
    of experiments can be pairwise dominant while no single kernel works for
    all states at once.

    Each pair (i, j) is screened by its dichotomy shortfall r, computed from
    rows i and j (see :func:`dichotomy_shortfall`).  The optimum eps of that
    pair's dominance LP obeys two bounds:

    - eps <= r: by Torgersen's theorem for dichotomies, some kernel misses
      each state's target distribution by at most 2 r in l1, and a
      difference of two distributions has l-inf norm at most half its l1.
    - eps >= 2 r / s_nu, with s_nu = nu.n_signals: a kernel within eps moves
      g_nu(t) by at most s_nu (1 + t) eps / 2.

    With T = max(tol, MIN_TOL), the tol the LP decides at, the pair passes
    when r + slack <= T / 2 and fails when r - slack > s_nu T, where
    slack = ROUNDING_ULPS (s_mu + s_nu) 2**-52 covers the rounding in r and
    in the rows' sums.  Both keep a factor 2 between the exact LP optimum
    and T, so at tol = 0 an exact garbling's rounding-level shortfalls pass
    without an LP.  Only a near tie between the two runs the LP
    (:func:`_garbling_lp` on :func:`restrict_pair`, with no second screen).

    Pairs are checked in `itertools.combinations` order and the call stops
    at the first pair that does not dominate; that pair is `failing_pair`.
    """
    _check_comparable(mu, nu, tol)
    lp_tol = max(tol, MIN_TOL)
    worst, lp_pairs = 0.0, 0
    for (i, j), r, slack in _pair_shortfalls(mu, nu):
        worst = max(worst, r)
        if r + slack <= lp_tol / 2:
            continue
        near_tie = r - slack <= nu.n_signals * lp_tol
        lp_pairs += near_tie
        if not (near_tie and _garbling_lp(restrict_pair(mu, i, j), restrict_pair(nu, i, j), tol).dominates):
            return PairwiseResult(False, (i, j), worst, lp_pairs)
    return PairwiseResult(True, None, worst, lp_pairs)
