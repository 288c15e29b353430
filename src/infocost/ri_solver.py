"""Rational-inattention problems: expected utility net of an information cost.

The solver maximizes over stochastic choice functions (one signal per action)
by entropic mirror (exponentiated-gradient) ascent on the rows, so iterates
need no projection and every matrix it prices is on the simplex.  Every cost
has a gradient (``cost._cost_gradient``); for a Shannon cost a unit step is
the Blahut-Arimoto / logit update.  Every built-in family except sup atoms
is convex in the choice matrix, which makes the objective concave: those
families get one ascent from the uniform policy, and the others several
starts.  A binary symmetric matching instance admits a two-parameter closed
form used as an independent cross-check.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cost import (
    ConvexPSCost,
    CostSpec,
    CustomPotential,
    CustomTransform,
    KLCost,
    MaxKLCost,
    MaxRenyiCost,
    PosteriorSeparableCost,
    RenyiCost,
    _cost_gradient,
    _has_sup_atom,
    eval_costs,
    spec_n_states,
)
from .divergence import DivergenceMeasure, InteriorParam, _golden_max
from .errors import BadSolveOptions, DimensionMismatch, NoRootInBracket, TOutOfRange
from .experiment import FiniteExperiment, _check_prior, _freeze

SUPPORT_EPS = 0.01  # an action whose marginal is at most this is outside the support


# ---------------------------------------------------------------------------
# problem and policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RIProblem:
    """Prior over states and a payoff matrix utilities[action][state]."""

    prior: np.ndarray
    utilities: np.ndarray

    def __post_init__(self):
        q = _check_prior(self.prior)
        u = np.asarray(self.utilities, dtype=float)
        if u.ndim != 2 or u.shape[1] != q.shape[0] or not np.all(np.isfinite(u)):
            raise DimensionMismatch("utilities must be a finite matrix actions x states")
        object.__setattr__(self, "prior", _freeze(q.copy()))
        object.__setattr__(self, "utilities", _freeze(u.copy()))

    @property
    def n_states(self) -> int:
        return self.prior.shape[0]

    @property
    def n_actions(self) -> int:
        return self.utilities.shape[0]


@dataclass(frozen=True)
class Policy:
    """A stochastic choice function with its achieved objective value; the
    support lists the actions whose marginal exceeds ``SUPPORT_EPS``."""

    choice: FiniteExperiment
    value: float
    support: tuple
    converged: bool


@dataclass(frozen=True)
class SolveOptions:
    """Solver effort.  ``starts`` counts the ascents of the multi-start path
    (sup atoms and custom callables), ``max_iter`` caps each ascent's steps
    and ``seed`` draws the random starts of that path."""

    starts: int = 16
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, low in (("starts", 1), ("max_iter", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise BadSolveOptions(f"{name} must be an integer >= {low}, got {v!r}")


# ---------------------------------------------------------------------------
# mirror-ascent solver
# ---------------------------------------------------------------------------


def _objective_factory(problem: RIProblem, spec: CostSpec):
    qu = problem.prior[None, :] * problem.utilities  # [a, theta] weighted payoffs

    def objective(p: np.ndarray) -> float:
        # a +inf cost gives -inf
        return float(np.sum(qu.T * p)) - float(eval_costs(spec, p[None])[0])

    def gradient(p: np.ndarray) -> np.ndarray:
        return qu.T - _cost_gradient(spec, p)

    return objective, gradient


def _ascend(objective, gradient, prior, start: np.ndarray, options: SolveOptions) -> tuple[np.ndarray, float, bool]:
    """Entropic mirror ascent: each step multiplies row x of p by exp(s * g)
    and renormalizes, with g the objective gradient over q_x, so a zero entry
    stays zero.  It stops on a Frank-Wolfe gap within the acceptance margin
    (which bounds f* - f on p's face when f is concave), on no improving step
    at any scale, or on 50 steps that gain less than 1e-10."""
    p = start.copy()
    f = objective(p)
    if not math.isfinite(f):
        return p, f, True
    step = 0.5
    window: deque = deque([f], maxlen=51)
    for _ in range(options.max_iter):
        g = gradient(p) / prior[:, None]
        on = (p > 0) & np.isfinite(g)  # a slope lost to underflow drops its entry
        g = np.where(on, g, -np.inf)
        g -= g.max(axis=1, keepdims=True)
        margin = 1e-13 * max(1.0, abs(f))
        if -float(prior @ (p * np.where(on, g, 0.0)).sum(axis=1)) <= margin:
            return p, f, True
        s = step
        for _ in range(40):
            cand = p * np.exp(s * g)
            cand /= cand.sum(axis=1, keepdims=True)
            fc = objective(cand)
            if fc > f + margin:
                p, f = cand, fc
                step = min(s * 1.5, 100.0)
                break
            s *= 0.5
        else:
            return p, f, True
        window.append(f)
        if len(window) == window.maxlen and f - window[0] < 1e-10:
            return p, f, True
    return p, f, False


def _pure_policy(n_states: int, n_actions: int, a: int) -> np.ndarray:
    p = np.zeros((n_states, n_actions))
    p[:, a] = 1.0
    return p


def _one_ascent(spec: CostSpec) -> bool:
    """Whether the cost is convex in the choice matrix, so that the objective
    is concave and one ascent finds its maximum.

    KL is jointly convex; a nonnegative interior Rényi divergence is minus the
    log of a concave sum over a negative constant; a posterior-separable cost
    is a perspective of its convex potential; increasing convex transforms,
    maxima and nonnegative mixtures keep convexity.  Cost constructors reject
    negative interior exponents.  Sup atoms are only quasi-convex, and custom
    potentials and transforms are convex on the caller's word alone.
    """
    if isinstance(spec, (KLCost, MaxKLCost, RenyiCost)):
        return True
    if isinstance(spec, MaxRenyiCost):
        return not _has_sup_atom(spec)
    if isinstance(spec, ConvexPSCost) and isinstance(spec.transform, CustomTransform):
        return False
    return not isinstance(spec.potential, CustomPotential)


def solve(problem: RIProblem, spec: CostSpec, options: Optional[SolveOptions] = None) -> Policy:
    """Maximize expected utility minus cost over stochastic choice functions.

    Entropic mirror ascent from the uniform policy; every pure policy also
    enters as an exact candidate, so the result never falls below a constant
    action.  Specs whose objective is concave (see ``_one_ascent``: every
    built-in family except sup atoms) run that one ascent.  Sup atoms and
    custom potentials or transforms run ``options.starts`` ascents: the
    uniform policy, near-pure interior blends, then seeded random interior
    starts.  The best value wins; ties go to the earliest candidate.

    A polish pass then restarts from the incumbent with one action dropped,
    so that face optima are reached exactly instead of approached by a slow
    crawl.  If the incumbent's ascent converged, only actions whose marginal
    is at most ``SUPPORT_EPS`` are dropped; if it stopped at
    ``max_iter``, every action is.
    """
    if options is None:
        options = SolveOptions()
    if spec_n_states(spec) != problem.n_states:
        raise DimensionMismatch(
            f"spec is {spec_n_states(spec)}-state, problem has {problem.n_states}"
        )
    if isinstance(spec, (PosteriorSeparableCost, ConvexPSCost)):
        if np.max(np.abs(spec.prior - problem.prior)) > 1e-12:
            raise DimensionMismatch("the cost's prior differs from the problem's prior")
    n, m = problem.n_states, problem.n_actions
    objective, gradient = _objective_factory(problem, spec)
    uniform = np.full((n, m), 1.0 / m)
    starts = [uniform]
    if not _one_ascent(spec):
        for a in range(m):
            starts.append(0.95 * _pure_policy(n, m, a) + 0.05 * uniform)
        rng = np.random.default_rng(options.seed)
        while len(starts) < options.starts:
            starts.append(rng.dirichlet(np.ones(m), size=n))

    # exact pure policies enter the candidate pool without iteration
    candidates = [(_pure_policy(n, m, a), None) for a in range(m)]
    candidates += [(s, True) for s in starts[: options.starts]]

    best_p, best_f, best_conv = None, -math.inf, True
    for p0, run in candidates:
        if run is None:
            p, f, conv = p0, objective(p0), True
        else:
            p, f, conv = _ascend(objective, gradient, problem.prior, p0, options)
        if f > best_f:
            best_p, best_f, best_conv = p, f, conv

    # polish: restart from the incumbent with an action dropped, so face optima
    # are reached exactly instead of approached by a slow crawl.  Once the
    # ascent converged, only the actions it barely uses are worth dropping.
    if m > 1:
        incumbent = best_p.copy()
        faces = range(m)
        if best_conv:
            faces = np.flatnonzero(problem.prior @ incumbent <= SUPPORT_EPS)
        for a in faces:
            faced = incumbent.copy()
            faced[:, a] = 0.0
            sums = faced.sum(axis=1, keepdims=True)
            dead = sums[:, 0] == 0.0
            if np.any(dead):
                faced[dead, :] = 1.0 / (m - 1)
                faced[dead, a] = 0.0
                sums = faced.sum(axis=1, keepdims=True)
            faced /= sums
            p, f, conv = _ascend(objective, gradient, problem.prior, faced, options)
            if f > best_f:
                best_p, best_f, best_conv = p, f, conv

    probs = best_p / best_p.sum(axis=1, keepdims=True)
    value = objective(probs)
    probs.setflags(write=False)
    marginals = problem.prior @ probs
    support = tuple(int(a) for a in np.flatnonzero(marginals > SUPPORT_EPS))
    return Policy(FiniteExperiment(probs), value, support, best_conv)


# ---------------------------------------------------------------------------
# symmetric binary matching instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricInstance:
    """Binary states, actions {0, 1, safe}: matching pays v, the safe action w."""

    v: float
    w: float
    lam: float
    t: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.v, self.w, self.lam)):
            raise DimensionMismatch(f"v, w and lam must be finite, got {self.v}, {self.w}, {self.lam}")
        if not (self.v > self.w > 0):
            raise DimensionMismatch(f"need v > w > 0, got v={self.v}, w={self.w}")
        if not (self.lam > 0):
            raise DimensionMismatch("lam must be positive")
        if not (0.0 < self.t < 1.0):
            raise TOutOfRange(f"order must lie in (0, 1), got {self.t!r}")


def matching_problem(v: float, w: float, prior=None) -> RIProblem:
    """The three-action problem: match state 0, match state 1, or play safe."""
    q = np.array([0.5, 0.5]) if prior is None else np.asarray(prior, dtype=float)
    utilities = np.array([[v, 0.0], [0.0, v], [w, w]])
    return RIProblem(q, utilities)


def symmetric_renyi_cost_spec(lam: float, t: float) -> MaxRenyiCost:
    """The two-sided order-t divergence cost matching the closed-form objective.

    Valid for t in [1/2, 1); on symmetric policies the cost equals lam times
    the one-directional order-t divergence.
    """
    if not (0.5 <= t < 1.0):
        raise TOutOfRange(f"need t in [1/2, 1), got {t!r}")
    measure = DivergenceMeasure(
        (
            (lam / 2.0, InteriorParam(np.array([t, 1.0 - t]))),
            (lam / 2.0, InteriorParam(np.array([1.0 - t, t]))),
        )
    )
    return MaxRenyiCost((measure,))


def _mixing_kernel(t: float, pi: float) -> float:
    """pi^t (1-pi)^(1-t) + (1-pi)^t pi^(1-t), the two-sided power mean."""
    if pi <= 0.0 or pi >= 1.0:
        return 0.0
    return pi**t * (1.0 - pi) ** (1.0 - t) + (1.0 - pi) ** t * pi ** (1.0 - t)


def symmetric_value(inst: SymmetricInstance, a: float, pi: float) -> float:
    """Objective of the symmetric policy that learns with probability a and
    matches with conditional accuracy pi."""
    arg = (1.0 - a) + a * _mixing_kernel(inst.t, pi)
    if arg <= 0.0:
        return -math.inf
    return inst.v * a * pi + inst.w * (1.0 - a) + inst.lam / (1.0 - inst.t) * math.log(arg)


def symmetric_value_dalpha(inst: SymmetricInstance, a: float, pi: float) -> float:
    """Closed-form partial derivative of the symmetric objective in a."""
    h = _mixing_kernel(inst.t, pi)
    return inst.v * pi - inst.w + inst.lam / (1.0 - inst.t) * (h - 1.0) / ((1.0 - a) + a * h)


def _mixing_kernel_dpi(t: float, pi: float) -> float:
    """Derivative of the mixing kernel in pi, for pi in (0, 1)."""
    y = (1.0 - pi) / pi
    z = pi / (1.0 - pi)
    return t * y ** (1.0 - t) + (1.0 - t) * y**t - (1.0 - t) * z**t - t * z ** (1.0 - t)


def _foc(inst: SymmetricInstance, pi: float) -> float:
    t = inst.t
    return inst.v + inst.lam / (1.0 - t) * _mixing_kernel_dpi(t, pi) / _mixing_kernel(t, pi)


def foc_root(inst: SymmetricInstance) -> float:
    """Unique accuracy in (1/2, 1) at which full learning is stationary.

    Bisection on the first-order condition down to machine resolution; raises
    when the bracket endpoints do not change sign.
    """
    lo, hi = 0.5, 1.0 - 1e-12
    flo, fhi = _foc(inst, lo), _foc(inst, hi)
    if not (flo > 0.0 > fhi):
        raise NoRootInBracket(f"no sign change on [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        fm = _foc(inst, mid)
        if fm > 0.0:
            lo = mid
        elif fm < 0.0:
            hi = mid
        else:
            return mid


# ---------------------------------------------------------------------------
# claim-style region scans
# ---------------------------------------------------------------------------


def _learning_weight(inst: SymmetricInstance, pi: float) -> tuple[float, float]:
    """(a*, slope) at accuracy pi: slope = v pi - w - L (1 - h) is the objective's
    derivative in a at a = 0, and a* = slope / ((v pi - w) (1 - h)) its maximizer
    over a in [0, 1]."""
    spread = 1.0 - _mixing_kernel(inst.t, pi)
    slope = inst.v * pi - inst.w - inst.lam / (1.0 - inst.t) * spread
    if slope <= 0.0:
        return 0.0, slope
    if spread <= 0.0:
        return 1.0, slope
    return min(slope / ((inst.v * pi - inst.w) * spread), 1.0), slope


def maximize_symmetric_value(inst: SymmetricInstance) -> tuple[float, float, float]:
    """Maximize the symmetric objective over [0, 1]^2.

    With L = lam / (1 - t) and h = h(pi) the mixing kernel, the objective is
    concave in a, with stationary point a*(pi) = (1 - L (1 - h) / (v pi - w)) / (1 - h)
    clipped to [0, 1]: zero when v pi <= w, and one at h = 1 (pi = 1/2) when
    v / 2 > w.  In x = a pi, y = a (1 - pi) the product a h is the concave,
    1-homogeneous x^t y^(1-t) + y^t x^(1-t), so the objective is jointly concave
    in (x, y), and the profile g(pi) = f(a*(pi), pi) is quasi-concave: its
    superlevel sets are images of convex sets under the linear-fractional map
    pi = x / (x + y).  g is flat at w where a* = 0; there the search reads
    w + slope instead, which is concave in pi and climbs towards the accuracies
    where learning pays.  That key has no plateau, so a 64-point scan of
    [max(1/2, w / v), 1] brackets its maximum for a golden-section search to
    1e-12 in pi.  Returns (a_star, pi_star, value), and (0, 1/2, w) when no
    accuracy beats the safe action.
    """

    def key(pi: float) -> float:
        a, slope = _learning_weight(inst, pi)
        return symmetric_value(inst, a, pi) if slope > 0.0 else inst.w + slope

    grid = np.linspace(max(0.5, inst.w / inst.v), 1.0, 64).tolist()
    vals = [key(pi) for pi in grid]
    best = int(np.argmax(vals))
    pi_star, value = _golden_max(key, grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)], tol=1e-12)
    if vals[best] > value:
        pi_star, value = grid[best], vals[best]
    if not value > inst.w:
        return 0.0, 0.5, inst.w
    return _learning_weight(inst, pi_star)[0], pi_star, value


@dataclass(frozen=True)
class Claim1Row:
    v: float
    w: float
    support_size: int
    alpha: float
    pi: float
    value: float
    pi_v: float
    w_lo: float
    w_hi: float


def _support_size_from_alpha(a: float, eps: float) -> int:
    size = 0
    if a / 2.0 > eps:
        size += 2
    if 1.0 - a > eps:
        size += 1
    return size


def claim1_region(
    lam: float,
    t: float,
    v_grid: Sequence[float],
    w_steps: int,
    support_eps: float = SUPPORT_EPS,
) -> list[Claim1Row]:
    """Scan payoffs for the band where the optimal symmetric policy uses all
    three actions.

    For each matching payoff v, the stationary accuracy pi_v pins an interval
    (w_lo, w_hi) of safe payoffs via the sign conditions of the learning
    derivative at full and zero learning; inside it both corners are
    suboptimal, so the optimum mixes.  Safe payoffs are sampled around the
    interval, and each cell reports the maximizer and its support size.
    """
    rows: list[Claim1Row] = []
    for v in v_grid:
        probe = SymmetricInstance(v, v / 2.0, lam, t)
        pi_v = foc_root(probe)
        h = _mixing_kernel(t, pi_v)
        w_lo = v * pi_v + lam / (1.0 - t) * (1.0 - 1.0 / h)
        w_hi = v * pi_v + lam / (1.0 - t) * (h - 1.0)
        span = w_hi - w_lo
        w_min = max(1e-6, w_lo - 2.0 * span)
        w_max = min(v * (1.0 - 1e-9), w_hi + 2.0 * span)
        for w in np.linspace(w_min, w_max, w_steps):
            inst = SymmetricInstance(v, float(w), lam, t)
            a_star, pi_star, value = maximize_symmetric_value(inst)
            rows.append(
                Claim1Row(
                    v,
                    float(w),
                    _support_size_from_alpha(a_star, support_eps),
                    a_star,
                    pi_star,
                    value,
                    pi_v,
                    w_lo,
                    w_hi,
                )
            )
    return rows


@dataclass(frozen=True)
class SupportRow:
    v: float
    w: float
    spec_label: str
    support_size: int
    value: float


def support_comparison(
    specs: Sequence[tuple[str, CostSpec]],
    v_grid: Sequence[float],
    w_grid: Sequence[float],
    options: Optional[SolveOptions] = None,
    prior=None,
) -> list[SupportRow]:
    """Solve the matching problem on a payoff grid for several cost families.

    Cells with w >= v are skipped (the safe action would dominate trivially).
    """
    rows: list[SupportRow] = []
    for v in v_grid:
        for w in w_grid:
            if w >= v:
                continue
            problem = matching_problem(float(v), float(w), prior)
            for label, spec in specs:
                policy = solve(problem, spec, options)
                rows.append(
                    SupportRow(float(v), float(w), label, len(policy.support), policy.value)
                )
    return rows
