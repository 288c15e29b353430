"""Rational-inattention problems: expected utility net of an information cost.

The solver maximizes over stochastic choice functions (one signal per action)
by projected-gradient ascent with finite-difference cost gradients, so any
cost specification, including non-differentiable maxima and custom
potentials, is supported.  Every built-in family except sup atoms is convex
in the choice matrix, which makes the objective concave: those families get
one ascent from the uniform policy, and the others several starts.  Each
gradient is one
:func:`infocost.cost.eval_costs` pass over the stack of perturbed choice
matrices; line-search candidates go through the same evaluator as stacks of
one, so both see the same cost for the same matrix.  Each step projects all
rows onto the simplex at once.  A binary symmetric matching instance admits a
two-parameter closed form used as an independent cross-check.
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
    _has_sup_atom,
    eval_costs,
    spec_n_states,
)
from .divergence import DivergenceMeasure, InteriorParam, _golden_max
from .errors import BadSolveOptions, DimensionMismatch, NoRootInBracket, TOutOfRange
from .experiment import FiniteExperiment, _check_prior, _freeze

GRAD_CLIP = 1e8
GRAD_EPS = 1e-6  # finite-difference step of the cost gradient
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
        for name in ("starts", "max_iter"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                raise BadSolveOptions(f"{name} must be an integer >= 1, got {v!r}")


# ---------------------------------------------------------------------------
# projected-gradient solver
# ---------------------------------------------------------------------------


def _project_rows(m: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the probability simplex at once
    (sort-based; Duchi, Shalev-Shwartz, Singer & Chandra 2008)."""
    u = np.sort(m, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, m.shape[1] + 1)
    # rho: the last sorted position that stays positive after the shift
    rho = m.shape[1] - np.argmax((u - css / idx > 0)[:, ::-1], axis=1)
    theta = css[np.arange(m.shape[0]), rho - 1] / rho
    return np.clip(m - theta[:, None], 0.0, None)


def _objective_factory(problem: RIProblem, spec: CostSpec):
    qu = problem.prior[None, :] * problem.utilities  # [a, theta] weighted payoffs

    def objective(p: np.ndarray) -> float:
        # a +inf cost gives -inf
        return float(np.sum(qu.T * p)) - float(eval_costs(spec, p[None])[0])

    def gradient(p: np.ndarray, h: float) -> np.ndarray:
        # stack row k moves entry k of p up to x + h, row nm + k down to max(x - h, 0)
        n, m = p.shape
        x = p.ravel()
        hi, lo = x + h, np.maximum(x - h, 0.0)
        stack = np.tile(x, (2, x.size, 1))
        k = np.arange(x.size)
        stack[0, k, k] = hi
        stack[1, k, k] = lo
        costs = eval_costs(spec, stack.reshape(2 * x.size, n, m))
        c_hi, c_lo = costs[: x.size], costs[x.size :]
        with np.errstate(invalid="ignore"):
            slope = (c_hi - c_lo) / (hi - lo)
        # a non-finite pair clips: infinite one step up pushes the entry down, else up
        g = np.where(
            np.isfinite(c_hi) & np.isfinite(c_lo),
            qu.T.ravel() - slope,  # analytic expected-utility part minus the cost slope
            np.where(np.isinf(c_hi), -GRAD_CLIP, GRAD_CLIP),
        )
        return np.clip(g.reshape(n, m), -GRAD_CLIP, GRAD_CLIP)

    return objective, gradient


def _ascend(objective, gradient, start: np.ndarray, options: SolveOptions) -> tuple[np.ndarray, float, bool]:
    p = start.copy()
    f = objective(p)
    if not math.isfinite(f):
        return p, f, True
    step = 0.5
    window: deque = deque([f], maxlen=51)
    converged = False
    for _ in range(options.max_iter):
        g = gradient(p, GRAD_EPS)
        s = step
        accepted = False
        margin = 1e-13 * max(1.0, abs(f))
        for _ in range(40):
            cand = _project_rows(p + s * g)
            fc = objective(cand)
            if fc > f + margin:
                p, f = cand, fc
                step = min(s * 1.5, 100.0)
                accepted = True
                break
            s *= 0.5
        if not accepted:
            converged = True  # no improving step at any scale
            break
        window.append(f)
        if len(window) == window.maxlen and f - window[0] < 1e-10:
            converged = True
            break
    return p, f, converged


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

    Projected-gradient ascent from the uniform policy; every pure policy also
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
    ``max_iter``, every action is.  Cost gradients take finite differences
    of step ``GRAD_EPS``.
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
            p, f, conv = _ascend(objective, gradient, p0, options)
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
            p, f, conv = _ascend(objective, gradient, faced, options)
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


def symmetric_value_dpi(inst: SymmetricInstance, a: float, pi: float) -> float:
    """Closed-form partial derivative of the symmetric objective in pi."""
    t = inst.t
    h = _mixing_kernel(t, pi)
    return inst.v * a + a * inst.lam / (1.0 - t) * _mixing_kernel_dpi(t, pi) / ((1.0 - a) + a * h)


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


def maximize_symmetric_value(inst: SymmetricInstance) -> tuple[float, float, float]:
    """Maximize the symmetric objective over [0, 1]^2.

    Nested golden-section: the inner accuracy search uses concavity in pi;
    the outer search over the learning weight is bracketed by a coarse scan.
    Returns (a_star, pi_star, value).
    """

    def inner(a: float) -> tuple[float, float]:
        if a == 0.0:
            return 0.5, symmetric_value(inst, 0.0, 0.5)
        return _golden_max(lambda pi: symmetric_value(inst, a, pi), 0.0, 1.0)

    grid = np.linspace(0.0, 1.0, 41)
    vals = [inner(a)[1] for a in grid]
    best = int(np.argmax(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    a_star, _ = _golden_max(lambda a: inner(a)[1], lo, hi, tol=1e-9)
    candidates = [a_star, 0.0, 1.0]
    best_a, best_pi, best_v = None, None, -math.inf
    for a in candidates:
        pi, val = inner(a)
        if val > best_v:
            best_a, best_pi, best_v = a, pi, val
    return best_a, best_pi, best_v


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
