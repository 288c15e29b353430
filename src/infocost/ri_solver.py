"""Rational-inattention problems: expected utility net of an information cost.

The solver maximizes over stochastic choice functions (one signal per action).
Each ascent takes entropic mirror (exponentiated-gradient) steps on the rows
until the support settles, then a BFGS endgame on the row logits of the
positive entries; both keep every matrix it prices on the simplex without a
projection.  Every cost has a gradient (``cost._cost_gradient``); for a
Shannon cost a unit mirror step is the Blahut-Arimoto / logit update.  The
endgame is NumPy only, so solving loads no SciPy.

Each cost specification makes its evaluation plan once, at construction,
and the solver prices through it (``cost._costs`` and
``cost._cost_gradient``): no call re-derives the family, the weights or the
exponents, and a solve sets NumPy's floating-point error state once.  The
line searches price one candidate at a time; the pure policies with the
ascents' starts, and the polish's face starts, are each priced as one
stack, whose rows equal the matrices priced alone.  The plan also records
whether the cost is convex in the choice matrix (every built-in family
except sup atoms), which makes the objective concave: those families get
one ascent from the uniform policy, and the others several starts.  On
two states, a concave objective's best pure policy is first tested against
a Frank-Wolfe duality bound taken next to it; when the bound is within the
ascent's margin the ascent is skipped.  A binary symmetric matching
instance admits a two-parameter closed form used as an independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cost import CostSpec, MaxRenyiCost, _cost_gradient, _costs, _plan_of
from .divergence import DivergenceMeasure, InteriorParam, _golden_max
from .errors import BadSolveOptions, DimensionMismatch, InfoCostError, NoRootInBracket, TOutOfRange
from .experiment import FiniteExperiment, _check_prior, _freeze, _is_count

SUPPORT_EPS = 0.01  # an action whose marginal is at most this is outside the support
CERTIFY_STEP = 1e-7  # how far from a pure policy the certificate's point lies
HANDOFF = 10  # mirror steps with an unchanged support before the BFGS endgame
BACKTRACKS = 40  # step halvings a line search tries


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
    support lists the actions whose marginal exceeds ``SUPPORT_EPS``.
    ``converged`` is False when the winning ascent ran out of ``max_iter``
    steps before its stop test fired, True otherwise (an exact pure policy
    included).  ``upper_bound`` is the certificate's bound on the optimal
    value when a pure policy was certified without an ascent, else None."""

    choice: FiniteExperiment
    value: float
    support: tuple
    converged: bool
    upper_bound: Optional[float] = None


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
            if not _is_count(v, low):
                raise BadSolveOptions(f"{name} must be an integer >= {low}, got {v!r}")


# ---------------------------------------------------------------------------
# solver: mirror steps, then a BFGS endgame
# ---------------------------------------------------------------------------


def _payoff(problem: RIProblem) -> np.ndarray:
    """The weighted payoffs q_x u(a, x) as [x, a]: the objective's linear part."""
    return (problem.prior[None, :] * problem.utilities).T


def _objective_factory(problem: RIProblem, spec: CostSpec):
    """The objective f(p) = sum q_x u(a, x) p(x, a) - C(p) and its gradient,
    priced through the plan the cost made at construction (``cost._costs``
    and ``cost._cost_gradient``).  ``objective`` takes a choice matrix
    p[n, m] and returns a float, or a stack p[K, n, m] and returns f of each
    matrix, equal to that matrix priced alone; a +inf cost gives -inf.
    Callers pass C-contiguous float arrays of the problem's shape and
    silence floating-point warnings, as ``solve`` does."""
    payoff = _payoff(problem)

    def objective(p: np.ndarray):
        stack = p if p.ndim == 3 else p[None]
        # a row sum over n * m entries adds them in the order np.sum(payoff * p) does
        f = (payoff * stack).reshape(len(stack), -1).sum(axis=1) - _costs(spec, stack)
        return f if p.ndim == 3 else float(f[0])

    def gradient(p: np.ndarray) -> np.ndarray:
        return payoff - _cost_gradient(spec, p)

    return objective, gradient


def _support(prior: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether each action's marginal exceeds ``SUPPORT_EPS``."""
    return prior @ p > SUPPORT_EPS


def _face_gap(p: np.ndarray, grad: np.ndarray, on: np.ndarray) -> float:
    """Frank-Wolfe gap on p's face: the sum over the entries ``on`` of
    p (max_b G(x, b) - G(x, a)), with G = df/dp.  It bounds f* - f on that
    face when f is concave."""
    top = np.where(on, grad, -np.inf).max(axis=1, keepdims=True)
    return float(np.sum(p * np.where(on, top - grad, 0.0)))


def _mirror_step(objective, prior, p, f, grad, on, step: float, margin: float):
    """The first of the steps s = step, step/2, ... that gains more than the
    margin, as (candidate, value, s), or None once ``BACKTRACKS`` steps
    failed or a step's linear bound G . (candidate - p) falls to the margin:
    for concave f that bounds the gain, and it shrinks with s.  Row x of p is
    multiplied by exp(s g) and renormalized, with g the objective gradient
    over q_x."""
    g = grad / prior[:, None]
    g = np.where(on, g - np.where(on, g, -np.inf).max(axis=1, keepdims=True), 0.0)
    linear = np.where(on, grad, 0.0)
    s = step
    for _ in range(BACKTRACKS):
        cand = np.where(on, p * np.exp(s * g), 0.0)
        cand /= cand.sum(axis=1, keepdims=True)
        if not float(np.sum(linear * (cand - p))) > margin:
            break
        fc = objective(cand)
        if fc > f + margin:
            return cand, fc, s
        s *= 0.5
    return None


def _logit_slope(p: np.ndarray, grad: np.ndarray, on: np.ndarray) -> np.ndarray:
    """df/dz on the entries ``on``, for p the row softmax of the logits z:
    p (G - sum_a p G) row by row.  An entry whose slope is not finite counts
    as flat."""
    ok = on & np.isfinite(grad)
    grad = np.where(ok, grad, 0.0)
    return np.where(ok, p * (grad - np.sum(p * grad, axis=1, keepdims=True)), 0.0)[on]


class _LogitBFGS:
    """BFGS on the row logits z of p's entries ``on``: p = softmax(z) row by
    row, every other entry zero (Nocedal & Wright, ch. 6).

    The gradient is ``_logit_slope``, and H approximates the inverse Hessian
    of -f in z.  H starts as the mirror metric s / (q_x p), so the first step
    is a mirror step of size s, and is rescaled by the first curvature pair.
    A line search starts from twice the last accepted length, at most the
    full step, and halves it until the gain clears the Armijo test."""

    def __init__(self, prior: np.ndarray, p: np.ndarray, grad: np.ndarray, on: np.ndarray, step: float):
        self.on, self.z, self.logits = on, np.log(p[on]), np.full(p.shape, -np.inf)
        self.metric = step / np.maximum((prior[:, None] * p)[on], np.finfo(float).tiny)
        self.dz, self.h, self.s, self.a = _logit_slope(p, grad, on), None, None, 1.0
        support = _support(prior, p)
        self.kept, self.leaving = on & support, bool(np.any(on[:, ~support]))

    def _point(self, z: np.ndarray) -> np.ndarray:
        self.logits[self.on] = z
        e = np.exp(self.logits - self.logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def step(self, objective, f: float, margin: float):
        """(candidate, value, None) for an accepted step, or None once the
        step's predicted gain falls to the margin or ``BACKTRACKS`` halvings
        failed."""
        # a direction past the float range, inf or NaN, restarts H
        d = self.h @ self.dz if self.h is not None else None
        if d is None or not float(self.dz @ d) > 0.0:
            self.h, d = None, self.metric * self.dz
        slope, a = float(self.dz @ d), self.a
        for _ in range(BACKTRACKS):
            if not a * slope > margin:
                return None
            cand = self._point(self.z + a * d)
            fc = objective(cand)
            if fc > f + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            return None
        # a full step that gains near its linear prediction is no Newton step
        # on a quadratic but a ray: along a kink, or towards the face without
        # the actions that left the support.  Double it while that gains and
        # no entry of a support action halves (its logit slope would vanish
        # with it, and logit steps could not regrow it).
        ratio = (fc - f) / (a * slope)
        if a >= 1.0 and (ratio >= 0.9 or ratio >= 0.7 and self.leaving):
            for _ in range(BACKTRACKS):
                longer = self._point(self.z + 2.0 * a * d)
                if np.any(longer[self.kept] < 0.5 * cand[self.kept]):
                    break
                fl = objective(longer)
                if not fl > fc + margin:
                    break
                a, cand, fc = 2.0 * a, longer, fl
        self.s, self.a = a * d, min(2.0 * a, 1.0)
        return cand, fc, None

    def update(self, p: np.ndarray, grad: np.ndarray) -> None:
        """Move to the accepted step's p, with its gradient."""
        dz = _logit_slope(p, grad, self.on)
        s, y = self.s, self.dz - dz  # y: the change in the gradient of -f
        sy = float(s @ y)
        if sy > 1e-12 * math.sqrt(float(s @ s) * float(y @ y)):
            if self.h is None:
                self.h = np.diag(self.metric * (sy / float(y @ (self.metric * y))))
            r, hy = 1.0 / sy, self.h @ y
            self.h += (r * r * float(y @ hy) + r) * np.outer(s, s) - r * (np.outer(hy, s) + np.outer(s, hy))
        self.z, self.dz = self.z + s, dz


def _ascend(
    objective, gradient, prior, start: np.ndarray, f: float, options: SolveOptions
) -> tuple[np.ndarray, float, bool]:
    """Mirror steps from ``start``, whose objective value is f, until the
    support settles, then a BFGS endgame on its logits.

    A mirror step (``_mirror_step``) keeps zero entries at zero.  The
    support is the set of actions whose marginal exceeds ``SUPPORT_EPS``.
    Once it has held for ``HANDOFF`` steps, or no mirror step gains the
    acceptance margin, ``_LogitBFGS`` steps take over on p's positive
    entries.  If the support changes, mirror steps resume, since they reach
    a face far faster than logit steps.

    The ascent stops on a Frank-Wolfe gap within the margin, or when no step
    improves.  It reports False only when ``max_iter`` steps ran out first."""
    p = start.copy()
    if not math.isfinite(f):
        return p, f, True
    step, steady, endgame = 0.5, 0, None
    support = _support(prior, p)
    grad = gradient(p)
    for _ in range(options.max_iter):
        on = (p > 0) & np.isfinite(grad)  # a slope lost to underflow drops its entry
        margin = 1e-13 * max(1.0, abs(f))
        if _face_gap(p, grad, on) <= margin:
            return p, f, True
        mirror = endgame is None and steady < HANDOFF
        found = _mirror_step(objective, prior, p, f, grad, on, step, margin) if mirror else None
        if found is None:
            if endgame is None:
                endgame = _LogitBFGS(prior, p, grad, on, step)
            found = endgame.step(objective, f, margin)
            if found is None:
                return p, f, True
        cand, fc, s = found
        if s is not None:
            step = min(s * 1.5, 100.0)
        grad_c = gradient(cand)
        if endgame is not None:
            endgame.update(cand, grad_c)
        p, f, grad = cand, fc, grad_c
        used = _support(prior, p)
        if np.array_equal(used, support):
            steady += 1
        else:
            support, steady, endgame = used, 0, None
    return p, f, False


def _pure_policy(n_states: int, n_actions: int, a: int) -> np.ndarray:
    p = np.zeros((n_states, n_actions))
    p[:, a] = 1.0
    return p


def _face_start(p: np.ndarray, a: int) -> np.ndarray:
    """p with action a dropped and each row renormalized; a row that used only
    a becomes uniform over the other actions."""
    faced = p.copy()
    faced[:, a] = 0.0
    dead = faced.sum(axis=1) == 0.0
    faced[dead] = 1.0
    faced[dead, a] = 0.0
    return faced / faced.sum(axis=1, keepdims=True)


def _certify_pure(problem: RIProblem, spec: CostSpec, a: int, f_a: float) -> Optional[float]:
    """An upper bound on the optimal value within the ascent's margin of f_a,
    the value of pure action a, or None.  The objective must be concave.

    For a concave f, f(p) plus the Frank-Wolfe gap over all entries bounds
    f* at any p.  The certificate takes p = p_a + t sum_b D_b, with
    t = ``CERTIFY_STEP``: D_b moves d_b(x) from action a to action b in each
    row x, for a direction d_b in the state simplex.  The cost is 0 on every
    uninformative experiment and, near p_a, 1-homogeneous in the mass moved,
    so when each d_b maximizes the slope of f along D_b the bound's first-order
    terms cancel (Euler's identity) and it is tight to O(t^2).  It then
    certifies p_a whenever p_a is optimal with some slack.  The bound is
    tried under each of the plan's ``bounding`` costs in turn (a maximum's
    mean member, then each member): each lies below the cost and is 0 with
    it on every uninformative experiment, so its optimum bounds the cost's.

    Two states only: d_b = (s, 1 - s) is picked on a 64-point grid of s in
    (0, 1), priced as one stack over every b and bounding cost, and refined
    by 33 points around its best.  A point that beats f_a by more than the
    margin shows that that cost's bound cannot hold.  Three or more states,
    and a single action, are not certified.
    """
    if problem.n_states != 2 or problem.n_actions == 1:
        return None
    margin = 1e-13 * max(1.0, abs(f_a))
    plan, m = spec._plan, problem.n_actions
    pure = _pure_policy(2, m, a)
    others = np.array([b for b in range(m) if b != a], dtype=int)
    gain = problem.prior * (problem.utilities - problem.utilities[a])  # [b, x]: q_x (u_b(x) - u_a(x))
    payoff = _payoff(problem)

    def gains(s: np.ndarray) -> list:
        """f - f_a at p_a with t (s, 1 - s) moved to action b, for each row b of s, under each bounding cost."""
        k, per = s.shape
        bs = np.repeat(others, per)
        d = CERTIFY_STEP * np.stack([s.ravel(), 1.0 - s.ravel()], axis=1)
        p = np.repeat(pure[None], k * per, axis=0)
        rows = np.arange(k * per)
        p[rows, :, bs] = d
        p[rows, :, a] = 1.0 - d
        moved = np.sum(gain[bs] * d, axis=1)
        return [(moved - cost).reshape(k, per) for cost in plan.bounding(p)]

    nodes = (np.arange(64) + 0.5) / 64
    edges = np.concatenate([[0.0], nodes, [1.0]])  # node i lies between edges[i] and edges[i + 2]
    grid = np.tile(nodes, (len(others), 1))
    for k, coarse in enumerate(gains(grid)):
        if not np.all(coarse <= margin):
            continue
        i = coarse.argmax(axis=1)
        fine = edges[i, None] + (edges[i + 2] - edges[i])[:, None] * np.linspace(0.0, 1.0, 35)[1:-1]
        s, values = np.hstack([grid, fine]), np.hstack([coarse, gains(fine)[k]])
        if not np.all(values <= margin):
            continue
        best = s[np.arange(len(others)), values.argmax(axis=1)]
        d = CERTIFY_STEP * np.stack([best, 1.0 - best])  # [x, b]
        p = pure.copy()
        p[:, others] = d
        p[:, a] = 1.0 - d.sum(axis=1)
        grad = payoff - plan.bounding_gradient(k, p)
        if not np.all(np.isfinite(grad)):  # the gap needs every entry's slope
            continue
        f = float(np.sum(payoff * p) - plan.bounding(p[None])[k][0])
        bound = f + _face_gap(p, grad, np.ones(p.shape, dtype=bool))
        if bound <= f_a + margin:
            return bound
    return None


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve(problem: RIProblem, spec: CostSpec, options: Optional[SolveOptions] = None) -> Policy:
    """Maximize expected utility minus cost over stochastic choice functions.

    Every matrix is priced through the plan the cost made at construction
    (see ``_objective_factory``), under one floating-point error state.
    One ascent (``_ascend``: mirror steps, then a BFGS endgame on the
    support's logits) from the uniform policy; every pure policy also
    enters as an exact candidate, so the result never falls below a constant
    action.  The pure policies and the ascents' starts are priced as one
    stack.  Specs whose objective is concave (the plan's ``concave``: every
    built-in family except sup atoms) run that one ascent.  Sup atoms and
    custom potentials or transforms run ``options.starts`` ascents: the
    uniform policy, near-pure interior blends, then seeded random interior
    starts.  The best value wins; ties go to the earliest candidate.

    Before any ascent on a concave objective, ``_certify_pure`` tries to
    certify the first best pure policy: f(p) plus the Frank-Wolfe gap at a
    point p next to it bounds the optimum, and if that bound is within the
    ascent's margin (1e-13 max(1, |f|)) the pure policy is returned, with
    the bound as ``upper_bound`` and no ascent or polish.  Its bounding
    costs come from the cost's plan, so a solve builds no cost or plan.
    Two-state problems only; a failed certificate costs time, never value.

    A polish pass then restarts from the incumbent with one action dropped,
    so that face optima are reached exactly instead of approached by a slow
    crawl.  If the incumbent's ascent converged, only actions whose marginal
    is at most ``SUPPORT_EPS`` are dropped, and those whose face starts above
    the incumbent (on a flat objective the endgame cannot climb to a face
    optimum); if it stopped at ``max_iter``, every action is.  The face
    starts are priced up front, as one stack.
    """
    if options is None:
        options = SolveOptions()
    plan = _plan_of(spec)
    if plan.n_states != problem.n_states:
        raise DimensionMismatch(f"spec is {plan.n_states}-state, problem has {problem.n_states}")
    if plan.prior is not None and np.max(np.abs(plan.prior - problem.prior)) > 1e-12:
        raise DimensionMismatch("the cost's prior differs from the problem's prior")
    n, m = problem.n_states, problem.n_actions
    objective, gradient = _objective_factory(problem, spec)
    concave = plan.concave
    uniform = np.full((n, m), 1.0 / m)
    starts = [uniform]
    if not concave:
        for b in range(m):
            starts.append(0.95 * _pure_policy(n, m, b) + 0.05 * uniform)
        rng = np.random.default_rng(options.seed)
        while len(starts) < options.starts:
            starts.append(rng.dirichlet(np.ones(m), size=n))
    starts = starts[: options.starts]
    # exact pure policies are the first candidates, priced as one stack with
    # the ascents' starts; the first best one leads
    values = objective(np.stack([_pure_policy(n, m, a) for a in range(m)] + starts)).tolist()
    pure = values[:m]
    a = pure.index(max(pure))
    best_p, best_f, best_conv = _pure_policy(n, m, a), pure[a], True
    if concave:
        bound = _certify_pure(problem, spec, a, best_f)
        if bound is not None:
            return _policy(problem, objective, best_p, True, bound)

    for p0, f0 in zip(starts, values[m:]):
        p, f, conv = _ascend(objective, gradient, problem.prior, p0, f0, options)
        if f > best_f:
            best_p, best_f, best_conv = p, f, conv

    # polish: restart from the incumbent with an action dropped, so face optima
    # are reached exactly instead of approached by a slow crawl.  Once the
    # ascent converged, only the actions it barely uses are worth dropping,
    # and those whose face starts above it (a flat objective that the
    # endgame cannot climb to its face).  Each face start's value is read by
    # the test below or by its ascent, so all are priced up front, as one stack.
    if m > 1:
        incumbent_f = best_f
        used = _support(problem.prior, best_p)
        faces = np.stack([_face_start(best_p, a) for a in range(m)])
        for a, f0 in enumerate(objective(faces).tolist()):
            if not best_conv or not used[a] or f0 > incumbent_f:
                p, f, conv = _ascend(objective, gradient, problem.prior, faces[a], f0, options)
                if f > best_f:
                    best_p, best_f, best_conv = p, f, conv
    return _policy(problem, objective, best_p, best_conv)


def _policy(problem: RIProblem, objective, p: np.ndarray, converged: bool, bound: Optional[float] = None) -> Policy:
    probs = p / p.sum(axis=1, keepdims=True)
    value = objective(probs)
    probs.setflags(write=False)
    support = tuple(int(a) for a in np.flatnonzero(_support(problem.prior, probs)))
    return Policy(FiniteExperiment(probs), value, support, converged, bound)


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


def matching_problem(v: float, w: float) -> RIProblem:
    """The three-action problem on a uniform prior: match state 0, match state 1, or play safe."""
    utilities = np.array([[v, 0.0], [0.0, v], [w, w]])
    return RIProblem(np.array([0.5, 0.5]), utilities)


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
    return _symmetric_value(inst, a, pi, _mixing_kernel(inst.t, pi))


def _symmetric_value(inst: SymmetricInstance, a: float, pi: float, h: float) -> float:
    """``symmetric_value`` given h, the mixing kernel at pi."""
    arg = (1.0 - a) + a * h
    if arg <= 0.0:
        return -math.inf
    return inst.v * a * pi + inst.w * (1.0 - a) + inst.lam / (1.0 - inst.t) * math.log(arg)


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


def _learning_weight(inst: SymmetricInstance, pi: float) -> tuple[float, float, float]:
    """(a*, slope, h) at accuracy pi, with h the mixing kernel there: slope =
    v pi - w - L (1 - h) is the objective's derivative in a at a = 0, and
    a* = slope / ((v pi - w) (1 - h)) its maximizer over a in [0, 1]."""
    h = _mixing_kernel(inst.t, pi)
    spread = 1.0 - h
    slope = inst.v * pi - inst.w - inst.lam / (1.0 - inst.t) * spread
    if slope <= 0.0:
        return 0.0, slope, h
    if spread <= 0.0:
        return 1.0, slope, h
    return min(slope / ((inst.v * pi - inst.w) * spread), 1.0), slope, h


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
    where learning pays.  That key has no plateau, so one golden-section search
    over [max(1/2, w / v), 1] to 1e-12 in pi finds its maximum.  Returns
    (a_star, pi_star, value), and (0, 1/2, w) when no accuracy beats the safe
    action.
    """

    def key(pi: float) -> float:
        a, slope, h = _learning_weight(inst, pi)
        return _symmetric_value(inst, a, pi, h) if slope > 0.0 else inst.w + slope

    pi_star, value = _golden_max(key, max(0.5, inst.w / inst.v), 1.0, tol=1e-12)
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


def _support_size_from_alpha(a: float) -> int:
    size = 0
    if a / 2.0 > SUPPORT_EPS:
        size += 2
    if 1.0 - a > SUPPORT_EPS:
        size += 1
    return size


def claim1_region(lam: float, t: float, v_grid: Sequence[float], w_steps: int) -> list[Claim1Row]:
    """Scan payoffs for the band where the optimal symmetric policy uses all
    three actions.

    For each matching payoff v, the stationary accuracy pi_v pins an interval
    (w_lo, w_hi) of safe payoffs via the sign conditions of the learning
    derivative at full and zero learning; inside it both corners are
    suboptimal, so the optimum mixes.  Safe payoffs are sampled around the
    interval, and each cell reports the maximizer and its support size.
    w_steps, the safe payoffs per v, is an integer >= 1, and v_grid holds
    one payoff at least, so the scan has a cell.
    """
    if not _is_count(w_steps, 1):
        raise InfoCostError(f"w_steps must be an integer >= 1, got {w_steps!r}")
    v_grid = list(v_grid)
    if not v_grid:
        raise InfoCostError("v_grid must hold at least one payoff")
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
                    _support_size_from_alpha(a_star),
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
) -> list[SupportRow]:
    """Solve the matching problem on a payoff grid for several cost families.

    Cells with w >= v are skipped (the safe action would dominate trivially);
    at least one cell must remain.
    """
    cells = [(float(v), float(w)) for v in v_grid for w in w_grid if not w >= v]
    if not cells:
        raise InfoCostError("no payoff cell with w < v to compare")
    rows: list[SupportRow] = []
    for v, w in cells:
        problem = matching_problem(v, w)
        for label, spec in specs:
            policy = solve(problem, spec, options)
            rows.append(SupportRow(v, w, label, len(policy.support), policy.value))
    return rows
