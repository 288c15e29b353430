"""Reference checkers for the benchmark's CLI outputs.

Each checker takes the stdout of one CLI call and returns ``None`` when the
output is right, or a one-line reason when it is wrong.  References are
computed here, from the generated inputs, and reuse the library only for an
independent closed form (the symmetric Rényi maximizer) or where the library
defines the object being checked (a cost file, an axiom witness).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

LOG_LAM = 1.0  # cost scale of every matching problem in the benchmark
SOLVE_TOL = {"shannon": 1e-8, "max_kl": 1e-6, "renyi": 1e-7}
CERT_TOL = 1e-7  # a certificate must map source onto target this closely
LP_TOL = 1e-8  # the CLI's default dominance tolerance
SANDWICH_SLACK = 1e-9


# ---------------------------------------------------------------------------
# rational inattention
# ---------------------------------------------------------------------------


def blahut_arimoto(prior, utilities, lam: float = 1.0, tol: float = 1e-13, max_iter: int = 1_000_000):
    """Optimal value of max E[u] - lam * I(state; action) over choice rules.

    Logit / Blahut-Arimoto fixed point on the action marginal P.  At any P,
    V(P) = lam * sum_x q(x) log sum_a P(a) exp(u(a, x) / lam) is attained and
    V* <= V(P) + lam * log max_a c(a), with c the update multiplier, so the
    loop stops once that bound is below ``tol``.  Returns (value, bound).
    """
    q = np.asarray(prior, dtype=float)
    u = np.asarray(utilities, dtype=float)  # [action, state]
    shift = u.max(axis=0)
    e = np.exp((u - shift) / lam)
    p = np.full(u.shape[0], 1.0 / u.shape[0])
    bound = math.inf
    for _ in range(max_iter):
        z = p @ e
        c = e @ (q / z)
        bound = lam * math.log(float(c.max()))
        if bound <= tol:
            break
        p = p * c
        p /= p.sum()
    z = p @ e
    return float(lam * (q @ np.log(z)) + q @ shift), bound


def matching_band(v: float, lam: float = LOG_LAM) -> tuple[float, float]:
    """All-actions band (w_lo, w_hi) of the symmetric matching problem at t = 1/2.

    Full learning maximizes v pi + lam log(4 pi (1 - pi)), whose stationary
    accuracy solves v pi^2 + (2 lam - v) pi - lam = 0.
    """
    pi = ((v - 2.0 * lam) + math.sqrt(v * v + 4.0 * lam * lam)) / (2.0 * v)
    h = 2.0 * math.sqrt(pi * (1.0 - pi))
    return v * pi + 2.0 * lam * (1.0 - 1.0 / h), v * pi + 2.0 * lam * (h - 1.0)


def symmetric_objective(v, w, a, pi, lam: float = LOG_LAM):
    """Value of the symmetric matching policy (learn with prob a, accuracy pi), t = 1/2."""
    a = np.asarray(a, dtype=float)
    pi = np.asarray(pi, dtype=float)
    h = 2.0 * np.sqrt(np.clip(pi * (1.0 - pi), 0.0, None))
    with np.errstate(divide="ignore"):
        return v * a * pi + w * (1.0 - a) + 2.0 * lam * np.log((1.0 - a) + a * h)


def matching_only_value(v: float) -> float:
    """Best value of the two matching actions under the symmetric max-KL cost.

    Maximizes v pi - (2 pi - 1) log(pi / (1 - pi)) on [1/2, 1) by bisection
    on its decreasing derivative.
    """

    def slope(pi):
        return v - 2.0 * math.log(pi / (1.0 - pi)) - (2.0 * pi - 1.0) / (pi * (1.0 - pi))

    lo, hi = 0.5, 1.0 - 1e-15
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return v * lo - (2.0 * lo - 1.0) * math.log(lo / (1.0 - lo))


def renyi_symmetric_value(v: float, w: float) -> float:
    """Closed-form optimum of the matching problem under the order-1/2 Rényi cost."""
    import infocost

    return float(infocost.maximize_symmetric_value(infocost.SymmetricInstance(v, w, LOG_LAM, 0.5))[2])


def check_solve(out: str, family: str, reference: float, stats: dict) -> str | None:
    """The solver's value must match the reference to the family's tolerance."""
    value = float(json.loads(out)["value"])
    gap = abs(value - reference)
    stats["ri_solver.ref_gap_max"] = max(stats.get("ri_solver.ref_gap_max", 0.0), gap)
    if not gap <= SOLVE_TOL[family]:
        return f"{family} value {value!r} is {gap:.1e} from the reference {reference!r}"
    return None


def check_claim1(out: str, margin: float = 0.02) -> str | None:
    """Each scan row is the maximum of the symmetric objective, and band rows use 3 actions."""
    rows = list(csv.DictReader(io.StringIO(out)))
    if not rows:
        return "claim1 printed no rows"
    a_grid = np.linspace(0.0, 1.0, 201)[:, None]
    pi_grid = np.linspace(0.5, 1.0, 201)[None, :]
    for r in rows:
        v, w = float(r["v"]), float(r["w"])
        value, a, pi = float(r["value"]), float(r["alpha"]), float(r["pi"])
        at_argmax = float(symmetric_objective(v, w, a, pi))
        if abs(at_argmax - value) > 1e-9 * max(1.0, abs(value)):
            return f"claim1 value {value!r} at v={v}, w={w} is not the objective at its argmax"
        grid_max = float(np.max(symmetric_objective(v, w, a_grid, pi_grid)))
        if value < grid_max - 1e-9:
            return f"claim1 value {value!r} at v={v}, w={w} is below a grid point {grid_max!r}"
        w_lo, w_hi = matching_band(v)
        if w_lo + margin < w < w_hi - margin and int(r["support_size"]) != 3:
            return f"claim1 row v={v}, w={w} lies in the band but uses {r['support_size']} actions"
    return None


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

_ALWAYS = {"blackwell_monotonicity"}
_PS = _ALWAYS | {"mixture_convexity", "mixture_linearity", "dilution_linearity", "independence"}

# Axioms each cost family satisfies as a theorem; a reported violation is a bug.
PROVABLE = {
    "kl": _PS | {"additivity", "sub_additivity", "identity_additivity"},
    "max_kl": _ALWAYS | {"mixture_convexity", "sub_additivity", "identity_additivity", "dilution_linearity"},
    "renyi": _ALWAYS | {"mixture_convexity", "additivity", "sub_additivity", "identity_additivity", "independence"},
    # a sup atom is only quasi-convex under mixtures, so convexity is not claimed
    "max_renyi": _ALWAYS | {"sub_additivity", "identity_additivity"},
    "ps_shannon": _PS | {"sub_additivity"},
    "ps_tsallis": _PS,
    "ps_kl": _PS,
    "convex_ps": _ALWAYS | {"mixture_convexity"},
}

SUITE = (
    "blackwell_monotonicity",
    "mixture_convexity",
    "mixture_linearity",
    "dilution_linearity",
    "independence",
    "sub_additivity",
    "additivity",
    "identity_additivity",
)
SUP_AXIOM = "maximal_dilution_concavity"


def check_axioms(out: str, family: str, cost_payload: dict, has_sup: bool) -> str | None:
    """Provable axioms pass, the battery is complete, and violations reproduce."""
    import infocost

    reports = json.loads(out)
    expected = list(SUITE) + ([SUP_AXIOM] if has_sup else [])
    if [r["axiom"] for r in reports] != expected:
        return f"axiom battery {[r['axiom'] for r in reports]} is not {expected}"
    spec = None
    for r in reports:
        if r["axiom"] in PROVABLE[family] and not r["passed"]:
            return f"{family} reports the provable axiom {r['axiom']} violated by {r['worst_violation']!r}"
        if r["passed"] != (r["worst_violation"] <= 0.0):
            return f"{r['axiom']} verdict disagrees with its worst violation"
        if r["passed"]:
            continue
        if spec is None:
            spec = infocost.cost_from_json(cost_payload)
        again = infocost.reevaluate_witness(spec, r["axiom"], r["witness"])
        if not again >= 0.5 * r["worst_violation"]:
            return f"{r['axiom']} witness re-evaluates to {again!r}, below half of {r['worst_violation']!r}"
    return None


# ---------------------------------------------------------------------------
# Blackwell order and the sandwich
# ---------------------------------------------------------------------------


def _rebuild_error(psi, source: np.ndarray, target: np.ndarray) -> str | None:
    k = np.asarray(psi, dtype=float)
    if k.shape != (source.shape[1], target.shape[1]):
        return f"certificate shape {k.shape} does not map {source.shape[1]} onto {target.shape[1]} signals"
    if np.any(k < 0.0) or np.max(np.abs(k.sum(axis=1) - 1.0)) > 1e-9:
        return "certificate is not row-stochastic"
    err = float(np.max(np.abs(source @ k - target)))
    if not err <= CERT_TOL:
        return f"certificate rebuilds the target only to {err:.1e}"
    return None


def check_dominate_garbling(out: str, source: np.ndarray, target: np.ndarray) -> str | None:
    """The target is a garbling of the source: dominance with a working certificate."""
    d = json.loads(out)
    if d["dominates"] is not True:
        return f"a garbling is reported not dominated (violation {d['max_violation']!r})"
    return _rebuild_error(d["certificate"], source, target)


def check_dominate_verdict(out: str, source: np.ndarray, target: np.ndarray) -> str | None:
    """The verdict, marginal flag and certificate agree with the reported violation."""
    d = json.loads(out)
    eps = float(d["max_violation"])
    if d["dominates"] != (eps <= LP_TOL):
        return f"verdict {d['dominates']} disagrees with violation {eps!r} at tol {LP_TOL}"
    if d["marginal"] != ((not d["dominates"]) and eps <= 100.0 * LP_TOL):
        return f"marginal flag {d['marginal']} disagrees with violation {eps!r}"
    if d["dominates"]:
        return _rebuild_error(d["certificate"], source, target)
    if d["certificate"] is not None:
        return "a negative verdict carries a certificate"
    return None


def dichotomy_violation(source: np.ndarray, target: np.ndarray) -> float:
    """How far a two-state experiment falls short of dominating another.

    For dichotomies, source dominates target iff for every t >= 0,
    sum_s (source_0(s) - t source_1(s))^+ >= the same sum for target.  Both
    sides are piecewise linear in t with kinks at the likelihood ratios, so
    checking the kinks and t = 0 is exact.  Returns the largest shortfall.
    """
    ratios = [m[0][m[1] > 0] / m[1][m[1] > 0] for m in (source, target)]
    ts = np.concatenate([[0.0], *ratios])[:, None]

    def g(m):
        return np.clip(m[0][None, :] - ts * m[1][None, :], 0.0, None).sum(axis=1)

    return float(np.max(g(target) - g(source)))


def check_pairwise(out: str, source: np.ndarray, target: np.ndarray, clear: float = 1e-6) -> str | None:
    """The pairwise verdict and first failing pair agree with the dichotomy criterion.

    Pairs whose shortfall lies in (0, clear] are too close to call and accept
    either verdict.
    """
    d = json.loads(out)
    n = source.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            gap = dichotomy_violation(source[[i, j]], target[[i, j]])
            if gap > clear:
                if d["dominates"] or d["failing_pair"] != [i, j]:
                    return f"pair {[i, j]} fails by {gap:.1e} but the output is {d}"
                return None
            if gap > 0.0 and not d["dominates"] and d["failing_pair"] == [i, j]:
                return None  # a near tie the LP resolved the other way
    if not d["dominates"] or d["failing_pair"] is not None:
        return f"every pair dominates but the output is {d}"
    return None


def divergence_of(param: dict, probs: np.ndarray) -> float:
    """The divergence of an experiment, evaluated directly from its matrix."""
    logs = np.log(probs)
    kind = param["kind"]
    if kind == "interior":
        alpha = np.asarray(param["alpha"], dtype=float)
        return math.log(float(np.sum(np.exp(alpha @ logs)))) / (float(alpha.max()) - 1.0)
    if kind == "kl":
        i, beta = int(param["pivot"]), np.asarray(param["beta"], dtype=float)
        kls = [float(probs[i] @ (logs[i] - logs[j])) for j in range(probs.shape[0])]
        return float(beta @ np.asarray(kls))
    if kind == "sup":
        psi = np.asarray(param["psi"], dtype=float)
        return max(float(np.max(psi @ logs)), 0.0)
    raise ValueError(f"unknown parameter kind {kind!r}")


def check_sandwich(out: str, probs: np.ndarray, k_list: list[int], grid: int) -> str | None:
    """Ordering d_under <= d_mu <= d_over, a gap that shrinks with k, and d_mu itself."""
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != len(k_list) * grid:
        return f"sandwich printed {len(rows)} rows, expected {len(k_list) * grid}"
    gaps: dict[str, float] = {}
    for r in rows:
        under, mid, over = float(r["d_under"]), float(r["d_mu"]), float(r["d_over"])
        if not (under <= mid + SANDWICH_SLACK and mid <= over + SANDWICH_SLACK):
            return f"k={r['k']} {r['param_value']}: {under!r} <= {mid!r} <= {over!r} fails"
        direct = divergence_of(json.loads(r["param_value"]), probs)
        if abs(mid - direct) > 1e-9 * max(1.0, abs(direct)):
            return f"d_mu {mid!r} for {r['param_value']} differs from the direct value {direct!r}"
        gap = over - under
        if abs(float(r["gap"]) - gap) > SANDWICH_SLACK:
            return f"gap column {r['gap']} is not d_over - d_under for {r['param_value']}"
        if gap > gaps.get(r["param_value"], math.inf) + SANDWICH_SLACK:
            return f"gap for {r['param_value']} grows to {gap!r} at k={r['k']}"
        gaps[r["param_value"]] = gap
    return None
