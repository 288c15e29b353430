"""Seeded inputs and the op cycle of each workload.

A workload is a fixed cycle of CLI calls.  The seed draws every number in the
input files; the structure of the cycle (which verbs, which cost families,
which sizes) is the same for every seed, so runs with different seeds do
comparable work.  Each op carries the checker for its output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str], Optional[str]]


def _write(work: Path, name: str, payload) -> str:
    path = work / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _bounded_rows(rng: np.random.Generator, n: int, signals: int, floor: float) -> np.ndarray:
    """Random signal distributions with every entry at least floor / signals."""
    raw = rng.dirichlet(np.ones(signals), size=n)
    return floor / signals + (1.0 - floor) * raw


# ---------------------------------------------------------------------------
# ri_solve
# ---------------------------------------------------------------------------

SHANNON_BINARY = {"kind": "posterior_separable", "prior": [0.5, 0.5], "potential": {"kind": "shannon"}}
MAX_KL_SYMMETRIC = {"kind": "max_kl", "betas": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
RENYI_HALF = {
    "kind": "max_renyi",
    "measures": [
        {
            "atoms": [
                {"weight": 0.5, "param": {"kind": "interior", "alpha": [0.5, 0.5]}},
                {"weight": 0.5, "param": {"kind": "interior", "alpha": [0.5, 0.5]}},
            ]
        }
    ],
}
# per family: cost file and the solver effort that meets the reference tolerance
SOLVE_FAMILIES = {
    "shannon": (SHANNON_BINARY, ["--starts", "1", "--max-iter", "300"]),
    "max_kl": (MAX_KL_SYMMETRIC, ["--starts", "1", "--max-iter", "300"]),
    "renyi": (RENYI_HALF, ["--starts", "1", "--max-iter", "2000"]),
}
# cell positions in units of the all-actions band: near its lower edge, in the
# middle, and far above it
CELLS = {"edge": 0.1, "inside": 0.5, "above": 4.0}
# three states, four actions: each state's matching action pays 3, a cyclic
# neighbour 1, and a fourth action pays nothing.  With the safe-style fourth
# action in the optimal support the solver needs 15-20 s to reach the 1e-8
# reference, too long for one op of a cycle.
THREE_STATE_UTILITIES = np.array([[3.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])


def _solve_reference(family: str, v: float, w: float) -> Callable[[], float]:
    if family == "shannon":
        return lambda: checks.blahut_arimoto([0.5, 0.5], [[v, 0.0], [0.0, v], [w, w]])[0]
    if family == "max_kl":
        return lambda: max(w, checks.matching_only_value(v))
    return lambda: checks.renyi_symmetric_value(v, w)


def ri_solve(seed: int, work: Path, stats: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    v = float(rng.uniform(7.9, 8.1))
    w_lo, w_hi = checks.matching_band(v)
    costs = {family: _write(work, f"cost_{family}.json", payload) for family, (payload, _) in SOLVE_FAMILIES.items()}
    ops: list[Op] = []
    for cell, pos in CELLS.items():
        w = w_lo + pos * (w_hi - w_lo)
        problem = _write(work, f"matching_{cell}.json", {"prior": [0.5, 0.5], "utilities": [[v, 0.0], [0.0, v], [w, w]]})
        for family, (_, effort) in SOLVE_FAMILIES.items():
            ref = _solve_reference(family, v, w)
            ops.append(
                Op(
                    f"solve/{family}/{cell}",
                    ["solve", "--problem", problem, "--cost", costs[family], "--seed", str(seed), *effort],
                    lambda out, family=family, ref=ref: checks.check_solve(out, family, ref(), stats),
                )
            )

    prior = np.array([0.45, 0.35, 0.2])
    utilities = THREE_STATE_UTILITIES + rng.uniform(-0.05, 0.05, size=(4, 3))
    problem = _write(work, "three_state.json", {"prior": prior.tolist(), "utilities": utilities.tolist()})
    cost = _write(work, "cost_shannon3.json", {"kind": "posterior_separable", "prior": prior.tolist(), "potential": {"kind": "shannon"}})
    ops.append(
        Op(
            "solve/shannon/three_state",
            ["solve", "--problem", problem, "--cost", cost, "--seed", str(seed), "--starts", "1"],
            lambda out: checks.check_solve(out, "shannon", checks.blahut_arimoto(prior, utilities)[0], stats),
        )
    )
    v_grid = ",".join(repr(x) for x in (v - 2.0, v, v + 2.0))
    ops.append(Op("claim1", ["claim1", "--seed", str(seed), "--v-grid", v_grid, "--w-steps", "12"], checks.check_claim1))
    return ops


# ---------------------------------------------------------------------------
# axiom_suite
# ---------------------------------------------------------------------------


def _beta(rng, n):
    b = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(b, 0.0)
    return b.tolist()


def _simplex(rng, n):
    a = rng.dirichlet(np.ones(n))
    return (a / a.sum()).tolist()


def _cost_payloads(rng: np.random.Generator, n: int) -> dict:
    prior = (0.2 / n + 0.8 * rng.dirichlet(np.ones(n))).tolist()
    alpha = _simplex(rng, n)
    pivot = int(rng.integers(0, n))
    psi = np.zeros(n)
    psi[np.arange(n) != pivot] = -rng.dirichlet(np.ones(n - 1))
    psi[pivot] = 1.0
    kl_pivot = int(rng.integers(0, n))
    kl_beta = np.zeros(n)
    kl_beta[np.arange(n) != kl_pivot] = rng.dirichlet(np.ones(n - 1))
    return {
        "kl": {"kind": "kl", "beta": _beta(rng, n)},
        "max_kl": {"kind": "max_kl", "betas": [_beta(rng, n), _beta(rng, n)]},
        "renyi": {"kind": "renyi", "lambda": float(rng.uniform(0.5, 1.5)), "param": {"kind": "interior", "alpha": alpha}},
        "max_renyi": {
            "kind": "max_renyi",
            "measures": [
                {
                    "atoms": [
                        {"weight": 0.6, "param": {"kind": "interior", "alpha": _simplex(rng, n)}},
                        {"weight": 0.4, "param": {"kind": "sup", "psi": psi.tolist()}},
                    ]
                },
                {"atoms": [{"weight": 1.0, "param": {"kind": "kl", "pivot": kl_pivot, "beta": kl_beta.tolist()}}]},
            ],
        },
        "ps_shannon": {"kind": "posterior_separable", "prior": prior, "potential": {"kind": "shannon"}},
        "ps_tsallis": {
            "kind": "posterior_separable",
            "prior": prior,
            "potential": {"kind": "tsallis", "sigma": float(rng.uniform(1.5, 2.5))},
        },
        "ps_kl": {"kind": "posterior_separable", "prior": prior, "potential": {"kind": "kl_potential", "beta": _beta(rng, n)}},
        "convex_ps": {
            "kind": "convex_ps",
            "prior": prior,
            "potential": {"kind": "renyi_potential", "alpha": alpha},
            "transform": {"kind": "renyi_log", "lambda": float(rng.uniform(0.5, 1.5)), "alpha_max": max(alpha)},
        },
    }


AXIOM_SAMPLES = 30


def axiom_suite(seed: int, work: Path, stats: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in (2, 3):
        for family, payload in _cost_payloads(rng, n).items():
            cost = _write(work, f"cost_{family}_{n}.json", payload)
            ops.append(
                Op(
                    f"axioms/{family}/{n}",
                    ["axioms", "--cost", cost, "--seed", str(seed + n), "--samples", str(AXIOM_SAMPLES), "--signals", "4"],
                    partial(checks.check_axioms, family=family, cost_payload=payload, has_sup=family == "max_renyi"),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# blackwell_order
# ---------------------------------------------------------------------------

# (states, source signals, target signals) of the garbling pairs
PAIR_SIZES = ((2, 8, 8), (3, 16, 12), (4, 32, 24), (5, 16, 12), (2, 64, 48), (5, 64, 32))
SANDWICH_SIGNALS = (8, 12, 16, 24, 32, 48, 64) * 4  # about a third of the cycle's time
K_LIST = [4, 16, 64, 256]
GRID = 50


def blackwell_order(seed: int, work: Path, stats: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, (n, s, t) in enumerate(PAIR_SIZES):
        mu = _bounded_rows(rng, n, s, 0.2)
        kernel = rng.dirichlet(np.ones(t), size=s)
        nu = mu @ kernel
        nu /= nu.sum(axis=1, keepdims=True)
        mu_file = _write(work, f"mu_{i}.json", {"probs": mu.tolist()})
        nu_file = _write(work, f"nu_{i}.json", {"probs": nu.tolist()})
        size = f"{n}x{s}x{t}"
        pairs = (("garbling", mu_file, nu_file, mu, nu), ("reversed", nu_file, mu_file, nu, mu))
        for kind, src_file, dst_file, src, dst in pairs:
            argv = ["dominate", "--experiment", src_file, "--experiment2", dst_file]
            plain = checks.check_dominate_garbling if kind == "garbling" else checks.check_dominate_verdict
            ops.append(Op(f"dominate/{kind}/{size}", argv, partial(plain, source=src, target=dst)))
            ops.append(Op(f"pairwise/{kind}/{size}", argv + ["--pairwise"], partial(checks.check_pairwise, source=src, target=dst)))
    for i, s in enumerate(SANDWICH_SIGNALS):
        probs = _bounded_rows(rng, 2, s, 0.3)
        q1 = float(rng.uniform(0.3, 0.7))
        exp_file = _write(work, f"binary_{i}.json", {"probs": probs.tolist()})
        argv = [
            "approx", "--experiment", exp_file, "--prior", json.dumps([1.0 - q1, q1]),
            "--k-list", ",".join(map(str, K_LIST)), "--grid", str(GRID), "--seed", str(seed + i),
        ]
        ops.append(Op(f"approx/{s}/{i}", argv, partial(checks.check_sandwich, probs=probs, k_list=K_LIST, grid=GRID)))
    return ops


WORKLOADS = {"ri_solve": ri_solve, "axiom_suite": axiom_suite, "blackwell_order": blackwell_order}
