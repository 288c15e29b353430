"""Command-line front end.

One binary with verb subcommands; scalar and verdict outputs are JSON on
stdout, sweeps are RFC-4180 CSV, diagnostics go to stderr.  Exit codes:
0 success, 1 computation error, 2 input error.  All randomized subcommands
require an explicit --seed so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import approx, axioms, blackwell, cost, divergence, ri_solver
from .errors import BadSolveOptions, InfoCostError
from .experiment import FiniteExperiment

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2


class InputProblem(Exception):
    """Wraps malformed files/flags so main() can exit with code 2."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputProblem(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, what: str):
    """Parse a JSON document; malformed text and NaN/Infinity literals are input errors."""

    def reject(name: str):
        raise InputProblem(f"{what}: {name} is not a number")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise InputProblem(f"{what}: invalid JSON: {exc}") from exc


def _load_experiment(path: str) -> FiniteExperiment:
    payload = _parse_json(_read_file(path), path)
    try:
        probs = payload["probs"]
    except (KeyError, TypeError) as exc:
        raise InputProblem(f"{path}: not a valid experiment file: {exc}") from exc
    from .experiment import new_experiment

    return new_experiment(probs)


def _load_object(text: str, what: str, kind: str, build):
    """Build a value from JSON text that must hold an object; any other payload,
    a JSON string included, is an input error."""
    payload = _parse_json(text, what)
    try:
        if not isinstance(payload, dict):
            raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
        return build(payload)
    except (AttributeError, KeyError, TypeError) as exc:
        raise InputProblem(f"{what}: not a valid {kind}: {exc}") from exc


def _load_cost(path: str):
    return _load_object(_read_file(path), path, "cost file", cost.cost_from_json)


def _load_param(text: str):
    return _load_object(text, "--param", "parameter", divergence.param_from_json)


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _emit_json(payload, out: str | None) -> None:
    text = json.dumps(_jsonable(payload))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_divergence(args) -> int:
    mu = _load_experiment(args.experiment)
    param = _load_param(args.param)
    value = divergence.unified_divergence(param, mu)
    _emit_json({"value": value}, args.out)
    return EXIT_OK


def _cmd_cost(args) -> int:
    mu = _load_experiment(args.experiment)
    spec = _load_cost(args.cost)
    _emit_json({"value": cost.eval_cost(spec, mu)}, args.out)
    return EXIT_OK


def _cmd_dominate(args) -> int:
    mu = _load_experiment(args.experiment)
    nu = _load_experiment(args.experiment2)
    if args.pairwise:
        res = blackwell.pairwise_dominates(mu, nu, tol=args.tol, threads=args.threads)
        payload = {
            "dominates": res.dominates,
            "failing_pair": list(res.failing_pair) if res.failing_pair else None,
        }
    else:
        res = blackwell.dominates(mu, nu, tol=args.tol)
        payload = {
            "dominates": res.dominates,
            "marginal": res.marginal,
            "max_violation": res.max_violation,
            "certificate": res.certificate.psi.tolist() if res.certificate else None,
        }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_axioms(args) -> int:
    spec = _load_cost(args.cost)
    profile = axioms.AxiomProfile(
        n_states=cost.spec_n_states(spec),
        n_signals=args.signals,
        n_samples=args.samples,
        seed=args.seed,
        tol=args.tol,
    )
    reports = axioms.run_suite(spec, profile)
    _emit_json([json.loads(r.to_json()) for r in reports], args.out)
    return EXIT_OK


def _solve_options(**flags) -> ri_solver.SolveOptions:
    """Solver options from flags; a value out of range is an input error."""
    try:
        return ri_solver.SolveOptions(**flags)
    except BadSolveOptions as exc:
        raise InputProblem(str(exc)) from exc


def _cmd_solve(args) -> int:
    payload = _parse_json(_read_file(args.problem), args.problem)
    try:
        problem = ri_solver.RIProblem(
            np.asarray(payload["prior"], dtype=float),
            np.asarray(payload["utilities"], dtype=float),
        )
    except (KeyError, TypeError) as exc:
        raise InputProblem(f"{args.problem}: not a valid problem file: {exc}") from exc
    spec = _load_cost(args.cost)
    options = _solve_options(starts=args.starts, max_iter=args.max_iter, seed=args.seed)
    policy = ri_solver.solve(problem, spec, options)
    _emit_json(
        {
            "value": policy.value,
            "choice": policy.choice.probs.tolist(),
            "support": list(policy.support),
            "converged": policy.converged,
        },
        args.out,
    )
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputProblem(f"bad grid {text!r}: {exc}") from exc


def _cmd_claim1(args) -> int:
    v_grid = _parse_grid(args.v_grid)
    rows = ri_solver.claim1_region(args.lam, args.t, v_grid, args.w_steps)
    csv_rows = [
        [_fmt(r.v), _fmt(r.w), "renyi_symmetric_closed_form", r.support_size, _fmt(r.value), _fmt(r.alpha), _fmt(r.pi)]
        for r in rows
    ]
    if args.compare:
        specs = [
            ("shannon_ps", cost.PosteriorSeparableCost(np.array([0.5, 0.5]), cost.ShannonEntropy())),
            (
                "max_kl_symmetric",
                cost.MaxKLCost(
                    (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
                ),
            ),
        ]
        options = _solve_options(starts=args.starts, seed=args.seed)
        w_values = sorted({r.w for r in rows})
        sweep = ri_solver.support_comparison(specs, v_grid, w_values, options)
        csv_rows += [
            [_fmt(r.v), _fmt(r.w), r.spec_label, r.support_size, _fmt(r.value), "", ""]
            for r in sweep
        ]
    _emit_csv(["v", "w", "spec", "support_size", "value", "alpha", "pi"], csv_rows, args.out)
    return EXIT_OK


def _cmd_tsallis(args) -> int:
    report = cost.ups_subadditivity_check(cost.Tsallis(args.sigma), grid_size=args.grid_size)
    _emit_json(
        {
            "sigma": args.sigma,
            "subadditive": report.subadditive,
            "witness_p": report.witness_p,
            "max_violation": report.max_violation,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_approx(args) -> int:
    mu = _load_experiment(args.experiment)
    prior = np.asarray(_parse_json(args.prior, "--prior"), dtype=float)
    k_list = [int(k) for k in _parse_grid(args.k_list)]
    grid = divergence.default_param_grid(mu.n_states, args.grid, seed=args.seed)
    rows = approx.sandwich_report(mu, prior, k_list, grid)
    csv_rows = []
    for r in rows:
        kind = type(r.param).__name__
        csv_rows.append(
            [r.k, kind, divergence.param_to_json(r.param), _fmt(r.d_under), _fmt(r.d_mu), _fmt(r.d_over), _fmt(r.gap)]
        )
    _emit_csv(
        ["k", "param_kind", "param_value", "d_under", "d_mu", "d_over", "gap"], csv_rows, args.out
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infocost",
        description="Divergences, information costs, Blackwell ordering, axiom checks, and rational-inattention solving for finite experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="evaluate one divergence on an experiment")
    p.add_argument("--experiment", required=True, help="experiment JSON file")
    p.add_argument("--param", required=True, help='parameter JSON, e.g. \'{"kind":"kl","pivot":0,"beta":[0,1]}\'')
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_divergence)

    p = sub.add_parser("cost", help="evaluate a cost specification on an experiment")
    p.add_argument("--experiment", required=True)
    p.add_argument("--cost", required=True, help="cost JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("dominate", help="test Blackwell dominance; emits a kernel certificate")
    p.add_argument("--experiment", required=True)
    p.add_argument("--experiment2", required=True)
    p.add_argument("--tol", type=float, default=blackwell.DEFAULT_TOL)
    p.add_argument("--pairwise", action="store_true", help="check every two-state restriction")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_dominate)

    p = sub.add_parser("axioms", help="run the randomized axiom suite for a cost file")
    p.add_argument("--cost", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--signals", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("solve", help="solve a rational-inattention problem")
    p.add_argument("--problem", required=True, help='JSON {"prior": [...], "utilities": [[...]]}')
    p.add_argument("--cost", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--starts",
        type=int,
        default=16,
        help="ascents for costs with sup atoms; every other built-in cost runs one ascent",
    )
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("claim1", help="scan the all-actions band of the symmetric matching problem")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--v-grid", default="6,8,10")
    p.add_argument("--w-steps", type=int, default=12)
    p.add_argument("--compare", action="store_true", help="also sweep solver-based cost families")
    p.add_argument(
        "--starts",
        type=int,
        default=12,
        help="kept for --compare; its Shannon and max-KL costs run one ascent whatever it is",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_claim1)

    p = sub.add_parser("tsallis", help="sub-additivity check for the generalized entropy")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--grid-size", type=int, default=2001)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_tsallis)

    p = sub.add_parser("approx", help="finite sandwich report for a binary experiment")
    p.add_argument("--experiment", required=True)
    p.add_argument("--prior", default="[0.5, 0.5]")
    p.add_argument("--k-list", default="4,16,64")
    p.add_argument("--grid", type=int, default=12, help="number of divergence parameters")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_approx)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputProblem as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfoCostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
