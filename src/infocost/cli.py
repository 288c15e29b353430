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
from typing import Optional

import numpy as np

from . import approx, axioms, blackwell, cost, divergence, ri_solver
from .errors import BadAxiomProfile, InfoCostError
from .experiment import FiniteExperiment, _jsonable

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


def _load_object(text: str, what: str, kind: str, build, shape: type = dict):
    """Build a value from JSON text that must hold an object (an array, with
    ``shape=list``).  Any other payload, a JSON string included, is an input
    error, and so is a ValueError that is no InfoCostError: NumPy's, on a
    ragged or non-numeric array."""
    payload = _parse_json(text, what)
    try:
        if not isinstance(payload, shape):
            expected = "an object" if shape is dict else "an array"
            raise TypeError(f"expected {expected}, got {type(payload).__name__}")
        return build(payload)
    except InfoCostError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputProblem(f"{what}: not a valid {kind}: {exc}") from exc


def _load_experiment(path: str) -> FiniteExperiment:
    return _load_object(_read_file(path), path, "experiment file", FiniteExperiment.from_json)


def _load_cost(path: str):
    return _load_object(_read_file(path), path, "cost file", cost.cost_from_json)


def _load_param(text: str):
    return _load_object(text, "--param", "parameter", divergence.param_from_json)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: str | None) -> None:
    _write(json.dumps(_jsonable(payload)) + "\n", out)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    # csv writes a float cell with repr, which spells inf, -inf and nan as _jsonable does
    writer.writerows(rows)
    _write(buf.getvalue(), out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_divergence(args) -> None:
    mu = _load_experiment(args.experiment)
    param = _load_param(args.param)
    value = divergence.unified_divergence(param, mu)
    _emit_json({"value": value}, args.out)


def _cmd_cost(args) -> None:
    mu = _load_experiment(args.experiment)
    spec = _load_cost(args.cost)
    _emit_json({"value": cost.eval_cost(spec, mu)}, args.out)


def _cmd_dominate(args) -> None:
    mu = _load_experiment(args.experiment)
    nu = _load_experiment(args.experiment2)
    if args.pairwise:
        res = blackwell.pairwise_dominates(mu, nu, tol=args.tol)
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
            "screened_pair": list(res.screened_pair) if res.screened_pair else None,
        }
    _emit_json(payload, args.out)


def _cmd_axioms(args) -> None:
    spec = _load_cost(args.cost)
    try:
        profile = axioms.AxiomProfile(
            n_signals=args.signals,
            n_samples=args.samples,
            seed=args.seed,
            tol=args.tol,
        )
    except BadAxiomProfile as exc:
        raise InputProblem(str(exc)) from exc
    reports = axioms.run_suite(spec, profile)
    # a JSON array of the reports as their to_json writes them
    _write("[" + ", ".join(r.to_json() for r in reports) + "]\n", args.out)


def _cmd_solve(args) -> None:
    problem = _load_object(
        _read_file(args.problem), args.problem, "problem file", lambda p: ri_solver.RIProblem(p["prior"], p["utilities"])
    )
    spec = _load_cost(args.cost)
    options = ri_solver.SolveOptions(starts=args.starts, max_iter=args.max_iter, seed=args.seed)
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


def _parse_grid(text: str, above: float, kind=float) -> list:
    """A comma-separated list of at least one finite number of the given kind,
    each above the given bound."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip()]
        in_range = all(math.isfinite(x) and x > above for x in values)
    except (ValueError, OverflowError) as exc:  # an int past the float range overflows
        raise InputProblem(f"bad grid {text!r}: {exc}") from exc
    if not values or not in_range:
        raise InputProblem(f"bad grid {text!r}: need one or more finite numbers above {above}")
    return values


def _cmd_claim1(args) -> None:
    v_grid = _parse_grid(args.v_grid, above=0)
    rows = ri_solver.claim1_region(args.lam, args.t, v_grid, args.w_steps)
    csv_rows = [
        [r.v, r.w, "renyi_symmetric_closed_form", r.support_size, r.value, r.alpha, r.pi]
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
        options = ri_solver.SolveOptions(seed=args.seed)
        # only the (v, w) cells that have a closed-form row, and w < v
        cells = [r for r in rows if r.w < r.v]
        sweep = [s for r in cells for s in ri_solver.support_comparison(specs, [r.v], [r.w], options)]
        csv_rows += [
            [r.v, r.w, r.spec_label, r.support_size, r.value, "", ""]
            for r in sweep
        ]
    _emit_csv(["v", "w", "spec", "support_size", "value", "alpha", "pi"], csv_rows, args.out)


def _cmd_tsallis(args) -> None:
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


def _cmd_approx(args) -> None:
    mu = _load_experiment(args.experiment)
    prior = _load_object(args.prior, "--prior", "prior", lambda p: np.asarray(p, dtype=float), shape=list)
    k_list = _parse_grid(args.k_list, above=1, kind=int)
    grid = divergence.default_param_grid(mu.n_states, args.grid, seed=args.seed)
    rows = approx.sandwich_report(mu, prior, k_list, grid)
    # every k repeats the grid: encode each parameter once
    columns = {id(p): [type(p).__name__, divergence.param_to_json(p)] for p in grid}
    csv_rows = [
        [r.k, *columns[id(r.param)], r.d_under, r.d_mu, r.d_over, r.gap] for r in rows
    ]
    _emit_csv(
        ["k", "param_kind", "param_value", "d_under", "d_mu", "d_over", "gap"], csv_rows, args.out
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _at_least(low, kind=int):
    """The argparse type of a finite integer (or float) flag with a lower bound;
    argparse exits 2 below it and, for a float, at NaN or an infinity."""

    def number(text: str):
        value = kind(text)
        if not (low <= value < math.inf):
            noun = "an integer" if kind is int else "a finite number"
            raise argparse.ArgumentTypeError(f"must be {noun} >= {low}, got {text!r}")
        return value

    return number


def _inside(low: float, high: float = math.inf, other_than: Optional[float] = None):
    """The argparse type of a finite float flag strictly between low and high,
    optionally excluding one value; argparse exits 2 on any other."""
    bounds = f"> {low}" if high == math.inf else f"in ({low}, {high})"
    excluded = "" if other_than is None else f" other than {other_than}"

    def number(text: str):
        value = float(text)
        if not (low < value < high and math.isfinite(value)) or value == other_than:
            raise argparse.ArgumentTypeError(f"must be a finite number {bounds}{excluded}, got {text!r}")
        return value

    return number


def _divergence_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--experiment", required=True, help="experiment JSON file")
    p.add_argument("--param", required=True, help='parameter JSON, e.g. \'{"kind":"kl","pivot":0,"beta":[0,1]}\'')


def _cost_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--experiment", required=True)
    p.add_argument("--cost", required=True, help="cost JSON file")


def _dominate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--experiment", required=True)
    p.add_argument("--experiment2", required=True)
    p.add_argument("--tol", type=_at_least(0.0, float), default=blackwell.DEFAULT_TOL)
    p.add_argument("--pairwise", action="store_true", help="check every two-state restriction")


def _axioms_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cost", required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--samples", type=_at_least(1), default=axioms.AxiomProfile.n_samples)
    p.add_argument("--signals", type=_at_least(1), default=axioms.AxiomProfile.n_signals)
    p.add_argument("--tol", type=_at_least(0.0, float), default=axioms.AxiomProfile.tol)


def _solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, help='JSON {"prior": [...], "utilities": [[...]]}')
    p.add_argument("--cost", required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument(
        "--starts",
        type=_at_least(1),
        default=ri_solver.SolveOptions.starts,
        help="ascents for costs with sup atoms; every other built-in cost runs one ascent",
    )
    p.add_argument("--max-iter", type=_at_least(1), default=ri_solver.SolveOptions.max_iter)


def _claim1_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=_inside(0.0, 1.0), default=0.5)
    p.add_argument("--lam", type=_inside(0.0), default=1.0)
    p.add_argument("--v-grid", default="6,8,10")
    p.add_argument("--w-steps", type=_at_least(1), default=12)
    p.add_argument("--compare", action="store_true", help="also sweep solver-based cost families")
    p.add_argument("--seed", type=_at_least(0), required=True)


def _tsallis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=_inside(0.0, other_than=1.0), required=True)
    p.add_argument("--grid-size", type=_at_least(3), default=2001)


def _approx_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--experiment", required=True)
    p.add_argument("--prior", default="[0.5, 0.5]")
    p.add_argument("--k-list", default="4,16,64")
    p.add_argument("--grid", type=_at_least(1), default=12, help="number of divergence parameters")
    p.add_argument("--seed", type=_at_least(0), required=True)


# verb -> (help, adds the verb's flags but --out, runs the verb); the order is the
# order of the usage line
_VERBS = {
    "divergence": ("evaluate one divergence on an experiment", _divergence_args, _cmd_divergence),
    "cost": ("evaluate a cost specification on an experiment", _cost_args, _cmd_cost),
    "dominate": ("test Blackwell dominance; emits a kernel certificate", _dominate_args, _cmd_dominate),
    "axioms": ("run the randomized axiom suite for a cost file", _axioms_args, _cmd_axioms),
    "solve": ("solve a rational-inattention problem", _solve_args, _cmd_solve),
    "claim1": ("scan the all-actions band of the symmetric matching problem", _claim1_args, _cmd_claim1),
    "tsallis": ("sub-additivity check for the generalized entropy", _tsallis_args, _cmd_tsallis),
    "approx": ("finite sandwich report for a binary experiment", _approx_args, _cmd_approx),
}


def _build_parser(verbs=_VERBS) -> argparse.ArgumentParser:
    """The parser of the given verbs (a sub-table of ``_VERBS``); by default, every verb."""
    parser = argparse.ArgumentParser(
        prog="infocost",
        description="Divergences, information costs, Blackwell ordering, axiom checks, and rational-inattention solving for finite experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_text, add_args, command) in verbs.items():
        p = sub.add_parser(verb, help=help_text)
        add_args(p)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = argv[0] if argv else None
    if verb in _VERBS:
        args, rest = _build_parser({verb: _VERBS[verb]}).parse_known_args(argv)
    if verb not in _VERBS or rest:
        # no verb, -h, an unknown verb or a stray argument: the full parser
        # prints the usage line that names every verb
        args = _build_parser().parse_args(argv)
    try:
        args.fn(args)
        return EXIT_OK
    except InputProblem as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfoCostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
