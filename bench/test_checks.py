"""Tests of the benchmark's reference checkers and of its failure accounting.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py

Each checker is shown to pass the real CLI output (or the exact reference)
and to fail a perturbed one, and a perturbed output is shown to be counted
in the failed calls from which ``error_rate`` is computed.
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import infocost  # noqa: E402
from infocost.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue()


def error_rate(op, output: str, calls: int = 3) -> float:
    """Feed ``output`` through the benchmark's own call loop and tally."""
    log, first = [], {}

    def fake_main(argv):
        print(output, end="")
        return 0

    for _ in range(calls):
        run._run_op(fake_main, op, log, first)
    failed, _ = run._tally([op], log, first)
    return failed / len(log)


def assert_caught(check, good: str, bad: str) -> None:
    op = inputs.Op("op", [], check)
    assert check(good) is None
    assert check(bad) is not None
    assert error_rate(op, good) == 0.0
    assert error_rate(op, bad) == 1.0


# -- references ---------------------------------------------------------------


def test_blahut_arimoto_matches_closed_form():
    v = 3.0  # two equally likely states, two matching actions: log((e^v + 1) / 2)
    value, bound = checks.blahut_arimoto([0.5, 0.5], [[v, 0.0], [0.0, v]])
    assert bound <= 1e-13
    assert value == pytest.approx(math.log((math.exp(v) + 1.0) / 2.0), abs=1e-12)


def test_matching_band_matches_library():
    row = infocost.claim1_region(1.0, 0.5, [8.0], 2)[0]
    assert checks.matching_band(8.0) == pytest.approx((row.w_lo, row.w_hi), abs=1e-9)


def test_matching_only_value_is_the_grid_maximum():
    pis = np.linspace(0.5, 1.0 - 1e-9, 200001)
    grid = np.max(8.0 * pis - (2.0 * pis - 1.0) * np.log(pis / (1.0 - pis)))
    assert checks.matching_only_value(8.0) == pytest.approx(grid, abs=1e-8)
    assert checks.matching_only_value(8.0) >= grid


# -- ri_solve -----------------------------------------------------------------


@pytest.mark.parametrize("family", ["shannon", "max_kl", "renyi"])
def test_solve_value_shifted_by_1e_5_fails(family):
    v, w_lo = 8.0, checks.matching_band(8.0)[0]
    reference = {
        "shannon": lambda: checks.blahut_arimoto([0.5, 0.5], [[v, 0.0], [0.0, v], [w_lo, w_lo]])[0],
        "max_kl": lambda: max(w_lo, checks.matching_only_value(v)),
        "renyi": lambda: checks.renyi_symmetric_value(v, w_lo),
    }[family]()
    stats = {}

    def check(out):
        return checks.check_solve(out, family, reference, stats)

    assert_caught(check, json.dumps({"value": reference}), json.dumps({"value": reference + 1e-5}))
    assert stats["ri_solver.ref_gap_max"] == pytest.approx(1e-5, rel=1e-3)


def test_claim1_value_moved_off_its_argmax_fails():
    good = cli(["claim1", "--seed", "1", "--v-grid", "8.0", "--w-steps", "6"])
    rows = list(csv.reader(io.StringIO(good)))
    rows[3][4] = repr(float(rows[3][4]) + 1e-5)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    assert_caught(checks.check_claim1, good, buf.getvalue())


# -- axiom_suite --------------------------------------------------------------


def test_provable_axiom_reported_violated_fails(tmp_path):
    payload = {"kind": "kl", "beta": [[0.0, 1.0], [0.7, 0.0]]}
    path = tmp_path / "kl.json"
    path.write_text(json.dumps(payload))
    good = cli(["axioms", "--cost", str(path), "--seed", "3", "--samples", "20", "--signals", "4"])
    reports = json.loads(good)
    additivity = next(r for r in reports if r["axiom"] == "additivity")
    additivity["passed"], additivity["worst_violation"] = False, 1e-3
    check = lambda out: checks.check_axioms(out, "kl", payload, has_sup=False)  # noqa: E731
    assert_caught(check, good, json.dumps(reports))


def test_witness_that_does_not_reproduce_fails(tmp_path):
    payload = {"kind": "renyi", "lambda": 1.0, "param": {"kind": "interior", "alpha": [0.5, 0.5]}}
    path = tmp_path / "renyi.json"
    path.write_text(json.dumps(payload))
    good = cli(["axioms", "--cost", str(path), "--seed", "3", "--samples", "20", "--signals", "4"])
    reports = json.loads(good)
    linearity = next(r for r in reports if r["axiom"] == "mixture_linearity")
    assert not linearity["passed"]  # the Rényi cost is not mixture-linear
    linearity["worst_violation"] *= 10.0
    check = lambda out: checks.check_axioms(out, "renyi", payload, has_sup=False)  # noqa: E731
    assert_caught(check, good, json.dumps(reports))


# -- blackwell_order ----------------------------------------------------------


@pytest.fixture
def garbling_pair(tmp_path):
    rng = np.random.default_rng(5)
    mu = 0.1 / 8 + 0.9 * rng.dirichlet(np.ones(8), size=3)
    nu = mu @ rng.dirichlet(np.ones(6), size=8)
    files = []
    for name, m in (("mu", mu), ("nu", nu)):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps({"probs": m.tolist()}))
    return mu, nu, [str(f) for f in files]


def test_certificate_with_one_entry_moved_fails(garbling_pair):
    mu, nu, (mu_file, nu_file) = garbling_pair
    good = cli(["dominate", "--experiment", mu_file, "--experiment2", nu_file])
    d = json.loads(good)
    row = d["certificate"][0]
    j = int(np.argmax(row))
    row[j] -= 1e-3
    row[(j + 1) % len(row)] += 1e-3
    check = lambda out: checks.check_dominate_garbling(out, mu, nu)  # noqa: E731
    assert_caught(check, good, json.dumps(d))


def test_verdict_disagreeing_with_violation_fails(garbling_pair):
    mu, nu, (mu_file, nu_file) = garbling_pair
    good = cli(["dominate", "--experiment", nu_file, "--experiment2", mu_file])
    d = json.loads(good)
    assert not d["dominates"]
    d["max_violation"] = 1e-9
    check = lambda out: checks.check_dominate_verdict(out, nu, mu)  # noqa: E731
    assert_caught(check, good, json.dumps(d))


def test_pairwise_verdict_flipped_fails(garbling_pair):
    mu, nu, (mu_file, nu_file) = garbling_pair
    good = cli(["dominate", "--experiment", nu_file, "--experiment2", mu_file, "--pairwise"])
    d = json.loads(good)
    assert not d["dominates"]
    check = lambda out: checks.check_pairwise(out, nu, mu)  # noqa: E731
    assert_caught(check, good, json.dumps({"dominates": True, "failing_pair": None}))
    assert checks.dichotomy_violation(mu[[0, 1]], nu[[0, 1]]) <= 1e-12


def test_sandwich_d_mu_moved_fails(tmp_path):
    probs = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
    path = tmp_path / "binary.json"
    path.write_text(json.dumps({"probs": probs.tolist()}))
    good = cli(["approx", "--experiment", str(path), "--prior", "[0.4, 0.6]", "--k-list", "4,16", "--grid", "6", "--seed", "2"])
    rows = list(csv.reader(io.StringIO(good)))
    rows[1][4] = repr(float(rows[1][4]) + 1e-6)  # d_mu of the first row
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    check = lambda out: checks.check_sandwich(out, probs, [4, 16], 6)  # noqa: E731
    assert_caught(check, good, buf.getvalue())


def test_repeat_with_other_bytes_fails():
    op = inputs.Op("op", [], lambda out: None)
    log, first = [], {}
    outputs = iter(["1\n", "1\n", "2\n"])

    def fake_main(argv):
        print(next(outputs), end="")
        return 0

    for _ in range(3):
        run._run_op(fake_main, op, log, first)
    failed, reasons = run._tally([op], log, first)
    assert failed == 3 and "differs" in reasons["op"]
