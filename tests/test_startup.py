"""Start-up: only the dominance LP loads SciPy, and loading it late changes no output.

Each check runs CLI calls in a fresh interpreter, so the modules loaded by
this test process (and by other tests) cannot hide an eager import.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infocost as ic
from infocost.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv of a JSON list through cli.main and prints, as JSON, whether
# scipy.optimize was loaded before the first call and after the last, and
# each call's exit code and stdout.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import infocost
import infocost.cli
before = "scipy.optimize" in sys.modules
calls = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = infocost.cli.main(argv)
    calls.append([code, buf.getvalue()])
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules, "calls": calls}))
"""


def run_fresh(argvs):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout)


def in_process(capsys, argv):
    code = main(argv)
    return [code, capsys.readouterr().out]


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    mu = ic.new_experiment([[0.9, 0.05, 0.05], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
    nu = ic.garble(mu, ic.random_kernel(3, 2, seed=5))
    return {
        "mu": write("mu.json", mu.to_json()),
        "nu": write("nu.json", nu.to_json()),
        "flat": write("flat.json", json.dumps({"probs": [[0.5, 0.5], [0.5, 0.5]]})),
        "shifted": write("shifted.json", json.dumps({"probs": [[0.5, 0.5], [0.5 - 1e-9, 0.5 + 1e-9]]})),
        "binary": write("binary.json", json.dumps({"probs": [[0.75, 0.25], [0.25, 0.75]]})),
        "kl": write("kl.json", ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]])))),
        "problem": write("problem.json", json.dumps({"prior": [0.5, 0.5], "utilities": [[2, 0], [0, 2], [1, 1]]})),
        "matching": write("matching.json", json.dumps({"prior": [0.5, 0.5], "utilities": [[8, 0], [0, 8], [6.1, 6.1]]})),
        "renyi": write("renyi.json", ic.cost_to_json(ic.symmetric_renyi_cost_spec(1.0, 0.5))),
        "above": write("above.json", json.dumps({"prior": [0.5, 0.5], "utilities": [[8, 0], [0, 8], [7.7, 7.7]]})),
        "max_kl": write("max_kl.json", ic.cost_to_json(ic.MaxKLCost((np.array([[0.0, 1.0], [0.0, 0.0]]),
                                                                    np.array([[0.0, 0.0], [1.0, 0.0]]))))),
    }


def test_non_lp_verbs_leave_scipy_unloaded(capsys, files):
    argvs = [
        ["cost", "--experiment", files["binary"], "--cost", files["kl"]],
        ["solve", "--problem", files["problem"], "--cost", files["kl"], "--seed", "0",
         "--starts", "1", "--max-iter", "5"],
        # an interior optimum: the ascent hands over to its BFGS endgame
        ["solve", "--problem", files["matching"], "--cost", files["renyi"], "--seed", "0", "--starts", "1"],
        # the pure safe action, certified before any ascent
        ["solve", "--problem", files["above"], "--cost", files["max_kl"], "--seed", "0", "--starts", "1"],
        ["axioms", "--cost", files["kl"], "--seed", "0", "--samples", "2"],
        ["divergence", "--experiment", files["binary"], "--param", '{"kind":"kl","pivot":0,"beta":[0,1]}'],
        ["approx", "--experiment", files["binary"], "--k-list", "4", "--grid", "2", "--seed", "0"],
        # an exact garbling: every pair is decided by its dichotomy shortfall, with no LP
        ["dominate", "--experiment", files["mu"], "--experiment2", files["nu"], "--pairwise"],
    ]
    fresh = run_fresh(argvs)
    assert not fresh["before"] and not fresh["after"]
    assert fresh["calls"] == [in_process(capsys, argv) for argv in argvs]
    assert all(code == 0 and out for code, out in fresh["calls"])


def test_first_pairwise_call_loads_scipy(capsys, files):
    # the only call in a fresh interpreter, so it is the one that imports SciPy;
    # at tol 0 the 1e-9 shift is a near tie that only the LP decides
    argvs = [["dominate", "--experiment", files["flat"], "--experiment2", files["shifted"], "--pairwise", "--tol", "0"]]
    fresh = run_fresh(argvs)
    assert not fresh["before"] and fresh["after"]
    assert fresh["calls"] == [in_process(capsys, argv) for argv in argvs]
    assert all(code == 0 and out for code, out in fresh["calls"])
