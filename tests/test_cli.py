"""End-to-end command-line interface checks: payloads, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost.cli import _VERBS, _build_parser, main

SYM75 = {"states": 2, "signals": 2, "probs": [[0.75, 0.25], [0.25, 0.75]]}
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every `infocost ...` line of the sh blocks in README's CLI section."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("infocost ")]


@pytest.fixture
def exp_file(tmp_path):
    path = tmp_path / "sym75.json"
    path.write_text(json.dumps(SYM75))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDivergenceCommand:
    def test_kl_pivot_value(self, capsys, exp_file):
        code, out, _ = run(
            capsys,
            ["divergence", "--experiment", exp_file, "--param", '{"kind":"kl","pivot":0,"beta":[0,1]}'],
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5 * math.log(3.0), abs=1e-9)

    def test_uninformative_zero(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"probs": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out, _ = run(
            capsys,
            ["divergence", "--experiment", str(path), "--param", '{"kind":"interior","alpha":[0.5,0.5]}'],
        )
        assert code == 0 and json.loads(out)["value"] == 0.0

    def test_truncated_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"probs": [[0.5, 0.5')
        code, _, err = run(
            capsys,
            ["divergence", "--experiment", str(path), "--param", '{"kind":"interior","alpha":[0.5,0.5]}'],
        )
        assert code == 2 and err

    def test_nan_literal_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"probs": [[NaN, 0.5, 0.5], [0.2, 0.3, 0.5]]}')
        code, out, err = run(
            capsys,
            ["divergence", "--experiment", str(path), "--param", '{"kind":"interior","alpha":[0.5,0.5]}'],
        )
        assert code == 2 and not out and "NaN is not a number" in err

    def test_non_object_param_exits_2(self, capsys, exp_file):
        code, out, err = run(capsys, ["divergence", "--experiment", exp_file, "--param", "[1]"])
        assert code == 2 and not out and "not a valid parameter" in err

    def test_json_string_param_exits_2(self, capsys, exp_file):
        code, out, err = run(capsys, ["divergence", "--experiment", exp_file, "--param", '"abc"'])
        assert code == 2 and not out and "not a valid parameter" in err

    def test_dimension_mismatch_exits_1(self, capsys, exp_file):
        code, _, err = run(
            capsys,
            ["divergence", "--experiment", exp_file, "--param", '{"kind":"interior","alpha":[0.4,0.3,0.3]}'],
        )
        assert code == 1 and err

    def test_overflowing_exponents_exit_1(self, capsys, exp_file):
        # 1e309 parses to inf: an exponent vector (inf, -inf) is no parameter
        code, out, err = run(
            capsys,
            ["divergence", "--experiment", exp_file, "--param", '{"kind":"interior","alpha":[1e309,-1e309]}'],
        )
        assert code == 1 and not out and err

    def test_infinite_value_serialized_as_string(self, capsys, tmp_path):
        path = tmp_path / "reveal.json"
        path.write_text(json.dumps({"probs": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out, _ = run(
            capsys,
            ["divergence", "--experiment", str(path), "--param", '{"kind":"kl","pivot":0,"beta":[0,1]}'],
        )
        assert code == 0 and json.loads(out)["value"] == "inf"


class TestCostCommand:
    def test_kl_cost(self, capsys, exp_file, tmp_path):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        code, out, _ = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(3.0), abs=1e-9)

    def test_non_object_cost_exits_2(self, capsys, exp_file, tmp_path):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text("[1]")
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 2 and not out and "not a valid cost file" in err

    def test_json_string_cost_exits_2(self, capsys, exp_file, tmp_path):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text('"abc"')
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 2 and not out and "not a valid cost file" in err

    def test_cost_json_inside_a_string_exits_2(self, capsys, exp_file, tmp_path):
        # a JSON string is not parsed a second time, even when it holds cost JSON
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(json.dumps(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]])))))
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 2 and not out and "not a valid cost file" in err

    def test_string_scale_exits_2(self, capsys, exp_file, tmp_path):
        # a scale reaches the constructor as written, not through float()
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(json.dumps({"kind": "renyi", "lambda": "0.5", "param": {"kind": "interior", "alpha": [0.5, 0.5]}}))
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 2 and not out and "not a valid cost file" in err

    @pytest.mark.parametrize("weight", ["0.5", True])
    def test_non_numeric_atom_weight_exits_2(self, capsys, exp_file, tmp_path, weight):
        # an atom weight is a real number, like every other scale in a cost file
        cost_path = tmp_path / "cost.json"
        atom = {"weight": weight, "param": {"kind": "interior", "alpha": [0.5, 0.5]}}
        cost_path.write_text(json.dumps({"kind": "max_renyi", "measures": [{"atoms": [atom]}]}))
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 2 and not out and "not a valid cost file" in err

    def test_param_json_inside_a_string_exits_2(self, capsys, exp_file, tmp_path):
        cost_path = tmp_path / "cost.json"
        param = json.dumps({"kind": "interior", "alpha": [0.5, 0.5]})
        cost_path.write_text(json.dumps({"kind": "renyi", "lambda": 1.0, "param": param}))
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 2 and not out and "not a valid cost file" in err


    def test_potential_of_other_states_exits_1(self, capsys, exp_file, tmp_path):
        cost_path = tmp_path / "cost.json"
        potential = {"kind": "renyi_potential", "alpha": [0.3, 0.3, 0.4]}
        cost_path.write_text(json.dumps({"kind": "posterior_separable", "prior": [0.5, 0.5], "potential": potential}))
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 1 and not out
        assert err == "error: the potential is 3-state, the prior 2-state\n"


class TestDominateCommand:
    def test_garbled_pair(self, capsys, tmp_path):
        mu = ic.random_experiment(2, 3, seed=4, min_prob=0.05)
        nu = ic.garble(mu, ic.random_kernel(3, 2, seed=5))
        mu_path, nu_path = tmp_path / "mu.json", tmp_path / "nu.json"
        mu_path.write_text(mu.to_json())
        nu_path.write_text(nu.to_json())
        code, out, _ = run(
            capsys, ["dominate", "--experiment", str(mu_path), "--experiment2", str(nu_path)]
        )
        payload = json.loads(out)
        assert code == 0 and payload["dominates"] is True
        cert = np.asarray(payload["certificate"])
        assert np.max(np.abs(ic.garble(mu, ic.GarblingKernel(cert)).probs - nu.probs)) < 1e-6

    def test_plain_verdict_names_the_pair_that_screened_it(self, capsys, tmp_path):
        mu = ic.random_experiment(3, 4, seed=4, min_prob=0.05)
        nu = ic.garble(mu, ic.random_kernel(4, 2, seed=5))
        mu_path, nu_path = tmp_path / "mu.json", tmp_path / "nu.json"
        mu_path.write_text(mu.to_json())
        nu_path.write_text(nu.to_json())
        # the reversed direction: pair (0, 1)'s dichotomy shortfall rejects it with no LP
        code, out, _ = run(capsys, ["dominate", "--experiment", str(nu_path), "--experiment2", str(mu_path)])
        payload = json.loads(out)
        assert code == 0 and payload["screened_pair"] == [0, 1]
        assert payload["dominates"] is False and payload["marginal"] is False and payload["certificate"] is None
        code, out, _ = run(capsys, ["dominate", "--experiment", str(mu_path), "--experiment2", str(nu_path)])
        payload = json.loads(out)
        assert code == 0 and payload["dominates"] is True and payload["screened_pair"] is None

    def test_pairwise_flag(self, capsys, tmp_path):
        mu = ic.new_experiment([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        nu = ic.new_experiment([[0.7, 0.3], [0.52, 0.48], [0.3, 0.7]])
        mu_path, nu_path = tmp_path / "mu.json", tmp_path / "nu.json"
        mu_path.write_text(mu.to_json())
        nu_path.write_text(nu.to_json())
        code, out, _ = run(
            capsys,
            ["dominate", "--experiment", str(mu_path), "--experiment2", str(nu_path), "--pairwise"],
        )
        assert code == 0 and json.loads(out) == {"dominates": True, "failing_pair": None}


class TestAxiomsCommand:
    def test_deterministic_output(self, capsys, tmp_path):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        argv = ["axioms", "--cost", str(cost_path), "--seed", "3", "--samples", "40"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        reports = json.loads(out1)
        by_name = {r["axiom"]: r["passed"] for r in reports}
        assert by_name["mixture_linearity"] and by_name["additivity"]

    def test_prints_each_report_as_its_to_json(self, capsys, tmp_path):
        # a zero cost leaves the independence check without evidence: inf, as a string
        spec = ic.RenyiCost(0.0, ic.InteriorParam(np.array([0.5, 0.5])))
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(spec))
        code, out, _ = run(capsys, ["axioms", "--cost", str(cost_path), "--seed", "1", "--samples", "20"])
        reports = ic.run_suite(spec, ic.AxiomProfile(n_samples=20, seed=1))
        assert code == 0 and out == "[" + ", ".join(r.to_json() for r in reports) + "]\n"
        independence = {r["axiom"]: r for r in json.loads(out)}["independence"]
        assert independence["evaluated"] == 0 and independence["worst_violation"] == "inf"

    def test_seed_required(self, capsys, tmp_path):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--cost", str(cost_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("signals, code", [("49", 0), ("50", 2), ("60", 2)])
    def test_signals_above_the_floor_limit_exit_2_before_sampling(self, capsys, tmp_path, signals, code):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        argv = ["axioms", "--cost", str(cost_path), "--seed", "0", "--samples", "1", "--signals", signals]
        got, out, err = run(capsys, argv)
        assert got == code
        if code == 2:
            assert not out and "input error: n_signals must be below 50" in err


class TestSolveCommand:
    def test_costless_problem(self, capsys, tmp_path):
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps({"prior": [0.5, 0.5], "utilities": [[2, 0], [0, 2], [1, 1]]}))
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(
            ic.cost_to_json(ic.RenyiCost(0.0, ic.InteriorParam(np.array([0.5, 0.5]))))
        )
        code, out, _ = run(
            capsys,
            ["solve", "--problem", str(prob_path), "--cost", str(cost_path), "--seed", "0", "--starts", "6", "--max-iter", "200"],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(2.0, abs=1e-8)
        assert payload["support"] == [0, 1]


class TestClaim1Command:
    def test_support3_row_at_v8(self, capsys):
        code, out, _ = run(capsys, ["claim1", "--v-grid", "6,8,10", "--w-steps", "9", "--seed", "0"])
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "v,w,spec,support_size,value,alpha,pi"
        rows = [line.split(",") for line in lines[1:]]
        assert any(r[0] == "8.0" and r[3] == "3" for r in rows)

    def test_compare_rows(self, capsys):
        code, out, _ = run(capsys, ["claim1", "--v-grid", "6,8", "--w-steps", "3", "--seed", "0", "--compare"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\r\n")[1:]]
        closed = [r for r in rows if r[2] == "renyi_symmetric_closed_form"]
        compared = [r for r in rows if r[2] != "renyi_symmetric_closed_form"]
        cells = {(float(r[0]), float(r[1])) for r in closed}
        assert len(closed) == len(cells) == 6 and len(compared) == 2 * len(closed)
        for label in ("shannon_ps", "max_kl_symmetric"):
            assert {(float(r[0]), float(r[1])) for r in compared if r[2] == label} == cells
        for v, w, _, support, value, alpha, pi in compared:
            assert float(value) >= max(float(v) / 2.0, float(w)) - 1e-9
            assert 1 <= int(support) <= 3 and alpha == pi == ""


class TestTsallisCommand:
    def test_sigma_two(self, capsys):
        code, out, _ = run(capsys, ["tsallis", "--sigma", "2"])
        payload = json.loads(out)
        assert code == 0
        assert payload["subadditive"] is False
        assert 0.75 < payload["witness_p"] < 0.85

    def test_shannon_like_small_sigma(self, capsys):
        code, out, _ = run(capsys, ["tsallis", "--sigma", "0.5"])
        assert code == 0 and json.loads(out)["subadditive"] is True


class TestApproxCommand:
    def test_csv_shape_and_determinism(self, capsys, exp_file):
        argv = ["approx", "--experiment", exp_file, "--k-list", "4,16", "--grid", "6", "--seed", "1"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0 and out1 == out2
        lines = out1.strip().split("\r\n")
        assert lines[0] == "k,param_kind,param_value,d_under,d_mu,d_over,gap"
        assert len(lines) == 1 + 2 * 6


class TestOutFlag:
    @pytest.mark.parametrize("verb", ["cost", "approx"])
    def test_out_file_holds_the_printed_bytes(self, capsys, exp_file, tmp_path, verb):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        argv = {
            "cost": ["cost", "--experiment", exp_file, "--cost", str(cost_path)],
            "approx": ["approx", "--experiment", exp_file, "--k-list", "4,16", "--grid", "3", "--seed", "1"],
        }[verb]
        out_path = tmp_path / "out.txt"
        code, printed, _ = run(capsys, argv)
        assert code == 0 and printed
        code, silent, _ = run(capsys, [*argv, "--out", str(out_path)])
        assert code == 0 and silent == ""
        assert out_path.read_bytes() == printed.encode()


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    assert code == 0 and out, argv
    return out


class TestByteDeterminism:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 4), st.sampled_from(["kl", "shannon", "renyi"]))
    @settings(max_examples=10, deadline=None)
    def test_repeated_calls_print_same_bytes(self, seed, n, actions, family):
        rng = np.random.default_rng(seed)
        prior = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
        spec = {
            "kl": ic.KLCost(rng.uniform(0.1, 1.0, size=(n, n)) * (1.0 - np.eye(n))),
            "shannon": ic.PosteriorSeparableCost(prior, ic.ShannonEntropy()),
            "renyi": ic.RenyiCost(0.5, ic.InteriorParam(rng.dirichlet(np.ones(n)))),
        }[family]
        problem = {"prior": prior.tolist(), "utilities": rng.uniform(0.0, 2.0, size=(actions, n)).tolist()}
        binary = 0.1 + 0.8 * rng.dirichlet(np.ones(int(rng.integers(2, 7))), size=2)
        with tempfile.TemporaryDirectory() as d:
            paths = {name: str(Path(d) / f"{name}.json") for name in ("cost", "problem", "binary")}
            Path(paths["cost"]).write_text(ic.cost_to_json(spec))
            Path(paths["problem"]).write_text(json.dumps(problem))
            Path(paths["binary"]).write_text(json.dumps({"probs": (binary / binary.sum(axis=1, keepdims=True)).tolist()}))
            seed_arg = str(seed % 1000)
            for argv in (
                ["solve", "--problem", paths["problem"], "--cost", paths["cost"], "--seed", seed_arg,
                 "--starts", "2", "--max-iter", "30"],
                ["axioms", "--cost", paths["cost"], "--seed", seed_arg, "--samples", "5"],
                ["approx", "--experiment", paths["binary"], "--k-list", "4,8", "--grid", "3", "--seed", seed_arg],
            ):
                assert stdout_of(argv) == stdout_of(argv), argv[0]


class TestSeedFlag:
    @pytest.mark.parametrize("verb", ["solve", "axioms", "approx", "claim1"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, exp_file, verb):
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps({"prior": [0.5, 0.5], "utilities": [[8, 0], [0, 8], [6.1, 6.1]]}))
        cost_path = tmp_path / "cost.json"  # a sup atom: solve draws random starts from the seed
        sup = ic.DivergenceMeasure(((1.0, ic.SupParam(np.array([1.0, -1.0]))),))
        cost_path.write_text(ic.cost_to_json(ic.MaxRenyiCost((sup,))))
        argv = {
            "solve": ["solve", "--problem", str(prob_path), "--cost", str(cost_path)],
            "axioms": ["axioms", "--cost", str(cost_path)],
            "approx": ["approx", "--experiment", exp_file],
            "claim1": ["claim1"],
        }[verb]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2 and "must be an integer >= 0" in capsys.readouterr().err


class TestCountFlags:
    @pytest.mark.parametrize(
        "verb, flag, value, low",
        [
            ("axioms", "--samples", "-1", 1),
            ("axioms", "--signals", "0", 1),
            ("approx", "--grid", "-1", 1),
            ("claim1", "--w-steps", "-2", 1),
            ("tsallis", "--grid-size", "-3", 3),
            ("tsallis", "--grid-size", "2", 3),
            ("dominate", "--tol", "nan", 0.0),
            ("dominate", "--tol", "inf", 0.0),
            ("dominate", "--tol", "-0.5", 0.0),
            ("axioms", "--tol", "1e400", 0.0),
            ("axioms", "--tol", "nan", 0.0),
            ("solve", "--starts", "0", 1),
            ("solve", "--max-iter", "0", 1),
            ("solve", "--max-iter", "-5", 1),
        ],
    )
    def test_below_lower_bound_exits_2(self, capsys, tmp_path, exp_file, verb, flag, value, low):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps({"prior": [0.5, 0.5], "utilities": [[8, 0], [0, 8], [6.1, 6.1]]}))
        argv = {
            "axioms": ["axioms", "--cost", str(cost_path), "--seed", "0"],
            "solve": ["solve", "--problem", str(prob_path), "--cost", str(cost_path), "--seed", "0"],
            "approx": ["approx", "--experiment", exp_file, "--seed", "0"],
            "claim1": ["claim1", "--seed", "0"],
            "tsallis": ["tsallis", "--sigma", "2"],
            "dominate": ["dominate", "--experiment", exp_file, "--experiment2", exp_file],
        }[verb]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        noun = "a finite number" if isinstance(low, float) else "an integer"
        assert exc.value.code == 2 and f"must be {noun} >= {low}" in capsys.readouterr().err


class TestRangeFlags:
    """Scale and order flags with open ranges are input errors outside them."""

    @pytest.mark.parametrize(
        "verb, flag, value, bounds",
        [
            ("claim1", "--t", "1.5", "in (0.0, 1.0)"),
            ("claim1", "--t", "1", "in (0.0, 1.0)"),
            ("claim1", "--t", "0", "in (0.0, 1.0)"),
            ("claim1", "--t", "nan", "in (0.0, 1.0)"),
            ("claim1", "--lam", "-1", "> 0.0"),
            ("claim1", "--lam", "0", "> 0.0"),
            ("claim1", "--lam", "nan", "> 0.0"),
            ("claim1", "--lam", "inf", "> 0.0"),
            ("tsallis", "--sigma", "-1", "> 0.0 other than 1.0"),
            ("tsallis", "--sigma", "0", "> 0.0 other than 1.0"),
            ("tsallis", "--sigma", "1", "> 0.0 other than 1.0"),
            ("tsallis", "--sigma", "nan", "> 0.0 other than 1.0"),
            ("tsallis", "--sigma", "inf", "> 0.0 other than 1.0"),
        ],
    )
    def test_out_of_range_exits_2(self, capsys, verb, flag, value, bounds):
        argv = {"claim1": ["claim1", "--seed", "0", "--w-steps", "2"], "tsallis": ["tsallis", "--grid-size", "5"]}[verb]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2 and f"must be a finite number {bounds}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["claim1", "--seed", "0", "--w-steps", "2", "--v-grid", "8", "--t", "0.3", "--lam", "1e-3"],
            ["tsallis", "--grid-size", "5", "--sigma", "0.5"],
        ],
    )
    def test_in_range_runs(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out


class TestListFlags:
    @pytest.mark.parametrize(
        "verb, flag, value",
        [
            ("approx", "--k-list", "nan"),
            ("approx", "--k-list", "inf"),
            ("approx", "--k-list", "4.7"),
            ("approx", "--k-list", ","),
            ("approx", "--k-list", "1" + "0" * 400),
            ("approx", "--k-list", "0"),
            ("approx", "--k-list", "1"),
            ("approx", "--k-list", "4,-1"),
            ("claim1", "--v-grid", ","),
            ("claim1", "--v-grid", "-1"),
            ("claim1", "--v-grid", "8,0"),
            ("claim1", "--v-grid", "nan"),
            ("claim1", "--v-grid", "8,inf"),
        ],
    )
    def test_bad_list_exits_2_and_prints_nothing(self, capsys, exp_file, verb, flag, value):
        argv = {
            "approx": ["approx", "--experiment", exp_file, "--grid", "2", "--seed", "0"],
            "claim1": ["claim1", "--w-steps", "2", "--seed", "0"],
        }[verb]
        code, out, err = run(capsys, argv + [flag, value])
        assert code == 2 and out == "" and "bad grid" in err


class TestInputFiles:
    """Experiment, problem and prior JSON go through one loader: a malformed
    array is an input error, and a declared shape must match the matrix."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"probs": [[0.5, 0.5], [0.5]]},
            {"probs": [["a", 0.5], [0.5, 0.5]]},
            {"probs": "x"},
            {"prob": [[0.5, 0.5], [0.5, 0.5]]},
            [[0.5, 0.5], [0.5, 0.5]],
        ],
    )
    def test_malformed_experiment_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(
            capsys,
            ["divergence", "--experiment", str(path), "--param", '{"kind":"interior","alpha":[0.5,0.5]}'],
        )
        assert code == 2 and not out and "not a valid experiment file" in err

    @pytest.mark.parametrize("declared", [{"states": 3}, {"signals": 3}])
    def test_declared_shape_must_match(self, capsys, tmp_path, declared):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({**SYM75, **declared}))
        code, out, err = run(
            capsys,
            ["divergence", "--experiment", str(path), "--param", '{"kind":"interior","alpha":[0.5,0.5]}'],
        )
        assert code == 1 and not out and "declared" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"prior": [0.5, 0.5], "utilities": [[8, 0], [0]]},
            {"prior": [0.5, 0.5], "utilities": [[8, "x"], [0, 8]]},
            {"prior": [0.5, [0.5]], "utilities": [[8, 0], [0, 8]]},
            {"prior": [0.5, 0.5]},
        ],
    )
    def test_malformed_problem_exits_2(self, capsys, tmp_path, payload):
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps(payload))
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy())))
        code, out, err = run(capsys, ["solve", "--problem", str(prob_path), "--cost", str(cost_path), "--seed", "0"])
        assert code == 2 and not out and "not a valid problem file" in err

    @pytest.mark.parametrize("prior", ['"x"', '[0.5, "x"]', '{"prior": [0.5, 0.5]}', "[[0.5], 0.5]"])
    def test_malformed_prior_exits_2(self, capsys, exp_file, prior):
        code, out, err = run(capsys, ["approx", "--experiment", exp_file, "--prior", prior, "--seed", "0"])
        assert code == 2 and not out and "not a valid prior" in err

    def test_fractional_pivot_is_rejected(self, capsys, exp_file):
        param = '{"kind":"kl","pivot":1.9,"beta":[1,0]}'
        code, out, err = run(capsys, ["divergence", "--experiment", exp_file, "--param", param])
        assert code == 1 and not out and "pivot must be an integer" in err


@pytest.mark.parametrize("line", readme_commands())
def test_readme_examples_parse(line):
    # parsing only: flags are checked, named files are not opened
    argv = shlex.split(line)[1:]
    args = _build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert _build_parser({argv[0]: _VERBS[argv[0]]}).parse_args(argv) == args


def test_unset_flags_take_the_library_defaults():
    solve = _build_parser().parse_args(["solve", "--problem", "p.json", "--cost", "c.json", "--seed", "0"])
    options = ic.SolveOptions()
    assert (solve.starts, solve.max_iter) == (options.starts, options.max_iter)
    suite = _build_parser().parse_args(["axioms", "--cost", "c.json", "--seed", "0"])
    profile = ic.AxiomProfile()
    assert (suite.samples, suite.signals, suite.tol) == (profile.n_samples, profile.n_signals, profile.tol)
    dominate = _build_parser().parse_args(["dominate", "--experiment", "a.json", "--experiment2", "b.json"])
    assert dominate.tol == ic.blackwell.DEFAULT_TOL


def test_readme_lists_every_verb():
    verbs = {shlex.split(line)[1] for line in readme_commands()}
    assert verbs == {"divergence", "cost", "dominate", "axioms", "solve", "claim1", "tsallis", "approx"}


def test_threads_flag_is_gone(capsys, exp_file):
    argv = ["dominate", "--experiment", exp_file, "--experiment2", exp_file, "--pairwise", "--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_main_builds_only_the_subparser_of_its_verb(monkeypatch, tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"prior": [0.5, 0.5], "utilities": [[1, 0], [0, 1]]}))
    cost_file = tmp_path / "cost.json"
    cost_file.write_text(json.dumps({"kind": "posterior_separable", "prior": [0.5, 0.5], "potential": {"kind": "shannon"}}))
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    for argv in (
        ["solve", "--problem", str(problem), "--cost", str(cost_file), "--seed", "0"],
        ["tsallis", "--sigma", "2", "--grid-size", "11"],
        ["claim1", "--v-grid", "6", "--w-steps", "2", "--seed", "0"],
    ):
        calls.clear()
        assert main(argv) == 0
        assert calls == [argv[0]]


def _exit_of(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["--help"], ["nosuch"]]
    + [[verb, "--help"] for verb in _VERBS]
    + [[verb] for verb in _VERBS]
    + [
        ["solve", "--problem", "p.json", "--cost", "c.json", "--seed", "0", "--threads", "2"],
        ["axioms", "--cost", "c.json", "--seed", "0", "--samples", "0"],
        ["claim1", "--t", "2", "--seed", "0"],
    ],
)
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _exit_of(lambda: _build_parser().parse_args(argv), capsys)
    assert _exit_of(lambda: main(argv), capsys) == expected
