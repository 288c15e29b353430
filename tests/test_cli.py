"""End-to-end command-line interface checks: payloads, exit codes, determinism."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost.cli import main

SYM75 = {"states": 2, "signals": 2, "probs": [[0.75, 0.25], [0.25, 0.75]]}


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

    def test_param_json_inside_a_string_exits_2(self, capsys, exp_file, tmp_path):
        cost_path = tmp_path / "cost.json"
        param = json.dumps({"kind": "interior", "alpha": [0.5, 0.5]})
        cost_path.write_text(json.dumps({"kind": "renyi", "lambda": 1.0, "param": param}))
        code, out, err = run(capsys, ["cost", "--experiment", exp_file, "--cost", str(cost_path)])
        assert code == 2 and not out and "not a valid cost file" in err


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

    def test_seed_required(self, capsys, tmp_path):
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--cost", str(cost_path)])
        assert exc.value.code == 2


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


class TestSolveOptionFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--max-iter", "0"],
            ["solve", "--max-iter", "-5"],
            ["solve", "--starts", "0"],
            ["claim1", "--compare", "--starts", "0"],
        ],
    )
    def test_out_of_range_exits_2(self, capsys, tmp_path, argv):
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps({"prior": [0.5, 0.5], "utilities": [[8, 0], [0, 8], [6.1, 6.1]]}))
        cost_path = tmp_path / "cost.json"
        cost_path.write_text(ic.cost_to_json(ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy())))
        if argv[0] == "solve":
            argv = argv + ["--problem", str(prob_path), "--cost", str(cost_path)]
        code, out, err = run(capsys, argv + ["--seed", "0"])
        assert code == 2 and not out and "must be an integer >= 1" in err
