"""Solver, closed-form symmetric machinery, and the all-actions band."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost import ri_solver
from infocost.cli import main
from infocost.cost import _cost_gradient, _MeasurePlan, _PosteriorPlan
from infocost.divergence import _Plan
from infocost.errors import BadSolveOptions, DimensionMismatch, InfoCostError, NoRootInBracket
from infocost.ri_solver import _foc, _golden_max, _learning_weight, _mixing_kernel


def inst(v=8.0, w=4.0, lam=1.0, t=0.5):
    return ic.SymmetricInstance(v, w, lam, t)


def symmetric_value_dalpha(inst: ic.SymmetricInstance, a: float, pi: float) -> float:
    """Closed-form partial derivative of the symmetric objective in a."""
    h = _mixing_kernel(inst.t, pi)
    return inst.v * pi - inst.w + inst.lam / (1.0 - inst.t) * (h - 1.0) / ((1.0 - a) + a * h)


class TestSymmetricValue:
    def test_never_learning_pays_safe(self):
        for pi in (0.0, 0.3, 0.5, 1.0):
            assert ic.symmetric_value(inst(w=4.0), 0.0, pi) == pytest.approx(4.0, abs=1e-12)

    def test_full_learning_at_coin_flip(self):
        # a=1, pi=1/2: the mixing kernel equals 1, so only the matching payoff remains
        assert ic.symmetric_value(inst(v=8.0), 1.0, 0.5) == pytest.approx(4.0, abs=1e-12)

    def test_partials_match_central_differences(self):
        rng = np.random.default_rng(0)
        it = inst(v=7.0, w=3.0, lam=1.2, t=0.6)
        h = 1e-7
        for _ in range(20):
            a = float(rng.uniform(0.05, 0.95))
            pi = float(rng.uniform(0.05, 0.95))
            da = (ic.symmetric_value(it, a + h, pi) - ic.symmetric_value(it, a - h, pi)) / (2 * h)
            assert symmetric_value_dalpha(it, a, pi) == pytest.approx(da, abs=1e-6)

    def test_concave_in_each_argument(self):
        it = inst(v=8.0, w=5.0)
        for grid, fix_a in ((np.linspace(0.05, 0.95, 19), True), (np.linspace(0.05, 0.95, 19), False)):
            for x1, x2 in zip(grid, grid[2:]):
                mid = 0.5 * (x1 + x2)
                if fix_a:
                    vals = [ic.symmetric_value(it, 0.7, x) for x in (x1, mid, x2)]
                else:
                    vals = [ic.symmetric_value(it, x, 0.8) for x in (x1, mid, x2)]
                assert vals[1] >= 0.5 * (vals[0] + vals[2]) - 1e-10


class TestFocRoot:
    def test_quadratic_reduction_at_half(self):
        # at t=1/2, lam=1 the condition collapses to v pi (1-pi) = 2 pi - 1;
        # for v=8 the quadratic 8 pi^2 - 6 pi - 1 = 0 gives (6 + sqrt(68)) / 16
        root = ic.foc_root(inst(v=8.0))
        assert root == pytest.approx((6.0 + math.sqrt(68.0)) / 16.0, abs=1e-9)

    def test_reduction_identity_on_grid(self):
        it = inst(v=8.0)
        for pi in np.linspace(0.55, 0.95, 9):
            reduced = it.v - (2 * pi - 1) / (pi * (1 - pi))
            assert _foc(it, float(pi)) == pytest.approx(reduced, abs=1e-10)

    def test_residual_tiny(self):
        for v in (2.0, 8.0, 50.0, 1000.0):
            it = inst(v=v, w=v / 2)
            assert abs(_foc(it, ic.foc_root(it))) <= 1e-9

    def test_accuracy_grows_with_stakes(self):
        assert ic.foc_root(inst(v=1000.0, w=1.0)) >= 0.99

    def test_no_root_when_optimum_indistinguishable_from_one(self):
        # stakes so extreme that the stationary accuracy exceeds the float
        # resolution of the bracket: the sign check fails honestly
        with pytest.raises(NoRootInBracket):
            ic.foc_root(ic.SymmetricInstance(1e18, 1.0, 1e-3, 0.5))


def nested_reference(it):
    """The nested golden-section search that maximize_symmetric_value replaced:
    an inner search over the accuracy at each learning weight, and an outer
    search over the weight bracketed by a 41-point scan.  (a, pi, value)."""

    def inner(a):
        if a == 0.0:
            return 0.5, ic.symmetric_value(it, 0.0, 0.5)
        return _golden_max(lambda pi: ic.symmetric_value(it, a, pi), 0.0, 1.0)

    grid = np.linspace(0.0, 1.0, 41)
    vals = [inner(a)[1] for a in grid]
    best = int(np.argmax(vals))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    a_star, _ = _golden_max(lambda a: inner(a)[1], lo, hi, tol=1e-9)
    best_a, best_pi, best_v = None, None, -math.inf
    for a in (a_star, 0.0, 1.0):
        pi, val = inner(a)
        if val > best_v:
            best_a, best_pi, best_v = a, pi, val
    return best_a, best_pi, best_v


def grid_max(it, n=201):
    """Largest symmetric objective on an n x n grid of (a, pi) in [0, 1]^2."""
    a = np.linspace(0.0, 1.0, n)[:, None]
    pi = np.linspace(0.0, 1.0, n)[None, :]
    t = it.t
    h = pi**t * (1.0 - pi) ** (1.0 - t) + (1.0 - pi) ** t * pi ** (1.0 - t)
    with np.errstate(divide="ignore"):
        vals = it.v * a * pi + it.w * (1.0 - a) + it.lam / (1.0 - t) * np.log((1.0 - a) + a * h)
    return float(vals.max())


def benchmark_cells():
    """The edge, inside and above cells of the benchmark's Rényi solves: v drawn
    from the seed, w placed in units of the all-actions band at lam = 1, t = 1/2."""
    cells = []
    for seed in (20250901, 7):
        v = float(np.random.default_rng(seed).uniform(7.9, 8.1))
        pi = ((v - 2.0) + math.sqrt(v * v + 4.0)) / (2.0 * v)
        h = 2.0 * math.sqrt(pi * (1.0 - pi))
        w_lo, w_hi = v * pi + 2.0 * (1.0 - 1.0 / h), v * pi + 2.0 * (h - 1.0)
        for cell, pos in (("edge", 0.1), ("inside", 0.5), ("above", 4.0)):
            cells.append(pytest.param(v, w_lo + pos * (w_hi - w_lo), 1.0, 0.5, id=f"{cell}-{seed}"))
    return cells


def check_against_reference(it):
    a, pi, value = ic.maximize_symmetric_value(it)
    ref = nested_reference(it)[2]
    assert value >= ref - 1e-12 * max(1.0, abs(ref))
    assert value >= grid_max(it) - 1e-12 * max(1.0, abs(value))
    assert value == pytest.approx(ic.symmetric_value(it, a, pi), rel=1e-15, abs=1e-15)
    if 0.0 < a < 1.0:  # an interior learning weight is stationary
        assert abs(symmetric_value_dalpha(it, a, pi)) <= 1e-9 * max(1.0, it.v)
    return a, pi, value


class TestMaximizeSymmetricValue:
    @pytest.mark.parametrize(
        "v, w, lam, t",
        [
            pytest.param(8.0, 8.0 * (1.0 - 1e-9), 1e-9, 0.5, id="gain-only-above-1-1e-9"),
            pytest.param(2.0, 1.998, 1e-3, 0.5, id="gain-band-narrower-than-the-scan"),
            pytest.param(0.5, 0.005, 100.0, 0.9, id="flat-profile"),
            pytest.param(8.0, 6.1, 100.0, 0.9, id="prohibitive-cost"),
            pytest.param(8.0, 3.0, 1.0, 0.5, id="w-below-v/2"),
            pytest.param(8.0, 6.1, 1.0, 0.5, id="band"),
            pytest.param(7.0, 3.0, 1.2, 0.6, id="t-0.6"),
            *benchmark_cells(),
        ],
    )
    def test_never_below_the_nested_search(self, v, w, lam, t):
        check_against_reference(ic.SymmetricInstance(v, w, lam, t))

    @pytest.mark.parametrize("v, w, lam, t", test_never_below_the_nested_search.pytestmark[0].args[1])
    def test_one_golden_search_without_a_scan(self, v, w, lam, t, monkeypatch):
        # a golden-section search over [1/2, 1] to 1e-12 makes 59 key calls, and
        # one more reads the weight; a scan in front of it would add its grid
        calls = []

        def counting(it, pi):
            calls.append(pi)
            return _learning_weight(it, pi)

        monkeypatch.setattr(ri_solver, "_learning_weight", counting)
        ic.maximize_symmetric_value(ic.SymmetricInstance(v, w, lam, t))
        assert len(calls) <= 64

    @given(
        st.floats(-1.0, 3.0),
        st.floats(1e-3, 1.0 - 1e-9),
        st.floats(-9.0, 2.0),
        st.floats(0.05, 0.95),
    )
    @example(math.log10(2.0), 0.999, -3.0, 0.5)
    @settings(max_examples=100, deadline=None)
    def test_property_never_below_the_nested_search_or_a_grid(self, log_v, ratio, log_lam, t):
        v = 10.0**log_v
        check_against_reference(ic.SymmetricInstance(v, ratio * v, 10.0**log_lam, t))

    def test_corners(self):
        # w < v/2: full learning at a coin flip already beats the safe action
        a, pi, value = ic.maximize_symmetric_value(inst(v=8.0, w=3.0))
        assert a == 1.0 and 0.5 < pi < 1.0 and value > 4.0
        # a prohibitive cost: the safe action, reported as (0, 1/2, w)
        assert ic.maximize_symmetric_value(inst(v=8.0, w=6.1, lam=100.0, t=0.9)) == (0.0, 0.5, 6.1)

    @pytest.mark.parametrize(
        "v, w, lam",
        [(math.inf, 1.0, 1.0), (8.0, 4.0, math.inf), (math.nan, 4.0, 1.0), (8.0, math.nan, 1.0), (8.0, -math.inf, 1.0)],
    )
    def test_instance_rejects_non_finite_input(self, v, w, lam):
        with pytest.raises(DimensionMismatch):
            ic.SymmetricInstance(v, w, lam, 0.5)


class TestSolver:
    def test_costless_full_information(self):
        problem = ic.matching_problem(2.0, 1.0)
        spec = ic.RenyiCost(0.0, ic.InteriorParam(np.array([0.5, 0.5])))
        policy = ic.solve(problem, spec, ic.SolveOptions(starts=6, max_iter=200))
        assert policy.value == pytest.approx(2.0, abs=1e-9)
        assert policy.support == (0, 1)

    def test_prohibitive_cost_plays_safe(self):
        problem = ic.matching_problem(2.0, 1.0)
        spec = ic.RenyiCost(1e6, ic.InteriorParam(np.array([0.5, 0.5])))
        policy = ic.solve(problem, spec, ic.SolveOptions(starts=6, max_iter=300))
        assert policy.value == pytest.approx(1.0, abs=1e-6)

    def test_soundness_vs_pure_policies(self):
        rng = np.random.default_rng(1)
        for seed in range(4):
            utilities = rng.uniform(0.0, 2.0, size=(4, 2))
            problem = ic.RIProblem(np.array([0.4, 0.6]), utilities)
            spec = ic.RenyiCost(0.8, ic.InteriorParam(np.array([0.5, 0.5])))
            policy = ic.solve(problem, spec, ic.SolveOptions(starts=8, max_iter=300, seed=seed))
            pure_best = max(problem.prior @ u for u in utilities)
            assert policy.value >= pure_best - 1e-8

    def test_matches_symmetric_closed_form(self):
        spec = ic.symmetric_renyi_cost_spec(1.0, 0.5)
        it = inst(v=8.0, w=6.1)
        a_star, pi_star, v_star = ic.maximize_symmetric_value(it)
        policy = ic.solve(ic.matching_problem(8.0, 6.1), spec, ic.SolveOptions(starts=8, max_iter=900))
        assert policy.value == pytest.approx(v_star, abs=1e-6)
        assert policy.support == (0, 1, 2)
        probs = policy.choice.probs
        a_est = 1.0 - 0.5 * (probs[0, 2] + probs[1, 2])
        assert a_est == pytest.approx(a_star, abs=1e-3)

    def test_symmetrization_never_hurts(self):
        # averaging a policy with its relabeled mirror weakly raises the
        # objective under the two-sided divergence cost
        spec = ic.symmetric_renyi_cost_spec(1.0, 0.5)
        problem = ic.matching_problem(8.0, 6.1)
        qu = problem.prior[None, :] * problem.utilities

        def objective(p):
            c = ic.eval_cost(spec, ic.FiniteExperiment(p))
            return float(np.sum(qu.T * p)) - c

        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.dirichlet(np.ones(3), size=2)
            mirrored = np.empty_like(p)
            mirrored[0] = p[1][[1, 0, 2]]
            mirrored[1] = p[0][[1, 0, 2]]
            avg = 0.5 * (p + mirrored)
            assert objective(avg) >= objective(p) - 1e-9

    def test_dimension_mismatch(self):
        spec = ic.RenyiCost(1.0, ic.InteriorParam(np.array([1 / 3, 1 / 3, 1 / 3])))
        with pytest.raises(DimensionMismatch):
            ic.solve(ic.matching_problem(2.0, 1.0), spec)

    def test_prior_mismatch(self):
        problem = ic.matching_problem(8.0, 3.0)
        for spec in (
            ic.PosteriorSeparableCost(np.array([0.9, 0.1]), ic.ShannonEntropy()),
            ic.ConvexPSCost(np.array([0.9, 0.1]), ic.ShannonEntropy(), ic.IdentityTransform()),
        ):
            with pytest.raises(DimensionMismatch):
                ic.solve(problem, spec, ic.SolveOptions(starts=1, max_iter=1))


    def test_safe_style_three_state_problem_reaches_blahut_arimoto(self):
        prior = np.array([0.45, 0.35, 0.2])
        utilities = np.array([[3.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 3.0], [2.15, 2.15, 2.15]])
        spec = ic.PosteriorSeparableCost(prior, ic.ShannonEntropy())
        policy = ic.solve(ic.RIProblem(prior, utilities), spec, ic.SolveOptions(starts=1))
        # Blahut-Arimoto on the action marginal: log max_a c(a) bounds V* - V(marginal)
        e, marginal = np.exp(utilities), np.full(4, 0.25)
        c = e @ (prior / (marginal @ e))
        while math.log(c.max()) > 1e-13:
            marginal = marginal * c / (marginal @ c)
            c = e @ (prior / (marginal @ e))
        assert policy.value == pytest.approx(float(prior @ np.log(marginal @ e)), abs=1e-8)
        assert policy.converged and policy.support == (0, 1, 3)

    def test_problem_leaves_caller_arrays_writable(self):
        q, u = np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]])
        problem = ic.RIProblem(q, u)
        q[0], u[0, 0] = 0.4, 2.0
        assert problem.prior[0] == 0.5 and problem.utilities[0, 0] == 1.0
        assert not problem.prior.flags.writeable and not problem.utilities.flags.writeable


class TestSolveOptions:
    def test_defaults_and_integer_types_accepted(self):
        ic.SolveOptions()
        ic.SolveOptions(starts=np.int64(1), max_iter=1)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, None])
    def test_starts(self, bad):
        with pytest.raises(BadSolveOptions, match="starts"):
            ic.SolveOptions(starts=bad)

    @pytest.mark.parametrize("bad", [0, -5, 10.0, math.inf])
    def test_max_iter(self, bad):
        with pytest.raises(BadSolveOptions, match="max_iter"):
            ic.SolveOptions(max_iter=bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, None, np.float64(3.0)])
    def test_seed(self, bad):
        with pytest.raises(BadSolveOptions, match="seed"):
            ic.SolveOptions(seed=bad)


@pytest.fixture
def ascents(monkeypatch):
    """The start of every ascent solve() runs.  Polish restarts begin on a face
    (a zero column); every main start is interior."""
    seen = []
    real = ri_solver._ascend

    def spy(objective, gradient, prior, start, f, options):
        seen.append(start.copy())
        return real(objective, gradient, prior, start, f, options)

    monkeypatch.setattr(ri_solver, "_ascend", spy)
    return seen


def split(starts):
    """(main starts, polish restarts); every polish restart follows the main starts."""
    interior = [bool(s.min() > 0.0) for s in starts]
    k = interior.count(True)
    assert interior == [True] * k + [False] * (len(starts) - k)
    return starts[:k], starts[k:]


class TestRestarts:
    def test_converged_interior_incumbent_runs_one_ascent(self, ascents):
        policy = ic.solve(ic.matching_problem(8.0, 6.1), ic.symmetric_renyi_cost_spec(1.0, 0.5))
        assert policy.converged and policy.support == (0, 1, 2)
        assert len(ascents) == 1
        np.testing.assert_array_equal(ascents[0], np.full((2, 3), 1.0 / 3.0))

    def test_pure_incumbent_restarts_only_from_its_zero_marginal_faces(self, ascents):
        problem = ic.matching_problem(2.0, 1.5)  # safe beats every uninformed mixture
        # at lam = 1e6 the certificate's O(t^2) term exceeds its margin, so the ascent runs
        spec = ic.RenyiCost(1e6, ic.InteriorParam(np.array([0.5, 0.5])))
        policy = ic.solve(problem, spec, ic.SolveOptions(max_iter=300))
        safe = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(policy.choice.probs, safe)
        assert policy.upper_bound is None
        main, polish = split(ascents)
        assert len(main) == 1 and len(polish) == 2
        for start in polish:
            np.testing.assert_array_equal(start, safe)

    def test_capped_crawl_restarts_from_every_face(self, ascents):
        shannon = ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy())
        ic.solve(ic.matching_problem(8.0, 6.1), shannon, ic.SolveOptions(starts=8, max_iter=5))
        main, polish = split(ascents)
        assert len(main) == 1 and len(polish) == 3
        for a, start in enumerate(polish):
            assert np.all(start[:, a] == 0.0)

    def test_starts_count_only_for_sup_atoms(self, ascents):
        problem = ic.matching_problem(8.0, 6.1)
        options = ic.SolveOptions(starts=8, max_iter=50)
        ic.solve(problem, ic.symmetric_renyi_cost_spec(1.0, 0.5), options)
        assert len(split(ascents)[0]) == 1
        ascents.clear()
        sup = ic.DivergenceMeasure(((1.0, ic.SupParam(np.array([1.0, -1.0]))),))
        ic.solve(problem, ic.MaxRenyiCost((sup,)), options)
        main = split(ascents)[0]
        assert len(main) == 8
        np.testing.assert_array_equal(main[0], np.full((2, 3), 1.0 / 3.0))


@pytest.fixture
def calls(monkeypatch):
    """Cost and gradient calls of every solve(), counted by wrapping the
    planned entries the solver prices through: ``_costs`` and
    ``_cost_gradient``.  A stack counts as one call."""
    seen = {"costs": 0, "gradient": 0}

    def counted(key, real):
        def wrapper(*args):
            seen[key] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(ri_solver, "_costs", counted("costs", ri_solver._costs))
    monkeypatch.setattr(ri_solver, "_cost_gradient", counted("gradient", ri_solver._cost_gradient))
    return seen


def matching_cells():
    """The benchmark's order-1/2 Rényi edge and inside cells (lam = 1, t = 1/2)."""
    return [c for c in benchmark_cells() if not c.id.startswith("above")]


class TestEndgame:
    """Mirror steps find the support; BFGS on its logits finishes the ascent."""

    @pytest.mark.parametrize("v, w, lam, t", matching_cells())
    def test_renyi_matching_cells_reach_the_closed_form(self, v, w, lam, t):
        spec = ic.symmetric_renyi_cost_spec(lam, t)
        policy = ic.solve(ic.matching_problem(v, w), spec, ic.SolveOptions(starts=1, max_iter=2000))
        ref = ic.maximize_symmetric_value(ic.SymmetricInstance(v, w, lam, t))[2]
        assert abs(policy.value - ref) <= 1e-12
        assert policy.converged and policy.support == (0, 1, 2)

    def test_renyi_edge_cell_call_budget(self, calls):
        # counts are deterministic; the budget is about twice what the ascent needs
        v, w, lam, t = matching_cells()[0].values
        ic.solve(ic.matching_problem(v, w), ic.symmetric_renyi_cost_spec(lam, t), ic.SolveOptions(starts=1, max_iter=2000))
        assert calls["costs"] <= 80 and calls["gradient"] <= 50, calls

    def test_flat_objective_reaches_its_face(self):
        # the whole gain over playing safe is 2.5e-7, and it lies on the face
        # without the safe action: learning weight 1
        problem = ic.matching_problem(2.0, 1.0)
        spec = ic.RenyiCost(1e6, ic.InteriorParam(np.array([0.5, 0.5])))
        policy = ic.solve(problem, spec, ic.SolveOptions(starts=6, max_iter=300))
        ref = ic.maximize_symmetric_value(ic.SymmetricInstance(2.0, 1.0, 1e6, 0.5))[2]
        assert abs(policy.value - ref) <= 1e-9
        assert policy.support == (0, 1)

    def test_kl_cost_matches_its_posterior_separable_form(self):
        rng = np.random.default_rng(5)
        q, u = rng.dirichlet(np.ones(3)), rng.uniform(0.0, 3.0, (4, 3))
        rng.uniform(0.2, 1.0, (2, 2)), rng.dirichlet(np.ones(2))  # two discarded draws fix beta
        beta = rng.uniform(0.2, 1.0, (3, 3)) * (1.0 - np.eye(3))
        problem = ic.RIProblem(q, u)
        direct = ic.solve(problem, ic.KLCost(beta))
        composed = ic.solve(problem, ic.PosteriorSeparableCost(q, ic.KLPotential(beta)))
        assert abs(direct.value - composed.value) <= 1e-12

    def test_exhausted_endgame_is_not_converged(self, capsys, tmp_path):
        v, w, lam, t = matching_cells()[0].values
        spec = ic.symmetric_renyi_cost_spec(lam, t)
        max_iter = ri_solver.HANDOFF + 3  # the mirror steps hand over, and BFGS runs out
        policy = ic.solve(ic.matching_problem(v, w), spec, ic.SolveOptions(starts=1, max_iter=max_iter))
        assert not policy.converged
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"prior": [0.5, 0.5], "utilities": [[v, 0.0], [0.0, v], [w, w]]}))
        cost = tmp_path / "cost.json"
        cost.write_text(ic.cost_to_json(spec))
        argv = ["solve", "--problem", str(problem), "--cost", str(cost), "--seed", "0", "--starts", "1"]
        assert main(argv + ["--max-iter", str(max_iter)]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is False
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True


def chi2(p, q):
    """A custom potential that fails when it is called off the simplex."""
    assert abs(p.sum() - 1.0) <= 1e-12
    return float(np.sum(p * p / q))


def every_family(prior):
    """One cost of every family for a 2-state prior, sup atoms and custom callables included."""
    alpha = np.array([0.7, 0.3])
    beta = np.array([[0.0, 1.0], [0.5, 0.0]])
    sup = ic.SupParam(np.array([1.0, -1.0]))
    renyi = ic.InteriorParam(alpha)
    mixed = ic.DivergenceMeasure(((0.5, renyi), (0.5, ic.WeightedKLParam(1, np.array([1.0, 0.0])))))
    return {
        "kl": ic.KLCost(beta),
        "max_kl": ic.MaxKLCost((beta, beta.T)),
        "renyi": ic.RenyiCost(1.0, renyi),
        "max_renyi": ic.MaxRenyiCost((mixed, ic.symmetric_renyi_cost_spec(1.0, 0.5).measures[0])),
        "sup": ic.MaxRenyiCost((ic.DivergenceMeasure(((0.4, sup), (0.6, renyi))),)),
        "shannon": ic.PosteriorSeparableCost(prior, ic.ShannonEntropy()),
        "tsallis": ic.PosteriorSeparableCost(prior, ic.Tsallis(0.5)),
        "kl_potential": ic.PosteriorSeparableCost(prior, ic.KLPotential(beta)),
        "renyi_potential": ic.PosteriorSeparableCost(prior, ic.RenyiPotential(alpha)),
        "convex_ps": ic.ConvexPSCost(prior, ic.RenyiPotential(alpha), ic.RenyiLogTransform(1.0, 0.7)),
        "custom_potential": ic.PosteriorSeparableCost(prior, ic.CustomPotential(chi2)),
        "custom_transform": ic.ConvexPSCost(prior, ic.ShannonEntropy(), ic.CustomTransform(math.expm1)),
    }


BENCHMARK_COSTS = {
    "shannon": ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy()),
    "max_kl": ic.MaxKLCost((np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))),
    "renyi": ic.symmetric_renyi_cost_spec(1.0, 0.5),
}


def vertex_cells():
    """The benchmark's cells whose optimum is the pure safe action: max-KL on
    the edge and inside cells, and every family above the band."""
    return [
        pytest.param(family, *c.values[:2], id=f"{family}-{c.id}")
        for c in benchmark_cells()
        for family in BENCHMARK_COSTS
        if c.id.startswith("above") or family == "max_kl"
    ]


class TestPureCertificate:
    """A pure policy certified before any ascent is returned without one."""

    @pytest.mark.parametrize("family, v, w", vertex_cells())
    def test_vertex_cells_run_no_ascent(self, family, v, w, ascents, calls):
        policy = ic.solve(ic.matching_problem(v, w), BENCHMARK_COSTS[family], ic.SolveOptions(starts=1))
        np.testing.assert_array_equal(policy.choice.probs, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert policy.value == w and policy.converged and policy.support == (2,)
        assert abs(policy.upper_bound - w) <= 1e-13 * w  # a bound on the optimum, up to rounding
        assert ascents == []
        # one stack of the three pure values and the uniform start, the
        # certificate's two grids, its point and the reported value
        assert calls == {"costs": 5, "gradient": 1}

    @given(
        st.integers(2, 4),
        st.floats(0.05, 0.95),
        st.lists(st.floats(0.0, 2.0), min_size=8, max_size=8),
    )
    # max-KL learns here, while a cost above it (the sum of its members) plays safe
    @example(3, 0.5, [2.0, 0.0, 0.0, 2.0, 1.05, 1.05, 0.0, 0.0])
    @settings(max_examples=40, deadline=None)
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")  # as solve() silences them
    def test_property_no_ascent_beats_a_certified_pure_policy(self, m, q0, payoffs):
        problem = ic.RIProblem(np.array([q0, 1.0 - q0]), np.reshape(payoffs[: 2 * m], (m, 2)))
        for name, spec in every_family(problem.prior).items():
            if not spec._plan.concave:
                continue
            objective, gradient = ri_solver._objective_factory(problem, spec)
            pure = [objective(ri_solver._pure_policy(2, m, a)) for a in range(m)]
            a = pure.index(max(pure))
            bound = ri_solver._certify_pure(problem, objective, gradient, a, pure[a])
            if bound is None:
                continue
            margin = 1e-13 * max(1.0, abs(pure[a]))
            uniform = np.full((2, m), 1.0 / m)
            f = ri_solver._ascend(objective, gradient, problem.prior, uniform, objective(uniform), ic.SolveOptions())[1]
            assert f <= pure[a] + margin, name
            assert abs(bound - pure[a]) <= margin, name

    @pytest.mark.parametrize("seed", [43, 112, 120, 188])
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")  # as solve() silences them
    def test_ascent_cannot_climb_through_subnormal_entries(self, seed):
        # the ascent drives entries to subnormals or to 0 (about 1e-317 at seed
        # 120); priced as p_i / p_k there, the cost overflowed to 0 and the
        # ascent ended 1.46 above the pure optimum.  It ends 7.9 to 581 below
        # it instead, and solve() meets the optimum through the certificate.
        problem = ic.RIProblem(np.array([0.001, 0.999]), np.random.default_rng(seed).uniform(0.0, 2e3, (5, 2)))
        spec = ic.RenyiCost(1.0, ic.InteriorParam(np.array([0.7, 0.3])))
        objective, gradient = ri_solver._objective_factory(problem, spec)
        best = max(objective(ri_solver._pure_policy(2, 5, a)) for a in range(5))
        margin = 1e-13 * abs(best)
        uniform = np.full((2, 5), 0.2)
        p, f, _ = ri_solver._ascend(objective, gradient, problem.prior, uniform, objective(uniform), ic.SolveOptions())
        assert p.min() < np.finfo(float).tiny
        assert f <= best + margin
        policy = ic.solve(problem, spec)
        assert policy.value == best and policy.converged
        assert abs(policy.upper_bound - best) <= margin

    def test_only_concave_families_try_the_certificate(self, monkeypatch):
        tried = []
        real = ri_solver._certify_pure

        def spy(problem, objective, gradient, a, f_a):
            tried.append(a)
            return real(problem, objective, gradient, a, f_a)

        monkeypatch.setattr(ri_solver, "_certify_pure", spy)
        problem = ic.matching_problem(8.0, 7.9)  # playing safe is optimal for every family
        options = ic.SolveOptions(starts=2, max_iter=50)
        for name, spec in every_family(problem.prior).items():
            tried.clear()
            policy = ic.solve(problem, spec, options)
            if name in ("sup", "custom_potential", "custom_transform"):
                assert tried == [] and policy.upper_bound is None, name
            else:
                assert tried == [2] and policy.upper_bound is not None, name

    def test_certified_solve_builds_no_cost_or_plan(self, monkeypatch):
        # every cost builds its plan at construction, so no plan built means no cost built either
        problem = ic.matching_problem(8.0, 7.9)  # playing safe is optimal for every family
        specs = {name: spec for name, spec in every_family(problem.prior).items() if spec._plan.concave}
        built = []
        for cls in (_MeasurePlan, _PosteriorPlan, _Plan):

            def init(self, *args, real=cls.__init__):
                built.append(type(self).__name__)
                real(self, *args)

            monkeypatch.setattr(cls, "__init__", init)
        for name, spec in specs.items():
            assert ic.solve(problem, spec, ic.SolveOptions(starts=1)).upper_bound is not None, name
            assert built == [], name
        ic.KLCost(np.array([[0.0, 1.0], [1.0, 0.0]]))  # the counting sees a construction
        assert built == ["_MeasurePlan", "_Plan"]

    def test_three_states_are_not_certified(self, ascents):
        # a Tsallis cost: a Shannon one would take the logit fixed point instead
        prior = np.array([0.3, 0.3, 0.4])
        utilities = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.9, 0.9]])
        policy = ic.solve(ic.RIProblem(prior, utilities), ic.PosteriorSeparableCost(prior, ic.Tsallis(0.5)))
        assert policy.support == (2,) and policy.upper_bound is None and len(ascents) >= 1


def per_start_solve(problem, spec, options):
    """solve() pricing every pure policy, ascent start and face start on its
    own: the route the stacks replaced, kept as their reference."""
    n, m = problem.n_states, problem.n_actions
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        objective, gradient = ri_solver._objective_factory(problem, spec)

        def ascend(start):
            return ri_solver._ascend(objective, gradient, problem.prior, start, objective(start), options)

        pure = [objective(ri_solver._pure_policy(n, m, a)) for a in range(m)]
        a = pure.index(max(pure))
        best_p, best_f, best_conv = ri_solver._pure_policy(n, m, a), pure[a], True
        concave = spec._plan.concave
        if concave:
            bound = ri_solver._certify_pure(problem, objective, gradient, a, best_f)
            if bound is not None:
                return ri_solver._policy(problem, objective, best_p, bound=max(bound, best_f))
        uniform = np.full((n, m), 1.0 / m)
        starts = [uniform]
        if not concave:
            starts += [0.95 * ri_solver._pure_policy(n, m, b) + 0.05 * uniform for b in range(m)]
            rng = np.random.default_rng(options.seed)
            while len(starts) < options.starts:
                starts.append(rng.dirichlet(np.ones(m), size=n))
        for p0 in starts[: options.starts]:
            p, f, conv = ascend(p0)
            if f > best_f:
                best_p, best_f, best_conv = p, f, conv
        incumbent, incumbent_f = best_p.copy(), best_f
        used = ri_solver._support(problem.prior, incumbent)
        for a in range(m):
            faced = ri_solver._face_start(incumbent, a)
            if not best_conv or not used[a] or objective(faced) > incumbent_f:
                p, f, conv = ascend(faced)
                if f > best_f:
                    best_p, best_f, best_conv = p, f, conv
        return ri_solver._policy(problem, objective, best_p, best_conv)


def matching_three_states(m):
    """A three-state problem whose first three actions each match a state;
    a fourth action pays 0.5 everywhere and is left unused.  Its Tsallis
    cost is concave but not Shannon, so the solve runs the ascent."""
    prior = np.array([0.3, 0.3, 0.4])
    utilities = np.zeros((m, 3))
    utilities[np.arange(m), np.arange(m) % 3] = 2.0
    utilities[3:] = 0.5
    return ic.RIProblem(prior, utilities), ic.PosteriorSeparableCost(prior, ic.Tsallis(0.5))


class TestStackedCandidates:
    """The pure policies with the ascents' starts, and the polish's face
    starts, are priced as one stack each, whose rows equal the matrices
    priced alone."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_pure_policies_and_face_starts_take_one_call_each(self, m, monkeypatch):
        priced, incumbents = [], []
        real_costs, real_ascend = ri_solver._costs, ri_solver._ascend

        def costs(spec, probs):
            priced.append(probs.copy())
            return real_costs(spec, probs)

        def ascend(objective, gradient, prior, start, f, options):
            result = real_ascend(objective, gradient, prior, start, f, options)
            incumbents.append(result[0])
            return result

        monkeypatch.setattr(ri_solver, "_costs", costs)
        monkeypatch.setattr(ri_solver, "_ascend", ascend)
        problem, spec = matching_three_states(m)  # three states and no Shannon cost: no certificate or fixed point
        ic.solve(problem, spec)
        first = np.stack([ri_solver._pure_policy(3, m, a) for a in range(m)] + [np.full((3, m), 1.0 / m)])
        np.testing.assert_array_equal(priced[0], first)
        incumbent = incumbents[0]  # the one main ascent beats every pure policy
        faces = np.stack([ri_solver._face_start(incumbent, a) for a in range(m)])
        assert sum(np.array_equal(s, faces) for s in priced) == 1
        # those two are the only calls that price more than one matrix
        assert [len(s) for s in priced if len(s) > 1] == [m + 1, m]

    def test_every_start_of_the_multistart_path_joins_the_pure_policies(self, monkeypatch):
        sizes = []
        real = ri_solver._costs

        def costs(spec, probs):
            sizes.append(len(probs))
            return real(spec, probs)

        monkeypatch.setattr(ri_solver, "_costs", costs)
        problem = ic.matching_problem(8.0, 6.1)
        ic.solve(problem, every_family(problem.prior)["sup"], ic.SolveOptions(starts=7))
        # the three pure policies and seven starts, then only the three face starts
        assert sizes[0] == 3 + 7 and [k for k in sizes[1:] if k > 1] == [3]

    @pytest.mark.parametrize(
        "problem, spec, max_iter",
        [
            pytest.param(*matching_three_states(4), 2000, id="one-face-unused"),
            pytest.param(*matching_three_states(3), 2000, id="every-face-used"),
            pytest.param(ic.matching_problem(8.0, 6.1), ic.symmetric_renyi_cost_spec(1.0, 0.5), 2000, id="renyi-band"),
            pytest.param(ic.matching_problem(8.0, 7.9), BENCHMARK_COSTS["max_kl"], 2000, id="certified"),
            # a face start above the incumbent: the flat objective of TestEndgame
            pytest.param(
                ic.matching_problem(2.0, 1.0), ic.RenyiCost(1e6, ic.InteriorParam(np.array([0.5, 0.5]))), 300, id="flat"
            ),
            pytest.param(*matching_three_states(4), 5, id="max-iter-reached"),
            pytest.param(ic.matching_problem(8.0, 6.1), every_family(np.array([0.5, 0.5]))["sup"], 2000, id="sup"),
            pytest.param(
                ic.matching_problem(8.0, 6.1), every_family(np.array([0.5, 0.5]))["custom_potential"], 2000, id="custom"
            ),
        ],
    )
    def test_same_policy_as_pricing_each_candidate_alone(self, problem, spec, max_iter):
        options = ic.SolveOptions(max_iter=max_iter)
        got, ref = ic.solve(problem, spec, options), per_start_solve(problem, spec, options)
        assert got.choice.probs.tobytes() == ref.choice.probs.tobytes()
        for field in ("value", "support", "converged", "upper_bound"):
            assert getattr(got, field) == getattr(ref, field), field

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")  # as solve() silences them
    def test_objective_prices_a_stack_row_by_row(self, seed, m, k):
        rng = np.random.default_rng(seed)
        problem = ic.RIProblem(np.array([0.35, 0.65]), rng.uniform(-2.0, 5.0, (m, 2)))
        stack = rng.dirichlet(np.ones(m), size=(k, 2))
        stack[rng.random(stack.shape) < 0.25] = 0.0
        stack[stack.sum(axis=-1) == 0.0, 0] = 1.0
        stack /= stack.sum(axis=-1, keepdims=True)
        for name, spec in every_family(problem.prior).items():
            objective = ri_solver._objective_factory(problem, spec)[0]
            alone = np.array([objective(p) for p in stack])
            assert objective(stack).tobytes() == alone.tobytes(), name


def three_state_shannon(seed):
    """The benchmark's 3-state, 4-action Shannon problem at a seed."""
    rng = np.random.default_rng(seed)
    rng.uniform(7.9, 8.1)  # the benchmark draws the matching payoff first
    prior = np.array([0.45, 0.35, 0.2])
    utilities = np.array([[3.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    return ic.RIProblem(prior, utilities + rng.uniform(-0.05, 0.05, size=(4, 3)))


def benchmark_shannon_solves():
    """(problem, options) of the benchmark's Shannon solves that no
    certificate settles: the edge and inside cells, and the 3-state problem."""
    cells = [
        pytest.param(ic.matching_problem(*c.values[:2]), ic.SolveOptions(starts=1, max_iter=300), id=c.id)
        for c in matching_cells()
    ]
    three = [pytest.param(three_state_shannon(s), ic.SolveOptions(starts=1), id=f"three-state-{s}") for s in (20250901, 7)]
    return cells + three


class TestLogitFixedPoint:
    """A Shannon cost is solved by the logit fixed point, whose bound decides
    ``converged``."""

    @pytest.mark.parametrize("problem, options", benchmark_shannon_solves())
    def test_benchmark_shannon_solves_run_no_ascent(self, problem, options, ascents, calls):
        policy = ic.solve(problem, ic.PosteriorSeparableCost(problem.prior, ic.ShannonEntropy()), options)
        assert ascents == []
        assert policy.converged
        assert 0.0 <= policy.upper_bound - policy.value <= 1e-13 * max(1.0, abs(policy.value))
        # the pure policies with the uniform start, the certificate's coarse
        # grid on two states, and the reported value
        assert calls == {"costs": 3 if problem.n_states == 2 else 2, "gradient": 0}

    @pytest.mark.parametrize("problem", [pytest.param(c.values[0], id=c.id) for c in benchmark_shannon_solves()])
    def test_a_capped_fixed_point_falls_back_to_the_ascent(self, problem):
        spec = ic.PosteriorSeparableCost(problem.prior, ic.ShannonEntropy())
        options = ic.SolveOptions(starts=1, max_iter=1)
        got, ref = ic.solve(problem, spec, options), per_start_solve(problem, spec, options)
        assert got.choice.probs.tobytes() == ref.choice.probs.tobytes()
        for field in ("value", "support", "converged", "upper_bound"):
            assert getattr(got, field) == getattr(ref, field), field
        assert got.upper_bound is None

    @given(
        st.integers(2, 4),
        st.integers(1, 6),
        st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4),
        st.floats(0.0, 2e3),
        st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24),
    )
    # FOUND 48's scale: a state of prior 0.001 and payoffs spread over 2e3
    @example(2, 5, [0.001, 0.999, 1.0, 1.0], 2e3, [0.77, 0.44, 0.86, 0.7, 0.09, 0.98, 0.76, 0.79, 0.13, 0.45] + [0.0] * 14)
    @settings(max_examples=40, deadline=None)
    def test_property_bounded_above_every_pure_policy_and_as_the_ascent(self, n, m, weights, spread, payoffs):
        prior = np.array(weights[:n]) / sum(weights[:n])
        problem = ic.RIProblem(prior, spread * np.reshape(payoffs[: n * m], (m, n)))
        spec = ic.PosteriorSeparableCost(problem.prior, ic.ShannonEntropy())
        policy = ic.solve(problem, spec)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as solve() silences them
            objective = ri_solver._objective_factory(problem, spec)[0]
            pure = max(objective(ri_solver._pure_policy(n, m, a)) for a in range(m))
        assert policy.value >= pure
        if policy.upper_bound is not None:
            assert policy.converged and policy.upper_bound >= policy.value
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spec._plan, "mutual_information", False)
            ascent = ic.solve(problem, spec)
        assert abs(policy.value - ascent.value) <= 1e-9 * max(1.0, abs(policy.value))


class TestSolverSteps:
    def test_solver_prices_only_stochastic_matrices(self, monkeypatch):
        sums = []
        real = ri_solver._costs

        def spy(spec, probs):
            sums.append(probs.sum(axis=-1))
            return real(spec, probs)

        monkeypatch.setattr(ri_solver, "_costs", spy)
        problem = ic.matching_problem(8.0, 6.1)
        for name, spec in every_family(problem.prior).items():
            sums.clear()
            ic.solve(problem, spec, ic.SolveOptions(starts=4, max_iter=200))
            assert sums, name
            assert max(float(np.max(np.abs(s - 1.0))) for s in sums) <= 1e-12, name

    def test_identical_costs_solve_alike(self):
        # KLPotential(beta) is KLCost(beta), and the Rényi log of a Rényi-potential
        # cost is the Rényi cost (criterion 5), at every prior
        rng = np.random.default_rng(5)
        random = ic.RIProblem(rng.dirichlet(np.ones(3)), rng.uniform(0.0, 3.0, (4, 3)))
        for problem in (ic.matching_problem(8.0, 6.1), random):
            q, n = problem.prior, problem.n_states
            beta = rng.uniform(0.1, 0.5, (n, n)) * (1.0 - np.eye(n))
            alpha = rng.dirichlet(np.ones(n))
            pairs = [
                (ic.PosteriorSeparableCost(q, ic.KLPotential(beta)), ic.KLCost(beta)),
                (
                    ic.ConvexPSCost(q, ic.RenyiPotential(alpha), ic.RenyiLogTransform(0.5, float(alpha.max()))),
                    ic.RenyiCost(0.5, ic.InteriorParam(alpha)),
                ),
            ]
            for composed, direct in pairs:
                a, b = ic.solve(problem, composed), ic.solve(problem, direct)
                assert len(b.support) == 2  # an interior optimum, not a pure action
                assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_slope_lost_to_underflow_drops_its_entry(self):
        # the ascent drives action 2 to about 1e-323, where q_x p(x, a) underflows to
        # a zero posterior and the Rényi-potential slope is NaN at a positive entry
        prior = np.array([0.69629159, 0.10449871, 0.1992097])
        utilities = np.array([[2.33260225, 2.14822389, 2.74614036], [2.58118095, 2.75471289, 0.0797632],
                              [1.311744, 1.45483298, 0.19546259], [0.01687815, 2.49186431, 2.94990673]])
        alpha = np.array([0.25718382, 0.63436087, 0.10845531])
        problem = ic.RIProblem(prior / prior.sum(), utilities)
        alpha /= alpha.sum()
        composed = ic.ConvexPSCost(problem.prior, ic.RenyiPotential(alpha), ic.RenyiLogTransform(0.8, alpha.max()))
        direct = ic.solve(problem, ic.RenyiCost(0.8, ic.InteriorParam(alpha)))
        assert ic.solve(problem, composed).value == pytest.approx(direct.value, abs=1e-12)

    def test_unit_mirror_step_on_shannon_is_the_logit_update(self):
        # a step of size 1 on u(a, x) - dC/dp(x, a) / q_x gives p(a|x) ~ P(a) exp(u(a, x))
        rng = np.random.default_rng(4)
        for n, m in ((2, 3), (3, 4), (4, 2), (3, 5)):
            prior = rng.dirichlet(np.ones(n))
            utilities = rng.uniform(0.0, 3.0, size=(m, n))
            p = rng.dirichlet(np.ones(m), size=n)
            spec = ic.PosteriorSeparableCost(prior, ic.ShannonEntropy())
            g = utilities.T - _cost_gradient(spec, p) / prior[:, None]
            step = p * np.exp(g - g.max(axis=1, keepdims=True))
            logit = (prior @ p) * np.exp(utilities.T)
            np.testing.assert_allclose(
                step / step.sum(axis=1, keepdims=True), logit / logit.sum(axis=1, keepdims=True), rtol=0, atol=1e-14
            )


class TestClaim1Region:
    def test_band_and_corners_at_v8(self):
        rows = ic.claim1_region(1.0, 0.5, [8.0], 9)
        by_w = {round(r.w, 4): r for r in rows}
        w_lo, w_hi = rows[0].w_lo, rows[0].w_hi
        assert rows[0].pi_v == pytest.approx((6.0 + math.sqrt(68.0)) / 16.0, abs=1e-9)
        assert w_lo < w_hi
        interior = [r for r in rows if w_lo + 0.05 < r.w < w_hi - 0.05]
        assert interior, "the scan should sample inside the band"
        for r in interior:
            assert r.support_size == 3
            assert 0.0 < r.alpha < 1.0 and 0.0 < r.pi < 1.0
        below = [r for r in rows if r.w < w_lo - 0.05]
        assert below and all(r.alpha > 0.999 and r.support_size == 2 for r in below)
        above = [r for r in rows if r.w > w_hi + 0.35]
        assert above and all(r.alpha < 1e-3 and r.support_size == 1 for r in above)

    def test_band_nonempty_across_stakes(self):
        rows = ic.claim1_region(1.0, 0.5, [6.0, 10.0], 7)
        for v in (6.0, 10.0):
            vs = [r for r in rows if r.v == v]
            assert vs[0].w_lo < vs[0].w_hi


    @pytest.mark.parametrize("w_steps", [0, -1, True, 2.5])
    def test_w_steps_must_be_a_count(self, w_steps):
        # zero steps used to scan nothing and return no rows
        with pytest.raises(InfoCostError, match="w_steps must be an integer >= 1"):
            ic.claim1_region(1.0, 0.5, [8.0], w_steps)

    @pytest.mark.parametrize("v_grid", [[], (), iter([])])
    def test_empty_v_grid_raises(self, v_grid):
        # an empty grid used to scan nothing and return no rows
        with pytest.raises(InfoCostError, match="v_grid must hold at least one payoff"):
            ic.claim1_region(1.0, 0.5, v_grid, 3)


class TestSupportComparison:
    def test_maxkl_value_is_max_of_two_strategies(self):
        maxkl = ic.MaxKLCost(
            (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
        )

        def matching_only_value(v):
            def f(pi):
                if not 0.0 < pi < 1.0:
                    return v * pi if pi <= 0.5 else -math.inf
                if pi == 0.5:
                    return 0.5 * v
                return v * pi - (2 * pi - 1) * math.log(pi / (1 - pi))

            return _golden_max(f, 0.5, 1.0 - 1e-9)[1]

        options = ic.SolveOptions(starts=8, max_iter=800)
        for v in (6.0, 8.0):
            for w in (2.0, 4.0, 5.8):
                expected = max(w, matching_only_value(v))
                policy = ic.solve(ic.matching_problem(v, w), maxkl, options)
                assert policy.value == pytest.approx(expected, abs=1e-6), (v, w)

    def test_rows_skip_dominated_cells(self):
        shannon = ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy())
        rows = ic.support_comparison(
            [("shannon", shannon)], [2.0], [1.0, 3.0], ic.SolveOptions(starts=4, max_iter=150)
        )
        assert [r.w for r in rows] == [1.0]

    SHANNON = [("shannon", ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy()))]

    def test_a_generator_of_specs_serves_every_cell(self):
        # read once per cell, a generator used to give rows for the first cell only
        options = ic.SolveOptions(starts=1, max_iter=50)
        rows = ic.support_comparison(iter(self.SHANNON), [8.0], [6.0, 7.0], options)
        assert [r.w for r in rows] == [6.0, 7.0]

    @pytest.mark.parametrize(
        "specs, v, w_grid, match",
        [
            (SHANNON, 5.0, [6.0], "no payoff cell with w < v"),
            (SHANNON, 5.0, [5.0, 7.5], "no payoff cell with w < v"),
            (SHANNON, 5.0, [], "no payoff cell with w < v"),
            ([], 8.0, [6.0], "no cost specification"),
            (iter([]), 8.0, [6.0], "no cost specification"),
        ],
        ids=["w_grid0", "w_grid1", "w_grid2", "no_specs", "no_specs_generator"],
    )
    def test_no_cell_below_v_raises(self, specs, v, w_grid, match):
        # every cell skipped, or no family given, used to return no rows
        with pytest.raises(InfoCostError, match=match):
            ic.support_comparison(specs, [v], w_grid)


def test_mixing_kernel_range():
    assert _mixing_kernel(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert _mixing_kernel(0.5, 0.0) == 0.0
    assert _mixing_kernel(0.5, 1.0) == 0.0
