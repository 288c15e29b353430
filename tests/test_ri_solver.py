"""Solver, closed-form symmetric machinery, and the all-actions band."""

import math

import numpy as np
import pytest

import infocost as ic
from infocost import ri_solver
from infocost.errors import BadSolveOptions, DimensionMismatch, NoRootInBracket
from infocost.ri_solver import (
    GRAD_CLIP,
    _foc,
    _golden_max,
    _mixing_kernel,
    _objective_factory,
    _project_rows,
)


def inst(v=8.0, w=4.0, lam=1.0, t=0.5):
    return ic.SymmetricInstance(v, w, lam, t)


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
            dpi = (ic.symmetric_value(it, a, pi + h) - ic.symmetric_value(it, a, pi - h)) / (2 * h)
            assert ic.symmetric_value_dalpha(it, a, pi) == pytest.approx(da, abs=1e-6)
            assert ic.symmetric_value_dpi(it, a, pi) == pytest.approx(dpi, abs=1e-6)

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


@pytest.fixture
def ascents(monkeypatch):
    """The start of every ascent solve() runs.  Polish restarts begin on a face
    (a zero column); every main start is interior."""
    seen = []
    real = ri_solver._ascend

    def spy(objective, gradient, start, options):
        seen.append(start.copy())
        return real(objective, gradient, start, options)

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
        spec = ic.RenyiCost(1e6, ic.InteriorParam(np.array([0.5, 0.5])))
        policy = ic.solve(problem, spec, ic.SolveOptions(max_iter=300))
        safe = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(policy.choice.probs, safe)
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


def reference_projection(m):
    """Row-by-row sort-based simplex projection."""
    rows = []
    for y in m:
        u = np.sort(y)[::-1]
        css = np.cumsum(u) - 1.0
        idx = np.arange(1, y.shape[0] + 1)
        rho = idx[u - css / idx > 0][-1]
        rows.append(np.clip(y - css[rho - 1] / rho, 0.0, None))
    return np.vstack(rows)


def reference_gradient(problem, spec, p, h):
    """Per-entry finite differences, one scalar eval_cost per perturbed matrix."""
    g = (problem.prior[None, :] * problem.utilities).T.copy()
    for i in range(p.shape[0]):
        for a in range(p.shape[1]):
            x = p[i, a]
            lo, hi = max(x - h, 0.0), x + h
            work = p.copy()
            work[i, a] = hi
            c_hi = ic.eval_cost(spec, ic.FiniteExperiment(work))
            work[i, a] = lo
            c_lo = ic.eval_cost(spec, ic.FiniteExperiment(work))
            if math.isfinite(c_hi) and math.isfinite(c_lo):
                g[i, a] -= (c_hi - c_lo) / (hi - lo)
            elif math.isinf(c_hi):
                g[i, a] = -GRAD_CLIP
            else:
                g[i, a] = GRAD_CLIP
    return np.clip(g, -GRAD_CLIP, GRAD_CLIP)


class TestSolverSteps:
    def test_projection_matches_row_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            k, m = rng.integers(1, 6), rng.integers(2, 7)
            y = rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-3, 3)
            for case in (y, np.round(y, 1), -np.abs(y), np.repeat(y[:, :1], m, axis=1)):
                got = _project_rows(case)
                np.testing.assert_array_equal(got, reference_projection(case))
                assert np.all(got >= 0.0)
                np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-10)

    def test_batched_gradient_matches_per_entry_reference(self):
        rng = np.random.default_rng(11)
        matching = ic.matching_problem(8.0, 6.1)
        three = ic.RIProblem(np.array([0.45, 0.35, 0.2]), rng.uniform(0.0, 3.0, size=(4, 3)))
        beta = 1.0 - np.eye(3)
        cases = [
            (matching, ic.symmetric_renyi_cost_spec(1.0, 0.5)),
            (matching, ic.PosteriorSeparableCost(matching.prior, ic.ShannonEntropy())),
            (matching, ic.MaxKLCost((np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])))),
            (matching, ic.PosteriorSeparableCost(matching.prior, ic.Tsallis(1.5))),  # scalar loop
            (three, ic.PosteriorSeparableCost(three.prior, ic.ShannonEntropy())),
            (three, ic.KLCost(beta)),
        ]
        for problem, spec in cases:
            _, gradient = _objective_factory(problem, spec)
            for _ in range(10):
                p = rng.dirichlet(np.full(problem.n_actions, 0.5), size=problem.n_states)
                p[rng.random(p.shape) < 0.2] = 0.0
                p[rng.random(p.shape) < 0.1] = 4e-7  # the lower step clips at zero
                np.testing.assert_array_equal(gradient(p, 1e-6), reference_gradient(problem, spec, p, 1e-6))


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


def test_mixing_kernel_range():
    assert _mixing_kernel(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert _mixing_kernel(0.5, 0.0) == 0.0
    assert _mixing_kernel(0.5, 1.0) == 0.0
