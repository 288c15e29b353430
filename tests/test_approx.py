"""Grid coarsening of belief distributions and the divergence sandwich."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import infocost as ic
from infocost import approx
from infocost.errors import InfoCostError, KTooSmall, NotBinary, StateMismatch, UnboundedExperiment

SYM75 = ic.new_experiment([[0.75, 0.25], [0.25, 0.75]])


def beliefs_of(pd):
    return sorted(zip(np.round(pd.posteriors[:, 1], 12), np.round(pd.weights, 12)))


def from_beliefs(prior1, beliefs, weights):
    post = np.column_stack([1.0 - np.asarray(beliefs), np.asarray(beliefs)])
    return ic.posterior_distribution(
        np.array([1.0 - prior1, prior1]), post, np.asarray(weights)
    )


def coarsen_reference(pd, k):
    """The per-atom dict loop that coarsen replaced: the contraction's beliefs and
    weights (cells in first-appearance order), then the spread's (endpoints in
    increasing order), weights renormalized."""
    under_map, over_map = {}, {}
    for x, w in zip(pd.posteriors[:, 1], pd.weights):
        if w == 0.0:
            continue
        j = min(int(np.floor(float(x) * k)), k - 1)
        mass, first_moment = under_map.get(j, (0.0, 0.0))
        under_map[j] = (mass + w, first_moment + w * float(x))
        lo, hi = j / k, (j + 1) / k
        a = (hi - float(x)) * k
        for point, share in ((lo, a), (hi, 1.0 - a)):
            if share > 0.0:
                over_map[point] = over_map.get(point, 0.0) + w * share
    under_w = np.array([m for m, _ in under_map.values()])
    over_points = sorted(over_map)
    over_w = np.array([over_map[p] for p in over_points])
    return (
        np.array([m1 / m for m, m1 in under_map.values()]),
        under_w / under_w.sum(),
        np.array(over_points),
        over_w / over_w.sum(),
    )


@st.composite
def grid_atoms(draw):
    """(k, beliefs, weights): some beliefs on the k-grid, some weights zero."""
    k = draw(st.integers(2, 64))
    n = draw(st.integers(1, 12))
    belief = st.one_of(st.integers(0, k).map(lambda j: j / k), st.floats(0.0, 1.0))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    beliefs = draw(st.lists(belief, min_size=n, max_size=n))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return k, np.array(beliefs), np.array(weights)


class TestCoarsen:
    @settings(max_examples=200, deadline=None)
    @given(grid_atoms())
    def test_property_equals_the_dict_loop_exactly(self, case):
        k, beliefs, weights = case
        assume(weights.sum() > 0.0)
        weights = weights / weights.sum()
        prior1 = float(beliefs @ weights)
        assume(0.0 < prior1 < 1.0)
        pd = from_beliefs(prior1, beliefs, weights)
        pair = ic.coarsen(pd, k)
        got = (pair.under.posteriors[:, 1], pair.under.weights, pair.over.posteriors[:, 1], pair.over.weights)
        for a, b in zip(got, coarsen_reference(pd, k)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_huge_k_needs_no_k_sized_array(self):
        pd = from_beliefs(0.4, [0.3, 0.4, 0.6], [0.5, 0.25, 0.25])
        pair = ic.coarsen(pd, 10**15)
        got = (pair.under.posteriors[:, 1], pair.under.weights, pair.over.posteriors[:, 1], pair.over.weights)
        for a, b in zip(got, coarsen_reference(pd, 10**15)):
            assert a.tobytes() == b.tobytes()

    def test_point_mass_fixed(self):
        pd = from_beliefs(0.5, [0.5], [1.0])
        pair = ic.coarsen(pd, 4)
        assert beliefs_of(pair.under) == [(0.5, 1.0)]
        assert beliefs_of(pair.over) == [(0.5, 1.0)]

    def test_grid_aligned_atoms_fixed(self):
        pd = ic.posteriors(SYM75, [0.5, 0.5])
        pair = ic.coarsen(pd, 4)
        assert beliefs_of(pair.under) == beliefs_of(pd)
        assert beliefs_of(pair.over) == beliefs_of(pd)

    def test_barycentric_split(self):
        # atom at 0.3 with k=10 sits exactly on a cell edge and stays put
        pd = from_beliefs(0.3, [0.3], [1.0])
        assert beliefs_of(ic.coarsen(pd, 10).over) == [(0.3, 1.0)]
        # atom at 0.33 splits onto {0.3, 0.4} with weights 0.7 / 0.3
        pd = from_beliefs(0.33, [0.33], [1.0])
        over = beliefs_of(ic.coarsen(pd, 10).over)
        assert over == [(0.3, 0.7), (0.4, 0.3)]

    def test_under_pools_cells(self):
        # barycenter of the atoms: 0.5*0.3 + 0.25*0.4 + 0.25*0.6 = 0.4
        pd = from_beliefs(0.4, [0.3, 0.4, 0.6], [0.5, 0.25, 0.25])
        pair = ic.coarsen(pd, 2)
        # cells [0, 0.5) and [0.5, 1]: pooled means 0.333... and 0.6
        under = beliefs_of(pair.under)
        assert under[0][0] == pytest.approx((0.5 * 0.3 + 0.25 * 0.4) / 0.75, abs=1e-12)
        assert under[0][1] == pytest.approx(0.75, abs=1e-12)
        assert under[1] == (0.6, 0.25)

    def test_mean_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            beliefs = rng.uniform(0.05, 0.95, size=5)
            weights = rng.dirichlet(np.ones(5))
            prior1 = float(beliefs @ weights)
            pd = from_beliefs(prior1, beliefs, weights)
            for k in (2, 5, 16):
                pair = ic.coarsen(pd, k)
                assert pair.under.barycenter()[1] == pytest.approx(prior1, abs=1e-12)
                assert pair.over.barycenter()[1] == pytest.approx(prior1, abs=1e-12)

    def test_validation(self):
        pd = ic.posteriors(SYM75, [0.5, 0.5])
        with pytest.raises(KTooSmall):
            ic.coarsen(pd, 1)
        three = ic.posteriors(ic.uninformative(3, 2), [0.3, 0.3, 0.4])
        with pytest.raises(NotBinary):
            ic.coarsen(three, 4)


class TestSandwichReport:
    def test_uninformative_all_zero(self):
        mu = ic.new_experiment([[0.5, 0.5], [0.5, 0.5]])
        rows = ic.sandwich_report(mu, [0.5, 0.5], [4], ic.default_param_grid(2, 6, seed=1))
        for row in rows:
            assert row.d_under == pytest.approx(0.0, abs=1e-12)
            assert row.d_mu == pytest.approx(0.0, abs=1e-12)
            assert row.d_over == pytest.approx(0.0, abs=1e-12)

    def test_ordering_and_shrinkage(self):
        grid = ic.default_param_grid(2, 10, seed=2)
        rows = ic.sandwich_report(SYM75, [0.5, 0.5], [4, 16, 64], grid)
        for row in rows:
            assert row.d_under <= row.d_mu + 1e-9
            assert row.d_mu <= row.d_over + 1e-9
        gap = {k: max(r.gap for r in rows if r.k == k) for k in (4, 16, 64)}
        assert gap[64] <= gap[4] + 1e-9
        assert gap[16] <= gap[4] + 1e-9

    def test_blackwell_sandwich(self):
        mu = ic.new_experiment([[0.7, 0.3], [0.4, 0.6]])
        pd = ic.posteriors(mu, [0.5, 0.5])
        pair = ic.coarsen(pd, 5)
        under_exp = ic.experiment_from_posteriors(pair.under)
        over_exp = ic.experiment_from_posteriors(pair.over)
        assert ic.dominates(over_exp, mu).dominates
        assert ic.dominates(mu, under_exp).dominates

    def test_unbounded_rejected(self):
        mu = ic.new_experiment([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(UnboundedExperiment):
            ic.sandwich_report(mu, [0.5, 0.5], [4], ic.default_param_grid(2, 4, seed=0))

    @given(st.integers(0, 10_000), st.integers(2, 64), st.floats(0.1, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_sandwich_properties(self, seed, n_signals, prior1):
        # k = 2 puts spread atoms at beliefs 0 and 1, so KL and sup values of
        # the spread are infinite; the nested grids make every gap monotone
        mu = ic.random_experiment(2, n_signals, seed=seed, min_prob=0.1 / n_signals)
        grid = ic.default_param_grid(2, 12)
        ks = (2, 4, 16, 64)
        rows = ic.sandwich_report(mu, [1.0 - prior1, prior1], ks, grid)
        assert len(rows) == len(ks) * len(grid)
        for row in rows:
            assert row.d_under <= row.d_mu + 1e-9
            assert row.d_mu <= row.d_over + 1e-9
            assert row.d_mu == ic.unified_divergence(row.param, mu)
        for j in range(len(grid)):
            gaps = [rows[i * len(grid) + j].gap for i in range(len(ks))]
            for coarse, fine in zip(gaps, gaps[1:]):
                assert fine <= coarse + 1e-9

    def test_generator_grid_gives_the_list_rows(self):
        mu = ic.random_experiment(2, 6, seed=2, min_prob=0.05)
        grid = ic.default_param_grid(2, 4, seed=3)
        rows = ic.sandwich_report(mu, [0.4, 0.6], [4, 16], grid)
        assert len(rows) == 8
        assert ic.sandwich_report(mu, [0.4, 0.6], [4, 16], (p for p in grid)) == rows

    def test_state_mismatch_raises_before_any_coarsening(self, monkeypatch):
        calls = []
        monkeypatch.setattr(approx, "coarsen", lambda *args: calls.append("coarsen"))
        monkeypatch.setattr(approx, "_divergences", lambda *args: calls.append("kernel"))
        grid = ic.default_param_grid(2, 3) + [ic.InteriorParam(np.full(3, 1.0 / 3.0))]
        with pytest.raises(StateMismatch):
            ic.sandwich_report(SYM75, [0.5, 0.5], [4], grid)
        assert calls == []

    @pytest.mark.parametrize("k_list, n_params", [([], 4), ([4], 0)], ids=["no_k", "no_parameter"])
    def test_no_k_or_no_parameter_raises(self, k_list, n_params):
        # either used to return no rows
        grid = ic.default_param_grid(2, 4, seed=0)[:n_params]
        with pytest.raises(InfoCostError, match="at least one k and one parameter"):
            ic.sandwich_report(SYM75, [0.5, 0.5], k_list, grid)

    def test_companions_priced_as_unified_divergence(self):
        # k = 2 puts spread atoms at beliefs 0 and 1, where KL and sup are +inf
        mu = ic.random_experiment(2, 12, seed=5, min_prob=0.01)
        grid = ic.default_param_grid(2, 12, seed=4)
        ks = (2, 4, 16)
        rows = ic.sandwich_report(mu, [0.3, 0.7], ks, grid)
        assert [(r.k, r.param) for r in rows] == [(k, p) for k in ks for p in grid]
        pi = ic.posteriors(mu, [0.3, 0.7])
        for i, k in enumerate(ks):
            pair = ic.coarsen(pi, k)
            under, over = ic.experiment_from_posteriors(pair.under), ic.experiment_from_posteriors(pair.over)
            for row in rows[i * len(grid) : (i + 1) * len(grid)]:
                assert all(type(d) is float for d in (row.d_under, row.d_mu, row.d_over))
                assert row.d_under == ic.unified_divergence(row.param, under)
                assert row.d_mu == ic.unified_divergence(row.param, mu)
                assert row.d_over == ic.unified_divergence(row.param, over)
        assert any(math.isinf(r.d_over) for r in rows)

    def test_one_kernel_call_per_report(self, monkeypatch):
        # the experiment and each k's contraction and spread, side by side
        calls = []
        kernel = approx._divergences

        def spy(plan, probs, bounds=None):
            calls.append((probs.shape, bounds))
            return kernel(plan, probs, bounds)

        monkeypatch.setattr(approx, "_divergences", spy)
        ks = [4, 16, 64, 256]
        mu = ic.random_experiment(2, 32, seed=6, min_prob=0.003)
        rows = ic.sandwich_report(mu, [0.5, 0.5], ks, ic.default_param_grid(2, 50))
        assert len(rows) == 50 * len(ks)
        [(shape, bounds)] = calls
        assert len(bounds) == 2 + 2 * len(ks) and bounds[1] == 32
        assert shape == (1, 2, bounds[-1])
