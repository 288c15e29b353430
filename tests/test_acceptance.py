"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

import infocost as ic
from infocost.axioms import Axiom
from infocost.ri_solver import _golden_max

SYM75 = ic.new_experiment([[0.75, 0.25], [0.25, 0.75]])


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _bounded_pairs(n_pairs: int, seed: int):
    """Seeded bounded experiment pairs with 2-4 states and 2-6 signals."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        n = int(rng.integers(2, 5))
        s1, s2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        mu = ic.random_experiment(n, s1, seed=int(rng.integers(0, 2**31)), min_prob=0.02)
        nu = ic.random_experiment(n, s2, seed=int(rng.integers(0, 2**31)), min_prob=0.02)
        pairs.append((mu, nu))
    return pairs


GRIDS = {n: ic.default_param_grid(n, 50, seed=1000 + n) for n in (2, 3, 4)}


def test_criterion_1_divergence_identities():
    worst = 0.0
    for mu, nu in _bounded_pairs(200, seed=11):
        both = ic.product(mu, nu)
        for param in GRIDS[mu.n_states]:
            total = ic.unified_divergence(param, both)
            parts = ic.unified_divergence(param, mu) + ic.unified_divergence(param, nu)
            worst = max(worst, abs(total - parts))
    flat_worst = 0.0
    for n in (2, 3, 4):
        flat = ic.uninformative(n, 3)
        for param in GRIDS[n]:
            flat_worst = max(flat_worst, abs(ic.unified_divergence(param, flat)))
    _report(
        "1 divergence identities",
        worst <= 1e-9 and flat_worst <= 1e-12,
        f"additivity worst {worst:.2e}, uninformative worst {flat_worst:.2e}",
    )


def test_criterion_2_kl_limit():
    gamma = 1.0 - 1e-5
    worst = 0.0
    for mu, nu in _bounded_pairs(200, seed=11):
        for exp in (mu, nu):
            n = exp.n_states
            for param in GRIDS[n]:
                if not isinstance(param, ic.WeightedKLParam):
                    continue
                i, beta = param.pivot, param.beta
                e_i = np.zeros(n)
                e_i[i] = 1.0
                alpha = e_i + (gamma - 1.0) * (beta - e_i)
                near = ic.extended_divergence(ic.InteriorParam(alpha), exp)
                exact = ic.unified_divergence(param, exp)
                worst = max(worst, abs(near - exact))
    _report("2 KL limit", worst <= 1e-3, f"worst deviation {worst:.2e}")


def test_criterion_3_blackwell_coherence():
    rng = np.random.default_rng(23)
    cert_worst, mono_worst = 0.0, -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 4))
        s = int(rng.integers(3, 6))
        mu = ic.random_experiment(n, s, seed=int(rng.integers(0, 2**31)), min_prob=0.02)
        kernel = ic.random_kernel(s, int(rng.integers(2, 5)), seed=int(rng.integers(0, 2**31)))
        nu = ic.garble(mu, kernel)
        res = ic.dominates(mu, nu)
        assert res.dominates
        rebuilt = ic.garble(mu, res.certificate)
        cert_worst = max(cert_worst, float(np.max(np.abs(rebuilt.probs - nu.probs))))
        for param in GRIDS[n]:
            mono_worst = max(
                mono_worst,
                ic.unified_divergence(param, nu) - ic.unified_divergence(param, mu),
            )
    _report(
        "3 Blackwell coherence",
        cert_worst <= 1e-7 and mono_worst <= 1e-8,
        f"certificate worst {cert_worst:.2e}, monotonicity worst {mono_worst:.2e}",
    )


def _axiom(spec, axiom, seed):
    return ic.check_axiom(spec, axiom, profile=ic.AxiomProfile(n_samples=200, seed=seed, tol=1e-9))


def test_criterion_4_axiom_matrix():
    kl_spec = ic.KLCost(np.array([[0.0, 1.0], [0.7, 0.0]]))
    renyi_spec = ic.RenyiCost(1.0, ic.InteriorParam(np.array([0.5, 0.5])))
    maxkl_spec = ic.MaxKLCost(
        (np.array([[0.0, 1.0], [0.1, 0.0]]), np.array([[0.0, 0.1], [1.0, 0.0]]))
    )
    maxrenyi_spec = ic.MaxRenyiCost(
        (
            ic.DivergenceMeasure(
                (
                    (0.6, ic.InteriorParam(np.array([0.5, 0.5]))),
                    (0.4, ic.WeightedKLParam(0, np.array([0.0, 1.0]))),
                )
            ),
            ic.DivergenceMeasure(((1.0, ic.WeightedKLParam(1, np.array([1.0, 0.0]))),)),
        )
    )
    checks = []

    checks.append(_axiom(kl_spec, Axiom.MIXTURE_LINEARITY, 101).passed)
    checks.append(_axiom(kl_spec, Axiom.ADDITIVITY, 102).passed)

    checks.append(_axiom(renyi_spec, Axiom.ADDITIVITY, 103).passed)
    checks.append(_axiom(renyi_spec, Axiom.INDEPENDENCE, 104).passed)
    rep = _axiom(renyi_spec, Axiom.MIXTURE_LINEARITY, 105)
    checks.append(not rep.passed and rep.worst_violation >= 1e-6)
    checks.append(
        ic.reevaluate_witness(renyi_spec, Axiom.MIXTURE_LINEARITY, rep.witness)
        >= 0.5 * rep.worst_violation
    )

    checks.append(_axiom(maxkl_spec, Axiom.DILUTION_LINEARITY, 106).passed)
    checks.append(_axiom(maxkl_spec, Axiom.SUB_ADDITIVITY, 107).passed)
    rep = _axiom(maxkl_spec, Axiom.ADDITIVITY, 108)
    checks.append(not rep.passed and rep.worst_violation >= 1e-6)
    checks.append(
        ic.reevaluate_witness(maxkl_spec, Axiom.ADDITIVITY, rep.witness)
        >= 0.5 * rep.worst_violation
    )

    checks.append(_axiom(maxrenyi_spec, Axiom.MIXTURE_CONVEXITY, 109).passed)
    checks.append(_axiom(maxrenyi_spec, Axiom.SUB_ADDITIVITY, 110).passed)
    checks.append(_axiom(maxrenyi_spec, Axiom.IDENTITY_ADDITIVITY, 111).passed)

    _report("4 axiom matrix", all(checks), f"{sum(checks)}/{len(checks)} checks")


def test_criterion_5_renyi_transform_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    priors = ([0.5, 0.5], [0.2, 0.8], [0.7, 0.3])
    for _ in range(50):
        mu = ic.random_experiment(2, int(rng.integers(2, 5)), seed=int(rng.integers(0, 2**31)), min_prob=0.02)
        for q in priors:
            direct, composed = ic.renyi_cost_as_transform_check(1.3, np.array([0.4, 0.6]), q, mu)
            worst = max(worst, abs(direct - composed))
    _report("5 divergence-as-transform identity", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_criterion_6_tsallis_failure_shannon_pass():
    xform = ic.tsallis_xform_lhs(2.0, 4.0)
    tsallis_report = ic.ups_subadditivity_check(ic.Tsallis(2.0))
    shannon_report = ic.ups_subadditivity_check(ic.ShannonEntropy())

    ps_tsallis = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.Tsallis(2.0))
    rep = _axiom(ps_tsallis, Axiom.SUB_ADDITIVITY, 201)
    witness_ok = (
        not rep.passed
        and rep.witness["raw_residual"] >= 1e-6
        and ic.reevaluate_witness(ps_tsallis, Axiom.SUB_ADDITIVITY, rep.witness)
        >= 0.5 * rep.worst_violation
    )

    ps_shannon = ic.PosteriorSeparableCost(np.array([0.1, 0.9]), ic.ShannonEntropy())
    shannon_ok = _axiom(ps_shannon, Axiom.SUB_ADDITIVITY, 202).passed

    ok = (
        abs(xform - 4.0) <= 1e-9
        and not tsallis_report.subadditive
        and shannon_report.subadditive
        and witness_ok
        and shannon_ok
    )
    _report(
        "6 Tsallis failure / Shannon pass",
        ok,
        f"x-form at 4 = {xform}, witness violation {rep.witness['raw_residual']:.2e}",
    )


def test_criterion_7_claim1_reproduction():
    root = ic.foc_root(ic.SymmetricInstance(8.0, 4.0, 1.0, 0.5))
    root_ok = abs(root - 0.890388) <= 1e-6

    rows = ic.claim1_region(1.0, 0.5, [6.0, 8.0, 10.0], 12)
    margin = 0.02
    band_rows = [r for r in rows if r.w_lo + margin < r.w < r.w_hi - margin]
    band_ok = bool(band_rows) and all(
        r.support_size == 3 and 0.01 < r.alpha < 0.99 and 0.01 < r.pi < 0.99
        for r in band_rows
    )

    cells = sorted({(r.v, r.w) for r in rows})

    shannon = ic.PosteriorSeparableCost(np.array([0.5, 0.5]), ic.ShannonEntropy())
    opts = ic.SolveOptions(starts=8, max_iter=600)
    small = 0
    for v, w in cells:
        policy = ic.solve(ic.matching_problem(v, w), shannon, opts)
        if len(policy.support) <= 2:
            small += 1
    shannon_ok = small >= 0.95 * len(cells)

    maxkl = ic.MaxKLCost((np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])))

    def matching_only_value(v):
        def f(pi):
            if pi <= 0.5:
                return 0.5 * v
            if pi >= 1.0:
                return -math.inf
            return v * pi - (2.0 * pi - 1.0) * math.log(pi / (1.0 - pi))

        return _golden_max(f, 0.5, 1.0 - 1e-9)[1]

    opts_kl = ic.SolveOptions(starts=8, max_iter=800)
    maxkl_worst = 0.0
    for v, w in cells:
        expected = max(w, matching_only_value(v))
        policy = ic.solve(ic.matching_problem(v, w), maxkl, opts_kl)
        maxkl_worst = max(maxkl_worst, abs(policy.value - expected))
    maxkl_ok = maxkl_worst <= 1e-6

    _report(
        "7 claim-1 reproduction",
        root_ok and band_ok and shannon_ok and maxkl_ok,
        f"root {root:.6f}, band rows {len(band_rows)}, support<=2 in {small}/{len(cells)}, "
        f"max-KL worst gap {maxkl_worst:.2e}",
    )


def test_criterion_8_chernoff_and_privacy():
    value = ic.chernoff_information(SYM75)
    point_ok = abs(value - 0.143841) <= 1e-6

    ts = np.linspace(0.01, 0.99, 9801)
    grid_max = max((1.0 - t) * ic.renyi(t, SYM75.probs[0], SYM75.probs[1]) for t in ts)
    grid_ok = abs(value - grid_max) <= 1e-8

    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(50):
        mu = ic.random_experiment(2, int(rng.integers(2, 5)), seed=int(rng.integers(0, 2**31)), min_prob=0.02)
        a = float(rng.uniform(0.05, 0.95))
        worst = max(worst, abs(ic.privacy_loss(ic.dilute(mu, a)) - ic.privacy_loss(mu)))
    privacy_ok = worst <= 1e-12

    _report(
        "8 Chernoff / privacy",
        point_ok and grid_ok and privacy_ok,
        f"chernoff {value:.6f}, grid gap {abs(value - grid_max):.2e}, dilution residual {worst:.2e}",
    )


def test_criterion_9_sandwich():
    rng = np.random.default_rng(53)
    grid = ic.default_param_grid(2, 50, seed=909)
    order_ok, shrink_ok = True, True
    for _ in range(20):
        beliefs = rng.uniform(0.3, 0.7, size=4)
        weights = rng.dirichlet(np.ones(4))
        prior1 = float(beliefs @ weights)
        pd = ic.posterior_distribution(
            np.array([1.0 - prior1, prior1]),
            np.column_stack([1.0 - beliefs, beliefs]),
            weights,
        )
        mu = ic.experiment_from_posteriors(pd)
        rows = ic.sandwich_report(mu, pd.prior, [4, 64], grid)
        for row in rows:
            if not (row.d_under <= row.d_mu + 1e-9 and row.d_mu <= row.d_over + 1e-9):
                order_ok = False
        gap4 = max(r.gap for r in rows if r.k == 4)
        gap64 = max(r.gap for r in rows if r.k == 64)
        if not gap64 <= 0.25 * gap4:
            shrink_ok = False
    _report("9 sandwich", order_ok and shrink_ok, "ordering and 4x shrink at k=64")
