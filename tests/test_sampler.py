"""Sampler unit tests: conjugate updates, MH ratios, and sweep invariants.

Closed-form updates are checked against independent numerical oracles
(multivariate-normal marginal likelihoods, adaptive quadrature, direct
grid densities), not against rearrangements of the implementation's own
formulas.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from bartsel import (
    DecisionTree,
    EnsembleSampler,
    FitConfig,
    LeafSufficientStats,
    RuleExhaustedError,
    TreePriors,
    calibrate_lambda,
    fit,
    leaf_posterior,
    p_split,
    sample_alpha,
    sample_leaf_value,
    sample_sigma2,
    sigma2_posterior,
    split_loglik_gain,
    update_split_probs,
    validate_dataset,
    vip,
)
from bartsel.sampler import FitError, _alpha_grid, birth_log_ratio, death_log_ratio
from oracles import MaskScanSampler, alpha_log_weights, routed_rows


class TestPSplit:
    def test_depth_zero_gives_gamma(self):
        assert p_split(0, 0.95, 2.0) == 0.95

    def test_depth_one_value(self):
        assert p_split(1, 0.95, 2.0) == pytest.approx(0.2375, abs=1e-15)

    def test_beta_zero_is_constant(self):
        assert all(p_split(d, 0.7, 0.0) == 0.7 for d in range(5))


class TestLeafPosterior:
    def test_pinned_example(self):
        m, v = leaf_posterior(4, 2.0, sigma2=1.0, sigma_mu2=1.0)
        assert float(m) == pytest.approx(0.4, abs=1e-15)
        assert float(v) == pytest.approx(0.2, abs=1e-15)

    def test_empty_leaf_recovers_prior(self):
        m, v = leaf_posterior(0, 0.0, sigma2=2.0, sigma_mu2=0.3)
        assert float(m) == 0.0
        assert float(v) == pytest.approx(0.3, abs=1e-15)

    def test_flat_prior_limit_is_sample_mean(self):
        m, _ = leaf_posterior(8, 12.0, sigma2=1.0, sigma_mu2=1e12)
        assert float(m) == pytest.approx(12.0 / 8.0, rel=1e-10)

    def test_matches_quadrature_posterior_moments(self):
        # the N(m, v) full conditional integrated numerically from the joint
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(1, 9))
            sum_r = float(rng.normal(scale=2.0) * n)
            sigma2 = float(rng.uniform(0.3, 2.0))
            sigma_mu2 = float(rng.uniform(0.05, 1.0))

            def joint(mu):
                return math.exp(
                    -(n * mu * mu - 2.0 * mu * sum_r) / (2.0 * sigma2)
                    - mu * mu / (2.0 * sigma_mu2)
                )

            z, _ = integrate.quad(joint, -30, 30)
            m1, _ = integrate.quad(lambda u: u * joint(u), -30, 30)
            m2, _ = integrate.quad(lambda u: u * u * joint(u), -30, 30)
            m, v = leaf_posterior(n, sum_r, sigma2, sigma_mu2)
            assert float(m) == pytest.approx(m1 / z, rel=1e-8, abs=1e-10)
            assert float(v) == pytest.approx(m2 / z - (m1 / z) ** 2, rel=1e-7, abs=1e-10)

    def test_closed_form_on_random_stats(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(0, 50))
            sum_r = float(rng.normal(scale=3.0))
            sigma2 = float(rng.uniform(0.01, 5.0))
            sigma_mu2 = float(rng.uniform(0.001, 2.0))
            m, v = leaf_posterior(n, sum_r, sigma2, sigma_mu2)
            v_want = 1.0 / (n / sigma2 + 1.0 / sigma_mu2)
            assert abs(float(v) - v_want) < 1e-10
            assert abs(float(m) - v_want * sum_r / sigma2) < 1e-10

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(2)
        stats_ = LeafSufficientStats(4, 2.0, 2.0)
        draws = np.array(
            [sample_leaf_value(stats_, 1.0, 1.0, rng) for _ in range(100_000)]
        )
        m, v = 0.4, 0.2
        se_mean = math.sqrt(v / draws.size)
        se_var = v * math.sqrt(2.0 / (draws.size - 1))
        assert abs(draws.mean() - m) < 3 * se_mean
        assert abs(draws.var(ddof=1) - v) < 3 * se_var


class TestSigma2:
    def test_pinned_shape_scale(self):
        shape, scale = sigma2_posterior(5.0, 10, 3.0, 1.0)
        assert (shape, scale) == (6.5, 4.0)
        assert scale / (shape - 1.0) == pytest.approx(4.0 / 5.5, rel=1e-12)

    def test_no_data_recovers_prior(self):
        shape, scale = sigma2_posterior(0.0, 0, 3.0, 1.5)
        assert (shape, scale) == (1.5, 2.25)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(3)
        draws = np.array([sample_sigma2(5.0, 10, 3.0, 1.0, rng) for _ in range(100_000)])
        shape, scale = 6.5, 4.0
        mean = scale / (shape - 1.0)
        sd = scale / ((shape - 1.0) * math.sqrt(shape - 2.0))
        assert abs(draws.mean() - mean) < 3 * sd / math.sqrt(draws.size)

    def test_calibrate_lambda_hits_coverage(self):
        # P(sigma^2 < var(y)) = q under Inv-Gamma(nu/2, nu*lam/2)
        rng = np.random.default_rng(4)
        y = rng.normal(size=200)
        nu, q = 3.0, 0.9
        lam = calibrate_lambda(y, nu, q)
        v = float(np.var(y, ddof=1))
        # sigma^2 ~ nu*lam / chi2(nu)
        cov = float(stats.chi2.sf(nu * lam / v, nu))
        assert cov == pytest.approx(q, abs=1e-12)

    def test_constant_response_floor(self):
        lam = calibrate_lambda(np.zeros(10))
        assert lam > 0.0


def leaf_log_marginal(stats_: LeafSufficientStats, sigma2: float, sigma_mu2: float) -> float:
    """Independent full marginal: r ~ N(0, sigma2*I + sigma_mu2*J) integrated
    over the leaf value. Uses only (n, sum_r, sum_r2) via a rank-1 identity."""
    n = stats_.n_leaf
    if n == 0:
        return 0.0
    # log|C| and quadratic form of the compound-symmetric covariance
    logdet = (n - 1) * math.log(sigma2) + math.log(sigma2 + n * sigma_mu2)
    quad = stats_.sum_r2 / sigma2 - sigma_mu2 * stats_.sum_r**2 / (
        sigma2 * (sigma2 + n * sigma_mu2)
    )
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


def leaf_log_marginal_mvn(r: np.ndarray, sigma2: float, sigma_mu2: float) -> float:
    """Same quantity straight from scipy's multivariate normal logpdf."""
    n = r.size
    cov = sigma2 * np.eye(n) + sigma_mu2 * np.ones((n, n))
    return float(stats.multivariate_normal.logpdf(r, mean=np.zeros(n), cov=cov))


class TestSplitGain:
    def test_rank_one_identity_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            r = rng.normal(scale=1.5, size=n)
            st = LeafSufficientStats(n, float(r.sum()), float((r * r).sum()))
            a = leaf_log_marginal(st, 0.8, 0.4)
            b = leaf_log_marginal_mvn(r, 0.8, 0.4)
            assert a == pytest.approx(b, abs=1e-9)

    def test_gain_matches_full_marginal_difference(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n_l = int(rng.integers(1, 30))
            n_r = int(rng.integers(1, 30))
            r_l = rng.normal(scale=2.0, size=n_l)
            r_r = rng.normal(scale=2.0, size=n_r)
            left = LeafSufficientStats(n_l, float(r_l.sum()), float((r_l**2).sum()))
            right = LeafSufficientStats(n_r, float(r_r.sum()), float((r_r**2).sum()))
            parent = left.merged(right)
            sigma2 = float(rng.uniform(0.1, 3.0))
            sigma_mu2 = float(rng.uniform(0.01, 1.0))
            want = (
                leaf_log_marginal(left, sigma2, sigma_mu2)
                + leaf_log_marginal(right, sigma2, sigma_mu2)
                - leaf_log_marginal(parent, sigma2, sigma_mu2)
            )
            got = split_loglik_gain(left, right, sigma2, sigma_mu2)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_gain_matches_two_dim_quadrature(self):
        # likelihood-ratio factor of a birth vs direct numerical integration
        rng = np.random.default_rng(7)
        sigma2, sigma_mu2 = 0.9, 0.25
        r_l = rng.normal(scale=0.8, size=3)
        r_r = rng.normal(scale=0.8, size=4)
        left = LeafSufficientStats(3, float(r_l.sum()), float((r_l**2).sum()))
        right = LeafSufficientStats(4, float(r_r.sum()), float((r_r**2).sum()))

        def lik(stats_, mu):
            return math.exp(
                -(stats_.sum_r2 - 2.0 * mu * stats_.sum_r + stats_.n_leaf * mu * mu)
                / (2.0 * sigma2)
            ) * (2.0 * math.pi * sigma2) ** (-stats_.n_leaf / 2.0)

        def prior(mu):
            return math.exp(-mu * mu / (2.0 * sigma_mu2)) / math.sqrt(
                2.0 * math.pi * sigma_mu2
            )

        num, _ = integrate.dblquad(
            lambda ml, mr: lik(left, ml) * lik(right, mr) * prior(ml) * prior(mr),
            -5, 5, -5, 5, epsabs=1e-13, epsrel=1e-10,
        )
        parent = left.merged(right)
        den, _ = integrate.quad(
            lambda mu: lik(parent, mu) * prior(mu), -5, 5, epsabs=1e-13, epsrel=1e-10
        )
        got = math.exp(split_loglik_gain(left, right, sigma2, sigma_mu2))
        assert got == pytest.approx(num / den, rel=1e-6)


def build_two_leaf_tree() -> DecisionTree:
    tree = DecisionTree.stump(0.0)
    tree.split_leaf(tree.root, 0, 0.5)
    return tree


class TestMHRatios:
    PRIORS = TreePriors(sigma_mu2=0.1)

    def test_birth_then_death_is_exact_reciprocal(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            # random tree, random leaf, random child stats
            tree = DecisionTree.stump(0.0)
            for _ in range(int(rng.integers(0, 4))):
                leaves = tree.leaf_ids()
                tree.split_leaf(int(leaves[rng.integers(len(leaves))]), 0, float(rng.normal()))
            leaves = tree.leaf_ids()
            node = int(leaves[rng.integers(len(leaves))])

            def rand_stats():
                n = int(rng.integers(1, 10))
                sum_r = float(rng.normal())
                return LeafSufficientStats(n, sum_r, sum_r**2 / n + float(rng.uniform(0, 2)))

            left = rand_stats()
            right = rand_stats()
            sigma2 = float(rng.uniform(0.2, 2.0))
            log_birth = birth_log_ratio(tree, node, left, right, sigma2, self.PRIORS)
            tree.split_leaf(node, 1, 0.0)
            log_death = death_log_ratio(tree, node, left, right, sigma2, self.PRIORS)
            assert log_death == pytest.approx(-log_birth, abs=1e-12)

    def test_depth_zero_prior_factor(self):
        # split of the root: prior factor p_split(0) * (1-p_split(1))^2 / (1-p_split(0))
        tree = DecisionTree.stump(0.0)
        left = LeafSufficientStats(1, 0.0)
        right = LeafSufficientStats(1, 0.0)
        priors = TreePriors(sigma_mu2=0.1, gamma=0.95, beta=2.0)
        log_r = birth_log_ratio(tree, tree.root, left, right, 1.0, priors)
        prior_want = math.log(0.95) + 2.0 * math.log(1.0 - 0.2375) - math.log(0.05)
        # kernel: p_death/p_birth * (1 leaf) / (1 prunable after)
        kernel_want = 0.0
        gain_want = split_loglik_gain(left, right, 1.0, 0.1)
        assert log_r == pytest.approx(prior_want + kernel_want + gain_want, abs=1e-12)

    def test_empty_child_signals_exhausted(self):
        tree = DecisionTree.stump(0.0)
        with pytest.raises(RuleExhaustedError):
            birth_log_ratio(
                tree,
                tree.root,
                LeafSufficientStats(0, 0.0),
                LeafSufficientStats(3, 1.0, 1.0),
                1.0,
                self.PRIORS,
            )

    def test_birth_on_internal_node_rejected(self):
        tree = build_two_leaf_tree()
        with pytest.raises(ValueError, match="leaf"):
            birth_log_ratio(
                tree, tree.root, LeafSufficientStats(1, 0.0), LeafSufficientStats(1, 0.0),
                1.0, self.PRIORS,
            )

    def test_death_on_non_prunable_rejected(self):
        tree = build_two_leaf_tree()
        left = tree.left[tree.root]
        tree.split_leaf(left, 0, 0.0)
        with pytest.raises(ValueError, match="prunable"):
            death_log_ratio(
                tree, tree.root, LeafSufficientStats(1, 0.0), LeafSufficientStats(1, 0.0),
                1.0, self.PRIORS,
            )

    def test_stats_cauchy_schwarz_guard(self):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            LeafSufficientStats(2, 4.0, 1.0)


class TestSplitProbs:
    def test_pinned_dirichlet_mean(self):
        rng = np.random.default_rng(9)
        draws = np.array([update_split_probs([2, 0, 1], 3.0, rng) for _ in range(100_000)])
        mean = np.array([0.5, 1.0 / 6.0, 1.0 / 3.0])
        var = mean * (1.0 - mean) / 7.0  # Dirichlet with concentration total 6
        se = np.sqrt(var / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se)

    def test_zero_counts_recover_symmetric_prior(self):
        rng = np.random.default_rng(10)
        draws = np.array([update_split_probs([0, 0, 0, 0], 2.0, rng) for _ in range(50_000)])
        se = math.sqrt(0.25 * 0.75 / 3.0 / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 0.25) < 3 * se)

    def test_rows_are_simplex(self):
        rng = np.random.default_rng(11)
        s = update_split_probs([5, 1, 0], 1.0, rng)
        assert s.min() >= 0.0
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_inputs_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            update_split_probs([-1, 0], 1.0, rng)
        with pytest.raises(ValueError):
            update_split_probs([0, 0], 0.0, rng)
        for counts, alpha in (([1.0, math.nan], 1.0), ([1, 2], math.nan), ([1, 2], math.inf)):
            with pytest.raises(ValueError):
                update_split_probs(counts, alpha, rng)


class TestSampleAlpha:
    def test_degenerate_grid_returns_rho(self):
        rng = np.random.default_rng(13)
        # one grid point: lambda = 1/2, so alpha = rho exactly
        a = sample_alpha(np.array([0.5, 0.5]), rng, grid_size=1)
        assert a == pytest.approx(2.0, rel=1e-12)
        a = sample_alpha(np.full(7, 1.0 / 7.0), rng, grid_size=1)
        assert a == pytest.approx(7.0, rel=1e-12)

    def test_matches_direct_grid_density(self):
        # sampled-alpha histogram vs an independent density evaluation on the
        # same grid. Raw 1000-cell total variation has an irreducible
        # multinomial noise floor of ~0.037 at 1e5 draws even for a perfect
        # sampler, so the < 0.02 bound is asserted on a 50-bin histogram and
        # the fine-grid TV is held to the analytic noise floor instead.
        a_par, b_par, rho, gs = 0.5, 1.0, 2.0, 1000
        s = np.array([0.5, 0.5])
        p = s.size
        lam = np.arange(1, gs + 1) / (gs + 1)
        alpha_grid = rho * lam / (1.0 - lam)
        dens = stats.beta.pdf(lam, a_par, b_par) * np.array(
            [stats.dirichlet.pdf(s, np.full(p, a / p)) for a in alpha_grid]
        )
        dens /= dens.sum()
        rng = np.random.default_rng(14)
        n_draws = 100_000
        draws = np.array(
            [sample_alpha(s, rng, a=a_par, b=b_par, rho=rho, grid_size=gs) for _ in range(n_draws)]
        )
        hist = np.zeros(gs)
        idx = np.searchsorted(alpha_grid, draws)
        np.add.at(hist, np.clip(idx, 0, gs - 1), 1.0)
        hist /= n_draws
        tv_fine = 0.5 * np.abs(hist - dens).sum()
        noise_floor = 0.5 * np.sum(np.sqrt(2 * dens * (1 - dens) / (np.pi * n_draws)))
        assert tv_fine < 1.5 * noise_floor
        coarse_hist = hist.reshape(50, 20).sum(axis=1)
        coarse_dens = dens.reshape(50, 20).sum(axis=1)
        tv_coarse = 0.5 * np.abs(coarse_hist - coarse_dens).sum()
        assert tv_coarse < 0.02

    def test_single_draw_matches_oracle_categorical(self):
        # with a cloned rng, sample_alpha must land on the same grid index an
        # independent inverse-CDF draw from the oracle weights produces
        a_par, b_par, rho, gs = 0.5, 1.0, 3.0, 500
        s = np.array([0.6, 0.3, 0.1])
        p = s.size
        lam = np.arange(1, gs + 1) / (gs + 1)
        alpha_grid = rho * lam / (1.0 - lam)
        dens = stats.beta.pdf(lam, a_par, b_par) * np.array(
            [stats.dirichlet.pdf(s, np.full(p, a / p)) for a in alpha_grid]
        )
        cdf = np.cumsum(dens / dens.sum())
        mismatches = 0
        for seed in range(300):
            got = sample_alpha(s, np.random.default_rng(seed), a=a_par, b=b_par,
                               rho=rho, grid_size=gs)
            u = np.random.default_rng(seed).random()
            idx = int(np.searchsorted(cdf, u, side="right"))
            want = float(alpha_grid[min(idx, gs - 1)])
            if got != want:
                mismatches += 1
        # tiny disagreement budget for inverse-CDF boundary rounding
        assert mismatches <= 2

    def test_weight_scale_invariance_via_seed(self):
        # the draw depends only on normalized weights: b=1 vs b rescaled
        s = np.array([0.7, 0.3])
        a1 = sample_alpha(s, np.random.default_rng(15), a=0.5, b=1.0)
        a2 = sample_alpha(s, np.random.default_rng(15), a=0.5, b=1.0)
        assert a1 == a2

    def test_underflow_keeps_current_alpha(self):
        s = np.array([np.nan, np.nan])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sample_alpha(s, np.random.default_rng(16), current=3.25)
        assert out == 3.25
        assert any("underflow" in str(w.message) for w in caught)

    def test_cached_grid_keeps_the_one_expression_bits(self):
        # the s-free terms are cached per (p, rho, a, b, grid_size); adding the
        # s term last must give the weights of the single elementwise sum
        rng = np.random.default_rng(18)
        p = 306
        for k in range(200):
            s = rng.dirichlet(np.full(p, float(rng.choice([0.05, 1.0, 20.0]))))
            a, b = float(rng.choice([0.5, 1.0, 2.0])), float(rng.choice([1.0, 3.0]))
            rho = float(rng.choice([p, 10.0]))
            alpha_grid, want = alpha_log_weights(s, a, b, rho, 1000)
            grid, s_coef, base = _alpha_grid(p, rho, a, b, 1000)
            log_s_sum = float(np.sum(np.log(np.clip(s, 1e-300, None))))
            assert np.array_equal(base + s_coef * log_s_sum, want)
            w = np.exp(want - np.max(want))
            cdf = np.cumsum(w)
            u = np.random.default_rng(k).random()
            idx = min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), 999)
            got = sample_alpha(s, np.random.default_rng(k), a=a, b=b, rho=rho)
            assert got == float(alpha_grid[idx]) and grid is _alpha_grid(p, rho, a, b, 1000)[0]

    def test_underflow_without_fallback_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FitError):
                sample_alpha(np.array([np.nan, np.nan]), np.random.default_rng(17))


def make_regression(n: int = 60, p: int = 3, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, p))
    y = 4.0 * X[:, 0] + rng.normal(0.0, 0.3, n)
    return validate_dataset(y, X)


class TestSamplerSweeps:
    def test_accepted_moves_change_topology_by_one(self):
        ds = make_regression(seed=21)
        sampler = EnsembleSampler(ds, FitConfig(n_trees=3, burn_in=0, n_draws=1, seed=2))
        for _ in range(30):
            sampler.step()
        checked = {"birth": 0, "death": 0, "change": 0}
        for sweep in range(400):
            t = sweep % 3
            tree = sampler.trees[t]
            assign_t = sampler.assign[t]
            r_t = sampler.resid + sampler.tree_pred[t]
            before = len(tree.internal_ids())
            kind = ("birth", "death", "change")[sweep % 3 if sweep % 2 else (sweep // 2) % 3]
            if kind == "birth":
                sampler._propose_birth(t, tree, assign_t, r_t)
                delta = len(tree.internal_ids()) - before
                assert delta in (0, 1)
                if delta:
                    checked["birth"] += 1
            elif kind == "death":
                sampler._propose_death(t, tree, assign_t, r_t)
                delta = len(tree.internal_ids()) - before
                assert delta in (0, -1)
                if delta:
                    checked["death"] += 1
            else:
                sampler._propose_change(t, tree, assign_t, r_t)
                assert len(tree.internal_ids()) == before
                checked["change"] += 1
            tree.validate()
            # counts row stays consistent with the tree it describes
            assert np.array_equal(sampler.counts[t], tree.split_counts(sampler.p))
            # every live node keeps exactly the rows routed through it
            want = routed_rows(tree, ds.X)
            got = sampler.node_rows[t]
            assert sorted(got) == sorted(want)
            for i, rows in want.items():
                assert np.array_equal(got[i], rows), f"rows of node {i}"
                if tree.is_leaf(i):
                    assert np.all(assign_t[rows] == i)
            sampler._redraw_leaves(t, tree, assign_t, r_t)
        assert all(v > 0 for v in checked.values())

    @pytest.mark.parametrize("case", ["bart", "dart-mi-s-path", "n2-p1", "constant-column", "heavy-ties"])
    def test_kernel_is_bit_exact_against_mask_scan_reference(self, case):
        rng = np.random.default_rng(32)
        cfg = FitConfig(n_trees=5, burn_in=60, n_draws=60, seed=10, track_mi=True)
        if case == "bart":
            ds = make_regression(n=80, p=4, seed=33)
        elif case == "dart-mi-s-path":
            ds = make_regression(n=80, p=6, seed=34)
            cfg = FitConfig(n_trees=5, burn_in=60, n_draws=60, seed=11, prior_kind="dart",
                            track_mi=True, track_s_path=True)
        elif case == "n2-p1":
            ds = validate_dataset([0.3, 1.7], [[0.0], [1.0]])
        elif case == "constant-column":
            X = rng.uniform(size=(50, 3))
            X[:, 1] = 4.0
            ds = validate_dataset(2.0 * X[:, 0] + rng.normal(0.0, 0.2, 50), X)
            cfg = FitConfig(n_trees=5, burn_in=60, n_draws=60, seed=12, prior_kind="dart")
        else:
            X = rng.integers(0, 3, size=(60, 3)).astype(float)
            ds = validate_dataset(X[:, 0] + rng.normal(0.0, 0.3, 60), X)
        ours, ref = EnsembleSampler(ds, cfg), MaskScanSampler(ds, cfg)
        trace = ours.run()
        assert trace == ref.run()
        assert np.array_equal(ours.resid, ref.resid)
        assert [t.value for t in ours.trees] == [t.value for t in ref.trees]
        assert trace.counts.sum() > 0  # the chain did split

    def test_counts_match_internal_nodes_every_draw(self):
        ds = make_regression(seed=22)
        trace = fit(ds, FitConfig(n_trees=5, burn_in=50, n_draws=40, seed=3))
        # sum over features = total internal nodes; leaves = internals + T
        internals = trace.counts.sum(axis=1)
        assert np.array_equal(trace.leaf_counts.sum(axis=1), internals + 5)

    def test_determinism_bitwise(self):
        ds = make_regression(seed=23)
        cfg = FitConfig(n_trees=4, burn_in=60, n_draws=50, prior_kind="dart", seed=9,
                        track_mi=True, track_s_path=True)
        assert fit(ds, cfg) == fit(ds, cfg)

    def test_seed_changes_draws(self):
        ds = make_regression(seed=24)
        a = fit(ds, FitConfig(n_trees=4, burn_in=40, n_draws=30, seed=0))
        b = fit(ds, FitConfig(n_trees=4, burn_in=40, n_draws=30, seed=1))
        assert not np.array_equal(a.sigma2_path, b.sigma2_path)

    def test_forced_one_hot_split_probs(self):
        ds = make_regression(n=50, p=4, seed=25)
        sampler = EnsembleSampler(ds, FitConfig(n_trees=3, burn_in=0, n_draws=1, seed=4))
        sampler.set_split_probs([0.0, 0.0, 1.0, 0.0])
        for _ in range(200):
            for t in range(3):
                sampler._update_tree(t)
        used = np.flatnonzero(sampler.counts.sum(axis=0))
        assert used.tolist() in ([], [2])
        assert sampler.counts.sum() > 0  # something was accepted

    def test_dart_s_path_rows_are_simplex(self):
        ds = make_regression(seed=26)
        trace = fit(ds, FitConfig(n_trees=4, burn_in=30, n_draws=25, prior_kind="dart",
                                  track_s_path=True, seed=5))
        assert trace.s_path is not None
        assert np.all(trace.s_path >= 0.0)
        np.testing.assert_allclose(trace.s_path.sum(axis=1), 1.0, atol=1e-12)
        assert trace.alpha_path is not None and np.all(trace.alpha_path > 0.0)

    def test_bart_trace_has_no_sparsity_paths(self):
        ds = make_regression(seed=27)
        trace = fit(ds, FitConfig(n_trees=3, burn_in=20, n_draws=10, seed=6))
        assert trace.alpha_path is None and trace.s_path is None

    def test_constant_response_stays_null(self):
        means, sds, modal_leaves = [], [], []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            ds = validate_dataset(np.full(30, 2.5), rng.uniform(size=(30, 3)))
            trace = fit(ds, FitConfig(n_trees=5, burn_in=100, n_draws=100, seed=seed))
            means.append(trace.insample_mean_path.mean())
            sds.append(trace.insample_mean_path.std(ddof=1))
            vals, cnts = np.unique(trace.leaf_counts, return_counts=True)
            modal_leaves.append(int(vals[np.argmax(cnts)]))
        for m, s in zip(means, sds):
            assert abs(m - 2.5) <= max(2.0 * s, 1e-9)
        assert all(ml == 1 for ml in modal_leaves)

    def test_pure_noise_vip_symmetry(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(size=(100, 5))
        y = rng.normal(size=100)
        ds = validate_dataset(y, X)
        vips = []
        for seed in range(10):
            trace = fit(ds, FitConfig(n_trees=10, burn_in=200, n_draws=200, seed=seed))
            vips.append(vip(trace).values)
        mean_vip = np.mean(vips, axis=0)
        assert mean_vip.max() / mean_vip.min() < 3.0

    def test_mi_log_shapes(self):
        ds = make_regression(seed=28)
        trace = fit(ds, FitConfig(n_trees=4, burn_in=30, n_draws=20, track_mi=True, seed=7))
        assert trace.mi_features is not None and trace.mi_probs is not None
        assert len(trace.mi_features) == trace.n_kept
        for f, pr in zip(trace.mi_features, trace.mi_probs):
            assert f.shape == pr.shape
            assert np.all((0 <= f) & (f < ds.p))
            assert np.all((0.0 <= pr) & (pr <= 1.0))
            # node tags cover exactly the internal nodes of that draw
        tag_totals = np.array([f.size for f in trace.mi_features])
        assert np.array_equal(tag_totals, trace.counts.sum(axis=1))

    def test_insample_mean_tracks_response_scale(self):
        ds = make_regression(seed=29)
        trace = fit(ds, FitConfig(n_trees=10, burn_in=150, n_draws=100, seed=8))
        assert abs(trace.insample_mean_path.mean() - ds.y.mean()) < 0.25
