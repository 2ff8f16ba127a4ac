"""Acceptance checks for the whole package.

Each test prints one summary line (visible under ``pytest -s``) and asserts
the same condition, so the suite doubles as a human-readable report:

* criteria 1-6 re-verify the numerical core against independent closed
  forms, quadrature-free oracles, and hand formulas at larger scale than the
  unit tests;
* criterion 7 checks run-to-run byte determinism of the CLI;
* criteria 8-10 are end-to-end recovery runs on synthetic product data
  (shared module-scoped grids, a few minutes of sampling);
* criterion 11 checks the replicate-prefix protocol of the grid runner;
* criterion 12 checks family-wise control of the permutation-max rule on
  pure noise.

The Monte Carlo and recovery checks are statistical but fully seeded, so
results are reproducible run to run.
"""

import dataclasses
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import mi_sum_of, random_mi_log, random_trace
from oracles import (
    LeafSufficientStats,
    gse_cstar_bisection,
    gse_select_oracle,
    gmax_select_oracle,
    labels_equal_up_to_swap,
    local_select_oracle,
    naive_cut_two,
    naive_upgma,
    sample_leaf_value,
)
from test_summaries import mi_by_hand, mpvip_by_hand, vc_by_hand, vip_by_hand

from bartsel.benchmark import GridPoint, compute_metrics, run_grid
from bartsel.cli import main
from bartsel.data import FitConfig, validate_dataset
from bartsel.methods import RunConfig, run_method
from bartsel.sampler import (
    leaf_posterior,
    sample_sigma2,
    sigma2_posterior,
    update_split_probs,
)
from bartsel.selection import (
    cut_two,
    hac_average_linkage,
    threshold_gmax,
    threshold_gse,
    threshold_local,
)
from bartsel.summaries import metropolis_importance, mpvip, rank_descending, vc, vip


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\ncriterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- 1: conjugate updates -----------------------------------------------------------


def test_criterion_1_conjugate_update_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    max_err = 0.0
    for _ in range(100):
        n_leaf = int(rng.integers(1, 40))
        sum_r = float(rng.normal(0, 3))
        sigma2 = float(rng.uniform(0.1, 4))
        sigma_mu2 = float(rng.uniform(0.01, 1))
        m, v = leaf_posterior(n_leaf, sum_r, sigma2, sigma_mu2)
        v_true = 1.0 / (n_leaf / sigma2 + 1.0 / sigma_mu2)
        m_true = v_true * sum_r / sigma2
        max_err = max(max_err, abs(m - m_true), abs(v - v_true))

        n = int(rng.integers(2, 60))
        sse = float(rng.uniform(0, 20))
        nu = float(rng.uniform(1, 6))
        lam = float(rng.uniform(0.01, 2))
        shape, scale = sigma2_posterior(sse, n, nu, lam)
        max_err = max(
            max_err, abs(shape - (n + nu) / 2.0), abs(scale - (sse + nu * lam) / 2.0)
        )

    # Monte Carlo moments over 1e5 draws
    n_draws = 100_000
    stats = LeafSufficientStats(12, 3.0, 3.0**2 / 12 + 5.0)
    m, v = leaf_posterior(stats.n_leaf, stats.sum_r, 1.5, 0.2)
    draws = np.array(
        [sample_leaf_value(stats, 1.5, 0.2, rng) for _ in range(n_draws)]
    )
    mean_se = np.sqrt(v / n_draws)
    var_se = v * np.sqrt(2.0 / (n_draws - 1))
    mc_ok = abs(draws.mean() - m) < 3 * mean_se and abs(draws.var(ddof=1) - v) < 3 * var_se

    shape, scale = sigma2_posterior(14.0, 30, 3.0, 0.5)
    s2 = np.array([sample_sigma2(14.0, 30, 3.0, 0.5, rng) for _ in range(n_draws)])
    ig_mean = scale / (shape - 1)
    ig_var = scale**2 / ((shape - 1) ** 2 * (shape - 2))
    ig_mean_se = np.sqrt(ig_var / n_draws)
    mc_ok = mc_ok and abs(s2.mean() - ig_mean) < 3 * ig_mean_se

    elapsed = time.perf_counter() - t0
    ok = max_err < 1e-10 and mc_ok and elapsed < 10
    assert report(
        1,
        ok,
        f"conjugate updates: closed-form max err {max_err:.2e} (< 1e-10), "
        f"MC moments within 3 SE, {elapsed:.1f}s < 10s",
    )


# -- 2: Dirichlet update --------------------------------------------------------------


def test_criterion_2_dirichlet_update_moments():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n_draws = 100_000
    worst = 0.0
    for _ in range(10):
        p = int(rng.integers(2, 7))
        counts = rng.integers(0, 20, p)
        alpha = float(rng.uniform(0.5, 10))
        params = alpha / p + counts
        target = params / params.sum()
        draws = np.stack([update_split_probs(counts, alpha, rng) for _ in range(n_draws)])
        comp_var = target * (1 - target) / (params.sum() + 1)
        z = np.abs(draws.mean(axis=0) - target) / np.sqrt(comp_var / n_draws)
        worst = max(worst, float(z.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 3.0 and elapsed < 10
    assert report(
        2,
        ok,
        f"Dirichlet update: 10 random count vectors, worst mean deviation "
        f"{worst:.2f} SE (< 3), {elapsed:.1f}s < 10s",
    )


# -- 3: HAC equivalence ---------------------------------------------------------------


def test_criterion_3_hac_matches_naive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(2, 11))
        d = int(rng.integers(1, 5))
        points = rng.normal(0, 1, (m, d))
        merges = hac_average_linkage(points)
        oracle = naive_upgma(points)
        pairs_ok = np.array_equal(merges[:, :2], oracle[:, :2])
        heights_ok = np.allclose(merges[:, 2], oracle[:, 2], rtol=1e-10, atol=1e-12)
        labels_ok = labels_equal_up_to_swap(cut_two(merges), naive_cut_two(points))
        if not (pairs_ok and heights_ok and labels_ok):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5
    assert report(
        3,
        ok,
        f"HAC: 200 random point sets, {mismatches} oracle mismatches, "
        f"{elapsed:.1f}s < 5s",
    )


# -- 4: threshold oracles -------------------------------------------------------------


def test_criterion_4_threshold_rules_match_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(100):
        l_perm = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        null = rng.random((l_perm, p))
        q = rng.random(p)
        alpha = float(rng.uniform(0.01, 0.5))
        ok_case = threshold_local(q, null, alpha).selected == local_select_oracle(
            q, null, alpha
        )
        ok_case &= threshold_gmax(q, null, alpha).selected == gmax_select_oracle(
            q, null, alpha
        )
        gse = threshold_gse(q, null, alpha)
        oracle_sel, oracle_c = gse_select_oracle(q, null, alpha)
        ok_case &= gse.selected == oracle_sel
        # C* via bisection must reproduce the same selected set
        c_bis = gse_cstar_bisection(null, alpha)
        means = null.mean(axis=0)
        sds = null.std(axis=0, ddof=1) if l_perm > 1 else np.zeros(p)
        sel_bis = {j + 1 for j in range(p) if q[j] >= means[j] + c_bis * sds[j]}
        ok_case &= gse.selected == frozenset(sel_bis)
        if not ok_case:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5
    assert report(
        4,
        ok,
        f"thresholds: 100 random null matrices, local/gmax/gse all match "
        f"oracles, scan C* == bisection C* by selection, {mismatches} mismatches, "
        f"{elapsed:.1f}s < 5s",
    )


# -- 5: summary formulas --------------------------------------------------------------


def test_criterion_5_summary_formulas():
    rng = np.random.default_rng(505)
    max_err = 0.0
    vip_sum_err = 0.0
    rank_exact = True
    for _ in range(100):
        k = int(rng.integers(1, 12))
        p = int(rng.integers(1, 8))
        features, tags = random_mi_log(rng, k, p)
        trace = random_trace(rng, k, p)
        trace.mi_sum = mi_sum_of(p, features, tags)
        max_err = max(max_err, float(np.abs(vip(trace).values - vip_by_hand(trace.counts)).max()))
        max_err = max(max_err, float(np.abs(vc(trace).values - vc_by_hand(trace.counts)).max()))
        max_err = max(
            max_err, float(np.abs(mpvip(trace).values - mpvip_by_hand(trace.counts)).max())
        )
        mi_hand = mi_by_hand(p, features, tags)
        max_err = max(
            max_err, float(np.abs(metropolis_importance(trace).values - mi_hand).max())
        )
        if trace.counts.sum(axis=1).min() > 0:  # vip sums to 1 iff every draw splits
            vip_sum_err = max(vip_sum_err, abs(vip(trace).values.sum() - 1.0))
        ranks = rank_descending(rng.random(p))
        rank_exact = rank_exact and ranks.sum() == p * (p + 1) / 2
    ok = max_err < 1e-12 and vip_sum_err < 1e-10 and rank_exact
    assert report(
        5,
        ok,
        f"summaries: 100 random traces, hand-formula max err {max_err:.2e} "
        f"(< 1e-12), vip sum err {vip_sum_err:.2e} (< 1e-10), midrank sums exact",
    )


# -- 6: metrics fixture ---------------------------------------------------------------


def test_criterion_6_metrics_fixture():
    m = compute_metrics({1, 2, 3}, {1, 2}, p=102)
    fixture_ok = (m.tpr, m.fpr, m.f1) == (1.0, 0.01, 0.8)
    e = compute_metrics(set(), {1, 2}, p=102)
    empty_ok = (e.tpr, e.fpr, e.f1) == (0.0, 0.0, 0.0) and e.no_selection
    ok = fixture_ok and empty_ok
    assert report(
        6,
        ok,
        f"metrics: fixture gives tpr={m.tpr} fpr={m.fpr} f1={m.f1} exactly; "
        f"empty selection zeroed",
    )


# -- 7: CLI determinism ---------------------------------------------------------------


def test_criterion_7_select_is_byte_deterministic(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 50
    x1, x2, x3 = (rng.uniform(1, 3, n) for _ in range(3))
    y = x1 * x2 + rng.normal(0, 0.1, n)
    csv_path = tmp_path / "data.csv"
    rows = ["y,x1,x2,x3"] + [
        ",".join(repr(float(v)) for v in (y[i], x1[i], x2[i], x3[i])) for i in range(n)
    ]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    runner = CliRunner()
    payloads = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        result = runner.invoke(
            main,
            [
                "select",
                str(csv_path),
                "--method",
                "dart-vc-measure",
                "--trees",
                "10",
                "--burnin",
                "200",
                "--draws",
                "200",
                "--lrep",
                "2",
                "--seed",
                "11",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        payloads.append((out / "importance.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = payloads[0] == payloads[1] and elapsed < 60
    assert report(
        7,
        ok,
        f"determinism: two cmd_select runs, importance CSVs byte-identical: "
        f"{payloads[0] == payloads[1]}, {elapsed:.1f}s < 60s",
    )


# -- 8-10: end-to-end recovery grids ---------------------------------------------------

RECOVERY_FIT = (("n_trees", 20), ("burn_in", 1000), ("n_draws", 1000))
N_SEEDS = 10


def recovery_points(snr, methods):
    return [
        GridPoint(
            "product2",
            500,
            snr,
            50,
            method,
            l_rep=l_rep,
            seed=0,
            replicate=rep,
            fit_overrides=RECOVERY_FIT,
        )
        for rep in range(N_SEEDS)
        for method, l_rep in methods
    ]


# The grids and criterion 12 fit on two worker processes; seeding makes their
# rows equal to jobs=1 rows (tests/test_benchmark.py checks this).
@pytest.fixture(scope="module")
def grid_snr10():
    rows = run_grid(
        recovery_points(10.0, [("dart-vc-measure", 5), ("bart-vc-measure", 5)]), jobs=2
    )
    assert all(r.error is None for r in rows)
    return rows


@pytest.fixture(scope="module")
def grid_snr20():
    rows = run_grid(
        recovery_points(20.0, [("dart-vc-measure", 5), ("dart-mpm", None)]), jobs=2
    )
    assert all(r.error is None for r in rows)
    return rows


def method_metrics(rows, method):
    return [r.metrics for r in rows if r.point.method == method]


def test_criterion_8_easy_recovery(grid_snr10):
    dart = method_metrics(grid_snr10, "dart-vc-measure")
    perfect = sum(m.f1 == 1.0 for m in dart)
    fit_time = sum(m.runtime_s for m in dart)
    ok = perfect >= 8 and fit_time < 900
    assert report(
        8,
        ok,
        f"easy recovery: dart-vc-measure F1=1.0 in {perfect}/{N_SEEDS} seeds "
        f"(need >= 8), sampling time {fit_time:.0f}s < 900s",
    )


def test_criterion_9_dart_vs_bart(grid_snr10):
    dart = np.mean([m.f1 for m in method_metrics(grid_snr10, "dart-vc-measure")])
    bart = np.mean([m.f1 for m in method_metrics(grid_snr10, "bart-vc-measure")])
    ok = dart >= bart - 0.02
    assert report(
        9,
        ok,
        f"sparse prior vs uniform: mean F1 dart {dart:.3f} >= bart {bart:.3f} - 0.02",
    )


def test_criterion_10_high_snr_mpm_failure_mode(grid_snr20):
    vc_m = method_metrics(grid_snr20, "dart-vc-measure")
    mpm_m = method_metrics(grid_snr20, "dart-mpm")
    mpm_fpr = np.mean([m.fpr for m in mpm_m])
    vc_fpr = np.mean([m.fpr for m in vc_m])
    vc_f1 = np.mean([m.f1 for m in vc_m])
    mpm_f1 = np.mean([m.f1 for m in mpm_m])
    ok = mpm_fpr >= vc_fpr and vc_f1 >= mpm_f1
    assert report(
        10,
        ok,
        f"high snr: mpm FPR {mpm_fpr:.4f} >= vc FPR {vc_fpr:.4f} and "
        f"vc F1 {vc_f1:.3f} >= mpm F1 {mpm_f1:.3f}",
    )


# -- 11: replicate-prefix protocol ----------------------------------------------------


def test_criterion_11_grid_prefix_equality():
    fit = (("n_trees", 10), ("burn_in", 200), ("n_draws", 200))
    short = GridPoint(
        "product2", 100, 10.0, 5, "bart-vc-measure", l_rep=2, seed=1, fit_overrides=fit
    )
    longer = dataclasses.replace(short, l_rep=5)
    lone = run_grid([short])[0]
    paired = run_grid([longer, short])[1]

    def strip_runtime(row):
        return dataclasses.replace(
            row, metrics=dataclasses.replace(row.metrics, runtime_s=0.0)
        )

    ok = strip_runtime(paired) == dataclasses.replace(strip_runtime(lone), index=1)
    assert report(
        11,
        ok,
        "prefix protocol: L_rep=2 row inside an L_rep=5 grid equals an "
        "independent 2-fit run exactly (runtime field excluded)",
    )


# -- 12: permutation-null sanity -------------------------------------------------------


def test_criterion_12_pure_noise_gmax_control():
    t0 = time.perf_counter()
    fit_cfg = FitConfig(n_trees=10, burn_in=300, n_draws=300)
    empty = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = rng.uniform(0, 1, (200, 10))
        y = rng.normal(0, 1, 200)
        dataset = validate_dataset(y, X)
        result = run_method(
            dataset,
            RunConfig(
                method="bart-vip-gmax",
                fit=fit_cfg,
                l_rep=2,
                l_perm=20,
                alpha=0.05,
                seed=seed,
                jobs=2,
            ),
        )
        empty += not result.selection.selected
    elapsed = time.perf_counter() - t0
    ok = empty >= 9
    assert report(
        12,
        ok,
        f"pure-noise control: gmax selected nothing in {empty}/10 seeds "
        f"(need >= 9), {elapsed:.0f}s",
    )
