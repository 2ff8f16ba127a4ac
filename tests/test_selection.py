"""Selection rules: clustering, MPM, permutation nulls, and thresholds."""

from __future__ import annotations

import numpy as np
import pytest

from bartsel import (
    FitConfig,
    build_summary_matrix,
    cluster_select,
    cut_two,
    fit,
    fit_replicates,
    hac_average_linkage,
    mpm_select,
    permutation_null,
    threshold_gmax,
    threshold_gse,
    threshold_local,
    validate_dataset,
    vip,
)
from bartsel.sampler import Workers
from bartsel.selection import _null_row
from bartsel.summaries import (
    SOURCE_VC_MEASURE,
    SOURCE_VIP_RANK,
)

from conftest import make_trace
from oracles import (
    gse_cstar_bisection,
    gse_select_oracle,
    labels_equal_up_to_swap,
    local_select_oracle,
    gmax_select_oracle,
    gse_scan,
    naive_cut_two,
    naive_upgma,
    upgma_submatrix,
)


class TestHac:
    def test_pinned_one_dim_example(self):
        pts = np.array([0.0, 0.1, 4.9, 5.0, 5.2])
        labels = cut_two(hac_average_linkage(pts))
        assert labels_equal_up_to_swap(labels, [0, 0, 1, 1, 1])

    def test_identical_points_merge_first_at_zero(self):
        pts = np.array([[1.0, 1.0], [5.0, 5.0], [1.0, 1.0]])
        merges = hac_average_linkage(pts)
        assert merges[0, 2] == 0.0
        assert {int(merges[0, 0]), int(merges[0, 1])} == {0, 2}

    def test_rescaling_preserves_topology(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(8, 3))
        a = hac_average_linkage(pts)
        b = hac_average_linkage(pts * 37.5)
        np.testing.assert_array_equal(a[:, :2], b[:, :2])

    def test_matches_naive_oracle_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 11))
            d = int(rng.integers(1, 5))
            pts = rng.normal(size=(m, d))
            merges = hac_average_linkage(pts)
            oracle = naive_upgma(pts)
            np.testing.assert_array_equal(merges[:, :2], oracle[:, :2])
            np.testing.assert_allclose(merges[:, 2], oracle[:, 2], rtol=1e-10)
            assert labels_equal_up_to_swap(cut_two(merges), naive_cut_two(pts))

    def test_merges_bitwise_equal_to_submatrix_scan_under_ties(self):
        # small integer grids tie many distances; repeated rows tie at zero
        rng = np.random.default_rng(31)
        for trial in range(300):
            m, d = int(rng.integers(2, 40)), int(rng.integers(1, 4))
            pts = rng.integers(0, 3, size=(m, d)).astype(np.float64)
            if trial % 2:
                pts[rng.integers(0, m, size=m // 2)] = pts[rng.integers(0, m)]
            merges = hac_average_linkage(pts)
            assert np.array_equal(merges, upgma_submatrix(pts))
            if m <= 12:
                oracle = naive_upgma(pts)
                np.testing.assert_allclose(merges[:, 2], oracle[:, 2], rtol=1e-10, atol=1e-12)
                assert labels_equal_up_to_swap(cut_two(merges), naive_cut_two(pts))

    def test_merges_bitwise_equal_to_submatrix_scan_at_summary_size(self):
        rng = np.random.default_rng(32)
        pts = np.round(rng.standard_t(2, size=(306, 4)), 1)
        assert np.array_equal(hac_average_linkage(pts), upgma_submatrix(pts))

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(3, 12)), 2))
            h = hac_average_linkage(pts)[:, 2]
            assert np.all(np.diff(h) >= -1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="2"):
            hac_average_linkage(np.array([[1.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hac_average_linkage(np.array([[np.nan], [1.0]]))


class TestCutTwo:
    def test_two_points_become_singletons(self):
        labels = cut_two(hac_average_linkage(np.array([0.0, 3.0])))
        assert sorted(labels.tolist()) == [0, 1]

    def test_equally_spaced_chain_splits_at_last_merge(self):
        labels = cut_two(hac_average_linkage(np.array([0.0, 1.0, 2.0, 3.0])))
        assert labels_equal_up_to_swap(labels, [0, 0, 1, 1])

    def test_both_clusters_nonempty(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(2, 9)), 2))
            labels = cut_two(hac_average_linkage(pts))
            assert 0 < labels.sum() < labels.size


def vc_matrix_from_fits(per_fit_vcs) -> "SummaryMatrix":
    """Summary matrix whose per-fit VC vectors equal the given rows."""
    traces = [make_trace([row]) for row in per_fit_vcs]
    return build_summary_matrix(traces, SOURCE_VC_MEASURE)


class TestClusterSelect:
    def test_pinned_separated_example(self):
        matrix = vc_matrix_from_fits([[40, 38, 0, 1], [44, 42, 1, 0]])
        result = cluster_select(matrix)
        assert result.selected == {1, 2}
        assert not result.no_selection
        lo, hi = sorted(result.diagnostics["cluster_means"])
        assert hi > 40 > 1 > lo

    def test_scaling_by_ten_keeps_selection(self):
        base = [[40, 38, 0, 1], [44, 42, 1, 0]]
        scaled = [[10 * v for v in row] for row in base]
        assert cluster_select(vc_matrix_from_fits(base)).selected == cluster_select(
            vc_matrix_from_fits(scaled)
        ).selected

    def test_identical_rows_tie_flagged(self):
        matrix = vc_matrix_from_fits([[3, 3, 3], [3, 3, 3]])
        result = cluster_select(matrix)
        assert result.diagnostics["tie"]
        # equal cluster means leave nothing to separate: nothing is selected
        assert result.no_selection and result.diagnostics["winner"] is None

    def test_rank_source_prefers_smaller_mean_rank(self):
        # per-fit ranks (1,2,4,4,4) and (2,1,4,4,4): mean ranks (1.5,1.5,4,4,4)
        traces = [make_trace([[10, 8, 0, 0, 0]]), make_trace([[8, 10, 0, 0, 0]])]
        matrix = build_summary_matrix(traces, SOURCE_VIP_RANK)
        result = cluster_select(matrix)
        assert result.selected == {1, 2}

    def test_zero_variance_column_is_harmless(self):
        matrix = vc_matrix_from_fits([[40, 0, 2], [44, 1, 2]])
        result = cluster_select(matrix)
        assert 1 in result.selected

    def test_single_feature_rejected(self):
        matrix = vc_matrix_from_fits([[3], [4]])
        with pytest.raises(ValueError, match=">= 2"):
            cluster_select(matrix)

    def test_pure_function_repeatable(self):
        matrix = vc_matrix_from_fits([[5, 1, 0], [6, 0, 1]])
        a = cluster_select(matrix)
        b = cluster_select(matrix)
        assert a.selected == b.selected
        assert a.diagnostics == b.diagnostics


class TestMpmSelect:
    def test_boundary_inclusive_at_half(self):
        result = mpm_select(np.array([1.0, 0.5, 0.49]))
        assert result.selected == {1, 2}

    def test_all_zero_is_empty_selection(self):
        result = mpm_select(np.zeros(3))
        assert result.selected == frozenset()
        assert result.no_selection

    def test_all_one_selects_everything(self):
        result = mpm_select(np.ones(4))
        assert result.selected == {1, 2, 3, 4}

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(4)
        base = rng.random(5)
        sel = mpm_select(base).selected
        raised = base.copy()
        raised[2] = min(1.0, raised[2] + 0.4)
        sel2 = mpm_select(raised).selected
        assert sel - {3} <= sel2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mpm_select(np.array([1.2]))


def tiny_dataset(seed: int = 0, n: int = 40, p: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    y = rng.normal(size=n)
    return validate_dataset(y, X)


FAST = FitConfig(n_trees=4, burn_in=30, n_draws=30)


class TestPermutationNull:
    def test_shape_and_determinism(self):
        ds = tiny_dataset(5)
        a = permutation_null(ds, "vip", 3, FAST, seed=11)
        b = permutation_null(ds, "vip", 3, FAST, seed=11)
        assert a.shape == (3, ds.p)
        np.testing.assert_array_equal(a, b)

    def test_rows_follow_documented_seed_scheme(self):
        # row ell must equal a fit on y permuted by generator seed+10000+ell,
        # with the fit consuming the same generator stream afterwards
        ds = tiny_dataset(6)
        null = permutation_null(ds, "vip", 2, FAST, seed=30)
        for ell in (1, 2):
            rng = np.random.default_rng(30 + 10_000 + ell)
            y_star = ds.y[rng.permutation(ds.n)]
            # the permuted response is a reordering of the original (multiset)
            assert sorted(y_star.tolist()) == sorted(ds.y.tolist())
            from dataclasses import replace

            cfg = replace(FAST, seed=30 + 10_000 + ell)
            trace = fit(ds.with_response(y_star), cfg, rng=rng)
            np.testing.assert_array_equal(null[ell - 1], vip(trace).values)

    def test_a_shorter_null_is_a_prefix_of_the_full_null(self):
        ds = tiny_dataset(12)
        full = permutation_null(ds, "vip", 5, FAST, seed=21)
        for l_perm in (1, 3):
            head = permutation_null(ds, "vip", l_perm, FAST, seed=21)
            assert head.shape == (l_perm, ds.p)
            np.testing.assert_array_equal(head, full[:l_perm])

    def test_distinct_rows_across_permutations(self):
        ds = tiny_dataset(7)
        null = permutation_null(ds, "vip", 3, FAST, seed=1)
        assert not np.array_equal(null[0], null[1])

    def test_parallel_equals_serial(self):
        ds = tiny_dataset(8)
        serial = permutation_null(ds, "vip", 3, FAST, seed=2, jobs=1)
        parallel = permutation_null(ds, "vip", 3, FAST, seed=2, jobs=2)
        np.testing.assert_array_equal(serial, parallel)
        serial_fits = fit_replicates(ds, FAST, 2, 3, jobs=1)
        # a caller's open pool is used and left open
        with Workers(2) as workers:
            shared = permutation_null(ds, "vip", 3, FAST, seed=2, jobs=workers)
            pool = workers._pool
            shared_fits = fit_replicates(ds, FAST, 2, 3, jobs=workers)
            assert pool is not None and workers._pool is pool
            assert workers.map(abs, [-1, -2]) == [1, 2]
        assert workers._pool is None
        np.testing.assert_array_equal(serial, shared)
        for a, b in zip(serial_fits, shared_fits, strict=True):
            np.testing.assert_array_equal(a.counts, b.counts)
            np.testing.assert_array_equal(a.sigma2_path, b.sigma2_path)

    def test_mi_kind_supported(self):
        ds = tiny_dataset(9)
        null = permutation_null(ds, "mi", 2, FAST, seed=3)
        assert null.shape == (2, ds.p)
        assert np.all(null >= 0.0)

    def test_kinds_read_from_the_same_fits(self):
        ds = tiny_dataset(13)
        vip_null, mi_null = permutation_null(ds, ("vip", "mi"), 3, FAST, seed=5)
        np.testing.assert_array_equal(vip_null, permutation_null(ds, "vip", 3, FAST, seed=5))
        np.testing.assert_array_equal(mi_null, permutation_null(ds, "mi", 3, FAST, seed=5))
        (head,) = permutation_null(ds, ("mi",), 2, FAST, seed=5)
        np.testing.assert_array_equal(head, mi_null[:2])

    def test_vip_row_is_the_same_with_and_without_the_mi_log(self):
        from dataclasses import replace

        ds = tiny_dataset(14)
        logged_cfg = replace(FAST, track_mi=True)
        (plain,) = _null_row((ds, FAST, 10_001, ("vip",), 1))
        (logged,) = _null_row((ds, logged_cfg, 10_001, ("vip",), 1))
        vip_row, mi_row = _null_row((ds, FAST, 10_001, ("vip", "mi"), 1))
        np.testing.assert_array_equal(logged, plain)
        np.testing.assert_array_equal(vip_row, plain)
        np.testing.assert_array_equal(mi_row, _null_row((ds, logged_cfg, 10_001, ("mi",), 1))[0])

    def test_bad_kind_and_lperm_rejected(self):
        ds = tiny_dataset(10)
        with pytest.raises(ValueError, match="kind"):
            permutation_null(ds, "vc", 2, FAST, seed=0)
        with pytest.raises(ValueError, match="kind"):
            permutation_null(ds, ("vip", "vc"), 2, FAST, seed=0)
        with pytest.raises(ValueError, match="kind"):
            permutation_null(ds, (), 2, FAST, seed=0)
        with pytest.raises(ValueError, match="l_perm"):
            permutation_null(ds, "vip", 0, FAST, seed=0)

    def test_null_consistency_on_pure_noise(self):
        # observed importance behaves like one more draw from the null
        ds = tiny_dataset(11, n=60)
        null = permutation_null(ds, "vip", 10, FAST, seed=4)
        observed = vip(fit(ds, FAST)).values
        sd = null.std(axis=0, ddof=1)
        assert np.all(np.abs(observed - null.mean(axis=0)) < 3.0 * sd + 1e-9)


class TestThresholdLocal:
    def test_pinned_type7_example(self):
        null = np.array([[0.1], [0.2], [0.3]])
        result = threshold_local([0.3], null, alpha=0.05)
        assert result.selected == {1}
        assert result.thresholds[0] == pytest.approx(0.29, abs=1e-12)

    def test_below_every_null_not_selected(self):
        null = np.array([[0.2], [0.3], [0.4]])
        result = threshold_local([0.1], null, alpha=0.05)
        assert result.no_selection

    def test_alpha_near_one_tends_to_column_min(self):
        # at alpha=0.999 the type-7 quantile sits just above the column min,
        # so probe with observations slightly above it
        null = np.array([[0.2, 0.5], [0.3, 0.6], [0.4, 0.7]])
        result = threshold_local([0.21, 0.51], null, alpha=0.999)
        assert result.selected == {1, 2}
        np.testing.assert_allclose(result.thresholds, [0.2, 0.5], atol=1e-3)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            l_perm = int(rng.integers(1, 9))
            p = int(rng.integers(1, 7))
            null = rng.random((l_perm, p))
            q = rng.random(p)
            alpha = float(rng.uniform(0.01, 0.5))
            got = threshold_local(q, null, alpha).selected
            assert got == local_select_oracle(q, null, alpha)


class TestThresholdGmax:
    def test_pinned_example(self):
        null = np.array([[0.1, 0.4], [0.2, 0.3], [0.5, 0.1]])
        result = threshold_gmax([0.45, 0.6], null, alpha=0.05)
        assert result.selected == {2}
        assert result.diagnostics["global_threshold"] == pytest.approx(0.49, abs=1e-12)

    def test_single_permutation_threshold_is_row_max(self):
        null = np.array([[0.2, 0.7, 0.1]])
        result = threshold_gmax([0.7, 0.7, 0.7], null, alpha=0.05)
        assert result.diagnostics["global_threshold"] == pytest.approx(0.7, abs=1e-15)
        assert result.selected == {1, 2, 3}

    def test_gmax_subset_of_local(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            null = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 7))))
            q = rng.random(null.shape[1])
            alpha = float(rng.uniform(0.01, 0.5))
            gmax = threshold_gmax(q, null, alpha).selected
            local = threshold_local(q, null, alpha).selected
            assert gmax <= local

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            null = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 7))))
            q = rng.random(null.shape[1])
            alpha = float(rng.uniform(0.01, 0.5))
            assert threshold_gmax(q, null, alpha).selected == gmax_select_oracle(q, null, alpha)


class TestThresholdGse:
    def test_pinned_example(self):
        null = np.array([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1]])
        result = threshold_gse([0.3, 0.1], null, alpha=0.05)
        assert result.diagnostics["c_star"] == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(result.thresholds, [0.3, 0.1], atol=1e-12)
        assert result.selected == {1, 2}

    def test_all_constant_columns(self):
        null = np.tile([0.2, 0.4], (4, 1))
        result = threshold_gse([0.2, 0.39], null, alpha=0.05)
        assert result.diagnostics["c_star"] == 0.0
        np.testing.assert_allclose(result.thresholds, [0.2, 0.4], atol=1e-15)
        assert result.selected == {1}

    def test_single_permutation_all_zero_sd(self):
        null = np.array([[0.3, 0.5]])
        result = threshold_gse([0.3, 0.4], null, alpha=0.05)
        assert result.diagnostics["c_star"] == 0.0
        np.testing.assert_allclose(result.thresholds, [0.3, 0.5], atol=1e-15)
        assert result.selected == {1}

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            null = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 7))))
            q = rng.random(null.shape[1])
            alpha = float(rng.uniform(0.01, 0.5))
            result = threshold_gse(q, null, alpha)
            want_sel, want_c = gse_select_oracle(q, null, alpha)
            assert result.selected == want_sel
            assert result.diagnostics["c_star"] == pytest.approx(want_c, rel=1e-9, abs=1e-12)

    def test_c_star_bitwise_equal_to_linear_scan(self):
        rng = np.random.default_rng(19)
        nulls = [np.array([[0.3, 0.5]]), np.tile([0.2, 0.4], (4, 1))]
        for trial in range(400):
            shape = (int(rng.integers(1, 12)), int(rng.integers(1, 8)))
            null = rng.random(shape) if trial % 2 else rng.integers(0, 3, size=shape) / 4.0
            if trial % 5 == 0:
                null[:, 0] = 0.25  # a constant column
            nulls.append(null)
        nulls.append(rng.random((50, 306)))  # L_perm = 50 at p = 306
        for null in nulls:
            for alpha in (0.05, 0.2, float(rng.uniform(0.01, 0.9))):
                result = threshold_gse(rng.random(null.shape[1]), null, alpha)
                c_star, thresholds = gse_scan(null, alpha)
                assert result.diagnostics["c_star"] == c_star
                assert np.array_equal(result.thresholds, thresholds)

    def test_candidate_scan_agrees_with_bisection(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            null = rng.random((int(rng.integers(2, 9)), int(rng.integers(1, 6))))
            q = rng.random(null.shape[1])
            alpha = float(rng.uniform(0.01, 0.5))
            result = threshold_gse(q, null, alpha)
            c_bis = gse_cstar_bisection(null, alpha)
            means = null.mean(axis=0)
            sds = null.std(axis=0, ddof=1)
            sel_bis = {
                j + 1 for j in range(null.shape[1]) if q[j] >= means[j] + c_bis * sds[j]
            }
            assert result.selected == sel_bis


class TestThresholdValidation:
    def test_alpha_out_of_range(self):
        null = np.ones((2, 2))
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="alpha"):
                threshold_local([1.0, 1.0], null, bad)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            threshold_local([1.0], np.ones((2, 3)), 0.05)

    def test_selected_indices_one_based_within_range(self):
        rng = np.random.default_rng(17)
        null = rng.random((4, 5))
        result = threshold_local(rng.random(5), null, 0.2)
        assert all(1 <= j <= 5 for j in result.selected)
