"""Importance summaries: hand-formula oracles and pinned examples."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import rankdata

from bartsel import (
    METHOD_NAMES,
    FitConfig,
    PosteriorTrace,
    RunConfig,
    build_summary_matrix,
    fit,
    read_trace,
    run_method,
    write_trace,
    metropolis_importance,
    mpvip,
    rank_descending,
    vc,
    vip,
)
from bartsel.summaries import SOURCE_VC_MEASURE, SOURCE_VIP_MEASURE, SOURCE_VIP_RANK, importance

from conftest import make_trace, random_mi_log, random_trace
from oracles import dense_mpvip, dense_vc, dense_vip, mi_from_log, write_trace_v1


def vip_by_hand(counts: np.ndarray) -> np.ndarray:
    k, p = counts.shape
    out = np.zeros(p)
    for row in counts:
        tot = row.sum()
        if tot > 0:
            out += row / tot
    return out / k


def vc_by_hand(counts: np.ndarray) -> np.ndarray:
    return counts.mean(axis=0)


def mpvip_by_hand(counts: np.ndarray) -> np.ndarray:
    return (counts > 0).mean(axis=0)


def mi_by_hand(p: int, feats, probs) -> np.ndarray:
    k = len(feats)
    out = np.zeros(p)
    for f, pr in zip(feats, probs):
        u = np.zeros(p)
        for j in range(p):
            sel = f == j
            if sel.any():
                u[j] = pr[sel].mean()
        tot = u.sum()
        if tot > 0:
            out += u / tot
    return out / k


class TestVip:
    def test_pinned_example(self):
        trace = make_trace([[2, 0, 2], [1, 1, 0]])
        np.testing.assert_allclose(vip(trace).values, [0.5, 0.25, 0.25], atol=1e-15)

    def test_all_zero_counts(self):
        trace = make_trace(np.zeros((3, 4), dtype=int))
        assert np.array_equal(vip(trace).values, np.zeros(4))

    def test_single_feature_normalizes_to_one(self):
        trace = make_trace([[3], [1]])
        np.testing.assert_allclose(vip(trace).values, [1.0], atol=1e-15)

    def test_empty_draws_contribute_zero(self):
        trace = make_trace([[2, 2], [0, 0]])
        np.testing.assert_allclose(vip(trace).values, [0.25, 0.25], atol=1e-15)
        assert vip(trace).values.sum() == pytest.approx(0.5, abs=1e-12)

    def test_matches_hand_formula_on_random_traces(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            trace = random_trace(rng, k=int(rng.integers(1, 8)), p=int(rng.integers(1, 6)))
            np.testing.assert_allclose(
                vip(trace).values, vip_by_hand(trace.counts), atol=1e-12
            )

    def test_sums_to_one_when_no_empty_draws(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 5, size=(6, 4))
        trace = make_trace(counts)
        assert vip(trace).values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_draw_order_invariance(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 4, size=(5, 3))
        a = vip(make_trace(counts)).values
        b = vip(make_trace(counts[::-1])).values
        np.testing.assert_array_equal(a, b)


class TestVc:
    def test_pinned_example(self):
        trace = make_trace([[2, 0, 2], [1, 1, 0]])
        np.testing.assert_allclose(vc(trace).values, [1.5, 0.5, 1.0], atol=1e-15)

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            trace = random_trace(rng, k=int(rng.integers(1, 8)), p=int(rng.integers(1, 6)))
            np.testing.assert_allclose(vc(trace).values, vc_by_hand(trace.counts), atol=1e-12)

    def test_constant_total_consistency_with_vip(self):
        # when every draw has the same total, vip = vc / total exactly
        counts = np.array([[2, 1, 1], [1, 2, 1], [0, 0, 4]])
        trace = make_trace(counts)
        np.testing.assert_allclose(vip(trace).values, vc(trace).values / 4.0, atol=1e-15)


class TestMpvip:
    def test_pinned_example(self):
        trace = make_trace([[1, 0, 2], [3, 1, 0]])
        np.testing.assert_allclose(mpvip(trace).values, [1.0, 0.5, 0.5], atol=1e-15)

    def test_never_and_always_used(self):
        trace = make_trace([[1, 0], [2, 0]])
        np.testing.assert_array_equal(mpvip(trace).values, [1.0, 0.0])

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            trace = random_trace(rng, k=int(rng.integers(1, 8)), p=int(rng.integers(1, 6)))
            np.testing.assert_allclose(
                mpvip(trace).values, mpvip_by_hand(trace.counts), atol=1e-12
            )


class TestSparseCounts:
    """The count summaries work from the CSR entries and equal the dense
    formulas bit for bit."""

    def assert_dense_equal(self, trace):
        counts = trace.counts
        assert np.array_equal(vip(trace).values, dense_vip(counts))
        assert np.array_equal(vc(trace).values, dense_vc(counts))
        assert np.array_equal(mpvip(trace).values, dense_mpvip(counts))

    def test_bitwise_equal_to_dense_formulas_on_random_traces(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k, p = int(rng.integers(1, 300)), int(rng.integers(1, 40))
            counts = rng.integers(0, 7, size=(k, p)) * (rng.random((k, p)) < rng.random())
            counts[rng.random(k) < 0.1] = 0
            self.assert_dense_equal(make_trace(counts))

    @pytest.mark.parametrize("prior", ["bart", "dart"])
    def test_bitwise_equal_to_dense_formulas_on_fits(self, small_dataset, prior):
        config = FitConfig(n_trees=10, burn_in=20, n_draws=150, prior_kind=prior, seed=3)
        self.assert_dense_equal(fit(small_dataset, config))

    def test_package_never_builds_the_dense_matrix(self, monkeypatch, small_dataset, tmp_path):
        v1_path = tmp_path / "v1.trace"
        write_trace_v1(make_trace([[1, 0, 2], [0, 0, 0]]), v1_path)

        def dense(self):
            raise AssertionError("dense split counts built")

        monkeypatch.setattr(PosteriorTrace, "counts", property(dense))
        config = FitConfig(n_trees=3, burn_in=5, n_draws=8)
        for method in METHOD_NAMES:
            run_method(small_dataset, RunConfig(method=method, fit=config, l_rep=2, l_perm=2))
        trace = fit(
            small_dataset,
            replace(config, prior_kind="dart", track_mi=True, track_s_path=True),
        )
        path = tmp_path / "v2.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace
        read_trace(v1_path)
        build_summary_matrix([trace, trace], SOURCE_VC_MEASURE)


class TestMetropolisImportance:
    def test_pinned_example(self):
        trace = make_trace(
            [[2, 0]], mi_features=[[0, 0]], mi_probs=[[0.4, 0.6]]
        )
        np.testing.assert_allclose(metropolis_importance(trace).values, [1.0, 0.0], atol=1e-15)

    def test_no_interior_nodes_gives_zero_vector(self):
        trace = make_trace([[0, 0]], mi_features=[[]], mi_probs=[[]])
        np.testing.assert_array_equal(metropolis_importance(trace).values, [0.0, 0.0])

    def test_single_feature_normalizes(self):
        trace = make_trace([[1]], mi_features=[[0]], mi_probs=[[0.123]])
        np.testing.assert_allclose(metropolis_importance(trace).values, [1.0], atol=1e-15)

    def test_missing_log_rejected(self):
        trace = make_trace([[1, 0]])
        with pytest.raises(ValueError, match="MI tracking was not enabled"):
            metropolis_importance(trace)

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            features, tags = random_mi_log(rng, k, p)
            trace = make_trace(
                rng.integers(0, 5, size=(k, p)), mi_features=features, mi_probs=tags
            )
            want = mi_by_hand(p, features, tags)
            np.testing.assert_allclose(metropolis_importance(trace).values, want, atol=1e-12)
            # the sum of per-draw terms has the bits of the per-draw log formula
            assert np.array_equal(metropolis_importance(trace).values, mi_from_log(p, features, tags))
            # the by-kind lookup returns exactly what each summary returns
            for kind, summary in (
                ("vip", vip), ("vc", vc), ("mpvip", mpvip), ("mi", metropolis_importance)
            ):
                np.testing.assert_array_equal(importance(trace, kind), summary(trace).values)
        with pytest.raises(ValueError, match="importance kind"):
            importance(trace, "vip-rank")


class TestRankDescending:
    def test_pinned_example(self):
        r = rank_descending([0.5, 0.2, 0.2, 0.1])
        np.testing.assert_array_equal(r, [1.0, 2.5, 2.5, 4.0])

    def test_strictly_decreasing_is_identity(self):
        r = rank_descending([9.0, 5.0, 1.0, 0.5])
        np.testing.assert_array_equal(r, [1, 2, 3, 4])

    def test_all_equal_gives_midrank(self):
        r = rank_descending([2.0, 2.0, 2.0])
        np.testing.assert_array_equal(r, [2.0, 2.0, 2.0])

    def test_midrank_conservation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = int(rng.integers(1, 12))
            vals = rng.integers(0, 4, size=p).astype(float)
            r = rank_descending(vals)
            assert r.sum() == p * (p + 1) / 2

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        vals = rng.random(6)
        np.testing.assert_array_equal(
            rank_descending(vals), rank_descending(vals * 17.3)
        )

    def test_agrees_with_scipy_on_negated_values(self):
        rng = np.random.default_rng(8)
        vectors = [
            np.array([3.0]),
            np.zeros(7),
            np.full(306, 2.5),
            np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
            np.array([[1.0, 2.0], [3.0, 2.0]]),
            rng.normal(size=306),
        ]
        for _ in range(200):
            p = int(rng.integers(1, 307))
            vectors.append(rng.integers(0, 4, size=p).astype(float))
            vectors.append(rng.choice([-0.0, 0.0, 0.5, 7.0], size=p))
        for vals in vectors:
            ranks = rank_descending(vals)
            assert ranks.dtype == np.float64
            assert np.array_equal(ranks, rankdata(-vals)), vals

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rank_descending([1.0, np.nan])


class TestSummaryMatrix:
    def test_single_fit_degenerate_quantiles(self):
        trace = make_trace([[2, 0, 2], [1, 1, 0]])
        sm = build_summary_matrix([trace], SOURCE_VC_MEASURE)
        vc_vals = vc(trace).values
        ranks = rank_descending(vc_vals)
        np.testing.assert_allclose(sm.Z[:, 0], vc_vals, atol=1e-15)
        np.testing.assert_allclose(sm.Z[:, 1], vc_vals, atol=1e-15)
        np.testing.assert_allclose(sm.Z[:, 2], ranks, atol=1e-15)
        np.testing.assert_allclose(sm.Z[:, 3], ranks, atol=1e-15)

    def test_type7_quantile_pinned_value(self):
        # per-fit VCs (1, 2, 3, 4) for feature 0: mean 2.5, Q25 = 1.75
        traces = [make_trace([[v, 0]]) for v in (1, 2, 3, 4)]
        sm = build_summary_matrix(traces, SOURCE_VC_MEASURE)
        assert sm.Z[0, 0] == pytest.approx(2.5, abs=1e-15)
        assert sm.Z[0, 1] == pytest.approx(1.75, abs=1e-15)

    def test_constant_feature_collapses_quantiles(self):
        traces = [make_trace([[3, 1]]) for _ in range(5)]
        sm = build_summary_matrix(traces, SOURCE_VC_MEASURE)
        assert sm.Z[0, 1] == sm.Z[0, 0]
        assert sm.Z[0, 3] == sm.Z[0, 2]

    def test_vip_rank_source_single_column(self):
        traces = [make_trace([[2, 0, 1]]), make_trace([[0, 3, 1]])]
        sm = build_summary_matrix(traces, SOURCE_VIP_RANK)
        assert sm.Z.shape == (3, 1)
        r1 = rank_descending(vip(traces[0]).values)
        r2 = rank_descending(vip(traces[1]).values)
        np.testing.assert_allclose(sm.Z[:, 0], (r1 + r2) / 2.0, atol=1e-15)

    def test_vip_measure_uses_vip_columns(self):
        traces = [make_trace([[2, 0]]), make_trace([[1, 1]])]
        sm = build_summary_matrix(traces, SOURCE_VIP_MEASURE)
        v1, v2 = vip(traces[0]).values, vip(traces[1]).values
        np.testing.assert_allclose(sm.Z[:, 0], (v1 + v2) / 2.0, atol=1e-15)
        np.testing.assert_allclose(
            sm.Z[:, 1], np.quantile(np.stack([v1, v2]), 0.25, axis=0), atol=1e-15
        )

    def test_fit_order_invariance(self):
        rng = np.random.default_rng(9)
        traces = [random_trace(rng, 4, 3) for _ in range(5)]
        a = build_summary_matrix(traces, SOURCE_VC_MEASURE)
        b = build_summary_matrix(traces[::-1], SOURCE_VC_MEASURE)
        np.testing.assert_array_equal(a.Z, b.Z)

    def test_rank_columns_in_valid_range(self):
        rng = np.random.default_rng(10)
        traces = [random_trace(rng, 4, 5) for _ in range(4)]
        sm = build_summary_matrix(traces, SOURCE_VC_MEASURE)
        assert np.all(sm.Z[:, 2] >= 1.0) and np.all(sm.Z[:, 2] <= 5.0)
        assert np.all(sm.Z[:, 3] >= 1.0) and np.all(sm.Z[:, 3] <= 5.0)

    def test_mismatched_p_rejected(self):
        with pytest.raises(ValueError, match="p"):
            build_summary_matrix(
                [make_trace([[1, 0]]), make_trace([[1, 0, 0]])], SOURCE_VC_MEASURE
            )

    def test_empty_trace_list_rejected(self):
        with pytest.raises(ValueError):
            build_summary_matrix([], SOURCE_VC_MEASURE)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            build_summary_matrix([make_trace([[1]])], "zscore")
