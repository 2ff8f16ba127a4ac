"""Tests for the synthetic benchmark: expression parsing, data generation,
selection metrics, and the grid runner."""

import dataclasses
import gc
import os
import signal
import time
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from bartsel import benchmark, methods, sampler
from bartsel.benchmark import (
    BenchmarkError,
    EquationSpec,
    GridPoint,
    MetricsRecord,
    REGISTRY,
    REPLICATE_SEED_STRIDE,
    compute_metrics,
    generate_dataset,
    generate_dataset_with_info,
    parse_expression,
    run_grid,
)
from bartsel.data import FitConfig
from bartsel.methods import RunConfig, run_method
from bartsel.sampler import FitError, Workers


def eq(expression, ranges, id="test-eq"):
    return EquationSpec(id=id, expression=expression, ranges=tuple(map(tuple, ranges)))


# fast sampler settings for grid-runner tests
FAST = (("n_trees", 4), ("burn_in", 20), ("n_draws", 20))


class TestParseExpression:
    def test_matches_direct_numpy_evaluation(self):
        rng = np.random.default_rng(0)
        cols = [rng.uniform(1, 3, 50) for _ in range(6)]
        f = parse_expression("x1*(1 + x5*x6*cos(x4)/(x2*x3))", 6)
        expected = cols[0] * (1 + cols[4] * cols[5] * np.cos(cols[3]) / (cols[1] * cols[2]))
        np.testing.assert_array_equal(f(cols), expected)

    def test_all_allowed_functions(self):
        x = np.array([0.5, 1.0, 2.0])
        f = parse_expression("sin(x1) + cos(x1) + exp(x1) + log(x1) + sqrt(x1)", 1)
        expected = np.sin(x) + np.cos(x) + np.exp(x) + np.log(x) + np.sqrt(x)
        np.testing.assert_array_equal(f([x]), expected)

    def test_power_and_unary_minus(self):
        x = np.array([2.0, 3.0])
        f = parse_expression("-x1**2 + (-x1)**2 - 1", 1)
        np.testing.assert_array_equal(f([x]), -(x**2) + x**2 - 1)

    def test_unicode_operator_spellings(self):
        x1 = np.array([2.0, 4.0])
        x2 = np.array([1.0, 2.0])
        f = parse_expression("x1 × x2 − x1 ÷ x2 + x1^2", 2)
        np.testing.assert_array_equal(f([x1, x2]), x1 * x2 - x1 / x2 + x1**2)

    def test_constant_expression_broadcasts(self):
        x = np.zeros(4)
        np.testing.assert_array_equal(parse_expression("3.5", 1)([x]), np.full(4, 3.5))

    def test_whitespace_ignored(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            parse_expression("  x1   +  1 ", 1)([x]),
            parse_expression("x1+1", 1)([x]),
        )

    @pytest.mark.parametrize(
        "text, match",
        [
            ("x3 + x1", "out of range"),
            ("foo + x1", "unknown name"),
            ("y1", "unknown name"),
            ("tan(x1)", "single-argument calls"),
            ("cos(x1, x2)", "single-argument calls"),
            ("log(x=x1)", "single-argument calls"),
            ("__import__('os')", "single-argument calls"),
            ("x1.real", "disallowed syntax"),
            ("x1 < x2", "disallowed syntax"),
            ("x1 if x2 else 0", "disallowed syntax"),
            ("[x1, x2]", "disallowed syntax"),
            ("'a' + x1", "non-numeric literal"),
            ("x1 +", "cannot parse"),
        ],
    )
    def test_rejections(self, text, match):
        with pytest.raises(BenchmarkError, match=match):
            parse_expression(text, 2)

    def test_variable_indices_are_one_based(self):
        with pytest.raises(BenchmarkError, match="out of range"):
            parse_expression("x0", 2)


class TestEquationSpec:
    def test_registry_contents(self):
        assert set(REGISTRY) == {"ii-11-17", "product2", "additive3", "trig2"}
        assert REGISTRY["ii-11-17"].p0 == 6
        assert REGISTRY["product2"].p0 == 2
        assert REGISTRY["additive3"].p0 == 3
        assert REGISTRY["trig2"].p0 == 2
        for spec in REGISTRY.values():
            assert spec.id in spec.id  # ids are non-empty strings
            for a, b in spec.ranges:
                assert a < b

    def test_evaluate_additive3(self):
        cols = [np.array([0.1, 0.9]), np.array([0.2, 0.5]), np.array([0.3, 0.0])]
        expected = cols[0] + 2 * cols[1] + 3 * cols[2]
        np.testing.assert_array_equal(REGISTRY["additive3"].evaluate(cols), expected)

    def test_evaluate_trig2(self):
        cols = [np.array([0.3, 1.7]), np.array([1.1, 0.2])]
        expected = np.sin(3 * cols[0]) + np.cos(2 * cols[1])
        np.testing.assert_array_equal(REGISTRY["trig2"].evaluate(cols), expected)

    @pytest.mark.parametrize("ranges", [[(1, 1)], [(2, 1)], [(0, np.inf)], [(np.nan, 1)]])
    def test_bad_range_rejected(self, ranges):
        with pytest.raises(ValueError, match="a < b"):
            eq("x1", ranges)

    def test_no_ranges_rejected(self):
        with pytest.raises(ValueError, match="at least one input range"):
            eq("1 + 1", [])

    def test_bad_expression_fails_at_construction(self):
        with pytest.raises(BenchmarkError, match="unknown name"):
            eq("x1 + bogus", [(0, 1)])


class TestGenerateDataset:
    def test_shapes_names_truth_and_grouping(self):
        ds, info = generate_dataset_with_info(REGISTRY["product2"], 30, 10.0, 2, seed=5)
        assert ds.X.shape == (30, 6)
        assert ds.y.shape == (30,)
        assert ds.feature_names == (
            "x1",
            "x2",
            "x1_irr1",
            "x1_irr2",
            "x2_irr1",
            "x2_irr2",
        )
        assert ds.truth == frozenset({1, 2})
        assert info["p0"] == 2 and info["p"] == 6 and info["seed"] == 5

    def test_column_count_formula(self):
        ds = generate_dataset(REGISTRY["ii-11-17"], 10, None, 50, seed=1)
        assert ds.p == 6 * (1 + 50) == 306
        assert ds.truth == frozenset(range(1, 7))

    def test_all_columns_respect_parent_ranges(self):
        spec = eq("x1 + x2", [(1, 3), (-2, -1)])
        ds = generate_dataset(spec, 500, None, 3, seed=2)
        # column order: x1, x2, then x1 copies, then x2 copies
        ranges = [(1, 3), (-2, -1), (1, 3), (1, 3), (1, 3), (-2, -1), (-2, -1), (-2, -1)]
        for j, (a, b) in enumerate(ranges):
            col = ds.X[:, j]
            assert a <= col.min() and col.max() <= b

    def test_noiseless_response_equals_f_exactly(self):
        spec = REGISTRY["trig2"]
        ds, info = generate_dataset_with_info(spec, 80, None, 2, seed=3)
        f = spec.evaluate([ds.X[:, j] for j in range(spec.p0)])
        np.testing.assert_array_equal(ds.y, f)
        assert info["noise_var"] == 0.0

    def test_noise_variance_is_var_f_over_snr(self):
        for snr in (0.5, 2.0, 10.0):
            ds, info = generate_dataset_with_info(REGISTRY["product2"], 200, snr, 0, seed=4)
            assert info["noise_var"] == info["var_f"] / snr
            spec = REGISTRY["product2"]
            f = spec.evaluate([ds.X[:, 0], ds.X[:, 1]])
            assert info["var_f"] == float(np.var(f, ddof=1))

    def test_realized_noise_matches_target_variance(self):
        spec = REGISTRY["product2"]
        ds, info = generate_dataset_with_info(spec, 20_000, 5.0, 0, seed=6)
        resid = ds.y - spec.evaluate([ds.X[:, 0], ds.X[:, 1]])
        ratio = float(np.var(resid, ddof=1)) / info["noise_var"]
        assert 0.9 < ratio < 1.1
        assert abs(resid.mean()) < 4 * np.sqrt(info["noise_var"] / 20_000)

    def test_response_invariant_to_copy_count(self):
        spec = REGISTRY["additive3"]
        ds0, info0 = generate_dataset_with_info(spec, 50, 4.0, 0, seed=7)
        ds5, info5 = generate_dataset_with_info(spec, 50, 4.0, 5, seed=7)
        np.testing.assert_array_equal(ds0.y, ds5.y)
        np.testing.assert_array_equal(ds0.X, ds5.X[:, : spec.p0])
        assert info0["var_f"] == info5["var_f"]

    def test_seed_determinism(self):
        a = generate_dataset(REGISTRY["product2"], 40, 3.0, 2, seed=9)
        b = generate_dataset(REGISTRY["product2"], 40, 3.0, 2, seed=9)
        c = generate_dataset(REGISTRY["product2"], 40, 3.0, 2, seed=10)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.X, b.X)
        assert not np.array_equal(a.y, c.y)

    def test_copies_are_independent_of_parents(self):
        n = 4000
        ds = generate_dataset(REGISTRY["product2"], n, None, 2, seed=11)
        corrs = []
        for parent, copies in ((0, (2, 3)), (1, (4, 5))):
            for j in copies:
                corrs.append(abs(np.corrcoef(ds.X[:, parent], ds.X[:, j])[0, 1]))
        assert np.mean(corrs) < 2 / np.sqrt(n)
        assert max(corrs) < 0.1

    def test_nonfinite_points_are_resampled(self):
        # sqrt is undefined below 0.5 here, so about half the draws need a redraw
        spec = eq("sqrt(x1 - 0.5)", [(0, 1)])
        ds = generate_dataset(spec, 300, None, 0, seed=12)
        assert np.all(ds.X[:, 0] >= 0.5)
        assert np.all(np.isfinite(ds.y))

    def test_always_nonfinite_equation_aborts(self):
        spec = eq("sqrt(x1 - 10)", [(0, 1)])
        with pytest.raises(BenchmarkError, match="100 resampling rounds"):
            generate_dataset(spec, 3, None, 0, seed=13)

    def test_single_row_is_noiseless(self):
        ds, info = generate_dataset_with_info(REGISTRY["product2"], 1, 10.0, 0, seed=14)
        assert info["var_f"] == 0.0 and info["noise_var"] == 0.0
        assert ds.y[0] == ds.X[0, 0] * ds.X[0, 1]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n=0), "n must be >= 1"),
            (dict(s_copies=-1), "S must be >= 0"),
            (dict(snr=0.0), "snr must be positive"),
            (dict(snr=-2.0), "snr must be positive"),
        ],
    )
    def test_argument_validation(self, kwargs, match):
        args = dict(n=10, snr=5.0, s_copies=1, seed=0)
        args.update(kwargs)
        with pytest.raises(BenchmarkError, match=match):
            generate_dataset(REGISTRY["product2"], **args)


class TestComputeMetrics:
    def test_pinned_example(self):
        m = compute_metrics({1, 2, 3}, {1, 2}, p=102)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 0, 99)
        assert m.tpr == 1.0
        assert m.fpr == 0.01
        assert m.f1 == 0.8
        assert m.no_selection is False

    def test_empty_selection_zeros_rates(self):
        m = compute_metrics(set(), {1, 2}, p=102)
        assert (m.tp, m.fp, m.fn, m.tn) == (0, 0, 2, 100)
        assert m.tpr == m.fpr == m.f1 == 0.0
        assert m.no_selection is True

    def test_perfect_selection(self):
        m = compute_metrics({1, 2}, {1, 2}, p=10)
        assert m.tpr == 1.0 and m.fpr == 0.0 and m.f1 == 1.0

    def test_fully_wrong_selection(self):
        m = compute_metrics({3, 4}, {1, 2}, p=4)
        assert (m.tp, m.fp, m.fn, m.tn) == (0, 2, 2, 0)
        assert m.tpr == 0.0 and m.fpr == 1.0 and m.f1 == 0.0

    def test_runtime_recorded(self):
        assert compute_metrics({1}, {1}, p=2, runtime_s=1.5).runtime_s == 1.5

    def test_accepts_any_int_iterable(self):
        m = compute_metrics((np.int64(1),), [2], p=3)
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    @pytest.mark.parametrize("selected, truth", [({0}, {1}), ({3}, {1}), ({1}, {0}), ({1}, {5})])
    def test_out_of_range_indices_rejected(self, selected, truth):
        with pytest.raises(ValueError, match="out of range"):
            compute_metrics(selected, truth, p=2)

    def test_record_is_frozen(self):
        m = compute_metrics({1}, {1}, p=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.tp = 5


class TestGridPoint:
    def test_fit_config_applies_overrides(self):
        pt = GridPoint("product2", 40, 5.0, 1, "dart-mpm", fit_overrides=FAST)
        cfg = pt.fit_config()
        assert cfg.n_trees == 4 and cfg.burn_in == 20 and cfg.n_draws == 20
        assert cfg.gamma == FitConfig().gamma

    def test_defaults(self):
        pt = GridPoint("product2", 40, 5.0, 1, "dart-mpm")
        assert pt.l_rep is None and pt.l_perm == 50
        assert pt.alpha == 0.05 and pt.seed == 0 and pt.replicate == 0

    def test_replicate_seed_stride(self):
        assert REPLICATE_SEED_STRIDE == 100_000

    def test_run_config_follows_the_seed_scheme(self):
        pt = GridPoint("product2", 40, 5.0, 1, "bart-vip-gse", l_rep=3, seed=7, replicate=2)
        assert pt.data_seed == 7 + 2 * REPLICATE_SEED_STRIDE
        config = pt.run_config(jobs=2)
        assert config == RunConfig(
            method="bart-vip-gse", l_rep=3, l_perm=50, alpha=0.05, seed=pt.data_seed + 1, jobs=2
        )
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            dataclasses.replace(pt, method="nope").run_config()


def fast_point(**kwargs):
    args = dict(
        equation="product2",
        n=40,
        snr=5.0,
        s_copies=1,
        method="dart-mpm",
        seed=3,
        fit_overrides=FAST,
    )
    args.update(kwargs)
    return GridPoint(**args)


# fit seeds of the grid row whose fits _fit_or_die and its variants fail
DOOMED_SEEDS = frozenset({51, 52})
_real_fit_one = methods._fit_one

# grid-r2's methods and l_perm values (perfbench/workloads.py), at l_rep=2
GRID_R2_METHODS = (
    ("bart-mi-local", 3),
    ("bart-vip-local", 3),
    ("bart-vip-gmax", 3),
    ("bart-vip-gse", 6),
    ("dart-vc-measure", 3),
    ("dart-mpm", 3),
)


def _fit_or_die(task):
    """``methods._fit_one``, except that the worker process exits on the
    doomed row's seeds and on every DART replicate fit. Module level, so the
    pool can pickle it."""
    dataset, cfg = task
    if cfg.seed in DOOMED_SEEDS or cfg.prior_kind == "dart":
        os._exit(1)
    return _real_fit_one(task)


def _fit_or_be_killed(task):
    """``methods._fit_one``, except that the worker process is killed by
    SIGKILL, as the out-of-memory killer would kill it, on the doomed row's
    seeds."""
    dataset, cfg = task
    if cfg.seed in DOOMED_SEEDS:
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_fit_one(task)


def _fit_or_raise(task):
    """``methods._fit_one``, except that the first doomed seed raises
    FitError after a pause long enough for the fits queued behind it on the
    other worker to finish."""
    dataset, cfg = task
    if cfg.seed == min(DOOMED_SEEDS):
        time.sleep(0.5)
        raise FitError("doomed seed")
    return _real_fit_one(task)


def _die(task):
    """A pool task that ends its worker process at once."""
    os._exit(1)


def without_runtime(row):
    return dataclasses.replace(row, metrics=dataclasses.replace(row.metrics, runtime_s=0.0))


def count_pools(monkeypatch, submitted: list | None = None) -> list:
    """Replace the pool class the sampler builds with one that counts
    constructions; returns the list the count is appended to. Each
    submitted ``(worker name, task)`` is appended to ``submitted``."""
    built = []

    class CountingPool(sampler.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            if submitted is not None:
                submitted.append((fn.__name__, *args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(sampler, "ProcessPoolExecutor", CountingPool)
    return built


class TestRunGrid:
    def test_single_point(self):
        rows = run_grid([fast_point()])
        assert len(rows) == 1
        row = rows[0]
        assert row.index == 0 and row.error is None
        assert row.p == 4 and row.data_seed == 3
        assert isinstance(row.metrics, MetricsRecord)
        assert row.selected == tuple(sorted(row.selected))
        assert row.metrics.runtime_s > 0
        assert row.var_f > 0 and row.noise_var == pytest.approx(row.var_f / 5.0)

    def test_replicate_changes_data_seed_and_data(self):
        rows = run_grid([fast_point(replicate=0), fast_point(replicate=3)])
        assert rows[0].data_seed == 3
        assert rows[1].data_seed == 3 + 3 * REPLICATE_SEED_STRIDE
        assert rows[0].var_f != rows[1].var_f

    def test_errors_are_isolated_per_row(self):
        pts = [
            fast_point(),
            fast_point(equation="nope"),
            dataclasses.replace(fast_point(), method="nope"),
            fast_point(seed=4),
        ]
        rows = run_grid(pts)
        assert [r.index for r in rows] == [0, 1, 2, 3]
        assert rows[0].error is None and rows[3].error is None
        assert "unknown equation" in rows[1].error and rows[1].metrics is None
        assert "unknown method" in rows[2].error and rows[2].metrics is None

    def test_empty_grid_rejected(self):
        with pytest.raises(BenchmarkError, match="grid is empty"):
            run_grid([])

    def test_l_rep_prefix_matches_standalone_run(self):
        short = fast_point(method="bart-vc-measure", l_rep=2)
        lone = run_grid([short])[0]
        paired = run_grid([fast_point(method="bart-vc-measure", l_rep=5), short])[1]
        assert paired.selected == lone.selected
        assert paired.var_f == lone.var_f and paired.data_seed == lone.data_seed
        a, b = paired.metrics, lone.metrics
        assert dataclasses.replace(a, runtime_s=0.0) == dataclasses.replace(b, runtime_s=0.0)

    def test_skip_omits_rows(self):
        pts = [fast_point(), fast_point(replicate=1)]
        rows = run_grid(pts, skip=lambda i, pt: i == 0)
        assert [r.index for r in rows] == [1]

    def test_progress_sees_rows_in_order(self):
        seen = []
        run_grid([fast_point(), fast_point(replicate=1)], progress=lambda r: seen.append(r.index))
        assert seen == [0, 1]

    def test_custom_equation_mapping(self):
        eqs = {"lin2": {"expression": "x1 + x2", "ranges": [[0, 1], [0, 1]]}}
        row = run_grid([fast_point(equation="lin2", snr=None)], equations=eqs)[0]
        assert row.error is None and row.p == 4

    def test_custom_equation_missing_key(self):
        eqs = {"bad": {"ranges": [[0, 1]]}}
        row = run_grid([fast_point(equation="bad")], equations=eqs)[0]
        assert "missing key" in row.error

    def test_shared_dataset_across_methods(self):
        rows = run_grid([fast_point(), fast_point(method="bart-vc-measure", l_rep=2)])
        assert rows[0].var_f == rows[1].var_f
        assert rows[0].data_seed == rows[1].data_seed

    def test_grown_null_fits_only_the_missing_permutations(self, monkeypatch):
        from bartsel import selection

        real_null_row = selection._null_row
        fitted = []

        def counting_null_row(task):
            fitted.append(task[-1])  # the permutation index ell
            return real_null_row(task)

        local = fast_point(method="bart-vip-local", l_rep=2, l_perm=3)
        gse = fast_point(method="bart-vip-gse", l_rep=2, l_perm=6)
        monkeypatch.setattr(selection, "_null_row", counting_null_row)
        rows = run_grid([local, gse], jobs=1)
        assert fitted == [1, 2, 3, 4, 5, 6]
        monkeypatch.undo()
        lone = run_grid([gse], jobs=1)[0]
        grown = rows[1]
        assert grown.error is None and grown.selected == lone.selected
        a, b = grown.metrics, lone.metrics
        assert dataclasses.replace(a, runtime_s=0.0) == dataclasses.replace(b, runtime_s=0.0)

    def test_one_pool_per_run(self, monkeypatch):
        pts = [
            fast_point(method="bart-vip-local", l_rep=2, l_perm=3),
            fast_point(method="bart-vc-measure", l_rep=3),
            fast_point(method="dart-vc-measure", l_rep=2),
            fast_point(method="bart-vip-gse", l_rep=3, l_perm=5),
        ]
        built = count_pools(monkeypatch)
        serial = run_grid(pts, jobs=1)
        assert built == []
        parallel = run_grid(pts, jobs=2)
        assert len(built) == 1
        assert all(row.error is None for row in parallel)
        assert [without_runtime(r) for r in parallel] == [without_runtime(r) for r in serial]

        dataset = generate_dataset(REGISTRY["product2"], 40, 5.0, 1, seed=3)
        config = RunConfig(
            method="bart-vip-gmax", fit=pts[0].fit_config(), l_rep=2, l_perm=3, seed=4, jobs=2
        )
        built.clear()
        run_method(dataset, config)
        assert len(built) == 1
        built.clear()
        run_method(dataset, dataclasses.replace(config, method="dart-mpm", l_rep=1))
        assert built == []  # a lone fit runs in this process
        with Workers(1) as workers, pytest.raises(ValueError, match="config.jobs"):
            run_method(dataset, config, workers=workers)

    def test_dead_worker_fails_only_its_row(self, monkeypatch):
        pts = [
            fast_point(method="bart-vip-local", l_rep=2, l_perm=3, seed=0),
            fast_point(method="bart-vc-measure", l_rep=2, seed=50),  # fit seeds 51, 52
            fast_point(method="bart-vip-gmax", l_rep=2, l_perm=3, seed=100),
        ]
        serial = run_grid(pts, jobs=1)
        # forked workers inherit the patch; the parent never calls the worker
        # itself here, because every fan-out has at least two tasks
        for fit_one in (_fit_or_die, _fit_or_be_killed):
            monkeypatch.setattr(methods, "_fit_one", fit_one)
            rows = run_grid(pts, jobs=2)
            assert rows[1].error.startswith("BrokenProcessPool") and rows[1].metrics is None
            for i in (0, 2):
                assert rows[i].error is None
                assert without_runtime(rows[i]) == without_runtime(serial[i])

    def test_broken_pool_is_retried_once_on_a_new_pool(self, monkeypatch):
        built = count_pools(monkeypatch)
        with Workers(2) as workers, pytest.raises(BrokenProcessPool):
            workers.map(_die, [1, 2])  # nothing else queued
        assert len(built) == 2

    def test_dead_worker_on_a_shared_dataset_fails_only_its_row(self, monkeypatch):
        # every fit of the dataset is queued when row 0 starts, the DART ones too
        pts = [
            fast_point(method="bart-vip-local", l_rep=2, l_perm=3),
            fast_point(method="dart-vc-measure", l_rep=2),
            fast_point(method="bart-vip-gse", l_rep=2, l_perm=5),
        ]
        serial = run_grid(pts, jobs=1)
        monkeypatch.setattr(methods, "_fit_one", _fit_or_die)
        rows = run_grid(pts, jobs=2)
        assert rows[1].error.startswith("BrokenProcessPool") and rows[1].metrics is None
        for i in (0, 2):
            assert rows[i].error is None
            assert without_runtime(rows[i]) == without_runtime(serial[i])

    def test_grid_queues_each_fit_once_before_the_first_row_ends(self, monkeypatch):
        pts = [fast_point(method=m, l_rep=2, l_perm=l_perm) for m, l_perm in GRID_R2_METHODS]
        serial = run_grid(pts, jobs=1)
        submitted: list = []
        built = count_pools(monkeypatch, submitted)
        queued_at_row = []
        parallel = run_grid(pts, jobs=2, progress=lambda row: queued_at_row.append(len(submitted)))
        # 2 BART and 2 DART replicate fits and 6 null fits, each submitted once
        assert len(built) == 1 and len(submitted) == 10 and len(set(submitted)) == 10
        assert queued_at_row == [10] * len(pts)
        assert all(row.error is None for row in parallel)
        assert [without_runtime(r) for r in parallel] == [without_runtime(r) for r in serial]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_dataset_is_dropped_after_its_last_point(self, monkeypatch, jobs):
        made = []

        def generate(*args):
            dataset, info = generate_dataset_with_info(*args)
            made.append(weakref.ref(dataset))
            return dataset, info

        alive = []

        def progress(row):
            gc.collect()
            alive.append([ref() is not None for ref in made])

        monkeypatch.setattr(benchmark, "generate_dataset_with_info", generate)
        monkeypatch.setattr(methods, "_fit_one", _fit_or_raise)
        first = [fast_point(method="bart-vip-local", l_rep=2, l_perm=3), fast_point(l_rep=2)]
        # its first replicate fit raises, so its queued null fits are never taken
        failing = [fast_point(method="bart-vip-local", l_rep=2, l_perm=3, seed=50)]
        second = [dataclasses.replace(pt, seed=4) for pt in first]
        rows = run_grid(first + failing + second, jobs=jobs, progress=progress)
        assert rows[2].error.startswith("FitError") and rows[2].metrics is None
        assert all(row.error is None for i, row in enumerate(rows) if i != 2)
        assert alive == [
            [True],
            [False],
            [False, False],
            [False, False, True],
            [False, False, False],
        ]


def count_fits(monkeypatch) -> dict:
    """Count the replicate and the permutation fits run in this process."""
    from bartsel import selection

    calls = {"replicate": 0, "null": 0}
    real_null_row = selection._null_row

    def fit_one(task):
        calls["replicate"] += 1
        return _real_fit_one(task)

    def null_row(task):
        calls["null"] += 1
        return real_null_row(task)

    monkeypatch.setattr(methods, "_fit_one", fit_one)
    monkeypatch.setattr(selection, "_null_row", null_row)
    return calls


class TestOneFitPerChain:
    """Every fit keeps the MI sum, so MI and VIP points share fits."""

    @pytest.mark.parametrize("mi_first", [True, False], ids=["mi-first", "mi-last"])
    def test_grid_fits_each_chain_once(self, monkeypatch, mi_first):
        mi = fast_point(method="bart-mi-local", l_rep=2, l_perm=3)
        local = fast_point(method="bart-vip-local", l_rep=2, l_perm=3)
        gse = fast_point(method="bart-vip-gse", l_rep=2, l_perm=6)
        pts = [mi, local, gse] if mi_first else [local, gse, mi]
        calls = count_fits(monkeypatch)
        rows = run_grid(pts, jobs=1)
        assert calls == {"replicate": 2, "null": 6}
        monkeypatch.undo()
        for row, pt in zip(rows, pts, strict=True):
            assert row.error is None
            lone = dataclasses.replace(run_grid([pt])[0], index=row.index)
            assert without_runtime(row) == without_runtime(lone)

    def test_mi_point_with_a_bad_override_fails_in_its_own_row(self):
        bad = fast_point(method="bart-mi-local", l_rep=2, l_perm=3, fit_overrides=(("n_tree", 4),))
        rows = run_grid([bad, fast_point(method="bart-vip-local", l_rep=2, l_perm=3)])
        assert rows[0].error.startswith("TypeError") and rows[1].error is None

    def test_mi_and_vip_requests_grow_one_cache(self, monkeypatch):
        dataset = generate_dataset(REGISTRY["product2"], 40, 5.0, 1, seed=3)
        fit_cfg = fast_point().fit_config()
        vip = RunConfig(method="bart-vip-local", fit=fit_cfg, l_rep=2, l_perm=3, seed=4)
        mi = dataclasses.replace(vip, method="bart-mi-local", l_rep=3, l_perm=4)
        vip_more = dataclasses.replace(vip, l_rep=4, l_perm=5)
        mi_more = dataclasses.replace(mi, l_rep=4, l_perm=5)
        calls = count_fits(monkeypatch)
        cache: dict = {}
        results = []
        # (request, replicate and null fits it runs on the shared cache)
        steps = [
            (vip, (2, 3)),
            (mi, (1, 1)),  # the VIP request's fits carry MI: only the missing rows run
            (dataclasses.replace(vip, l_rep=3, l_perm=4), (0, 0)),
            (vip_more, (1, 1)),
            (mi_more, (0, 0)),
        ]
        for config, (n_rep, n_null) in steps:
            before = dict(calls)
            results.append((config, run_method(dataset, config, cache=cache)))
            assert calls["replicate"] - before["replicate"] == n_rep
            assert calls["null"] - before["null"] == n_null
        monkeypatch.undo()
        for config, grown in results:
            lone = run_method(dataset, config)
            assert grown.selection.selected == lone.selection.selected
            np.testing.assert_array_equal(grown.importance, lone.importance)
            np.testing.assert_array_equal(grown.null, lone.null)
