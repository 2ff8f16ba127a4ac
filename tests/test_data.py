"""Trees, datasets, cutpoint grids, and config validation."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from bartsel import (
    CutpointGrid,
    DataError,
    DecisionTree,
    FitConfig,
    PosteriorTrace,
    RunConfig,
    validate_dataset,
)
from oracles import (
    cutpoint_count,
    split_counts,
    trace_from_counts,
    tree_internals,
    tree_leaves,
    tree_live,
    tree_prunables,
)


def grow_random_tree(rng: np.random.Generator, p: int, n_splits: int) -> DecisionTree:
    tree = DecisionTree.stump(0.0)
    for _ in range(n_splits):
        leaves = tree.leaf_ids()
        node = int(leaves[rng.integers(len(leaves))])
        l, r = tree.split_leaf(node, int(rng.integers(p)), float(rng.uniform(-1.0, 1.0)))
        tree.value[l] = float(rng.normal())
        tree.value[r] = float(rng.normal())
    return tree


class TestDataset:
    def test_names_default_to_position(self):
        ds = validate_dataset(np.zeros(4), np.zeros((4, 3)))
        assert ds.feature_names == ("x1", "x2", "x3")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="shape"):
            validate_dataset(np.zeros(4), np.zeros((5, 2)))

    def test_non_finite_rejected(self):
        y = np.array([0.0, np.nan])
        with pytest.raises(DataError, match="finite"):
            validate_dataset(y, np.zeros((2, 1)))
        X = np.array([[0.0], [np.inf]])
        with pytest.raises(DataError, match="finite"):
            validate_dataset(np.zeros(2), X)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="unique"):
            validate_dataset(np.zeros(2), np.zeros((2, 2)), feature_names=["a", "a"])

    def test_truth_out_of_range_rejected(self):
        with pytest.raises(DataError, match="truth"):
            validate_dataset(np.zeros(2), np.zeros((2, 2)), truth=[3])

    def test_arrays_are_read_only_copies(self):
        y = np.zeros(3)
        X = np.zeros((3, 2))
        ds = validate_dataset(y, X)
        y[0] = 9.0
        X[0, 0] = 9.0
        assert ds.y[0] == 0.0 and ds.X[0, 0] == 0.0
        with pytest.raises(ValueError):
            ds.y[0] = 1.0

    def test_with_response_swaps_y_and_drops_truth(self):
        rng = np.random.default_rng(0)
        ds = validate_dataset(rng.normal(size=5), rng.normal(size=(5, 2)), truth=[1])
        y2 = np.arange(5.0)
        ds2 = ds.with_response(y2)
        assert np.array_equal(ds2.y, y2)
        assert np.array_equal(ds2.X, ds.X)
        # a permuted response has no meaningful truth set
        assert ds2.truth is None

    def test_with_response_wrong_length_rejected(self):
        ds = validate_dataset(np.zeros(4), np.zeros((4, 2)))
        with pytest.raises(DataError, match="shape"):
            ds.with_response(np.zeros(3))


class TestCutpointGrid:
    def test_distinct_observed_values(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [1.0, 7.0]])
        grid = CutpointGrid.from_matrix(X)
        assert np.array_equal(grid.grids[0], [1.0, 2.0])
        assert np.array_equal(grid.grids[1], [5.0, 7.0])

    def test_constant_column_has_single_cutpoint(self):
        grid = CutpointGrid.from_matrix(np.ones((4, 1)))
        assert cutpoint_count(grid, 0) == 1


def full_trace() -> PosteriorTrace:
    """A two-draw trace with every optional field present."""
    return trace_from_counts(
        [[1, 0, 2], [0, 1, 1]],
        sigma2_path=np.array([0.5, 0.25]),
        insample_mean_path=np.array([1.0, 1.5]),
        leaf_counts=np.array([[2, 3], [3, 2]], dtype=np.int32),
        seed=7,
        config_echo={"n_trees": 2},
        mi_sum=np.array([0.5, 0.25, 1.25]),
        alpha_path=np.array([3.0, 2.5]),
        s_path=np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]),
    )


def altered_values(value) -> list:
    """Values that differ from ``value`` in one element, in shape or length."""
    if isinstance(value, np.ndarray):
        bumped = value.copy()
        bumped.flat[0] += 1
        return [bumped, value.reshape(-1, 1)]
    if isinstance(value, dict):
        return [{**value, "n_trees": 3}]
    return [value + 1]


class TestPosteriorTraceEquality:
    def test_deep_copy_is_equal(self):
        assert full_trace() == copy.deepcopy(full_trace())
        bare = dataclasses.replace(
            full_trace(), mi_sum=None, alpha_path=None, s_path=None
        )
        assert bare == copy.deepcopy(bare)
        assert bare != full_trace() and full_trace() != bare

    @pytest.mark.parametrize("field", dataclasses.fields(PosteriorTrace), ids=lambda f: f.name)
    def test_each_field_is_compared(self, field):
        trace = full_trace()
        others = altered_values(getattr(trace, field.name))
        if field.default is None:  # optional: present vs absent differs too
            others.append(None)
        for value in others:
            other = dataclasses.replace(trace, **{field.name: value})
            assert trace != other and other != trace


class TestTreeArena:
    def test_split_then_prune_restores_stump_shape(self):
        tree = DecisionTree.stump(0.5)
        root = tree.root
        tree.split_leaf(root, 1, 0.0)
        assert tree.n_leaves() == 2
        assert tree.internal_ids() == [root]
        tree.prune(root)
        assert tree.n_leaves() == 1
        assert tree.feature[root] < 0
        tree.validate()

    def test_prune_rejects_non_prunable(self):
        tree = DecisionTree.stump(0.0)
        l, _ = tree.split_leaf(tree.root, 0, 0.0)
        tree.split_leaf(l, 0, -0.5)
        with pytest.raises(ValueError, match="prunable"):
            tree.prune(tree.root)

    def test_prunable_ids_have_two_leaf_children(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tree = grow_random_tree(rng, p=3, n_splits=6)
            for i in tree.prunable_ids():
                assert tree.feature[tree.left[i]] < 0
                assert tree.feature[tree.right[i]] < 0
            tree.validate()

    def test_free_list_reuses_slots(self):
        tree = DecisionTree.stump(0.0)
        tree.split_leaf(tree.root, 0, 0.0)
        size_before = tree.arena_size
        tree.prune(tree.root)
        tree.split_leaf(tree.root, 0, 1.0)
        assert tree.arena_size == size_before

    def test_queries_match_brute_force_under_grow_and_prune(self):
        rng = np.random.default_rng(13)
        reused = 0
        for _ in range(30):
            tree = DecisionTree.stump(0.0)
            allocated = 1
            for _ in range(40):
                prunable = tree_prunables(tree)
                if prunable and rng.random() < 0.45:
                    tree.prune(prunable[int(rng.integers(len(prunable)))])
                else:
                    leaves = tree_leaves(tree)
                    node = leaves[int(rng.integers(len(leaves)))]
                    tree.split_leaf(node, int(rng.integers(3)), float(rng.normal()))
                    allocated += 2
                for t in (tree, copy.deepcopy(tree)):
                    t.validate()
                    assert t.node_ids() == tree_live(tree)
                    assert t.leaf_ids() == tree_leaves(tree)
                    assert t.internal_ids() == tree_internals(tree)
                    assert t.prunable_ids() == tree_prunables(tree)
                    assert t.n_leaves() == len(tree_leaves(tree))
            reused += allocated - tree.arena_size
            # a copy is independent of the tree it came from
            dup = copy.deepcopy(tree)
            dup.split_leaf(dup.leaf_ids()[0], 0, 0.0)
            assert tree.node_ids() == tree_live(tree) and tree.n_leaves() + 1 == dup.n_leaves()
        assert reused > 0  # freed slots were handed out again

    def test_validate_catches_a_free_list_out_of_step(self):
        tree = DecisionTree.stump(0.0)
        tree.split_leaf(tree.root, 0, 0.0)
        tree.prune(tree.root)
        tree.validate()
        tree._free.pop()
        with pytest.raises(AssertionError, match="free"):
            tree.validate()

    def test_split_counts_by_feature(self):
        tree = DecisionTree.stump(0.0)
        tree.split_leaf(tree.root, 2, 0.0)
        left = tree.left[tree.root]
        tree.split_leaf(left, 2, -0.5)
        counts = split_counts(tree, p=4)
        assert counts.tolist() == [0, 0, 2, 0]

    def test_depth_tracks_splits(self):
        tree = DecisionTree.stump(0.0)
        assert tree.depth(tree.root) == 0
        l, _ = tree.split_leaf(tree.root, 0, 0.0)
        assert tree.depth(l) == 1

    def test_copy_is_independent(self):
        tree = DecisionTree.stump(1.0)
        dup = copy.deepcopy(tree)
        dup.split_leaf(dup.root, 0, 0.0)
        assert tree.n_leaves() == 1 and dup.n_leaves() == 2

    def test_cached_id_lists_follow_each_edit(self):
        tree = DecisionTree.stump(0.0)
        l, r = tree.split_leaf(tree.root, 0, 0.0)
        assert tree.leaf_ids() == [l, r] and tree.prunable_ids() == [tree.root]
        ll, lr = tree.split_leaf(l, 1, 0.5)
        assert tree.leaf_ids() == [r, ll, lr] and tree.prunable_ids() == [l]
        tree.set_rule(l, 2, -1.0)  # a rule swap keeps both sets
        assert tree.leaf_ids() == [r, ll, lr] and tree.prunable_ids() == [l]
        dup = copy.deepcopy(tree)
        tree.prune(l)
        assert tree.leaf_ids() == [l, r] and tree.prunable_ids() == [tree.root]
        assert dup.leaf_ids() == [r, ll, lr] and dup.prunable_ids() == [l]
        tree.validate()
        dup.validate()

    def test_validate_catches_a_stale_id_cache(self):
        tree = DecisionTree.stump(0.0)
        tree.split_leaf(tree.root, 0, 0.0)
        tree.leaf_ids()
        tree.prunable_ids()
        tree.validate()
        tree._leaves = [tree.root]
        with pytest.raises(AssertionError, match="stale leaf"):
            tree.validate()
        tree._leaves = None
        tree._prunables = []
        with pytest.raises(AssertionError, match="stale prunable"):
            tree.validate()


class TestFitConfig:
    def test_defaults_are_valid(self):
        FitConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"n_draws": 0},
            {"burn_in": -1},
            {"gamma": 1.0},
            {"beta": -0.1},
            {"prior_kind": "lasso"},
            {"alpha_grid_size": 0},
            {"p_birth": 0.7, "p_death": 0.4},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            FitConfig(seed=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["gamma", "beta", "k_leaf", "nu", "q", "dart_a", "dart_b", "dart_rho", "p_birth", "p_death"],
    )
    def test_non_finite_fields_rejected_by_name(self, field, value):
        name = "move probabilities" if field.startswith("p_") else field
        with pytest.raises(ValueError, match=name):
            FitConfig(**{field: value})

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="n_trees"):
            dataclasses.replace(FitConfig(), n_trees=0)


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"method": "nope"}, "unknown method 'nope'; choose one of bart-vip-local"),
            ({"method": "dart-vc-measure", "l_rep": 0}, "l_rep must be >= 1"),
            ({"method": "bart-vip-gmax", "l_perm": 0}, "needs l_perm >= 1"),
            ({"method": "dart-mpm", "alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
            ({"method": "dart-mpm", "alpha": 1.0}, r"alpha must lie in \(0, 1\)"),
            ({"method": "dart-mpm", "jobs": 0}, "jobs must be >= 1"),
            ({"method": "dart-mpm", "seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_configs_rejected_on_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)

    def test_cluster_method_needs_no_permutations(self):
        assert RunConfig(method="bart-vc-measure", l_perm=0).l_perm == 0

    def test_replace_checks_again(self):
        config = RunConfig(method="bart-vip-local")
        with pytest.raises(ValueError, match="alpha"):
            dataclasses.replace(config, alpha=2.0)
        with pytest.raises(ValueError, match="needs l_perm"):
            dataclasses.replace(config, l_perm=0)
