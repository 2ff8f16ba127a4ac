"""Core data structures: datasets, cutpoint grids, decision trees, fit
configuration, and posterior traces.

Conventions used throughout the package:

* matrices and importance vectors are positional (0-based columns);
* *feature index sets* (ground truth, selected sets) are 1-based, matching
  the usual statistical numbering x1..xp;
* all randomness flows through ``numpy.random.Generator`` objects seeded
  explicitly by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "validate_dataset",
    "CutpointGrid",
    "DecisionTree",
    "FitConfig",
    "PosteriorTrace",
]


class DataError(ValueError):
    """Raised when an input table fails validation."""


@dataclass(frozen=True)
class Dataset:
    """A validated regression dataset.

    Attributes
    ----------
    y : ndarray, shape (n,)
        Continuous response.
    X : ndarray, shape (n, p)
        Feature matrix, all entries finite.
    feature_names : tuple of str
        Column names, length p.
    truth : frozenset of int or None
        Optional ground-truth relevant features, 1-based indices.
    """

    y: np.ndarray
    X: np.ndarray
    feature_names: tuple[str, ...]
    truth: frozenset[int] | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def with_response(self, y_new: np.ndarray) -> "Dataset":
        """Same features, new response (used by permutation nulls)."""
        y_new = np.asarray(y_new, dtype=np.float64)
        if y_new.shape != (self.n,):
            raise DataError(f"replacement response has shape {y_new.shape}, expected ({self.n},)")
        y_new = y_new.copy()
        y_new.flags.writeable = False
        return replace(self, y=y_new, truth=None)


def validate_dataset(
    y,
    X,
    feature_names: Sequence[str] | None = None,
    truth: Sequence[int] | None = None,
) -> Dataset:
    """Validate raw arrays and construct an immutable :class:`Dataset`.

    Raises :class:`DataError` naming the offending row/column on non-finite
    entries, shape mismatches, or out-of-range truth indices.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"feature matrix must be 2-dimensional, got ndim={X.ndim}")
    n, p = X.shape
    if n < 1 or p < 1:
        raise DataError(f"feature matrix must be non-empty, got shape {X.shape}")
    if y.shape != (n,):
        raise DataError(f"response has shape {y.shape}, expected ({n},)")
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"non-finite feature value at row {i}, column {j}")
    bad_y = np.flatnonzero(~np.isfinite(y))
    if bad_y.size:
        raise DataError(f"non-finite response value at row {bad_y[0]}")
    if feature_names is None:
        names = tuple(f"x{j + 1}" for j in range(p))
    else:
        names = tuple(str(s) for s in feature_names)
        if len(names) != p:
            raise DataError(f"{len(names)} feature names for {p} columns")
        if len(set(names)) != p:
            raise DataError("feature names must be unique")
    truth_set: frozenset[int] | None = None
    if truth is not None:
        truth_set = frozenset(int(t) for t in truth)
        out = [t for t in truth_set if not 1 <= t <= p]
        if out:
            raise DataError(f"truth indices out of range 1..{p}: {sorted(out)}")
    X = X.copy()
    y = y.copy()
    X.flags.writeable = False
    y.flags.writeable = False
    return Dataset(y=y, X=X, feature_names=names, truth=truth_set)


@dataclass(frozen=True)
class CutpointGrid:
    """Per-feature candidate cutpoints: the sorted distinct observed values."""

    grids: tuple[np.ndarray, ...]

    @classmethod
    def from_matrix(cls, X: np.ndarray) -> "CutpointGrid":
        cols = []
        for j in range(X.shape[1]):
            g = np.unique(X[:, j])
            g.flags.writeable = False
            cols.append(g)
        return cls(grids=tuple(cols))


_NO_NODE = -1
# ``feature`` tag of an arena slot on the free list, so every structure query
# is one pass over ``feature``
_FREE = -2


class DecisionTree:
    """Binary regression tree stored as an indexed node arena.

    Node ``i`` is a leaf iff ``feature[i] == -1`` and internal iff
    ``feature[i] >= 0``; internal nodes carry an axis-aligned rule
    ``x[feature] <= cutpoint`` routing left. Freed slots are tagged
    ``feature == -2`` and recycled through a free list so ids stay small
    during sampling. ``accept_prob[i]`` is a bookkeeping tag on internal
    nodes: the Metropolis-Hastings acceptance probability min(1, r) of the
    move that created or last modified the rule at ``i``.

    ``leaf_ids()`` and ``prunable_ids()`` cache their lists until the next
    ``split_leaf`` or ``prune``; ``set_rule`` changes neither set. Callers
    must not mutate the returned lists.
    """

    __slots__ = (
        "feature",
        "cutpoint",
        "left",
        "right",
        "parent",
        "value",
        "accept_prob",
        "root",
        "_free",
        "_leaves",
        "_prunables",
    )

    def __init__(self) -> None:
        self.feature: list[int] = [_NO_NODE]
        self.cutpoint: list[float] = [0.0]
        self.left: list[int] = [_NO_NODE]
        self.right: list[int] = [_NO_NODE]
        self.parent: list[int] = [_NO_NODE]
        self.value: list[float] = [0.0]
        self.accept_prob: list[float] = [0.0]
        self.root: int = 0
        self._free: list[int] = []
        self._leaves: list[int] | None = None
        self._prunables: list[int] | None = None

    @classmethod
    def stump(cls, value: float = 0.0) -> "DecisionTree":
        t = cls()
        t.value[t.root] = float(value)
        return t

    # -- structure queries ------------------------------------------------
    # Every id list is ascending: the sampler draws from them by position.

    @property
    def arena_size(self) -> int:
        return len(self.feature)

    def is_leaf(self, i: int) -> bool:
        return self.feature[i] < 0

    def node_ids(self) -> list[int]:
        """Live node ids in increasing order."""
        return [i for i, f in enumerate(self.feature) if f != _FREE]

    def leaf_ids(self) -> list[int]:
        if self._leaves is None:
            self._leaves = self._scan_leaves()
        return self._leaves

    def internal_ids(self) -> list[int]:
        return [i for i, f in enumerate(self.feature) if f >= 0]

    def prunable_ids(self) -> list[int]:
        """Internal nodes whose children are both leaves."""
        if self._prunables is None:
            self._prunables = self._scan_prunables()
        return self._prunables

    def _scan_leaves(self) -> list[int]:
        return [i for i, f in enumerate(self.feature) if f == _NO_NODE]

    def _scan_prunables(self) -> list[int]:
        feature, left, right = self.feature, self.left, self.right
        return [
            i
            for i, f in enumerate(feature)
            if f >= 0 and feature[left[i]] < 0 and feature[right[i]] < 0
        ]

    def n_leaves(self) -> int:
        return len(self.leaf_ids())

    def depth(self, i: int) -> int:
        d = 0
        while self.parent[i] != _NO_NODE:
            i = self.parent[i]
            d += 1
        return d

    # -- structure edits ---------------------------------------------------

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        self.feature.append(_NO_NODE)
        self.cutpoint.append(0.0)
        self.left.append(_NO_NODE)
        self.right.append(_NO_NODE)
        self.parent.append(_NO_NODE)
        self.value.append(0.0)
        self.accept_prob.append(0.0)
        return len(self.feature) - 1

    def split_leaf(self, i: int, j: int, c: float) -> tuple[int, int]:
        """Turn leaf ``i`` into an internal node with rule x[j] <= c."""
        if not self.is_leaf(i):
            raise ValueError(f"node {i} is not a leaf")
        l = self._alloc()
        r = self._alloc()
        for child in (l, r):
            self.feature[child] = _NO_NODE
            self.left[child] = _NO_NODE
            self.right[child] = _NO_NODE
            self.value[child] = 0.0
            self.accept_prob[child] = 0.0
            self.parent[child] = i
        self.feature[i] = int(j)
        self.cutpoint[i] = float(c)
        self.left[i] = l
        self.right[i] = r
        self._leaves = self._prunables = None
        return l, r

    def prune(self, i: int) -> None:
        """Collapse a prunable internal node back to a leaf."""
        l, r = self.left[i], self.right[i]
        if l == _NO_NODE or self.feature[l] >= 0 or self.feature[r] >= 0:
            raise ValueError(f"node {i} is not prunable")
        self._free.extend((l, r))
        self.feature[l] = self.feature[r] = _FREE
        self.feature[i] = _NO_NODE
        self.left[i] = _NO_NODE
        self.right[i] = _NO_NODE
        self.value[i] = 0.0
        self.accept_prob[i] = 0.0
        self._leaves = self._prunables = None

    def set_rule(self, i: int, j: int, c: float) -> None:
        if self.is_leaf(i):
            raise ValueError(f"node {i} is a leaf")
        self.feature[i] = int(j)
        self.cutpoint[i] = float(c)

    # -- whole-tree views -----------------------------------------------------

    def copy(self) -> "DecisionTree":
        t = DecisionTree.__new__(DecisionTree)
        t.feature = list(self.feature)
        t.cutpoint = list(self.cutpoint)
        t.left = list(self.left)
        t.right = list(self.right)
        t.parent = list(self.parent)
        t.value = list(self.value)
        t.accept_prob = list(self.accept_prob)
        t.root = self.root
        t._free = list(self._free)
        t._leaves = t._prunables = None
        return t

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            i = stack.pop()
            assert i not in seen, f"node {i} reachable twice"
            seen.add(i)
            if self.feature[i] >= 0:
                l, r = self.left[i], self.right[i]
                assert l != _NO_NODE and r != _NO_NODE, f"internal node {i} missing a child"
                assert self.parent[l] == i and self.parent[r] == i, "parent link broken"
                stack.extend((l, r))
            else:
                assert self.left[i] == _NO_NODE and self.right[i] == _NO_NODE
        assert seen == set(self.node_ids()), "arena contains unreachable live nodes"
        assert sorted(self._free) == [i for i, f in enumerate(self.feature) if f == _FREE], (
            "free list and free-slot tags disagree"
        )
        assert self.parent[self.root] == _NO_NODE
        assert self._leaves is None or self._leaves == self._scan_leaves(), "stale leaf cache"
        assert self._prunables is None or self._prunables == self._scan_prunables(), (
            "stale prunable cache"
        )


@dataclass(frozen=True)
class FitConfig:
    """Sampler configuration.

    ``prior_kind`` selects the split-feature prior: "bart" (uniform) or
    "dart" (Dirichlet with concentration alpha resampled each sweep).
    Defaults follow the standard regression setup: 20 trees, 5000 burn-in
    sweeps, 5000 kept draws, split prior gamma/(1+d)^beta with gamma=0.95,
    beta=2, leaf sd 0.5/(k_leaf*sqrt(T)) with k_leaf=2, noise prior
    Inv-Gamma(nu/2, nu*lambda/2) with nu=3 and lambda calibrated so
    P(sigma < sd(y_scaled)) = q = 0.9.
    """

    n_trees: int = 20
    burn_in: int = 5000
    n_draws: int = 5000
    gamma: float = 0.95
    beta: float = 2.0
    k_leaf: float = 2.0
    nu: float = 3.0
    q: float = 0.9
    prior_kind: str = "bart"
    dart_a: float = 0.5
    dart_b: float = 1.0
    dart_rho: float | None = None
    alpha_grid_size: int = 1000
    p_birth: float = 0.25
    p_death: float = 0.25
    seed: int = 0
    track_mi: bool = False
    track_s_path: bool = False

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.burn_in < 0 or self.n_draws < 1:
            raise ValueError("burn_in must be >= 0 and n_draws >= 1")
        # each check is "not (in range)", so a NaN fails it
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        positive = {"k_leaf": self.k_leaf, "nu": self.nu, "dart_a": self.dart_a, "dart_b": self.dart_b}
        if self.dart_rho is not None:
            positive["dart_rho"] = self.dart_rho
        for name, value in positive.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.prior_kind not in ("bart", "dart"):
            raise ValueError(f"unknown prior_kind {self.prior_kind!r}")
        if self.alpha_grid_size < 1:
            raise ValueError("alpha_grid_size must be >= 1")
        if not (self.p_birth >= 0.0 and self.p_death >= 0.0 and self.p_birth + self.p_death <= 1.0):
            raise ValueError(
                f"move probabilities must be non-negative and sum to <= 1, "
                f"got p_birth={self.p_birth}, p_death={self.p_death}"
            )


@dataclass
class PosteriorTrace:
    """Post burn-in draws of everything the summaries need.

    The split counts are stored sparse, as CSR over the kept draws: the
    nonzero entries of draw k are ``draw_ptr[k]:draw_ptr[k + 1]``, where entry
    i says that ``count[i]`` internal nodes anywhere in the ensemble split on
    feature ``feature[i]``. Within a draw the features ascend, and every count
    is positive. Both entry arrays are int32: a count is at most the
    ensemble's number of internal nodes. ``counts`` is a dense (n_kept, p)
    view built on each access, for readers outside the package. ``mi_sum``
    is the (p,) sum over kept draws of each draw's MI term
    (``summaries.mi_term``), or None when MI was not tracked.
    """

    draw_ptr: np.ndarray
    feature: np.ndarray
    count: np.ndarray
    p: int
    sigma2_path: np.ndarray
    insample_mean_path: np.ndarray
    leaf_counts: np.ndarray
    seed: int
    config_echo: dict
    mi_sum: np.ndarray | None = None
    alpha_path: np.ndarray | None = None
    s_path: np.ndarray | None = None

    @property
    def n_kept(self) -> int:
        return self.draw_ptr.size - 1

    def entry_draws(self) -> np.ndarray:
        """The kept-draw index of each nonzero entry."""
        return np.repeat(np.arange(self.n_kept), np.diff(self.draw_ptr))

    @property
    def counts(self) -> np.ndarray:
        """Dense int64 split counts, ``counts[k, j]`` for draw k, feature j."""
        dense = np.zeros((self.n_kept, self.p), dtype=np.int64)
        dense[self.entry_draws(), self.feature] = self.count
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosteriorTrace):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if a is None or b is None:
                same = a is b
            elif isinstance(a, np.ndarray):
                same = np.array_equal(a, b)  # False on a shape mismatch
            else:
                same = a == b
            if not same:
                return False
        return True
