"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from bartsel import Dataset, PosteriorTrace, validate_dataset


def make_trace(
    counts,
    seed: int = 0,
    mi_features=None,
    mi_probs=None,
    n_trees: int = 20,
) -> PosteriorTrace:
    """Build a synthetic trace carrying the given counts matrix."""
    counts = np.asarray(counts, dtype=np.int64)
    k, _ = counts.shape
    trace = PosteriorTrace.from_counts(
        counts,
        sigma2_path=np.ones(k),
        insample_mean_path=np.zeros(k),
        leaf_counts=np.ones((k, n_trees), dtype=np.int32),
        seed=seed,
        config_echo={"n_trees": n_trees},
        mi_features=None if mi_features is None else [np.asarray(a, dtype=np.int64) for a in mi_features],
        mi_probs=None if mi_probs is None else [np.asarray(a, dtype=np.float64) for a in mi_probs],
    )
    return trace


def random_trace(rng: np.random.Generator, k: int, p: int, with_mi: bool = False) -> PosteriorTrace:
    """Random counts (some draws all-zero), optional random MI node log."""
    counts = rng.integers(0, 5, size=(k, p))
    counts[rng.random(k) < 0.2] = 0
    mi_features = mi_probs = None
    if with_mi:
        mi_features, mi_probs = [], []
        for _ in range(k):
            m = int(rng.integers(0, 6))
            mi_features.append(rng.integers(0, p, size=m))
            mi_probs.append(rng.random(m))
    return make_trace(counts, mi_features=mi_features, mi_probs=mi_probs)


@pytest.fixture
def small_dataset() -> Dataset:
    """20 x 3 deterministic dataset with a clear x1 effect."""
    rng = np.random.default_rng(42)
    X = rng.uniform(0.0, 1.0, size=(20, 3))
    y = 3.0 * X[:, 0] + rng.normal(0.0, 0.1, 20)
    return validate_dataset(y, X)
