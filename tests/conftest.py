"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from bartsel import Dataset, PosteriorTrace, validate_dataset
from bartsel.summaries import mi_term
from oracles import trace_from_counts


def mi_sum_of(p: int, mi_features, mi_probs) -> np.ndarray:
    """The MI sum of a per-draw node log (split features and acceptance
    tags of each draw's internal nodes), added in draw order as the
    sampler adds it."""
    total = np.zeros(p)
    for feats, probs in zip(mi_features, mi_probs):
        total += mi_term(np.asarray(feats, dtype=np.int64), np.asarray(probs, dtype=np.float64), p)
    return total


def make_trace(
    counts,
    seed: int = 0,
    mi_features=None,
    mi_probs=None,
    n_trees: int = 20,
) -> PosteriorTrace:
    """Build a synthetic trace carrying the given counts matrix and, when a
    per-draw MI node log is given, its MI sum."""
    counts = np.asarray(counts, dtype=np.int64)
    k, p = counts.shape
    trace = trace_from_counts(
        counts,
        sigma2_path=np.ones(k),
        insample_mean_path=np.zeros(k),
        leaf_counts=np.ones((k, n_trees), dtype=np.int32),
        seed=seed,
        config_echo={"n_trees": n_trees},
        mi_sum=None if mi_features is None else mi_sum_of(p, mi_features, mi_probs),
    )
    return trace


def random_mi_log(rng: np.random.Generator, k: int, p: int):
    """A random per-draw MI node log: (features, tags), k arrays each."""
    mi_features, mi_probs = [], []
    for _ in range(k):
        m = int(rng.integers(0, 6))
        mi_features.append(rng.integers(0, p, size=m))
        mi_probs.append(rng.random(m))
    return mi_features, mi_probs


def random_trace(rng: np.random.Generator, k: int, p: int, with_mi: bool = False) -> PosteriorTrace:
    """Random counts (some draws all-zero), optional random MI node log."""
    counts = rng.integers(0, 5, size=(k, p))
    counts[rng.random(k) < 0.2] = 0
    mi_features, mi_probs = random_mi_log(rng, k, p) if with_mi else (None, None)
    return make_trace(counts, mi_features=mi_features, mi_probs=mi_probs)


@pytest.fixture
def small_dataset() -> Dataset:
    """20 x 3 deterministic dataset with a clear x1 effect."""
    rng = np.random.default_rng(42)
    X = rng.uniform(0.0, 1.0, size=(20, 3))
    y = 3.0 * X[:, 0] + rng.normal(0.0, 0.1, 20)
    return validate_dataset(y, X)
