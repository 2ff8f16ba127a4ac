"""Selection rules: clustering-based, median-probability-model, and
permutation-threshold (Local / G.SE / G.Max) selectors.

The clustering route standardizes the summary matrix, clusters features
into two groups by average-linkage (UPGMA) hierarchical clustering under
the Euclidean metric, and keeps the high-importance cluster. UPGMA is
implemented here directly so tie-breaking (smallest pair index) is pinned.

The permutation route compares observed importances against nulls obtained
by refitting on permuted responses, using per-feature quantiles (Local),
a global SD multiplier (G.SE), or the per-permutation maximum (G.Max).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, FitConfig
from .sampler import FitError, Workers, fit
from .summaries import (
    KIND_MI,
    KIND_VIP,
    SOURCE_VIP_RANK,
    ImportanceVector,
    SummaryMatrix,
    importance,
    vip,  # noqa: F401 - unused; perfbench/tests/test_smoke.py checks this binding is traced
)

__all__ = [
    "SelectionResult",
    "Dendrogram",
    "hac_average_linkage",
    "cut_two",
    "cluster_select",
    "mpm_select",
    "permutation_null",
    "threshold_local",
    "threshold_gmax",
    "threshold_gse",
]

PERMUTATION_SEED_OFFSET = 10_000


@dataclass(frozen=True)
class SelectionResult:
    """A selected feature-index set (1-based) plus how it was reached."""

    selected: frozenset[int]
    method: str
    importance: np.ndarray
    thresholds: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def no_selection(self) -> bool:
        return len(self.selected) == 0


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of agglomerative clustering.

    Row k of ``merges`` is (id_a, id_b, height, size): cluster ids a < b
    merged at the given height into a new cluster of id m + k. Ids below m
    are the original points.
    """

    merges: np.ndarray
    m: int

    @property
    def heights(self) -> np.ndarray:
        return self.merges[:, 2]


def hac_average_linkage(points: np.ndarray) -> Dendrogram:
    """UPGMA clustering of the rows of ``points`` under Euclidean distance.

    At each step the pair of active clusters at minimal average-linkage
    distance merges; ties break toward the lexicographically smallest
    (id_a, id_b) pair.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    if m < 2:
        raise ValueError("need at least 2 points to cluster")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")

    total = 2 * m - 1
    dist = np.full((total, total), np.inf)
    diffs = pts[:, None, :] - pts[None, :, :]
    base = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(base, np.inf)
    dist[:m, :m] = base
    sizes = np.zeros(total, dtype=np.int64)
    sizes[:m] = 1

    active = list(range(m))  # kept in ascending id order
    merges = np.zeros((m - 1, 4), dtype=np.float64)
    next_id = m
    for step in range(m - 1):
        sub = dist[np.ix_(active, active)]
        flat = int(np.argmin(sub))  # row-major: first minimum = smallest pair
        i_idx, j_idx = divmod(flat, len(active))
        a, b = active[i_idx], active[j_idx]
        if a > b:
            a, b = b, a
        height = float(sub[i_idx, j_idx])
        na, nb = int(sizes[a]), int(sizes[b])
        q = next_id
        next_id += 1
        rest = [c for c in active if c != a and c != b]
        if rest:
            merged_d = (na * dist[a, rest] + nb * dist[b, rest]) / (na + nb)
            dist[q, rest] = merged_d
            dist[rest, q] = merged_d
        sizes[q] = na + nb
        merges[step] = (a, b, height, na + nb)
        active.remove(a)
        active.remove(b)
        active.append(q)  # q exceeds every current id, so order is preserved
    return Dendrogram(merges=merges, m=m)


def _members(dend: Dendrogram, cluster_id: int) -> list[int]:
    out: list[int] = []
    stack = [cluster_id]
    while stack:
        c = stack.pop()
        if c < dend.m:
            out.append(c)
        else:
            row = dend.merges[c - dend.m]
            stack.append(int(row[0]))
            stack.append(int(row[1]))
    return out


def cut_two(dend: Dendrogram) -> np.ndarray:
    """Remove the final merge; label the two remaining subtrees 0 and 1."""
    a, b = int(dend.merges[-1, 0]), int(dend.merges[-1, 1])
    labels = np.zeros(dend.m, dtype=np.int64)
    labels[_members(dend, b)] = 1
    labels[_members(dend, a)] = 0
    return labels


def cluster_select(matrix: SummaryMatrix) -> SelectionResult:
    """Two-cluster selection on a replicate summary matrix.

    log1p is applied elementwise, columns are standardized (zero-variance
    columns become all zeros), rows are clustered by UPGMA and cut into two
    groups. The group with the larger mean of raw column 1 is selected;
    for the rank-only source the smaller mean rank wins. Equal means fall
    back to the cluster containing the first feature.
    """
    Z = np.asarray(matrix.Z, dtype=np.float64)
    p = Z.shape[0]
    if p < 2:
        raise ValueError("clustering selection needs p >= 2 features")
    Zt = np.log1p(Z)
    mu = Zt.mean(axis=0)
    sd = Zt.std(axis=0)
    safe_sd = np.where(sd > 0, sd, 1.0)
    Ztil = np.where(sd > 0, (Zt - mu) / safe_sd, 0.0)
    labels = cut_two(hac_average_linkage(Ztil))
    col0 = Z[:, 0]
    mean0 = float(col0[labels == 0].mean())
    mean1 = float(col0[labels == 1].mean())
    rank_source = matrix.source_kind == SOURCE_VIP_RANK
    if mean0 == mean1:
        winner = int(labels[0])
    elif rank_source:
        winner = 0 if mean0 < mean1 else 1
    else:
        winner = 0 if mean0 > mean1 else 1
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(labels == winner))
    return SelectionResult(
        selected=selected,
        method=f"cluster-{matrix.source_kind}",
        importance=col0,
        thresholds=None,
        diagnostics={
            "cluster_means": (mean0, mean1),
            "cluster_sizes": (int((labels == 0).sum()), int((labels == 1).sum())),
            "winner": winner,
            "tie": mean0 == mean1,
        },
    )


def mpm_select(pi_hat: ImportanceVector) -> SelectionResult:
    """Median probability model: keep features with inclusion prob >= 0.5."""
    values = np.asarray(pi_hat.values, dtype=np.float64)
    if np.any(values < 0) or np.any(values > 1):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(values >= 0.5))
    return SelectionResult(
        selected=selected,
        method="mpm",
        importance=values,
        thresholds=np.full(values.shape, 0.5),
    )


def _null_row(args) -> np.ndarray:
    dataset, config, perm_seed, kind, index = args
    try:
        rng = np.random.default_rng(perm_seed)
        y_star = dataset.y[rng.permutation(dataset.n)]
        permuted = dataset.with_response(y_star)
        cfg = replace(config, seed=perm_seed, track_mi=config.track_mi or kind == KIND_MI)
        return importance(fit(permuted, cfg, rng=rng), kind)
    except Exception as exc:  # noqa: BLE001 - re-raise with the permutation index
        raise FitError(f"permutation {index} (seed {perm_seed}) failed: {exc}") from exc


def permutation_null(
    dataset: Dataset,
    importance_kind: str,
    l_perm: int,
    config: FitConfig,
    seed: int,
    jobs: int | Workers = 1,
    start: int = 0,
) -> np.ndarray:
    """Null importance matrix ((l_perm - start) x p) of the permutations
    ell = start + 1 .. l_perm: row ell comes from one fit on a uniformly
    permuted response, seeded seed + 10000 + ell, so any block of rows
    equals the same rows of the full null.

    ``jobs`` is a worker count, for a pool that lives for this call only, or
    an open :class:`~bartsel.sampler.Workers`, which is used and left open.
    """
    if importance_kind not in (KIND_VIP, KIND_MI):
        raise ValueError(f"unsupported null importance kind {importance_kind!r}")
    if l_perm < 1:
        raise ValueError("l_perm must be >= 1")
    if not 0 <= start < l_perm:
        raise ValueError(f"start must lie in [0, l_perm), got {start}")
    tasks = [
        (dataset, config, seed + PERMUTATION_SEED_OFFSET + ell, importance_kind, ell)
        for ell in range(start + 1, l_perm + 1)
    ]
    with Workers.borrow(jobs) as workers:
        return np.stack(workers.map(_null_row, tasks))


def _as_observed(observed) -> np.ndarray:
    if isinstance(observed, ImportanceVector):
        observed = observed.values
    return np.asarray(observed, dtype=np.float64)


def _check_threshold_args(observed: np.ndarray, null: np.ndarray, alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if null.ndim != 2 or null.shape[1] != observed.shape[0]:
        raise ValueError(
            f"null matrix shape {null.shape} incompatible with p={observed.shape[0]}"
        )


def threshold_local(observed, null: np.ndarray, alpha: float) -> SelectionResult:
    """Select features at or above the per-feature (1-alpha) null quantile."""
    q = _as_observed(observed)
    null = np.asarray(null, dtype=np.float64)
    _check_threshold_args(q, null, alpha)
    thr = np.quantile(null, 1.0 - alpha, axis=0)
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(q >= thr))
    return SelectionResult(
        selected=selected,
        method="local",
        importance=q,
        thresholds=thr,
        diagnostics={"alpha": alpha, "l_perm": int(null.shape[0])},
    )


def threshold_gmax(observed, null: np.ndarray, alpha: float) -> SelectionResult:
    """Select features at or above the (1-alpha) quantile of per-permutation
    maxima (the most stringent of the three criteria)."""
    q = _as_observed(observed)
    null = np.asarray(null, dtype=np.float64)
    _check_threshold_args(q, null, alpha)
    maxima = null.max(axis=1)
    thr = float(np.quantile(maxima, 1.0 - alpha))
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(q >= thr))
    return SelectionResult(
        selected=selected,
        method="gmax",
        importance=q,
        thresholds=np.full(q.shape, thr),
        diagnostics={"alpha": alpha, "global_threshold": thr, "l_perm": int(null.shape[0])},
    )


def threshold_gse(observed, null: np.ndarray, alpha: float) -> SelectionResult:
    """Select features at or above mean + C* x SD of their null column.

    C* is the smallest C >= 0 such that every column j with positive sample
    SD has null coverage P_hat(q*_j <= m_j + C s_j) > 1 - alpha; it is found
    exactly by scanning the finite candidate set of non-negative null
    z-scores (plus 0). Zero-SD columns satisfy coverage for every C and use
    their mean as the threshold. A single-permutation null has no sample SD;
    all columns are then treated as zero-SD.
    """
    q = _as_observed(observed)
    null = np.asarray(null, dtype=np.float64)
    _check_threshold_args(q, null, alpha)
    l_perm = null.shape[0]
    means = null.mean(axis=0)
    sds = null.std(axis=0, ddof=1) if l_perm > 1 else np.zeros_like(means)
    # a constant column is zero-spread by definition; bypass the rounding
    # noise np.mean/np.std introduce so its threshold is the constant itself
    const = null.max(axis=0) == null.min(axis=0)
    means[const] = null[0, const]
    sds[const] = 0.0
    pos = sds > 0
    if np.any(pos):
        z = (null[:, pos] - means[pos]) / sds[pos]
        cands = np.unique(np.concatenate([z[z >= 0].ravel(), [0.0]]))
        c_star = float(cands[-1])  # the largest candidate always covers
        for c in cands:
            cover = np.mean(null[:, pos] <= means[pos] + c * sds[pos], axis=0)
            if np.all(cover > 1.0 - alpha):
                c_star = float(c)
                break
    else:
        c_star = 0.0
    thr = means + c_star * sds
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(q >= thr))
    return SelectionResult(
        selected=selected,
        method="gse",
        importance=q,
        thresholds=thr,
        diagnostics={"alpha": alpha, "c_star": c_star, "l_perm": l_perm},
    )
