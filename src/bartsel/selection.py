"""Selection rules: clustering-based, median-probability-model, and
permutation-threshold (Local / G.SE / G.Max) selectors.

The clustering route standardizes the summary matrix, clusters features
into two groups by average-linkage (UPGMA) hierarchical clustering under
the Euclidean metric, and keeps the high-importance cluster. UPGMA is
implemented here directly so tie-breaking (smallest pair index) is pinned.

The permutation route compares observed importances against nulls obtained
by refitting on permuted responses, using per-feature quantiles (Local),
a global SD multiplier (G.SE), or the per-permutation maximum (G.Max).

No evidence, no selection: every threshold rule also requires an observed
importance above 0, so a feature that no kept draw splits on is never
selected, even where its null and threshold are 0 too; a two-cluster cut
whose clusters have equal means selects nothing.
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
    importance: np.ndarray
    thresholds: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def no_selection(self) -> bool:
        return len(self.selected) == 0


def hac_average_linkage(points: np.ndarray) -> np.ndarray:
    """UPGMA clustering of the m rows of ``points`` under Euclidean distance;
    returns the (m - 1) x 4 merge history.

    Row k of the merges is (id_a, id_b, height, size): cluster ids a < b
    merged at the given height into a new cluster of id m + k. Ids below m
    are the original points.

    At each step the pair of active clusters at minimal average-linkage
    distance merges; ties break toward the lexicographically smallest
    (id_a, id_b) pair.

    Each active cluster i keeps its nearest larger-id partner ``nn[i]``, the
    first minimum of its distances to active ids above i, at distance
    ``nd[i]``. The first minimum of ``nd`` is then the smallest pair. After a
    merge only the rows whose partner merged are searched again; every other
    row compares its partner with the new cluster, whose id is the largest,
    so it wins only when strictly nearer. Rows and columns of merged clusters
    are set to inf in the one (2m-1) x (2m-1) distance matrix.
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

    nn = np.full(total, -1, dtype=np.int64)
    nd = np.full(total, np.inf)

    def search(i: int, end: int) -> None:
        row = dist[i, i + 1 : end]
        k = int(np.argmin(row))
        nn[i], nd[i] = i + 1 + k, row[k]

    for i in range(m - 1):
        search(i, m)
    merges = np.zeros((m - 1, 4), dtype=np.float64)
    for step in range(m - 1):
        a = int(np.argmin(nd))  # first minimum: the smallest a, and nn[a] the smallest b
        b = int(nn[a])
        height = float(nd[a])
        na, nb = int(sizes[a]), int(sizes[b])
        q = m + step
        # merged clusters' entries are inf, and stay inf in merged_d
        merged_d = (na * dist[a, :q] + nb * dist[b, :q]) / (na + nb)
        for c in (a, b):
            dist[c, :] = np.inf
            dist[:, c] = np.inf
            nn[c], nd[c] = -1, np.inf
        dist[q, :q] = merged_d
        dist[:q, q] = merged_d
        sizes[q] = na + nb
        merges[step] = (a, b, height, na + nb)
        stale = np.flatnonzero((nn[:q] == a) | (nn[:q] == b))
        nearer = merged_d < nd[:q]
        nn[:q][nearer] = q
        nd[:q][nearer] = merged_d[nearer]
        for i in stale.tolist():
            search(i, q + 1)
    return merges


def cut_two(merges: np.ndarray) -> np.ndarray:
    """Remove the final merge of a ``hac_average_linkage`` history; label the
    points of its first subtree 0 and of its second 1."""
    m = len(merges) + 1
    labels = np.zeros(m, dtype=np.int64)
    stack = [int(merges[-1, 1])]
    while stack:
        c = stack.pop()
        if c < m:
            labels[c] = 1
        else:
            stack += (int(merges[c - m, 0]), int(merges[c - m, 1]))
    return labels


def cluster_select(matrix: SummaryMatrix) -> SelectionResult:
    """Two-cluster selection on a replicate summary matrix.

    log1p is applied elementwise, columns are standardized (zero-variance
    columns become all zeros), rows are clustered by UPGMA and cut into two
    groups. The group with the larger mean of raw column 1 is selected;
    for the rank-only source the smaller mean rank wins. Equal means leave
    nothing to separate: the selection is empty (``no_selection``), with
    the ``tie`` diagnostic set and ``winner`` None.
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
        winner = None
    elif rank_source:
        winner = 0 if mean0 < mean1 else 1
    else:
        winner = 0 if mean0 > mean1 else 1
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(labels == winner))
    return SelectionResult(
        selected=selected,
        importance=col0,
        diagnostics={
            "cluster_means": (mean0, mean1),
            "cluster_sizes": (int((labels == 0).sum()), int((labels == 1).sum())),
            "winner": winner,
            "tie": mean0 == mean1,
        },
    )


def mpm_select(pi_hat) -> SelectionResult:
    """Median probability model: keep features with inclusion prob >= 0.5."""
    values = _as_observed(pi_hat)
    if np.any(values < 0) or np.any(values > 1):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(values >= 0.5))
    return SelectionResult(
        selected=selected,
        importance=values,
        thresholds=np.full(values.shape, 0.5),
    )


def _null_row(args) -> list[np.ndarray]:
    dataset, config, perm_seed, kinds, index = args
    try:
        rng = np.random.default_rng(perm_seed)
        y_star = dataset.y[rng.permutation(dataset.n)]
        permuted = dataset.with_response(y_star)
        cfg = replace(config, seed=perm_seed, track_mi=config.track_mi or KIND_MI in kinds)
        trace = fit(permuted, cfg, rng=rng)
        return [importance(trace, kind) for kind in kinds]
    except Exception as exc:  # noqa: BLE001 - re-raise with the permutation index
        raise FitError(f"permutation {index} (seed {perm_seed}) failed: {exc}") from exc


def _null_tasks(dataset, config, seed, l_perm, kinds) -> list[tuple]:
    """The ``_null_row`` tasks of the permutations ell = 1 .. l_perm."""
    return [
        (dataset, config, seed + PERMUTATION_SEED_OFFSET + ell, kinds, ell)
        for ell in range(1, l_perm + 1)
    ]


def permutation_null(
    dataset: Dataset,
    importance_kind: str | tuple[str, ...],
    l_perm: int,
    config: FitConfig,
    seed: int,
    jobs: int | Workers = 1,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Null importance matrix (l_perm x p): row ell comes from one fit on a
    uniformly permuted response, seeded seed + 10000 + ell, so a shorter
    null is a prefix of a longer one.

    ``importance_kind`` is one kind, or a tuple of kinds for a tuple of
    matrices, one per kind, read from the same fits. The MI sum draws no
    random number, so a permutation's VIP row is the same whether or not
    its fit also keeps it.

    ``jobs`` is a worker count, for a pool that lives for this call only, or
    an open :class:`~bartsel.sampler.Workers`, which is used and left open
    and returns the null rows it kept without fitting them again.
    """
    kinds = (importance_kind,) if isinstance(importance_kind, str) else tuple(importance_kind)
    if not kinds or any(kind not in (KIND_VIP, KIND_MI) for kind in kinds):
        raise ValueError(f"unsupported null importance kind {importance_kind!r}")
    if l_perm < 1:
        raise ValueError("l_perm must be >= 1")
    with Workers.borrow(jobs) as workers:
        rows = workers.map(_null_row, _null_tasks(dataset, config, seed, l_perm, kinds))
    nulls = tuple(np.stack(column) for column in zip(*rows))
    return nulls[0] if isinstance(importance_kind, str) else nulls


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


def _above(q: np.ndarray, thr) -> frozenset[int]:
    """1-based indices of the features at or above their threshold whose
    observed importance is above 0."""
    return frozenset(int(j) + 1 for j in np.flatnonzero((q >= thr) & (q > 0.0)))


def threshold_local(observed, null: np.ndarray, alpha: float) -> SelectionResult:
    """Select features at or above the per-feature (1-alpha) null quantile,
    with observed importance above 0."""
    q = _as_observed(observed)
    null = np.asarray(null, dtype=np.float64)
    _check_threshold_args(q, null, alpha)
    thr = np.quantile(null, 1.0 - alpha, axis=0)
    return SelectionResult(
        selected=_above(q, thr),
        importance=q,
        thresholds=thr,
        diagnostics={"alpha": alpha, "l_perm": int(null.shape[0])},
    )


def threshold_gmax(observed, null: np.ndarray, alpha: float) -> SelectionResult:
    """Select features at or above the (1-alpha) quantile of per-permutation
    maxima (the most stringent of the three criteria), with observed
    importance above 0."""
    q = _as_observed(observed)
    null = np.asarray(null, dtype=np.float64)
    _check_threshold_args(q, null, alpha)
    maxima = null.max(axis=1)
    thr = float(np.quantile(maxima, 1.0 - alpha))
    return SelectionResult(
        selected=_above(q, thr),
        importance=q,
        thresholds=np.full(q.shape, thr),
        diagnostics={"alpha": alpha, "global_threshold": thr, "l_perm": int(null.shape[0])},
    )


def threshold_gse(observed, null: np.ndarray, alpha: float) -> SelectionResult:
    """Select features at or above mean + C* x SD of their null column, with
    observed importance above 0.

    C* is the smallest C >= 0 such that every column j with positive sample
    SD has null coverage P_hat(q*_j <= m_j + C s_j) > 1 - alpha; it is found
    exactly by scanning the finite candidate set of non-negative null
    z-scores (plus 0). Zero-SD columns satisfy coverage for every C and use
    their mean as the threshold. A single-permutation null has no sample SD;
    all columns are then treated as zero-SD.

    Coverage cannot fall as C grows: with s_j > 0, ``m_j + C * s_j`` is
    non-decreasing in C under IEEE rounding. So the first covering candidate
    is found by bisection over the sorted candidates; it is the one a linear
    scan would stop at.
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
        # the largest candidate always covers, so it is taken untested
        lo, hi = 0, cands.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            cover = np.mean(null[:, pos] <= means[pos] + cands[mid] * sds[pos], axis=0)
            if np.all(cover > 1.0 - alpha):
                hi = mid
            else:
                lo = mid + 1
        c_star = float(cands[lo])
    else:
        c_star = 0.0
    thr = means + c_star * sds
    return SelectionResult(
        selected=_above(q, thr),
        importance=q,
        thresholds=thr,
        diagnostics={"alpha": alpha, "c_star": c_star, "l_perm": l_perm},
    )
