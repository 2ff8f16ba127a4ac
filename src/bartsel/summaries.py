"""Posterior variable-importance summaries.

All functions are pure maps from posterior traces (or vectors) to
importance values and ranks:

* VIP   - mean per-draw proportion of splitting rules using each feature;
* VC    - mean per-draw count of splitting rules using each feature;
* MPVIP - fraction of draws in which each feature is split on at least once;
* MI    - normalized mean Metropolis acceptance probability attributed to
          each feature's interior nodes;
* ``importance(trace, kind)`` - the values of one of the four by kind;
* rank variants - descending midranks of the above, per fit;
* summary matrix - the p x 4 (or p x 1) clustering feature matrix built
  from replicate fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PosteriorTrace

__all__ = [
    "KIND_VIP",
    "KIND_VC",
    "KIND_MPVIP",
    "KIND_MI",
    "SOURCE_VC_MEASURE",
    "SOURCE_VIP_MEASURE",
    "SOURCE_VIP_RANK",
    "ImportanceVector",
    "SummaryMatrix",
    "vip",
    "vc",
    "mpvip",
    "metropolis_importance",
    "mi_term",
    "importance",
    "rank_descending",
    "build_summary_matrix",
]

KIND_VIP = "vip"
KIND_VC = "vc"
KIND_MPVIP = "mpvip"
KIND_MI = "mi"

SOURCE_VC_MEASURE = "vc-measure"
SOURCE_VIP_MEASURE = "vip-measure"
SOURCE_VIP_RANK = "vip-rank"
# the per-fit importance each clustering source summarises
_SOURCE_KINDS = {
    SOURCE_VC_MEASURE: KIND_VC,
    SOURCE_VIP_MEASURE: KIND_VIP,
    SOURCE_VIP_RANK: KIND_VIP,
}


@dataclass(frozen=True)
class ImportanceVector:
    values: np.ndarray


@dataclass(frozen=True)
class SummaryMatrix:
    """Clustering feature matrix over replicate fits.

    For count/proportion sources, Z columns are (mean importance,
    25th-percentile importance, mean rank, 75th-percentile rank). For the
    rank-only source, Z is the single column of mean ranks.
    """

    Z: np.ndarray
    source_kind: str


# The three count summaries are weighted bincounts over the trace's CSR
# entries, taken in draw order. bincount adds each feature's weights one by
# one, as the dense ``mean(axis=0)`` over a C-contiguous (n_kept, p) matrix
# adds its rows; the dense sum's only other terms are ``+ 0.0``, which leave
# a non-negative sum's bits unchanged. The results are the dense formulas'
# bit for bit (tests/oracles.py keeps those).


def vip(trace: PosteriorTrace) -> ImportanceVector:
    """Mean per-draw proportion of splitting rules using each feature.
    Draws with no splits at all contribute 0 to every feature."""
    draws = trace.entry_draws()
    totals = np.bincount(draws, weights=trace.count, minlength=trace.n_kept)
    props = trace.count / totals[draws]
    sums = np.bincount(trace.feature, weights=props, minlength=trace.p)
    return ImportanceVector(sums / trace.n_kept)


def vc(trace: PosteriorTrace) -> ImportanceVector:
    """Mean per-draw split count per feature (unnormalized VIP)."""
    sums = np.bincount(trace.feature, weights=trace.count, minlength=trace.p)
    return ImportanceVector(sums / trace.n_kept)


def mpvip(trace: PosteriorTrace) -> ImportanceVector:
    """Fraction of draws in which each feature is split on at least once."""
    draws_using = np.bincount(trace.feature, minlength=trace.p)
    return ImportanceVector(draws_using / trace.n_kept)


def mi_term(features, probs, p: int) -> np.ndarray:
    """One kept draw's term of the MI sum, from the split feature and the
    acceptance tag of every internal node in the ensemble.

    u_j is the mean tag over the nodes splitting on feature j (0 if none);
    the term is u / sum_i u_i, or all zeros when the draw has no internal
    node. Only the sampler adds the terms, in draw order, as it keeps each
    draw; a trace file stores the finished sum."""
    node_counts = np.bincount(features, minlength=p).astype(np.float64)
    prob_sums = np.bincount(features, weights=probs, minlength=p)
    u = np.divide(prob_sums, node_counts, out=np.zeros(p), where=node_counts > 0)
    total = u.sum()
    return u / total if total > 0 else np.zeros(p)


def metropolis_importance(trace: PosteriorTrace) -> ImportanceVector:
    """Normalized mean Metropolis acceptance probability per feature: the
    trace's MI sum (see :func:`mi_term`) over the number of kept draws."""
    if trace.mi_sum is None:
        raise ValueError("MI tracking was not enabled for this trace")
    return ImportanceVector(trace.mi_sum / trace.n_kept)


_IMPORTANCE = {KIND_VIP: vip, KIND_VC: vc, KIND_MPVIP: mpvip, KIND_MI: metropolis_importance}


def importance(trace: PosteriorTrace, kind: str) -> np.ndarray:
    """One fit's per-feature importance values under summary ``kind``."""
    if kind not in _IMPORTANCE:
        raise ValueError(f"unknown importance kind {kind!r}; choose one of {sorted(_IMPORTANCE)}")
    return _IMPORTANCE[kind](trace).values


def rank_descending(values: np.ndarray) -> np.ndarray:
    """Midranks with rank 1 for the largest value; ties get averaged ranks.

    Equal to scipy's ``rankdata(-values)``: each tie group holds the
    sorted positions ``bounds[g-1] .. bounds[g]-1`` and takes the mean of
    their 1-based ranks. Every rank is a whole or half number, so it is exact.
    Input of any shape is ranked flattened, as ``rankdata`` does.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(values)):
        raise ValueError("importance values must be finite")
    order = np.argsort(-values, kind="stable")
    desc = values[order]
    tie_start = np.ones(values.size, dtype=bool)
    tie_start[1:] = desc[1:] != desc[:-1]
    dense = np.cumsum(tie_start)
    bounds = np.append(np.flatnonzero(tie_start), values.size)
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[dense] + bounds[dense - 1] + 1)
    return ranks


def build_summary_matrix(traces: list[PosteriorTrace], source_kind: str) -> SummaryMatrix:
    """Stack replicate-fit importances into the clustering feature matrix.

    vc-measure / vip-measure: per feature, the mean and 25th percentile of
    the per-fit importance plus the mean and 75th percentile of its per-fit
    descending rank. vip-rank: the single column of mean VIP ranks.
    Quantiles use linear interpolation of order statistics (type 7).
    """
    if not traces:
        raise ValueError("need at least one replicate trace")
    p = traces[0].p
    if any(t.p != p for t in traces):
        raise ValueError("replicate traces disagree on feature count p")
    if source_kind not in _SOURCE_KINDS:
        raise ValueError(f"unknown summary source {source_kind!r}")
    vals = np.stack([importance(t, _SOURCE_KINDS[source_kind]) for t in traces])
    ranks = np.stack([rank_descending(row) for row in vals])
    if source_kind == SOURCE_VIP_RANK:
        Z = ranks.mean(axis=0)[:, None]
    else:
        Z = np.column_stack(
            [
                vals.mean(axis=0),
                np.quantile(vals, 0.25, axis=0),
                ranks.mean(axis=0),
                np.quantile(ranks, 0.75, axis=0),
            ]
        )
    return SummaryMatrix(Z=Z, source_kind=source_kind)
