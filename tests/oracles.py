"""Independent reference implementations used by the unit and gate tests.

These deliberately recompute results by brute force (naive O(m^3)
clustering, exhaustive threshold scans, bisection, tree queries by descent
from the root, node rows by O(n) mask scans) so they share no code path with
the package internals they verify. The straightforward versions of
optimised package code are kept too, as bit-exact references: UPGMA by
submatrix copies, the G.SE linear scan and the dense split-count summaries.
The helpers at the end are the exception. The split gain exposes the
sampler's own node-gain formula so the tests can check it against full
marginal likelihoods. The tree and grid views, the trace built from dense
counts, the leaf statistics and the one-leaf draw are small helpers that
only tests use, so they live here and not in the package.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from bartsel import CutpointGrid, DecisionTree, EnsembleSampler, PosteriorTrace, leaf_posterior
from bartsel.sampler import _node_gains


def naive_upgma(points: np.ndarray) -> np.ndarray:
    """O(m^3) UPGMA: cluster distance recomputed each step as the mean of
    all cross-pair point distances. Ties break toward the lexicographically
    smallest active-id pair. Returns (m-1, 4) merge rows (a, b, height, size).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    diffs = pts[:, None, :] - pts[None, :, :]
    base = np.sqrt((diffs**2).sum(axis=2))
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    active = list(range(m))
    next_id = m
    merges = np.zeros((m - 1, 4))
    for step in range(m - 1):
        best_pair = None
        best_d = np.inf
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                a, b = active[ai], active[bi]
                d = float(
                    np.mean([base[i, j] for i in members[a] for j in members[b]])
                )
                if d < best_d:
                    best_d = d
                    best_pair = (a, b)
        a, b = best_pair
        members[next_id] = members.pop(a) + members.pop(b)
        merges[step] = (a, b, best_d, len(members[next_id]))
        active.remove(a)
        active.remove(b)
        active.append(next_id)
        next_id += 1
    return merges


def naive_cut_two(points: np.ndarray) -> np.ndarray:
    """Labels in {0,1} after removing the final naive-UPGMA merge."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    merges = naive_upgma(pts)
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    for step in range(m - 1):
        a, b = int(merges[step, 0]), int(merges[step, 1])
        members[m + step] = members.pop(a) + members.pop(b)
    last_a, last_b = int(merges[-1, 0]), int(merges[-1, 1])

    def expand(cid: int) -> list[int]:
        if cid < m:
            return [cid]
        row = merges[cid - m]
        return expand(int(row[0])) + expand(int(row[1]))

    labels = np.zeros(m, dtype=np.int64)
    labels[expand(last_b)] = 1
    return labels


def labels_equal_up_to_swap(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return bool(np.array_equal(a, b) or np.array_equal(a, 1 - b))


def type7_quantile(values: np.ndarray, q: float) -> float:
    """Hand-rolled type-7 quantile: h = (n-1)q + 1 on sorted values."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    h = (n - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, n - 1)
    return float(v[lo] + (h - lo) * (v[hi] - v[lo]))


# Every threshold rule selects a feature only when its observed importance is
# at or above its threshold and above 0: no evidence, no selection.


def local_select_oracle(q: np.ndarray, null: np.ndarray, alpha: float) -> set[int]:
    out = set()
    for j in range(null.shape[1]):
        if q[j] >= type7_quantile(null[:, j], 1.0 - alpha) and q[j] > 0:
            out.add(j + 1)
    return out


def gmax_select_oracle(q: np.ndarray, null: np.ndarray, alpha: float) -> set[int]:
    thr = type7_quantile(null.max(axis=1), 1.0 - alpha)
    return {j + 1 for j in range(null.shape[1]) if q[j] >= thr and q[j] > 0}


def gse_coverage_ok(null: np.ndarray, means, sds, c: float, alpha: float) -> bool:
    for j in range(null.shape[1]):
        if sds[j] == 0.0:
            continue
        frac = float(np.mean(null[:, j] <= means[j] + c * sds[j]))
        if not frac > 1.0 - alpha:
            return False
    return True


def _gse_moments(null: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sds, with constant columns pinned exactly."""
    l_perm = null.shape[0]
    means = null.mean(axis=0)
    sds = null.std(axis=0, ddof=1) if l_perm > 1 else np.zeros_like(means)
    const = null.max(axis=0) == null.min(axis=0)
    means[const] = null[0, const]
    sds[const] = 0.0
    return means, sds


def gse_select_oracle(
    q: np.ndarray, null: np.ndarray, alpha: float
) -> tuple[set[int], float]:
    """Exhaustive candidate scan for C*, then thresholding."""
    means, sds = _gse_moments(null)
    cands = [0.0]
    for j in range(null.shape[1]):
        if sds[j] > 0:
            for v in null[:, j]:
                z = (v - means[j]) / sds[j]
                if z >= 0:
                    cands.append(float(z))
    cands = sorted(set(cands))
    c_star = cands[-1]
    for c in cands:
        if gse_coverage_ok(null, means, sds, c, alpha):
            c_star = c
            break
    sel = {
        j + 1 for j in range(null.shape[1]) if q[j] >= means[j] + c_star * sds[j] and q[j] > 0
    }
    return sel, c_star


def gse_cstar_bisection(null: np.ndarray, alpha: float, iters: int = 200) -> float:
    """Bisection on the monotone coverage condition, for cross-checking C*."""
    means, sds = _gse_moments(null)
    lo, hi = 0.0, 1.0
    while not gse_coverage_ok(null, means, sds, hi, alpha):
        hi *= 2.0
        if hi > 1e12:
            break
    if gse_coverage_ok(null, means, sds, lo, alpha):
        return 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if gse_coverage_ok(null, means, sds, mid, alpha):
            hi = mid
        else:
            lo = mid
    return hi


def upgma_submatrix(points: np.ndarray) -> np.ndarray:
    """UPGMA that copies the active x active distance submatrix at every
    merge and takes its row-major first minimum: O(m^3) copying, with the
    smallest-pair tie-break. ``hac_average_linkage`` must give the same merge
    rows bit for bit."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
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
        active.append(q)
    return merges


def gse_scan(null: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """The G.SE rule with C* found by a linear scan of the sorted candidates,
    the first covering one winning. Returns (C*, thresholds), which
    ``threshold_gse`` must match bit for bit."""
    null = np.asarray(null, dtype=np.float64)
    l_perm = null.shape[0]
    means = null.mean(axis=0)
    sds = null.std(axis=0, ddof=1) if l_perm > 1 else np.zeros_like(means)
    const = null.max(axis=0) == null.min(axis=0)
    means[const] = null[0, const]
    sds[const] = 0.0
    pos = sds > 0
    c_star = 0.0
    if np.any(pos):
        z = (null[:, pos] - means[pos]) / sds[pos]
        cands = np.unique(np.concatenate([z[z >= 0].ravel(), [0.0]]))
        c_star = float(cands[-1])
        for c in cands:
            cover = np.mean(null[:, pos] <= means[pos] + c * sds[pos], axis=0)
            if np.all(cover > 1.0 - alpha):
                c_star = float(c)
                break
    return c_star, means + c_star * sds


# -- dense split-count summaries -----------------------------------------------


def dense_vip(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts).astype(np.float64)
    totals = counts.sum(axis=1)
    props = np.divide(counts, totals[:, None], out=np.zeros_like(counts), where=totals[:, None] > 0)
    return props.mean(axis=0)


def dense_vc(counts: np.ndarray) -> np.ndarray:
    return np.asarray(counts, dtype=np.int64).mean(axis=0).astype(np.float64)


def dense_mpvip(counts: np.ndarray) -> np.ndarray:
    return (np.asarray(counts) > 0).mean(axis=0)


def mi_from_log(p: int, mi_features, mi_probs) -> np.ndarray:
    """MI from a per-draw node log, as the package computed it when traces
    kept the log: per draw, bincount the tags by feature, divide by the node
    counts and normalise; draws without nodes, or with zero tags, are
    skipped."""
    acc = np.zeros(p)
    for feats, probs in zip(mi_features, mi_probs):
        if feats.size == 0:
            continue
        node_counts = np.bincount(feats, minlength=p).astype(np.float64)
        prob_sums = np.bincount(feats, weights=probs, minlength=p)
        u = np.divide(prob_sums, node_counts, out=np.zeros(p), where=node_counts > 0)
        total = u.sum()
        if total > 0:
            acc += u / total
    return acc / len(mi_features)


def mi_log_by_steps(dataset, config):
    """Drive ``EnsembleSampler.step`` through ``config``'s sweeps and read,
    after each kept sweep, the split feature and acceptance tag of every
    internal node: the per-draw MI node log (features, tags) of
    ``fit(dataset, config)``."""
    sampler = EnsembleSampler(dataset, config)
    features, tags = [], []
    for it in range(config.burn_in + config.n_draws):
        sampler.step()
        if it >= config.burn_in:
            nodes = [(tree, i) for tree in sampler.trees for i in tree.internal_ids()]
            features.append(np.array([tree.feature[i] for tree, i in nodes], dtype=np.int64))
            tags.append(np.array([tree.accept_prob[i] for tree, i in nodes], dtype=np.float64))
    return features, tags


# -- trees and the sampler's transition kernel ----------------------------------


def tree_live(tree) -> list[int]:
    """Ids of the nodes reachable from the root, ascending."""
    out, stack = [], [tree.root]
    while stack:
        i = stack.pop()
        out.append(i)
        if tree.feature[i] >= 0:
            stack.extend((tree.left[i], tree.right[i]))
    return sorted(out)


def tree_leaves(tree) -> list[int]:
    return [i for i in tree_live(tree) if tree.feature[i] < 0]


def tree_internals(tree) -> list[int]:
    return [i for i in tree_live(tree) if tree.feature[i] >= 0]


def tree_prunables(tree) -> list[int]:
    return [
        i
        for i in tree_internals(tree)
        if tree.feature[tree.left[i]] < 0 and tree.feature[tree.right[i]] < 0
    ]


def tree_depth(tree, i: int) -> int:
    d = 0
    while i != tree.root:
        i = tree.parent[i]
        d += 1
    return d


def routed_rows(tree, X: np.ndarray) -> dict[int, np.ndarray]:
    """For every live node, the ascending rows whose root-to-leaf descent
    passes through it."""
    through: dict[int, list[int]] = {i: [] for i in tree_live(tree)}
    for r, x in enumerate(X):
        i = tree.root
        through[i].append(r)
        while tree.feature[i] >= 0:
            i = tree.left[i] if x[tree.feature[i]] <= tree.cutpoint[i] else tree.right[i]
            through[i].append(r)
    return {i: np.asarray(rows, dtype=np.int64) for i, rows in through.items()}


def _ref_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _ref_node_gain(n, s, sigma2: float, sigma_mu2: float):
    """One leaf's log marginal-likelihood gain as 0-d numpy arithmetic."""
    n = np.asarray(n, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    return -0.5 * np.log1p(n * sigma_mu2 / sigma2) + sigma_mu2 * s * s / (
        2.0 * sigma2 * (sigma2 + n * sigma_mu2)
    )


def _ref_birth_kernel_and_prior(tree, node: int, n_leaves: int, n_prunable_after: int, cfg) -> float:
    depth = tree_depth(tree, node)
    ps_d = cfg.gamma / (1.0 + depth) ** cfg.beta
    ps_d1 = cfg.gamma / (1.0 + (depth + 1)) ** cfg.beta
    kernel = (
        _ref_log(cfg.p_death) - _ref_log(cfg.p_birth)
        + _ref_log(float(n_leaves)) - _ref_log(float(n_prunable_after))
    )
    prior = _ref_log(ps_d) + 2.0 * _ref_log(1.0 - ps_d1) - _ref_log(1.0 - ps_d)
    return kernel + prior


def _ref_accept_prob(log_r: float) -> float:
    if math.isnan(log_r):
        raise AssertionError("non-finite MH log-ratio")
    return 1.0 if log_r >= 0.0 else math.exp(log_r)


class MaskScanSampler(EnsembleSampler):
    """The sampler with a reference transition kernel: each node's rows found
    by an O(n) scan of ``assign_t``, one 0-d numpy call per node gain, leaf
    statistics from two bincounts and tree queries by descent. It draws from
    the rng in the same order as :class:`EnsembleSampler`, whose traces must
    equal its traces bit for bit."""

    def _draw_feature(self) -> int:
        j = int(np.searchsorted(np.cumsum(self.s), self.rng.random(), side="right"))
        return min(j, self.p - 1)

    def _draw_rule(self) -> tuple[int, float]:
        j = self._draw_feature()
        grid = self.grids.grids[j]
        return j, float(grid[int(self.rng.integers(grid.size))])

    def _propose_birth(self, t, tree, assign_t, r_t) -> None:
        rng = self.rng
        leaves = tree_leaves(tree)
        node = leaves[int(rng.integers(len(leaves)))]
        rows = np.flatnonzero(assign_t == node)
        if rows.size <= 1:
            return
        j, c = self._draw_rule()
        go_left = self.X[rows, j] <= c
        n_left = int(np.count_nonzero(go_left))
        n_right = rows.size - n_left
        if n_left == 0 or n_right == 0:
            return
        r_rows = r_t[rows]
        s_parent = float(r_rows.sum())
        s_left = float(r_rows[go_left].sum())
        s_right = s_parent - s_left
        grown = copy.deepcopy(tree)
        grown.split_leaf(node, j, c)
        log_r = _ref_birth_kernel_and_prior(
            tree, node, len(leaves), len(tree_prunables(grown)), self.config
        ) + float(
            _ref_node_gain(n_left, s_left, self.sigma2, self.sigma_mu2)
            + _ref_node_gain(n_right, s_right, self.sigma2, self.sigma_mu2)
            - _ref_node_gain(rows.size, s_parent, self.sigma2, self.sigma_mu2)
        )
        prob = _ref_accept_prob(log_r)
        if rng.random() < prob:
            left_id, right_id = tree.split_leaf(node, j, c)
            tree.accept_prob[node] = prob
            assign_t[rows[go_left]] = left_id
            assign_t[rows[~go_left]] = right_id
            self.counts[j] += 1

    def _propose_death(self, t, tree, assign_t, r_t) -> None:
        rng = self.rng
        prunables = tree_prunables(tree)
        if not prunables:
            return
        node = prunables[int(rng.integers(len(prunables)))]
        mask_left = assign_t == tree.left[node]
        mask_right = assign_t == tree.right[node]
        n_left = int(np.count_nonzero(mask_left))
        n_right = int(np.count_nonzero(mask_right))
        s_left = float(r_t[mask_left].sum())
        s_right = float(r_t[mask_right].sum())
        log_birth = _ref_birth_kernel_and_prior(
            tree, node, len(tree_leaves(tree)) - 1, len(prunables), self.config
        ) + float(
            _ref_node_gain(n_left, s_left, self.sigma2, self.sigma_mu2)
            + _ref_node_gain(n_right, s_right, self.sigma2, self.sigma_mu2)
            - _ref_node_gain(n_left + n_right, s_left + s_right, self.sigma2, self.sigma_mu2)
        )
        prob = _ref_accept_prob(-log_birth)
        if rng.random() < prob:
            j_old = tree.feature[node]
            tree.prune(node)
            assign_t[mask_left | mask_right] = node
            self.counts[j_old] -= 1

    def _propose_change(self, t, tree, assign_t, r_t) -> None:
        rng = self.rng
        prunables = tree_prunables(tree)
        if not prunables:
            return
        node = prunables[int(rng.integers(len(prunables)))]
        left_id, right_id = tree.left[node], tree.right[node]
        rows = np.flatnonzero((assign_t == left_id) | (assign_t == right_id))
        j_new, c_new = self._draw_rule()
        go_left = self.X[rows, j_new] <= c_new
        n_left_new = int(np.count_nonzero(go_left))
        n_right_new = rows.size - n_left_new
        if n_left_new == 0 or n_right_new == 0:
            return
        r_rows = r_t[rows]
        s_total = float(r_rows.sum())
        s_left_new = float(r_rows[go_left].sum())
        was_left = assign_t[rows] == left_id
        n_left_old = int(np.count_nonzero(was_left))
        s_left_old = float(r_rows[was_left].sum())
        log_r = float(
            _ref_node_gain(n_left_new, s_left_new, self.sigma2, self.sigma_mu2)
            + _ref_node_gain(n_right_new, s_total - s_left_new, self.sigma2, self.sigma_mu2)
            - _ref_node_gain(n_left_old, s_left_old, self.sigma2, self.sigma_mu2)
            - _ref_node_gain(rows.size - n_left_old, s_total - s_left_old, self.sigma2, self.sigma_mu2)
        )
        prob = _ref_accept_prob(log_r)
        if rng.random() < prob:
            j_old = tree.feature[node]
            tree.set_rule(node, j_new, c_new)
            tree.accept_prob[node] = prob
            self.counts[j_old] -= 1
            self.counts[j_new] += 1
            assign_t[rows[go_left]] = left_id
            assign_t[rows[~go_left]] = right_id

    def _redraw_leaves(self, t, tree, assign_t, r_t) -> None:
        ids = np.asarray(tree_leaves(tree), dtype=np.int64)
        arena = len(tree.feature)
        n_by_node = np.bincount(assign_t, minlength=arena)
        s_by_node = np.bincount(assign_t, weights=r_t, minlength=arena)
        n_leaf = n_by_node[ids].astype(np.float64)
        v = 1.0 / (n_leaf / self.sigma2 + 1.0 / self.sigma_mu2)
        m = v * s_by_node[ids] / self.sigma2
        draws = m + np.sqrt(v) * self.rng.standard_normal(ids.size)
        for i, val in zip(ids.tolist(), draws.tolist()):
            tree.value[i] = val
        by_node = np.zeros(arena)
        by_node[ids] = draws
        new_pred = by_node[assign_t]
        self.resid += self.tree_pred[t] - new_pred
        self.tree_pred[t] = new_pred


def alpha_log_weights(s: np.ndarray, a: float, b: float, rho: float, grid_size: int):
    """(alpha grid, griddy-Gibbs log weights) of ``sample_alpha`` as one
    elementwise expression over the grid."""
    p = s.size
    lam = np.arange(1, grid_size + 1, dtype=np.float64) / (grid_size + 1)
    alpha_grid = rho * lam / (1.0 - lam)
    log_s_sum = float(np.sum(np.log(np.clip(s, 1e-300, None))))
    logw = (
        (a - 1.0) * np.log(lam)
        + (b - 1.0) * np.log1p(-lam)
        + gammaln(alpha_grid)
        - p * gammaln(alpha_grid / p)
        + (alpha_grid / p - 1.0) * log_s_sum
    )
    return alpha_grid, logw


# -- tree, grid and trace views the package does not need ----------------------


def split_counts(tree: DecisionTree, p: int) -> np.ndarray:
    """Number of internal nodes of ``tree`` splitting on each feature, shape (p,)."""
    out = np.zeros(p, dtype=np.int64)
    for i in tree.internal_ids():
        out[tree.feature[i]] += 1
    return out


def cutpoint_count(grid: CutpointGrid, j: int) -> int:
    """Number of candidate cutpoints of feature ``j``."""
    return grid.grids[j].size


def trace_from_counts(counts, **rest) -> PosteriorTrace:
    """A trace holding the dense (n_kept, p) split-count matrix ``counts``
    in CSR form; ``rest`` gives the other fields."""
    counts = np.asarray(counts)
    draws, feature = np.nonzero(counts)  # row-major: features ascend per draw
    draw_ptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(counts, axis=1), out=draw_ptr[1:])
    return PosteriorTrace(
        draw_ptr=draw_ptr,
        feature=feature.astype(np.int32),
        count=counts[draws, feature].astype(np.int32),
        p=counts.shape[1],
        **rest,
    )


# -- leaf statistics and the sampler's split gain, for checks against full marginals


@dataclass(frozen=True)
class LeafSufficientStats:
    """Sufficient statistics of the partial residuals routed to one leaf."""

    n_leaf: int
    sum_r: float
    sum_r2: float = 0.0

    def __post_init__(self) -> None:
        if self.n_leaf < 0:
            raise ValueError("n_leaf must be >= 0")
        if self.n_leaf > 0 and self.sum_r2 < self.sum_r**2 / self.n_leaf - 1e-9:
            raise ValueError("sum_r2 inconsistent with sum_r (Cauchy-Schwarz)")


def sample_leaf_value(
    stats: LeafSufficientStats, sigma2: float, sigma_mu2: float, rng: np.random.Generator
) -> float:
    """One draw from the leaf value's Gaussian full conditional."""
    m, v = leaf_posterior(stats.n_leaf, stats.sum_r, sigma2, sigma_mu2)
    return float(m + math.sqrt(float(v)) * rng.standard_normal())


def merged(left: LeafSufficientStats, right: LeafSufficientStats) -> LeafSufficientStats:
    """Statistics of the union of two leaves' residuals."""
    return LeafSufficientStats(
        left.n_leaf + right.n_leaf,
        left.sum_r + right.sum_r,
        left.sum_r2 + right.sum_r2,
    )


def split_loglik_gain(
    left: LeafSufficientStats,
    right: LeafSufficientStats,
    sigma2: float,
    sigma_mu2: float,
) -> float:
    """Log marginal-likelihood ratio of splitting one leaf into (left, right)
    versus leaving it whole, from the sampler's node gains. The residual
    sum-of-squares terms cancel."""
    g_left, g_right, g_parent = _node_gains(
        (left.n_leaf, right.n_leaf, left.n_leaf + right.n_leaf),
        (left.sum_r, right.sum_r, left.sum_r + right.sum_r),
        sigma2,
        sigma_mu2,
    )
    return g_left + g_right - g_parent
