"""Metropolis-within-Gibbs sampler for sum-of-trees regression.

Each sweep backfits the T trees one at a time: a structural proposal
(BIRTH / DEATH / CHANGE with probabilities ``FitConfig.p_birth`` /
``p_death`` / the rest, 0.25 / 0.25 / 0.50 by default) is accepted or
rejected by a Metropolis-Hastings ratio with leaf values integrated out
analytically, all leaf values are then redrawn from their Gaussian full
conditionals, and finally the noise variance is redrawn from its
inverse-Gamma full conditional.

Two split-feature priors are supported. "bart" draws the split feature
uniformly. "dart" places a Dirichlet(alpha/p, ..., alpha/p) prior on the
split-feature probabilities s, resampling s conjugately from the ensemble
split counts each sweep and the concentration alpha by griddy Gibbs; this
shrinks splitting toward a sparse subset of features.

The response is min-max scaled to [-0.5, 0.5] internally; recorded noise
variances and predictions are reported back in original units.

Row-index invariant: for every tree t and every live node i,
``node_rows[t][i]`` is the ascending array of the rows routed through i, so
a node's rows are the concatenation of its children's, merged in order, and
``assign[t][r]`` is the leaf that row r reaches. A BIRTH splits the leaf's
array by the new rule, a CHANGE re-splits the node's own array, a DEATH
drops the two children's. The MH sums gather ``r_t[rows]``, which is element
for element the array a mask scan ``r_t[assign[t] == i]`` gives, so every
float sum rounds as a full scan would without costing O(n).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict

import numpy as np

from .data import (
    CutpointGrid,
    Dataset,
    DecisionTree,
    FitConfig,
    PosteriorTrace,
)
from .summaries import mi_term

__all__ = [
    "FitError",
    "p_split",
    "leaf_posterior",
    "sigma2_posterior",
    "sample_sigma2",
    "calibrate_lambda",
    "update_split_probs",
    "sample_alpha",
    "EnsembleSampler",
    "fit",
]

class FitError(RuntimeError):
    """Raised when a fit aborts (non-finite likelihood ratio or similar)."""


def p_split(depth: int, gamma: float = 0.95, beta: float = 2.0) -> float:
    """Prior probability that a node at ``depth`` is internal:
    gamma / (1 + depth)^beta."""
    return gamma / (1.0 + depth) ** beta


def leaf_posterior(n_leaf, sum_r, sigma2: float, sigma_mu2: float):
    """Gaussian full-conditional (mean, variance) of a leaf value.

    v = 1/(n/sigma2 + 1/sigma_mu2), m = v * sum_r / sigma2. Elementwise over
    numbers or numpy arrays of (n_leaf, sum_r); n_leaf = 0 recovers the
    N(0, sigma_mu2) prior.
    """
    v = 1.0 / (n_leaf / sigma2 + 1.0 / sigma_mu2)
    m = v * sum_r / sigma2
    return m, v


def sigma2_posterior(total_sse: float, n: int, nu: float, lam: float) -> tuple[float, float]:
    """Inverse-Gamma full-conditional (shape, scale) of the noise variance."""
    return (n + nu) / 2.0, (total_sse + nu * lam) / 2.0


def sample_sigma2(
    total_sse: float, n: int, nu: float, lam: float, rng: np.random.Generator
) -> float:
    shape, scale = sigma2_posterior(total_sse, n, nu, lam)
    # X ~ Gamma(shape, 1/scale)  =>  1/X ~ Inv-Gamma(shape, scale)
    return float(scale / rng.gamma(shape))


# 2 * gammaincinv(1.5, 1 - 0.9), the chi-square(3) quantile at 0.1 of the
# default noise prior (nu = 3, q = 0.9; Chipman, George & McCulloch 2010), as
# scipy.special evaluates it
_CHI2_DEFAULT_QUANTILE = 0.5843743741551833


def calibrate_lambda(y_scaled: np.ndarray, nu: float = 3.0, q: float = 0.9) -> float:
    """Scale lambda of the Inv-Gamma(nu/2, nu*lambda/2) noise prior, chosen
    so that P(sigma^2 < var(y_scaled)) = q.

    The chi-square(nu) quantile at 1 - q is ``2 * gammaincinv(nu/2, 1 - q)``,
    the very expression scipy's ``chi2.ppf`` evaluates, so lambda keeps its
    bits. (``scipy.special.chdtri`` rounds differently in the last bits.)
    The default prior's quantile is a literal, so a default fit imports no
    scipy module; any other (nu, q) imports ``scipy.special`` on first use.
    The literal holds scipy's bits, not the true root: scipy's inverse is not
    correctly rounded (2 ulp above a 200-bit root at the default), and a
    1-ulp shift of lambda changes the chain and the selections built on it.
    """
    if not (0.0 < nu < math.inf and 0.0 < q < 1.0):
        raise ValueError(f"nu must be positive and finite and q in (0, 1), got nu={nu}, q={q}")
    y_scaled = np.asarray(y_scaled, dtype=np.float64)
    v = float(np.var(y_scaled, ddof=1)) if y_scaled.size > 1 else 0.0
    v = max(v, 1e-10)  # constant-response guard
    if nu == 3.0 and q == 0.9:
        chi2 = _CHI2_DEFAULT_QUANTILE
    else:
        from scipy.special import gammaincinv

        chi2 = float(2.0 * gammaincinv(nu / 2.0, 1.0 - q))
    return v * chi2 / nu


# -- marginal-likelihood machinery -------------------------------------------
#
# Bit-exactness: each transcendental stays in the library it has always used.
# The node gains take ``np.log1p``; ``math.log1p`` rounds differently on a few
# percent of inputs (about 3% on an AVX-512 x86-64 CPU), and so do
# ``math.log``/``math.exp`` against their numpy loops, so a switch would
# change the chain. ``np.log1p`` gives the same bits for an array of any
# length as for a 0-d input, so each move makes one call over all its gains.
# The rest is Python-float + - * / in the order of the elementwise formula,
# which IEEE rounding makes equal to the numpy arithmetic. The kernel and
# prior log ratios and the acceptance exp have always used ``math``.


def _node_gains(ns, sums, sigma2: float, sigma_mu2: float) -> list[float]:
    """Log marginal likelihood of each leaf's residuals given its count and
    residual sum, dropping the terms that are constant across tree
    topologies for fixed assigned data:
    -0.5*log(1 + n*sigma_mu2/sigma2) + sigma_mu2*s^2 / (2*sigma2*(sigma2 + n*sigma_mu2)).
    """
    logs = np.log1p([n * sigma_mu2 / sigma2 for n in ns]).tolist()
    return [
        -0.5 * lg + sigma_mu2 * s * s / (2.0 * sigma2 * (sigma2 + n * sigma_mu2))
        for n, s, lg in zip(ns, sums, logs)
    ]


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


# Both prior terms are pure functions of ints and config floats, so a cached
# value has the bits a fresh evaluation would have.
@functools.lru_cache(maxsize=1024)
def _kernel_log_ratio(n_leaves: int, n_prunable_after: int, p_birth: float, p_death: float) -> float:
    """log q(T|T*)/q(T*|T) for a BIRTH with ``n_leaves`` leaves before the
    split and ``n_prunable_after`` prunable nodes afterwards. The rule
    probability cancels against the prior because proposal and prior draw
    rules from the same distribution."""
    return _log(p_death) - _log(p_birth) + _log(float(n_leaves)) - _log(float(n_prunable_after))


@functools.lru_cache(maxsize=256)
def _birth_prior_log_ratio(depth: int, gamma: float, beta: float) -> float:
    """log p(T*)/p(T) for splitting a depth-``depth`` leaf, rule term excluded."""
    ps_d = p_split(depth, gamma, beta)
    ps_d1 = p_split(depth + 1, gamma, beta)
    return _log(ps_d) + 2.0 * _log(1.0 - ps_d1) - _log(1.0 - ps_d)


def _prunable_after_birth(tree: DecisionTree, node: int) -> int:
    """Prunable-node count the tree would have after splitting leaf ``node``."""
    w2 = len(tree.prunable_ids())
    par = tree.parent[node]
    if par >= 0:
        sib = tree.right[par] if tree.left[par] == node else tree.left[par]
        # the parent stops being prunable once this child turns internal
        if tree.is_leaf(sib):
            return w2  # +1 for node, -1 for parent
    return w2 + 1


def _birth_log_ratio(
    n_leaves: int,
    n_prunable_after: int,
    depth: int,
    n_left: int,
    s_left: float,
    n_right: int,
    s_right: float,
    s_parent: float,
    sigma2: float,
    sigma_mu2: float,
    config: FitConfig,
) -> float:
    """The one BIRTH log MH ratio: transition-kernel ratio x tree-prior ratio
    x marginal-likelihood ratio. A DEATH is its exact negation. The parent
    sum is passed in rather than re-added, so each caller keeps its own
    rounding of it."""
    g_left, g_right, g_parent = _node_gains(
        (n_left, n_right, n_left + n_right), (s_left, s_right, s_parent), sigma2, sigma_mu2
    )
    return (
        _kernel_log_ratio(n_leaves, n_prunable_after, config.p_birth, config.p_death)
        + _birth_prior_log_ratio(depth, config.gamma, config.beta)
        + (g_left + g_right - g_parent)
    )


# -- sparse split-probability updates ----------------------------------------


def update_split_probs(counts_total, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Conjugate Gibbs draw s ~ Dirichlet(alpha/p + c_1, ..., alpha/p + c_p).

    Negative or NaN counts and an alpha that is not positive and finite raise
    ValueError (numpy's Dirichlet would return NaN for NaN input)."""
    counts_total = np.asarray(counts_total, dtype=np.float64)
    if not counts_total.min() >= 0.0:
        raise ValueError("split counts must be non-negative numbers")
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return rng.dirichlet(alpha / counts_total.size + counts_total)


# Cephes ``lgam`` (S. L. Moshier), the routine behind scipy.special.gammaln,
# for x > 0: the recurrence to [2, 3) with a rational fit below 13, Stirling's
# series with a correction above. Python floats and ``math.log`` give its bits
# exactly; ``np.log`` rounds differently on a few inputs in 10^4. Each
# coefficient is the shortest decimal that rounds to Cephes' double.
_LGAM_A = (
    8.116141674705085e-4,
    -5.950619042843014e-4,
    7.936503404577169e-4,
    -2.777777777300997e-3,
    8.333333333333319e-2,
)
_LGAM_B = (
    -1378.2515256912086,
    -38801.631513463784,
    -331612.9927388712,
    -1162370.974927623,
    -1721737.0082083966,
    -853555.6642457654,
)
_LGAM_C = (  # leading coefficient 1
    -351.81570143652345,
    -17064.210665188115,
    -220528.59055385445,
    -1139334.4436798252,
    -2532523.0717758294,
    -2018891.4143353277,
)
_LOG_SQRT_2PI = 0.9189385332046728
_LGAM_MAX = 2.556348e305  # above it log-gamma overflows


def _lgam(x: float) -> float:
    """log Gamma(x) for x > 0 (or +inf or NaN), bit-equal to scipy's gammaln."""
    if not math.isfinite(x):
        return x
    if x < 13.0:
        z, shift, u = 1.0, 0.0, x
        while u >= 3.0:
            shift -= 1.0
            u = x + shift
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            shift += 1.0
            u = x + shift
        if u == 2.0:
            return math.log(z)
        x += shift - 2.0
        num = _LGAM_B[0]
        for c in _LGAM_B[1:]:
            num = num * x + c
        den = x + _LGAM_C[0]
        for c in _LGAM_C[1:]:
            den = den * x + c
        return math.log(z) + x * num / den
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.936507936507937e-4 * p - 2.777777777777778e-3) * p
        return q + (series + 8.333333333333333e-2) / x
    series = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        series = series * p + c
    return q + series / x


def _gammaln(values: np.ndarray) -> np.ndarray:
    return np.array([_lgam(x) for x in values.tolist()])


@functools.lru_cache(maxsize=16)
def _alpha_grid(p: int, rho: float, a: float, b: float, grid_size: int):
    """The griddy-Gibbs grid of ``sample_alpha`` and every log-weight term
    that does not depend on s, as read-only arrays: (alpha grid, alpha/p - 1,
    Beta plus symmetric-Dirichlet normaliser terms)."""
    lam = np.arange(1, grid_size + 1, dtype=np.float64) / (grid_size + 1)
    alpha_grid = rho * lam / (1.0 - lam)
    s_coef = alpha_grid / p - 1.0
    # Beta and symmetric-Dirichlet log densities, normalizing constants that
    # are flat in lambda dropped
    base = (
        (a - 1.0) * np.log(lam)
        + (b - 1.0) * np.log1p(-lam)
        + _gammaln(alpha_grid)
        - p * _gammaln(alpha_grid / p)
    )
    for arr in (alpha_grid, s_coef, base):
        arr.flags.writeable = False
    return alpha_grid, s_coef, base


def sample_alpha(
    s,
    rng: np.random.Generator,
    a: float = 0.5,
    b: float = 1.0,
    rho: float | None = None,
    grid_size: int = 1000,
    current: float | None = None,
) -> float:
    """Griddy-Gibbs draw of the Dirichlet concentration alpha.

    lambda = alpha/(alpha + rho) is discretized on a uniform open grid in
    (0, 1); each point is weighted by Beta(lambda; a, b) x
    Dirichlet(s; alpha/p, ..., alpha/p), evaluated in log space. Returns
    rho*lambda/(1-lambda) for the sampled point, or ``current`` unchanged
    (with a warning) if every weight underflows.
    """
    s = np.asarray(s, dtype=np.float64)
    p = s.size
    if rho is None:
        rho = float(p)
    alpha_grid, s_coef, base = _alpha_grid(p, float(rho), float(a), float(b), int(grid_size))
    log_s_sum = float(np.sum(np.log(np.clip(s, 1e-300, None))))
    # the s term is added last, as in the one-expression sum over all terms,
    # so the cached part rounds exactly as it did there
    logw = base + s_coef * log_s_sum
    top = float(np.max(logw))
    if not np.isfinite(top):
        warnings.warn("all griddy-Gibbs weights underflowed; keeping current alpha")
        if current is None:
            raise FitError("alpha grid weights underflowed and no fallback value given")
        return float(current)
    w = np.exp(logw - top)
    cdf = np.cumsum(w)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    idx = min(idx, grid_size - 1)
    return float(alpha_grid[idx])


# -- the sampler ---------------------------------------------------------------


def _pick(rng: np.random.Generator, ids):
    """``ids[rng.integers(len(ids))]``, skipping the call for one candidate:
    numpy's ``integers(1)`` returns 0 without advancing the bit generator
    (a test pins this), so the stream is the same either way."""
    return ids[int(rng.integers(len(ids)))] if len(ids) > 1 else ids[0]


def _accept_prob(log_r: float, context: str) -> float:
    """min(1, exp(log_r)) with a finite-ness guard; -inf is a valid hard reject."""
    if math.isnan(log_r):
        raise FitError(f"non-finite MH log-ratio in {context}")
    return 1.0 if log_r >= 0.0 else math.exp(log_r)


class EnsembleSampler:
    """Mutable sampler state for one fit. Use :func:`fit` unless a test needs
    to drive sweeps manually via :meth:`step`.

    ``counts[j]`` is the number of internal nodes that split on feature j,
    summed over the whole ensemble; each accepted move updates it."""

    def __init__(
        self,
        dataset: Dataset,
        config: FitConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.X = np.ascontiguousarray(dataset.X, dtype=np.float64)
        self.n, self.p = self.X.shape
        # column-major copy: a split gathers one feature over a node's rows
        self.XT = np.ascontiguousarray(self.X.T)
        y = dataset.y
        ymin, ymax = float(np.min(y)), float(np.max(y))
        self.y_center = 0.5 * (ymin + ymax)
        self.y_range = (ymax - ymin) if ymax > ymin else 1.0
        self.ysc = (y - self.y_center) / self.y_range
        self.grids = CutpointGrid.from_matrix(self.X)

        T = config.n_trees
        self.sigma_mu = 0.5 / (config.k_leaf * math.sqrt(T))
        self.sigma_mu2 = self.sigma_mu**2
        self.lam = calibrate_lambda(self.ysc, config.nu, config.q)
        self.sigma2 = max(float(np.var(self.ysc, ddof=1)) if self.n > 1 else 1.0, 1e-10)

        # a uniform below the first cut proposes BIRTH, below the second DEATH
        self._move_cuts = (config.p_birth, config.p_birth + config.p_death)

        self.trees = [DecisionTree.stump(0.0) for _ in range(T)]
        # per tree: ascending row indices of every live node (see module doc)
        self.node_rows = [{tree.root: np.arange(self.n)} for tree in self.trees]
        self.assign = np.zeros((T, self.n), dtype=np.int64)
        # one array per tree: a leaf redraw replaces its tree's array
        self.tree_pred = [np.zeros(self.n) for _ in range(T)]
        self.resid = self.ysc.copy()
        self.counts = np.zeros(self.p, dtype=np.int64)

        self.is_dart = config.prior_kind == "dart"
        self.rho = float(config.dart_rho) if config.dart_rho is not None else float(self.p)
        self.alpha = float(self.p)
        self.s = np.full(self.p, 1.0 / self.p)
        self._s_cdf = np.cumsum(self.s).tolist()

    # -- proposals -------------------------------------------------------

    def _draw_feature(self) -> int:
        j = bisect.bisect_right(self._s_cdf, self.rng.random())
        return min(j, self.p - 1)

    def _draw_rule(self) -> tuple[int, float]:
        j = self._draw_feature()
        return j, float(_pick(self.rng, self.grids.grids[j]))

    @staticmethod
    def _split_rows(node_rows, assign_t, rows, go_left, left_id: int, right_id: int) -> None:
        """Route a node's rows to its children under an accepted rule."""
        node_rows[left_id] = rows_left = rows[go_left]
        node_rows[right_id] = rows_right = rows[~go_left]
        assign_t[rows_left] = left_id
        assign_t[rows_right] = right_id

    def _propose_birth(self, t: int, tree: DecisionTree, assign_t, r_t) -> None:
        rng = self.rng
        leaves = tree.leaf_ids()
        node = _pick(rng, leaves)
        node_rows = self.node_rows[t]
        rows = node_rows[node]
        if rows.size <= 1:
            return  # exhausted: every rule would leave a child empty
        j, c = self._draw_rule()
        go_left = self.XT[j][rows] <= c
        n_left = int(np.count_nonzero(go_left))
        n_right = rows.size - n_left
        if n_left == 0 or n_right == 0:
            return  # empty-cell proposal rejected outright
        r_rows = r_t[rows]
        s_parent = float(np.add.reduce(r_rows))
        s_left = float(np.add.reduce(r_rows[go_left]))
        log_r = _birth_log_ratio(
            len(leaves),
            _prunable_after_birth(tree, node),
            tree.depth(node),
            n_left,
            s_left,
            n_right,
            s_parent - s_left,
            s_parent,
            self.sigma2,
            self.sigma_mu2,
            self.config,
        )
        prob = _accept_prob(log_r, "BIRTH")
        if rng.random() < prob:
            left_id, right_id = tree.split_leaf(node, j, c)
            tree.accept_prob[node] = prob
            self._split_rows(node_rows, assign_t, rows, go_left, left_id, right_id)
            self.counts[j] += 1

    def _propose_death(self, t: int, tree: DecisionTree, assign_t, r_t) -> None:
        rng = self.rng
        prunables = tree.prunable_ids()
        if not prunables:
            return  # single-leaf tree: DEATH disallowed, sweep continues
        node = _pick(rng, prunables)
        node_rows = self.node_rows[t]
        left_id, right_id = tree.left[node], tree.right[node]
        rows_left, rows_right = node_rows[left_id], node_rows[right_id]
        s_left = float(np.add.reduce(r_t[rows_left]))
        s_right = float(np.add.reduce(r_t[rows_right]))
        # exact negation of the BIRTH that would re-create this split
        log_birth = _birth_log_ratio(
            tree.n_leaves() - 1,
            len(prunables),
            tree.depth(node),
            rows_left.size,
            s_left,
            rows_right.size,
            s_right,
            s_left + s_right,
            self.sigma2,
            self.sigma_mu2,
            self.config,
        )
        prob = _accept_prob(-log_birth, "DEATH")
        if rng.random() < prob:
            j_old = tree.feature[node]
            tree.prune(node)
            del node_rows[left_id], node_rows[right_id]
            assign_t[node_rows[node]] = node
            self.counts[j_old] -= 1

    def _propose_change(self, t: int, tree: DecisionTree, assign_t, r_t) -> None:
        rng = self.rng
        prunables = tree.prunable_ids()
        if not prunables:
            return
        node = _pick(rng, prunables)
        node_rows = self.node_rows[t]
        left_id, right_id = tree.left[node], tree.right[node]
        rows = node_rows[node]
        j_new, c_new = self._draw_rule()
        go_left = self.XT[j_new][rows] <= c_new
        n_left_new = int(np.count_nonzero(go_left))
        n_right_new = rows.size - n_left_new
        if n_left_new == 0 or n_right_new == 0:
            return
        r_rows = r_t[rows]
        s_total = float(np.add.reduce(r_rows))
        s_left_new = float(np.add.reduce(r_rows[go_left]))
        rows_left_old = node_rows[left_id]
        n_left_old = rows_left_old.size
        s_left_old = float(np.add.reduce(r_t[rows_left_old]))
        # kernel and prior ratios are 1 for a rule swap; parent terms cancel
        g_left_new, g_right_new, g_left_old, g_right_old = _node_gains(
            (n_left_new, n_right_new, n_left_old, rows.size - n_left_old),
            (s_left_new, s_total - s_left_new, s_left_old, s_total - s_left_old),
            self.sigma2,
            self.sigma_mu2,
        )
        prob = _accept_prob(g_left_new + g_right_new - g_left_old - g_right_old, "CHANGE")
        if rng.random() < prob:
            j_old = tree.feature[node]
            tree.set_rule(node, j_new, c_new)
            tree.accept_prob[node] = prob
            self.counts[j_old] -= 1
            self.counts[j_new] += 1
            self._split_rows(node_rows, assign_t, rows, go_left, left_id, right_id)

    def _redraw_leaves(self, t: int, tree: DecisionTree, assign_t, r_t) -> None:
        ids = tree.leaf_ids()
        node_rows = self.node_rows[t]
        # bincount adds each leaf's residuals one by one in row order; a
        # pairwise np.add.reduce over the leaf's rows would round differently
        sums = np.bincount(assign_t, weights=r_t, minlength=tree.arena_size).tolist()
        z = self.rng.standard_normal(len(ids)).tolist()
        sigma2, sigma_mu2 = self.sigma2, self.sigma_mu2
        value = tree.value
        for i, z_i in zip(ids, z):
            m, v = leaf_posterior(node_rows[i].size, sums[i], sigma2, sigma_mu2)
            # math.sqrt is correctly rounded, so it matches np.sqrt bit for bit
            value[i] = m + math.sqrt(v) * z_i
        # assign_t holds leaf ids only, so the other slots' values are never read
        new_pred = np.array(value)[assign_t]
        self.resid += self.tree_pred[t] - new_pred
        self.tree_pred[t] = new_pred

    # -- sweeps ------------------------------------------------------------

    def _update_tree(self, t: int) -> None:
        tree = self.trees[t]
        assign_t = self.assign[t]
        r_t = self.resid + self.tree_pred[t]
        birth_cut, death_cut = self._move_cuts
        u = self.rng.random()
        if u < birth_cut:
            self._propose_birth(t, tree, assign_t, r_t)
        elif u < death_cut:
            self._propose_death(t, tree, assign_t, r_t)
        else:
            self._propose_change(t, tree, assign_t, r_t)
        self._redraw_leaves(t, tree, assign_t, r_t)

    def step(self) -> None:
        """One full sweep: all trees, then sigma^2, then (s, alpha) if sparse."""
        for t in range(self.config.n_trees):
            self._update_tree(t)
        sse = float(self.resid @ self.resid)
        self.sigma2 = sample_sigma2(sse, self.n, self.config.nu, self.lam, self.rng)
        if self.is_dart:
            self.s = update_split_probs(self.counts, self.alpha, self.rng)
            self._s_cdf = np.cumsum(self.s).tolist()
            self.alpha = sample_alpha(
                self.s,
                self.rng,
                a=self.config.dart_a,
                b=self.config.dart_b,
                rho=self.rho,
                grid_size=self.config.alpha_grid_size,
                current=self.alpha,
            )

    def set_split_probs(self, s) -> None:
        """Force the split-feature probabilities (testing hook)."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.p,) or abs(float(s.sum()) - 1.0) > 1e-9 or np.any(s < 0):
            raise ValueError("s must be a length-p simplex vector")
        self.s = s
        self._s_cdf = np.cumsum(s).tolist()

    def run(self) -> PosteriorTrace:
        cfg = self.config
        K = cfg.n_draws
        # per kept draw, the features split on and their ensemble counts
        split_features: list[np.ndarray] = []
        split_counts: list[np.ndarray] = []
        sigma2_path = np.zeros(K)
        mean_path = np.zeros(K)
        leaf_counts = np.zeros((K, cfg.n_trees), dtype=np.int32)
        mi_sum = np.zeros(self.p) if cfg.track_mi else None
        alpha_path = np.zeros(K) if self.is_dart else None
        s_path = np.zeros((K, self.p)) if (self.is_dart and cfg.track_s_path) else None

        for it in range(cfg.burn_in + K):
            self.step()
            if it < cfg.burn_in:
                continue
            k = it - cfg.burn_in
            used = np.flatnonzero(self.counts)
            split_features.append(used)
            split_counts.append(self.counts[used])
            sigma2_path[k] = self.sigma2 * self.y_range**2
            yhat_scaled = self.ysc - self.resid
            mean_path[k] = float(yhat_scaled.mean()) * self.y_range + self.y_center
            for t, tree in enumerate(self.trees):
                leaf_counts[k, t] = tree.n_leaves()
            if mi_sum is not None:
                feats: list[int] = []
                probs: list[float] = []
                for tree in self.trees:
                    for i in tree.internal_ids():
                        feats.append(tree.feature[i])
                        probs.append(tree.accept_prob[i])
                mi_sum += mi_term(np.asarray(feats, dtype=np.int64), np.asarray(probs), self.p)
            if self.is_dart:
                alpha_path[k] = self.alpha
                if s_path is not None:
                    s_path[k] = self.s

        echo = asdict(cfg)
        echo["dart_rho"] = self.rho
        echo.update(
            n=self.n,
            p=self.p,
            y_center=self.y_center,
            y_range=self.y_range,
            sigma_mu=self.sigma_mu,
            noise_prior_lambda=self.lam,
        )
        draw_ptr = np.zeros(K + 1, dtype=np.int64)
        np.cumsum([a.size for a in split_features], out=draw_ptr[1:])
        return PosteriorTrace(
            draw_ptr=draw_ptr,
            feature=np.concatenate(split_features, dtype=np.int32),
            count=np.concatenate(split_counts, dtype=np.int32),
            p=self.p,
            sigma2_path=sigma2_path,
            insample_mean_path=mean_path,
            leaf_counts=leaf_counts,
            seed=cfg.seed,
            config_echo=echo,
            mi_sum=mi_sum,
            alpha_path=alpha_path,
            s_path=s_path,
        )


def fit(
    dataset: Dataset, config: FitConfig, rng: np.random.Generator | None = None
) -> PosteriorTrace:
    """Run one MCMC fit and return the retained draws.

    Deterministic given ``config.seed``; pass ``rng`` to continue an existing
    stream instead (used by the permutation-null driver).
    """
    return EnsembleSampler(dataset, config, rng=rng).run()


class Workers:
    """A pool of ``jobs`` worker processes, held open across many ``map`` calls.

    Use it as a context manager: the pool starts on the first call that
    needs it and is shut down on exit, so one selection run or one grid forks
    its workers once. ``map(worker, tasks)`` is ``[worker(t) for t in tasks]``,
    run in this process when jobs is 1 or there is one task that no
    ``prefetch`` queued. ``worker`` must be a module-level function so the
    pool can pickle it. Workers start by the platform's default method (fork
    on Linux); a spawned worker would import numpy and bartsel again, about
    0.23-0.26 s and 32 MB per worker on a 2-core x86-64 box, more than the
    pool saves on short fits.

    ``prefetch(worker, tasks)`` submits tasks ahead of the ``map`` that will
    ask for them, so the pool is not left idle between maps: a ``map`` with
    the same worker and an equal task takes the queued result instead of
    running the task again. A queued task no ``map`` asks for is held until
    ``discard`` drops it or the pool closes.

    If a worker dies, the pool is dropped with every queued task. The ``map``
    that sees it runs its own tasks once more on a new pool, since any
    queued task may have killed the worker, and raises ``BrokenProcessPool``
    if that pool breaks too.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self._queued: dict[tuple, Future] = {}

    @staticmethod
    def borrow(jobs: int | Workers):
        """A context for ``jobs``: an open holder as it is (left open on
        exit), or a new holder of that many workers (closed on exit)."""
        return contextlib.nullcontext(jobs) if isinstance(jobs, Workers) else Workers(jobs)

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down, cancelling every task that has not started."""
        pool, self._pool = self._pool, None
        self._queued.clear()
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    def _submit(self, worker, task) -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool.submit(worker, task)

    def prefetch(self, worker, tasks: list) -> None:
        """Queue ``tasks`` (hashable) on the pool now; does nothing when jobs is 1."""
        if self.jobs <= 1:
            return
        try:
            for task in tasks:
                if (worker, task) not in self._queued:
                    self._queued[worker, task] = self._submit(worker, task)
        except BrokenProcessPool:
            self.close()  # a queued task killed a worker; each map runs its own again

    def discard(self, item) -> None:
        """Cancel and drop the queued tasks, tuples, that hold ``item``."""
        for key in [key for key in self._queued if any(x is item for x in key[1])]:
            self._queued.pop(key).cancel()

    def map(self, worker, tasks: list) -> list:
        if self.jobs <= 1:
            return [worker(t) for t in tasks]
        queued = [self._queued.pop((worker, t), None) for t in tasks]
        if len(tasks) < 2 and all(f is None for f in queued):
            return [worker(t) for t in tasks]
        try:
            return self._collect(worker, tasks, queued)
        except BrokenProcessPool:
            self.close()
        try:
            return self._collect(worker, tasks, [None] * len(tasks))
        except BrokenProcessPool:
            self.close()
            raise

    def _collect(self, worker, tasks: list, queued: list) -> list:
        futures = []
        try:
            for f, task in zip(queued, tasks):
                futures.append(self._submit(worker, task) if f is None else f)
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()
