"""End-to-end selection methods: fit replicates, summarize, select.

Each method name bundles a split-feature prior with a selection route:

* permutation thresholds on VIP or MI (bart-vip-local / gse / gmax,
  bart-mi-local);
* clustering on a replicate summary matrix (bart-vip-rank, bart/dart
  vc-measure, bart/dart vip-measure);
* the median probability model on MPVIP (dart-mpm).

Seed scheme: a run seed expands to per-fit seeds seed + fit_index
(0-based) and per-permutation seeds seed + 10000 + ell (1-based), so any
prefix of the replicate fits is reproducible independently. ``run_method``
can therefore keep replicate fits and null rows in a per-dataset cache and
grow them by the missing rows only; a grown cache is bit-identical to a
fresh run. Every fit keeps the MI sum, which only reads the trees after
each kept draw and draws no random number, so one chain serves every
method on its prior: MI and VIP methods share their replicate and
permutation fits, and each null fit gives both a VIP and an MI row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import selection as _selection
from .data import Dataset, FitConfig, PosteriorTrace
from .sampler import Workers, fit
from .selection import (
    PERMUTATION_SEED_OFFSET,
    SelectionResult,
    _null_tasks,
    cluster_select,
    mpm_select,
    permutation_null,
    threshold_gmax,
    threshold_gse,
    threshold_local,
)
from .summaries import (
    KIND_MI,
    KIND_MPVIP,
    KIND_VIP,
    SOURCE_VC_MEASURE,
    SOURCE_VIP_MEASURE,
    SOURCE_VIP_RANK,
    SummaryMatrix,
    build_summary_matrix,
    importance,
    vip,  # noqa: F401 - unused; perfbench/tests/test_smoke.py checks this binding is traced
)

__all__ = [
    "METHOD_SPECS",
    "METHOD_NAMES",
    "MethodSpec",
    "RunConfig",
    "MethodResult",
    "resolve_l_rep",
    "fit_replicates",
    "select_with_method",
    "prefetch_fits",
    "run_method",
]

ROUTE_PERMUTATION = "permutation"
ROUTE_CLUSTER = "cluster"
ROUTE_MPM = "mpm"


@dataclass(frozen=True)
class MethodSpec:
    name: str
    prior_kind: str
    route: str
    default_l_rep: int
    perm_kind: str | None = None
    perm_rule: str | None = None
    source_kind: str | None = None

    @property
    def needs_null(self) -> bool:
        return self.route == ROUTE_PERMUTATION


METHOD_SPECS: dict[str, MethodSpec] = {
    spec.name: spec
    for spec in [
        MethodSpec("bart-vip-local", "bart", ROUTE_PERMUTATION, 10, KIND_VIP, "local"),
        MethodSpec("bart-vip-gse", "bart", ROUTE_PERMUTATION, 10, KIND_VIP, "gse"),
        MethodSpec("bart-vip-gmax", "bart", ROUTE_PERMUTATION, 10, KIND_VIP, "gmax"),
        MethodSpec("bart-mi-local", "bart", ROUTE_PERMUTATION, 10, KIND_MI, "local"),
        MethodSpec("bart-vip-rank", "bart", ROUTE_CLUSTER, 20, source_kind=SOURCE_VIP_RANK),
        MethodSpec("dart-mpm", "dart", ROUTE_MPM, 1),
        MethodSpec("bart-vc-measure", "bart", ROUTE_CLUSTER, 10, source_kind=SOURCE_VC_MEASURE),
        MethodSpec("dart-vc-measure", "dart", ROUTE_CLUSTER, 10, source_kind=SOURCE_VC_MEASURE),
        MethodSpec("bart-vip-measure", "bart", ROUTE_CLUSTER, 10, source_kind=SOURCE_VIP_MEASURE),
        MethodSpec("dart-vip-measure", "dart", ROUTE_CLUSTER, 10, source_kind=SOURCE_VIP_MEASURE),
    ]
}

METHOD_NAMES = tuple(METHOD_SPECS)


def resolve_l_rep(method: str, l_rep: int | None) -> int:
    spec = METHOD_SPECS[method]
    return spec.default_l_rep if l_rep is None else int(l_rep)


@dataclass(frozen=True)
class RunConfig:
    """One selection run: method plus fit, replication, and threshold knobs.
    An invalid value raises ValueError on construction."""

    method: str
    fit: FitConfig = field(default_factory=FitConfig)
    l_rep: int | None = None
    l_perm: int = 50
    alpha: float = 0.05
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHOD_SPECS:
            raise ValueError(
                f"unknown method {self.method!r}; choose one of {', '.join(METHOD_NAMES)}"
            )
        if resolve_l_rep(self.method, self.l_rep) < 1:
            raise ValueError("l_rep must be >= 1")
        if METHOD_SPECS[self.method].needs_null and self.l_perm < 1:
            raise ValueError(f"method {self.method!r} needs l_perm >= 1 permutations")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def fit_config(self) -> FitConfig:
        """The per-fit configuration: the method's prior, with the MI sum kept."""
        return replace(self.fit, prior_kind=METHOD_SPECS[self.method].prior_kind, track_mi=True)


@dataclass
class MethodResult:
    """One selection run's outcome.

    ``runtime_s`` is the wall time of this ``run_method`` call: the time it
    waited for the fits it lacked, plus summaries and selection. Fits it
    took from the cache are not timed. In a grid with jobs > 1 every fit of
    a dataset is queued when its first row starts, so a row waits only for
    what the pool has not finished yet. The figure therefore depends on the
    other points and their order: a row that reuses another row's chain
    (every VIP point after a ``bart-mi-local`` point on the same data, say)
    reads near zero.
    """

    selection: SelectionResult
    summary: SummaryMatrix | None
    null: np.ndarray | None
    fit_seeds: list[int]
    perm_seeds: list[int]
    runtime_s: float
    config: RunConfig

    @property
    def importance(self) -> np.ndarray:
        return self.selection.importance


def _fit_one(args) -> PosteriorTrace:
    dataset, cfg = args
    return fit(dataset, cfg)


def _replicate_tasks(dataset, fit_config, seed, start, stop) -> list[tuple]:
    """The ``_fit_one`` tasks of the replicate fits start .. stop - 1."""
    return [(dataset, replace(fit_config, seed=seed + i)) for i in range(start, stop)]


def fit_replicates(
    dataset: Dataset,
    fit_config: FitConfig,
    seed: int,
    l_rep: int,
    jobs: int | Workers = 1,
    start: int = 0,
) -> list[PosteriorTrace]:
    """Independent replicate fits with seeds seed + start .. seed + l_rep - 1.

    ``jobs`` is a worker count, for a pool that lives for this call only, or
    an open :class:`~bartsel.sampler.Workers`, which is used and left open.
    """
    with Workers.borrow(jobs) as workers:
        return workers.map(_fit_one, _replicate_tasks(dataset, fit_config, seed, start, l_rep))


def _mean_importance(traces: list[PosteriorTrace], kind: str) -> np.ndarray:
    return np.mean(np.stack([importance(t, kind) for t in traces]), axis=0)


_THRESHOLD_RULES = {
    "local": threshold_local,
    "gse": threshold_gse,
    "gmax": threshold_gmax,
}


def select_with_method(
    method: str,
    traces: list[PosteriorTrace],
    null: np.ndarray | None,
    alpha: float,
) -> tuple[SelectionResult, SummaryMatrix | None]:
    """Apply a method's selection route to already-fitted replicate traces."""
    spec = METHOD_SPECS[method]
    if spec.route == ROUTE_PERMUTATION:
        if null is None:
            raise ValueError(f"method {method!r} requires a permutation null matrix")
        observed = _mean_importance(traces, spec.perm_kind)
        return _THRESHOLD_RULES[spec.perm_rule](observed, null, alpha), None
    if spec.route == ROUTE_CLUSTER:
        summary = build_summary_matrix(traces, spec.source_kind)
        return cluster_select(summary), summary
    return mpm_select(_mean_importance(traces, KIND_MPVIP)), None


def _grow(rows: list, count: int, compute) -> list:
    """The first ``count`` of the cached ``rows``, after appending the rows
    ``compute(len(rows), count)`` makes when the cache holds fewer."""
    if len(rows) < count:
        rows += compute(len(rows), count)
    return rows[:count]


_NULL_KINDS = (KIND_VIP, KIND_MI)
_null_fit_tasks = partial(_null_tasks, kinds=_NULL_KINDS)


def _null_rows(dataset, fit_cfg, seed, start, stop, pool) -> list[dict]:
    """Null rows start .. stop - 1, each a {kind: row} dict of the VIP and the
    MI row of one fit."""
    nulls = permutation_null(dataset, _NULL_KINDS, stop, fit_cfg, seed, jobs=pool, start=start)
    return [dict(zip(_NULL_KINDS, rows)) for rows in zip(*nulls)]


def prefetch_fits(
    dataset: Dataset, configs: list[RunConfig], cache: dict, workers: Workers
) -> None:
    """Queue on ``workers`` every fit that ``run_method`` calls with these
    ``configs``, ``dataset`` and ``cache`` will ask for, so the pool works
    through them without waiting between calls.

    For each chain these are the replicate and the null fits that ``cache``
    lacks, up to the largest ``l_rep`` and ``l_perm`` the configs ask of it,
    queued in the order the configs need them. The tasks are built as
    ``fit_replicates`` and ``permutation_null`` build theirs, so each of
    their maps takes its fits from the queue. Does nothing when jobs is 1 or
    there is at most one fit to queue, which ``run_method`` runs in-process.
    """
    if workers.jobs <= 1:
        return
    queued: dict = {}
    plan: list[tuple] = []
    for config in configs:
        fit_cfg = config.fit_config()
        chain = (fit_cfg, config.seed)
        wants = [(chain, resolve_l_rep(config.method, config.l_rep), _fit_one, _replicate_tasks)]
        if METHOD_SPECS[config.method].needs_null:
            wants.append(((*chain, "null"), config.l_perm, _selection._null_row, _null_fit_tasks))
        for key, stop, worker, tasks in wants:
            start = queued.get(key, len(cache.get(key, ())))
            if start < stop:
                plan.append((worker, tasks(dataset, fit_cfg, config.seed, start, stop)))
                queued[key] = stop
    if sum(len(tasks) for _, tasks in plan) > 1:
        for worker, tasks in plan:
            workers.prefetch(worker, tasks)


def run_method(
    dataset: Dataset,
    config: RunConfig,
    cache: dict | None = None,
    workers: Workers | None = None,
) -> MethodResult:
    """Fit, summarize, and select end to end for one dataset.

    ``cache``, if given, belongs to this dataset: it keeps the replicate fits
    and the null rows across calls, and each call computes only the rows it
    lacks. Both are keyed by the chain, which is the method's fit
    configuration and the seed, so methods on the same prior share fits.
    Every fit keeps the MI sum, and every null row holds a VIP and an MI row.

    The replicate and the null fits share one pool of ``config.jobs``
    workers, shut down before this returns; with jobs > 1 both are queued
    at once (``prefetch_fits``), so the null fits start while the replicate
    fits finish. ``workers``, an open holder the caller closes (``run_grid``
    passes one per grid), runs them instead; its ``jobs`` must equal
    ``config.jobs`` (ValueError otherwise).
    """
    if workers is not None and workers.jobs != config.jobs:
        raise ValueError(f"workers hold {workers.jobs} jobs but config.jobs is {config.jobs}")
    spec = METHOD_SPECS[config.method]
    l_rep = resolve_l_rep(config.method, config.l_rep)
    fit_cfg = config.fit_config()
    chain = (fit_cfg, config.seed)
    cache = {} if cache is None else cache
    t0 = time.perf_counter()
    null = None
    perm_seeds: list[int] = []
    with Workers.borrow(config.jobs if workers is None else workers) as pool:
        prefetch_fits(dataset, [config], cache, pool)
        traces = _grow(
            cache.setdefault(chain, []),
            l_rep,
            lambda start, stop: fit_replicates(
                dataset, fit_cfg, config.seed, stop, jobs=pool, start=start
            ),
        )
        if spec.needs_null:
            rows = _grow(
                cache.setdefault((*chain, "null"), []),
                config.l_perm,
                lambda start, stop: _null_rows(dataset, fit_cfg, config.seed, start, stop, pool),
            )
            null = np.stack([row[spec.perm_kind] for row in rows])
            perm_seeds = [
                config.seed + PERMUTATION_SEED_OFFSET + ell for ell in range(1, config.l_perm + 1)
            ]
    selection, summary = select_with_method(config.method, traces, null, config.alpha)
    runtime = time.perf_counter() - t0
    return MethodResult(
        selection=selection,
        summary=summary,
        null=null,
        fit_seeds=[config.seed + i for i in range(l_rep)],
        perm_seeds=perm_seeds,
        runtime_s=runtime,
        config=config,
    )
