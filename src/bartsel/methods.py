"""End-to-end selection methods: fit replicates, summarize, select.

Each method name bundles a split-feature prior with a selection route:

* permutation thresholds on VIP or MI (bart-vip-local / gse / gmax,
  bart-mi-local);
* clustering on a replicate summary matrix (bart-vip-rank, bart/dart
  vc-measure, bart/dart vip-measure);
* the median probability model on MPVIP (dart-mpm).

Seed scheme: a run seed expands to per-fit seeds seed + fit_index
(0-based) and per-permutation seeds seed + 10000 + ell (1-based), so any
prefix of the replicate fits is reproducible independently. Each fit is
one task of a :class:`~bartsel.sampler.Workers` holder, which keeps its
result, so runs that share a holder fit each task once: a longer run
computes only the fits a shorter one lacked, bit-identical to a fresh run.
Every fit keeps the MI sum, which only reads the trees after each kept draw
and draws no random number, so one chain serves every method on its prior:
MI and VIP methods share their replicate and permutation fits, and each
null fit gives both a VIP and an MI row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

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
    waited for the fits its ``Workers`` holder had not kept, plus summaries
    and selection. Kept fits are not timed. In a grid with jobs > 1 every
    fit of a dataset is queued when its first row starts, so a row waits
    only for what the pool has not finished yet. The figure therefore
    depends on the other points and their order: a row that reuses another
    row's chain (every VIP point after a ``bart-mi-local`` point on the
    same data, say) reads near zero.
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


def _replicate_tasks(dataset, fit_config, seed, l_rep) -> list[tuple]:
    """The ``_fit_one`` tasks of the replicate fits 0 .. l_rep - 1."""
    return [(dataset, replace(fit_config, seed=seed + i)) for i in range(l_rep)]


def fit_replicates(
    dataset: Dataset,
    fit_config: FitConfig,
    seed: int,
    l_rep: int,
    jobs: int | Workers = 1,
) -> list[PosteriorTrace]:
    """Independent replicate fits with seeds seed .. seed + l_rep - 1.

    ``jobs`` is a worker count, for a pool that lives for this call only, or
    an open :class:`~bartsel.sampler.Workers`, which is used and left open
    and returns the fits it kept without running them again.
    """
    with Workers.borrow(jobs) as workers:
        return workers.map(_fit_one, _replicate_tasks(dataset, fit_config, seed, l_rep))


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


_NULL_KINDS = (KIND_VIP, KIND_MI)


def prefetch_fits(dataset: Dataset, configs: list[RunConfig], workers: Workers) -> None:
    """Queue on ``workers`` every fit that ``run_method`` calls with these
    ``configs`` and ``dataset`` will ask for, so the pool works through them
    without waiting between calls.

    These are the replicate and the null fits of each chain that ``workers``
    has not kept or queued, in the order the configs need them. The tasks
    are built as ``fit_replicates`` and ``permutation_null`` build theirs,
    so each of their maps takes its fits from the queue. Queues nothing when
    jobs is 1 or there is at most one such fit, which ``run_method`` then
    runs in-process.
    """
    calls: dict = {}
    for config in configs:
        fit_cfg = config.fit_config()
        l_rep = resolve_l_rep(config.method, config.l_rep)
        wants = [(_fit_one, _replicate_tasks(dataset, fit_cfg, config.seed, l_rep))]
        if METHOD_SPECS[config.method].needs_null:
            nulls = _null_tasks(dataset, fit_cfg, config.seed, config.l_perm, _NULL_KINDS)
            wants.append((_selection._null_row, nulls))
        for worker, tasks in wants:
            calls.update(dict.fromkeys((worker, task) for task in tasks))
    lacking = [call for call in calls if call not in workers]
    if len(lacking) > 1:
        for worker, task in lacking:
            workers.prefetch(worker, [task])


def run_method(
    dataset: Dataset,
    config: RunConfig,
    workers: Workers | None = None,
) -> MethodResult:
    """Fit, summarize, and select end to end for one dataset.

    The replicate and the null fits run on one ``Workers`` holder of
    ``config.jobs`` workers, closed before this returns; with jobs > 1 both
    are queued at once (``prefetch_fits``), so the null fits start while the
    replicate fits finish. ``workers``, an open holder the caller closes
    (``run_grid`` passes one per grid), runs them instead; its ``jobs`` must
    equal ``config.jobs`` (ValueError otherwise). The holder keeps every fit
    it ran, keyed by its task (dataset, fit configuration and seed), so calls
    that share one compute only the fits it lacks: methods on the same prior
    share a chain, whatever their ``l_rep`` and ``l_perm``. Every fit keeps
    the MI sum, and every null fit gives a VIP and an MI row.
    """
    if workers is not None and workers.jobs != config.jobs:
        raise ValueError(f"workers hold {workers.jobs} jobs but config.jobs is {config.jobs}")
    spec = METHOD_SPECS[config.method]
    l_rep = resolve_l_rep(config.method, config.l_rep)
    fit_cfg = config.fit_config()
    t0 = time.perf_counter()
    null = None
    perm_seeds: list[int] = []
    with Workers.borrow(config.jobs if workers is None else workers) as pool:
        prefetch_fits(dataset, [config], pool)
        traces = fit_replicates(dataset, fit_cfg, config.seed, l_rep, jobs=pool)
        if spec.needs_null:
            nulls = permutation_null(dataset, _NULL_KINDS, config.l_perm, fit_cfg, config.seed, pool)
            null = nulls[_NULL_KINDS.index(spec.perm_kind)]
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
