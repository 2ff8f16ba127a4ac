"""Synthetic benchmark harness: equation registry, data generation,
selection-accuracy metrics, and an experiment-grid runner.

Datasets follow the extended symbolic-regression protocol: the p0 relevant
features are drawn iid Uniform(a_j, b_j), the response is f(X) plus
Gaussian noise with variance var_hat(f)/SNR, and each relevant feature
contributes S irrelevant iid copies of its own range, appended grouped by
parent, for p = p0 * (1 + S) columns in total.

Seed scheme (documented for external reproduction): grid replicate r of a
point with base seed s uses data seed s + 100000 * r for generation and
method seed (data seed + 1) for fitting, which expands to per-fit and
per-permutation seeds as described in :mod:`bartsel.methods`.
"""

from __future__ import annotations

import ast
import math
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .data import Dataset, FitConfig, validate_dataset
from .methods import RunConfig, prefetch_fits, run_method
from .sampler import Workers

__all__ = [
    "BenchmarkError",
    "EquationSpec",
    "GridPoint",
    "GridRowResult",
    "MetricsRecord",
    "REGISTRY",
    "REPLICATE_SEED_STRIDE",
    "parse_expression",
    "generate_dataset",
    "generate_dataset_with_info",
    "compute_metrics",
    "run_grid",
]

REPLICATE_SEED_STRIDE = 100_000


class BenchmarkError(RuntimeError):
    """Raised for equation, generation, or grid failures."""


# -- expression mini-language --------------------------------------------------

_FUNCS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)

# unicode operator spellings accepted in equation strings
_SPELLINGS = {"×": "*", "÷": "/", "−": "-", "^": "**"}


@lru_cache(maxsize=256)
def parse_expression(text: str, p0: int) -> Callable[[list[np.ndarray]], np.ndarray]:
    """Compile an arithmetic expression over x1..xp0 into a vectorized callable.

    Grammar: infix + - * / and power, parentheses, unary minus, numeric
    literals, and the functions cos, sin, exp, log, sqrt. Whitespace is
    ignored. Any other construct is rejected.
    """
    cleaned = text.strip()
    for alt, repl in _SPELLINGS.items():
        cleaned = cleaned.replace(alt, repl)
    try:
        tree = ast.parse(cleaned, mode="eval")
    except SyntaxError as exc:
        raise BenchmarkError(f"cannot parse expression {text!r}: {exc.msg}") from exc

    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expression):
            continue
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise BenchmarkError(f"non-numeric literal {node.value!r} in expression")
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            continue
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _FUNCS
                or len(node.args) != 1
                or node.keywords
            ):
                raise BenchmarkError(
                    f"only single-argument calls to {sorted(_FUNCS)} are allowed"
                )
            continue
        if isinstance(node, ast.Name):
            if node.id in _FUNCS:
                continue
            if node.id.startswith("x") and node.id[1:].isdigit():
                k = int(node.id[1:])
                if not 1 <= k <= p0:
                    raise BenchmarkError(
                        f"variable {node.id} out of range: expression has p0={p0} inputs"
                    )
                names.add(node.id)
                continue
            raise BenchmarkError(f"unknown name {node.id!r} in expression")
        if isinstance(node, (_BINOPS, _UNARYOPS, ast.Load)) or isinstance(
            node, (ast.operator, ast.unaryop, ast.expr_context)
        ):
            continue
        raise BenchmarkError(f"disallowed syntax {type(node).__name__} in expression")

    code = compile(tree, "<equation>", "eval")

    def evaluate(cols: list[np.ndarray]) -> np.ndarray:
        env: dict[str, Any] = dict(_FUNCS)
        for k, col in enumerate(cols, start=1):
            env[f"x{k}"] = col
        with np.errstate(all="ignore"):
            out = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - AST-validated
        return np.broadcast_to(np.asarray(out, dtype=np.float64), cols[0].shape).copy()

    return evaluate


@dataclass(frozen=True)
class EquationSpec:
    """A benchmark equation: identifier, arity, expression, and input ranges."""

    id: str
    expression: str
    ranges: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.p0 < 1:
            raise ValueError("equation needs at least one input range")
        for j, (a, b) in enumerate(self.ranges, start=1):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"range {j} must satisfy a < b with finite bounds")
        parse_expression(self.expression, self.p0)  # fail fast on bad grammar

    @property
    def p0(self) -> int:
        return len(self.ranges)

    def evaluate(self, cols: list[np.ndarray]) -> np.ndarray:
        return parse_expression(self.expression, self.p0)(cols)


def _eq(id: str, expression: str, ranges) -> EquationSpec:
    return EquationSpec(id=id, expression=expression, ranges=tuple(tuple(r) for r in ranges))


# Input ranges for ii-11-17 are declared as U(1,3) on all six inputs, which
# keeps the x2*x3 denominator bounded away from zero.
REGISTRY: dict[str, EquationSpec] = {
    e.id: e
    for e in [
        _eq("ii-11-17", "x1*(1 + x5*x6*cos(x4)/(x2*x3))", [(1, 3)] * 6),
        _eq("product2", "x1*x2", [(1, 3), (1, 3)]),
        _eq("additive3", "x1 + 2*x2 + 3*x3", [(0, 1)] * 3),
        _eq("trig2", "sin(3*x1) + cos(2*x2)", [(0, 2), (0, 2)]),
    ]
}


def _coerce_equation(eq_id: str, raw) -> EquationSpec:
    if isinstance(raw, EquationSpec):
        return raw
    if isinstance(raw, Mapping):
        try:
            return _eq(eq_id, raw["expression"], raw["ranges"])
        except KeyError as exc:
            raise BenchmarkError(f"equation {eq_id!r} is missing key {exc.args[0]!r}") from exc
    raise BenchmarkError(f"equation {eq_id!r} must be a spec or mapping, got {type(raw).__name__}")


# -- data generation ------------------------------------------------------------


def generate_dataset_with_info(
    spec: EquationSpec, n: int, snr: float | None, s_copies: int, seed: int
) -> tuple[Dataset, dict]:
    """Generate a dataset and report the realized signal/noise variances.

    ``snr=None`` means noiseless. Points where f is non-finite are resampled
    (all coordinates redrawn) up to 100 times before aborting.
    """
    if n < 1:
        raise BenchmarkError("n must be >= 1")
    if s_copies < 0:
        raise BenchmarkError("irrelevant-copy count S must be >= 0")
    if snr is not None and not snr > 0:
        raise BenchmarkError("snr must be positive (or None for noiseless)")
    rng = np.random.default_rng(seed)
    p0 = spec.p0
    cols = [rng.uniform(a, b, n) for a, b in spec.ranges]
    f_vals = spec.evaluate(cols)
    for _ in range(100):
        bad = ~np.isfinite(f_vals)
        if not bad.any():
            break
        k = int(bad.sum())
        for j, (a, b) in enumerate(spec.ranges):
            cols[j][bad] = rng.uniform(a, b, k)
        f_vals = spec.evaluate(cols)
    else:
        raise BenchmarkError(
            f"equation {spec.id!r} stayed non-finite after 100 resampling rounds"
        )
    var_f = float(np.var(f_vals, ddof=1)) if n > 1 else 0.0
    noise_var = (var_f / snr) if snr is not None else 0.0
    y = f_vals + rng.normal(0.0, math.sqrt(noise_var), n) if noise_var > 0 else f_vals.copy()
    # irrelevant copies drawn after y so the response is invariant to S
    names = [f"x{j + 1}" for j in range(p0)]
    blocks = [np.column_stack(cols)] if p0 else []
    for j, (a, b) in enumerate(spec.ranges):
        for k in range(s_copies):
            blocks.append(rng.uniform(a, b, n)[:, None])
            names.append(f"x{j + 1}_irr{k + 1}")
    X = np.hstack(blocks)
    dataset = validate_dataset(y, X, feature_names=names, truth=range(1, p0 + 1))
    info = {"var_f": var_f, "noise_var": noise_var, "seed": seed, "p0": p0, "p": dataset.p}
    return dataset, info


def generate_dataset(
    spec: EquationSpec, n: int, snr: float | None, s_copies: int, seed: int
) -> Dataset:
    return generate_dataset_with_info(spec, n, snr, s_copies, seed)[0]


# -- metrics ---------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRecord:
    """Selection-accuracy metrics against a known truth set.

    An empty selection forces tpr = fpr = f1 = 0 and sets ``no_selection``.
    """

    tp: int
    fp: int
    fn: int
    tn: int
    tpr: float
    fpr: float
    f1: float
    no_selection: bool
    runtime_s: float = 0.0


def compute_metrics(selected, truth, p: int, runtime_s: float = 0.0) -> MetricsRecord:
    """Confusion counts and tpr/fpr/f1 of 1-based ``selected`` against
    ``truth`` among p features. ``runtime_s`` is recorded as given; grid rows
    pass ``MethodResult.runtime_s``, the time the row waited for the fits it
    lacked plus its selection. Fits it reused from the grid's cache are not
    counted, and with jobs > 1 fits the pool finished while earlier rows ran
    are not waited for."""
    sel = {int(j) for j in selected}
    tru = {int(j) for j in truth}
    for name, idx in (("selected", sel), ("truth", tru)):
        out_of_range = [j for j in idx if not 1 <= j <= p]
        if out_of_range:
            raise ValueError(f"{name} indices out of range 1..{p}: {sorted(out_of_range)}")
    tp = len(sel & tru)
    fp = len(sel - tru)
    fn = len(tru - sel)
    tn = p - len(tru) - fp
    if not sel:
        tpr = fpr = f1 = 0.0
    else:
        tpr = tp / (tp + fn) if tp + fn else 0.0
        fpr = fp / (fp + tn) if fp + tn else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return MetricsRecord(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        tpr=tpr,
        fpr=fpr,
        f1=f1,
        no_selection=not sel,
        runtime_s=runtime_s,
    )


# -- grid runner -----------------------------------------------------------------


@dataclass(frozen=True)
class GridPoint:
    """One benchmark cell: equation x size x noise x method x replicate."""

    equation: str
    n: int
    snr: float | None
    s_copies: int
    method: str
    l_rep: int | None = None
    l_perm: int = 50
    alpha: float = 0.05
    seed: int = 0
    replicate: int = 0
    fit_overrides: tuple[tuple[str, Any], ...] = ()

    def fit_config(self) -> FitConfig:
        return replace(FitConfig(), **dict(self.fit_overrides))

    @property
    def data_seed(self) -> int:
        return self.seed + REPLICATE_SEED_STRIDE * self.replicate

    def run_config(self, jobs: int = 1) -> RunConfig:
        """The point's selection run, which fits with seed data_seed + 1."""
        return RunConfig(
            method=self.method,
            fit=self.fit_config(),
            l_rep=self.l_rep,
            l_perm=self.l_perm,
            alpha=self.alpha,
            seed=self.data_seed + 1,
            jobs=jobs,
        )


@dataclass
class GridRowResult:
    """Outcome of one grid point: metrics or an error tag, never both."""

    index: int
    point: GridPoint
    p: int | None = None
    data_seed: int | None = None
    selected: tuple[int, ...] | None = None
    metrics: MetricsRecord | None = None
    var_f: float | None = None
    noise_var: float | None = None
    error: str | None = None


def _data_key(pt: GridPoint) -> tuple:
    """A grid point's dataset key; points sharing it share its ``run_method`` cache."""
    return (pt.equation, pt.n, pt.snr, pt.s_copies, pt.data_seed)


def _run_configs(points: Iterable[GridPoint], jobs: int) -> list[RunConfig]:
    """The runs of the points that build one; a point that cannot reports
    the error in its own row."""
    configs = []
    for pt in points:
        try:
            configs.append(pt.run_config(jobs))
        except (TypeError, ValueError):
            pass
    return configs


def _run_point(
    index: int,
    pt: GridPoint,
    equations: Mapping[str, Any],
    data_points: Iterable[GridPoint],
    dataset_cache: dict,
    workers: Workers,
) -> GridRowResult:
    """Run one point. ``data_points`` are the points left to run on its
    dataset, this one first; the first of them to run generates the dataset
    and queues every fit they need."""
    config = pt.run_config(workers.jobs)
    if pt.equation not in equations:
        raise BenchmarkError(f"unknown equation {pt.equation!r}")
    eq = _coerce_equation(pt.equation, equations[pt.equation])
    dkey = _data_key(pt)
    if dkey not in dataset_cache:
        dataset, info = generate_dataset_with_info(eq, pt.n, pt.snr, pt.s_copies, pt.data_seed)
        dataset_cache[dkey] = (dataset, info, {})
        configs = _run_configs(data_points, workers.jobs)
        prefetch_fits(dataset, configs, dataset_cache[dkey][2], workers)
    dataset, info, fit_cache = dataset_cache[dkey]
    result = run_method(dataset, config, cache=fit_cache, workers=workers)
    selected = result.selection.selected
    metrics = compute_metrics(selected, dataset.truth, dataset.p, runtime_s=result.runtime_s)
    return GridRowResult(
        index=index,
        point=pt,
        p=dataset.p,
        data_seed=pt.data_seed,
        selected=tuple(sorted(selected)),
        metrics=metrics,
        var_f=info["var_f"],
        noise_var=info["noise_var"],
    )


def run_grid(
    points: list[GridPoint],
    equations: Mapping[str, Any] | None = None,
    jobs: int = 1,
    skip: Callable[[int, GridPoint], bool] | None = None,
    progress: Callable[[GridRowResult], None] | None = None,
) -> list[GridRowResult]:
    """Run every grid point, isolating per-point failures as error rows.

    Each generated dataset keeps one ``run_method`` cache, so points on it
    reuse replicate fits and permutation-null rows across L_rep and L_perm
    values and across methods sharing a chain (a BART or DART fit
    configuration and seed), and grow them by the missing rows only; seeding
    makes the reuse exact. Every fit keeps the MI sum, so MI and VIP points
    share fits, and each chain is fitted once whatever the row order.
    Points for which ``skip`` returns True are omitted from the output
    (resume support); ``progress`` observes each computed row. Rows return
    in grid order. A dataset, its cache and its queued fits that no row took
    (after a fit failed) are dropped after its last point, so memory holds
    the datasets whose points are still to come.

    With jobs > 1 the whole grid shares one pool of ``jobs`` worker
    processes, shut down before this returns. When a dataset's first row
    starts, every replicate and null fit its points need is queued on the
    pool (``prefetch_fits``), so the workers never wait between rows; the
    rows then take their fits from the queue in order. A point whose run
    cannot be built queues nothing, and its row reports the error. A worker
    that dies fails only the row whose fit killed it (an error row naming
    ``BrokenProcessPool``): the queue is dropped with the pool, the row that
    saw it runs its own fits once more on a new pool, and later rows queue
    their fits again.
    """
    if not points:
        raise BenchmarkError("grid is empty")
    eqs: dict[str, Any] = dict(REGISTRY)
    if equations:
        eqs.update(equations)
    todo = [(i, pt) for i, pt in enumerate(points) if skip is None or not skip(i, pt)]
    # each dataset's points still to run, in grid order
    left: dict[tuple, deque[GridPoint]] = {}
    for _, pt in todo:
        left.setdefault(_data_key(pt), deque()).append(pt)
    dataset_cache: dict = {}
    out: list[GridRowResult] = []
    with Workers(jobs) as workers:
        for index, pt in todo:
            dkey = _data_key(pt)
            try:
                row = _run_point(index, pt, eqs, left[dkey], dataset_cache, workers)
            except Exception as exc:  # noqa: BLE001 - isolation contract
                row = GridRowResult(index=index, point=pt, error=f"{type(exc).__name__}: {exc}")
            left[dkey].popleft()
            if not left[dkey] and dkey in dataset_cache:
                workers.discard(dataset_cache.pop(dkey)[0])
            if progress is not None:
                progress(row)
            out.append(row)
    return out
