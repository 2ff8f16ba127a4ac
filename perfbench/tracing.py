"""Spans placed from outside the library, around the calls into each module.

``install`` replaces chosen bartsel functions and methods with wrappers that
record one span per call and restores the originals on exit. Every binding
of a wrapped function is replaced: the defining module, the modules that
imported it by name, the package namespace and module-level dicts such as
the threshold-rule table. Spans are kept in memory in the process that made
them, so work done inside pool workers is seen only as the parent's wait in
``fit_replicates`` or ``permutation_null``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# layer -> (module, attribute path) of each wrapped callable; ``install``
# fails on a name the library no longer has, so a refactor cannot drop a span
TARGETS = {
    "data": [
        ("bartsel.data", "validate_dataset"),
        ("bartsel.data", "Dataset.with_response"),
        ("bartsel.data", "CutpointGrid.from_matrix"),
    ],
    "sampler": [
        ("bartsel.sampler", "fit"),
        ("bartsel.sampler", "EnsembleSampler.__init__"),
        ("bartsel.sampler", "EnsembleSampler.step"),
        ("bartsel.sampler", "sample_sigma2"),
        ("bartsel.sampler", "update_split_probs"),
        ("bartsel.sampler", "sample_alpha"),
    ],
    "summaries": [
        ("bartsel.summaries", "vip"),
        ("bartsel.summaries", "vc"),
        ("bartsel.summaries", "mpvip"),
        ("bartsel.summaries", "metropolis_importance"),
        ("bartsel.summaries", "build_summary_matrix"),
    ],
    "selection": [
        ("bartsel.selection", "permutation_null"),
        ("bartsel.selection", "threshold_local"),
        ("bartsel.selection", "threshold_gse"),
        ("bartsel.selection", "threshold_gmax"),
        ("bartsel.selection", "cluster_select"),
        ("bartsel.selection", "mpm_select"),
    ],
    "methods": [
        ("bartsel.methods", "run_method"),
        ("bartsel.methods", "fit_replicates"),
        ("bartsel.methods", "select_with_method"),
    ],
    "benchmark": [
        ("bartsel.benchmark", "run_grid"),
        ("bartsel.benchmark", "generate_dataset_with_info"),
        ("bartsel.benchmark", "compute_metrics"),
    ],
    "traceio": [
        ("bartsel.traceio", "write_trace"),
        ("bartsel.traceio", "read_trace"),
        ("bartsel.traceio", "grid_row_to_record"),
        ("bartsel.traceio", "write_metrics_csv"),
        ("bartsel.traceio", "write_aggregate_csv"),
    ],
}

LAYERS = tuple(TARGETS) + ("harness",)

SPAN_FIELDS = ("layer", "name", "parent", "iteration", "start_ns", "end_ns")


def trace_nbytes(trace) -> int:
    """Bytes held by one posterior trace's arrays, MI log included."""
    total = 0
    for name in ("counts", "sigma2_path", "insample_mean_path", "leaf_counts", "alpha_path", "s_path"):
        arr = getattr(trace, name, None)
        if arr is not None:
            total += arr.nbytes
    for name in ("mi_features", "mi_probs"):
        for arr in getattr(trace, name, None) or ():
            total += arr.nbytes
    return total


class Tracer:
    """In-memory span recorder plus the fit counters of the grid caches."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = -1
        self.trace_bytes: list[int] = []
        # per iteration: [fits computed, fits recomputed]
        self.fit_counts: list[list[int]] = []
        self._null_rows: dict = {}

    def begin_iteration(self) -> None:
        """Start a new request id; the null-row memory matches run_grid's
        caches, which live for one call."""
        self.iteration += 1
        self.fit_counts.append([0, 0])
        self._null_rows = {}

    def open(self, layer: str, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [layer, name, parent, self.iteration, time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[5] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def durations_s(self, name: str) -> list[float]:
        return [(s[5] - s[4]) * 1e-9 for s in self.spans if s[1] == name]

    def layer_table(self, iterations: int) -> dict[str, dict[str, float]]:
        """Per layer: self time (span time not covered by child spans) and
        span count, both per iteration."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child_ns[s[2]] += s[5] - s[4]
        table = {layer: {"self_ms": 0.0, "spans": 0.0} for layer in LAYERS}
        for s, covered in zip(self.spans, child_ns):
            table[s[0]]["self_ms"] += (s[5] - s[4] - covered) * 1e-6
            table[s[0]]["spans"] += 1
        return {k: {m: v / iterations for m, v in row.items()} for k, row in table.items()}


def _observe_fit_replicates(tracer: Tracer, args: dict, traces) -> None:
    tracer.fit_counts[-1][0] += args["l_rep"] - args.get("start", 0)
    tracer.trace_bytes.extend(trace_nbytes(t) for t in traces)


def _observe_permutation_null(tracer: Tracer, args: dict, null) -> None:
    # a row counts as recomputed when an earlier call already produced it
    l_perm = args["l_perm"]
    key = (id(args["dataset"]), args["importance_kind"], args["config"], args["seed"])
    done = tracer._null_rows.get(key, 0)
    tracer.fit_counts[-1][0] += l_perm
    tracer.fit_counts[-1][1] += min(done, l_perm)
    tracer._null_rows[key] = max(done, l_perm)


_OBSERVERS = {
    "fit_replicates": _observe_fit_replicates,
    "permutation_null": _observe_permutation_null,
}


def _resolve(module_name: str, path: str):
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None, attr, None
    return owner, attr, vars(owner)[attr]


@contextmanager
def install(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    restore: list[tuple[object, str, object]] = []

    def replace_in(container, key, value) -> None:
        if isinstance(container, dict):
            restore.append((container, key, container[key]))
            container[key] = value
        else:
            restore.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    try:
        for layer, targets in TARGETS.items():
            for module_name, path in targets:
                owner, attr, raw = _resolve(module_name, path)
                if raw is None:
                    raise LookupError(f"tracing target {module_name}.{path} not found; update TARGETS")
                if isinstance(raw, classmethod):
                    replace_in(owner, attr, classmethod(tracer.wrap(layer, path, raw.__func__)))
                    continue
                wrapped = tracer.wrap(layer, path, raw)
                if owner is not sys.modules[module_name]:
                    replace_in(owner, attr, wrapped)  # a method on a class
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "bartsel" or mod_name.startswith("bartsel.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            replace_in(mod, key, wrapped)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is raw:
                                    replace_in(value, k, wrapped)
        yield tracer
    finally:
        for container, key, value in reversed(restore):
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)
