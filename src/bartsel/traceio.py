"""File formats: dataset CSV ingestion, the portable trace binary, results
JSON documents, and the benchmark metrics/aggregate CSVs.

Trace binary layout (magic "BVC1", version 3), all integers little-endian:

    bytes 0-3   magic b"BVC1"
    byte  4     format version (0x03)
    bytes 5-8   uint32 header length H
    bytes 9-    H bytes of UTF-8 JSON header: n_kept, p, nnz, n_trees, seed,
                config echo and presence flags
    then raw arrays, in order, with fixed dtypes:
                draw_ptr      int64   n_kept + 1
                feature       int32   nnz
                count         int32   nnz
                sigma2_path   float64 n_kept
                insample_mean float64 n_kept
                leaf_counts   int32   n_kept x n_trees
                alpha_path    float64 n_kept            (if present)
                s_path        float64 n_kept x p        (if present)
                mi_sum        float64 p                 (if present)

The first three arrays are the split counts in CSR form (see
``PosteriorTrace``): draw k's nonzero entries are draw_ptr[k]:draw_ptr[k+1],
their features ascend and their counts are positive; ``read_trace`` rejects a
file that breaks any of this. Version 3 is the only version written or read.
Versions 1 and 2 kept dense counts or a per-draw MI log; ``read_trace``
names such a file's version and asks for a refit, which rewrites it: a trace
is derived from the data, seed and config, and the header echoes the config.

Timestamps are deliberately excluded so identical fits produce identical
bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .benchmark import (
    REGISTRY,
    BenchmarkError,
    GridPoint,
    GridRowResult,
    MetricsRecord,
    _coerce_equation,
)
from .data import DataError, Dataset, FitConfig, PosteriorTrace, validate_dataset
from .methods import MethodResult, resolve_l_rep

__all__ = [
    "TraceFormatError",
    "GridFileError",
    "load_grid_file",
    "read_dataset_csv",
    "write_trace",
    "read_trace",
    "ResultsDocument",
    "build_results_document",
    "write_importance_csv",
    "METRICS_COLUMNS",
    "grid_row_to_record",
    "record_key",
    "write_metrics_csv",
    "read_metrics_csv",
    "aggregate_records",
    "write_aggregate_csv",
]

TRACE_MAGIC = b"BVC1"
TRACE_VERSION = 3


class TraceFormatError(RuntimeError):
    """Raised when a trace file is malformed or inconsistent."""


class GridFileError(ValueError):
    """Raised when a benchmark grid file cannot be parsed."""


# -- dataset CSV -----------------------------------------------------------------


def read_dataset_csv(path, response: str = "y") -> Dataset:
    """Load a headered numeric CSV; the named response column becomes y.

    Errors carry 1-based line numbers (header is line 1) and column names.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if repeated is not None:
            raise DataError(f"{path}: column {repeated!r} appears more than once in the header")
        if response not in header:
            raise DataError(
                f"{path}: response column {response!r} not found; "
                f"available columns: {', '.join(header)}"
            )
        y_idx = header.index(response)
        feature_names = [h for i, h in enumerate(header) if i != y_idx]
        if not feature_names:
            raise DataError(f"{path}: no feature columns besides the response")
        y_vals: list[float] = []
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate trailing blank lines
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            parsed: list[float] = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                    problem = None if math.isfinite(value) else "non-finite"
                except ValueError:
                    problem = "non-numeric"
                if problem:
                    raise DataError(
                        f"{path}: line {line_no}, column {name!r}: "
                        f"{problem} value {cell.strip()!r}"
                    )
                parsed.append(value)
            y_vals.append(parsed[y_idx])
            rows.append([v for i, v in enumerate(parsed) if i != y_idx])
        if not rows:
            raise DataError(f"{path}: no data rows")
    try:
        return validate_dataset(y_vals, rows, feature_names=feature_names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


# -- benchmark grid files -----------------------------------------------------------

# short spellings accepted for FitConfig fields in grid files and nowhere else
_FIT_ALIASES = {"trees": "n_trees", "burnin": "burn_in", "draws": "n_draws"}
# each FitConfig field's annotation, which names the JSON type a grid file gives it
_FIT_TYPES = FitConfig.__annotations__
# FitConfig fields a grid file may not set, and what sets each instead
_FIT_SET_ELSEWHERE = {
    "prior_kind": "the method",
    "seed": "the seed scheme (the point's seed and replicate)",
    "track_mi": "the method run, which keeps the MI sum in every fit",
}

_POINT_DEFAULTS = {
    "snr": 10.0,
    "S": 50,
    "l_rep": GridPoint.l_rep,
    "l_perm": GridPoint.l_perm,
    "alpha": GridPoint.alpha,
    "seed": GridPoint.seed,
    "replicates": 1,
    "fit": {},
}
_POINT_KEYS = {"equation", "method", "n", *_POINT_DEFAULTS}
# the annotation of the GridPoint field each point key sets, in check order
# ("replicates", a count, takes replicate's); snr and fit have their own rules
_POINT_TYPES = {
    key: GridPoint.__annotations__[{"S": "s_copies", "replicates": "replicate"}.get(key, key)]
    for key in ("equation", "method", "n", "S", "l_rep", "l_perm", "alpha", "seed", "replicates")
}
_POINT_MINIMA = {"n": 1, "S": 0, "seed": 0, "replicates": 1}
# annotation -> the types json.loads gives for it (a bool is not an int), and its name
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def _check_json_type(value, annotation: str, what: str) -> None:
    """GridFileError "{what} must be ..." unless ``value`` has the JSON type
    of a field annotated ``annotation``; "T | None" also admits null."""
    kinds, name = _JSON_TYPES[annotation.removesuffix(" | None")]
    if annotation.endswith(" | None"):
        kinds, name = (*kinds, type(None)), f"{name} or null"
    if type(value) not in kinds:
        raise GridFileError(f"{what} must be {name}, got {value!r}")


def _fit_overrides(raw: dict, where: str) -> tuple[tuple[str, object], ...]:
    """A point's ``fit`` object as sorted (field, value) pairs. A number for a
    float field is kept as a float, and a value equal to ``FitConfig``'s
    default is left out, so equal configs give equal pairs (and resume keys)."""
    if not isinstance(raw, dict):
        raise GridFileError(f"{where}: 'fit' must be an object")
    out = {}
    for key, value in raw.items():
        field_name = _FIT_ALIASES.get(key, key)
        if field_name not in _FIT_TYPES:
            raise GridFileError(f"{where}: unknown fit option {key!r}")
        if field_name in _FIT_SET_ELSEWHERE:
            setter = _FIT_SET_ELSEWHERE[field_name]
            raise GridFileError(f"{where}: fit option {key!r} is set by {setter}")
        _check_json_type(value, _FIT_TYPES[field_name], f"{where}: fit option {key!r}")
        if _FIT_TYPES[field_name].startswith("float") and value is not None:
            value = float(value)
        out[field_name] = value
    return tuple(sorted((k, v) for k, v in out.items() if v != getattr(FitConfig, k)))


def _parse_snr(value, where: str) -> float | None:
    if value is None or (isinstance(value, str) and value.strip().lower() == "noiseless"):
        return None
    if type(value) not in _JSON_TYPES["float"][0]:
        raise GridFileError(f"{where}: snr must be a positive number or \"noiseless\"")
    if not value > 0:
        raise GridFileError(f"{where}: snr must be positive")
    return float(value)


def load_grid_file(path) -> tuple[list[GridPoint], dict]:
    """Parse a benchmark grid file into expanded grid points.

    The file is JSON with optional "equations" (id -> {expression, ranges})
    and "defaults" sections plus a required "points" list. Each point names
    an equation and a method; n/snr/S/l_rep/l_perm/alpha/seed/fit fall back
    to the defaults section (a point's "fit" replaces the defaults' whole),
    and "replicates": R expands the point into R rows with replicate indices
    0..R-1. "fit" may set any FitConfig field but prior_kind, seed and
    track_mi (see ``_FIT_SET_ELSEWHERE``).

    The whole file is checked here, so a mistake in it is a GridFileError
    and not an error row at run time: each equation entry must build an
    ``EquationSpec``; each point key and fit option must have the JSON type
    of the field it sets, with n >= 1, S >= 0, seed >= 0 and replicates >= 1;
    each point must build its ``FitConfig`` and its ``RunConfig``, and name
    a built-in or defined equation. The equations return as specs.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GridFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise GridFileError(f"{path}: top level must be a JSON object")
    unknown_top = set(raw) - {"equations", "defaults", "points"}
    if unknown_top:
        raise GridFileError(f"{path}: unknown top-level keys {sorted(unknown_top)}")
    equations = raw.get("equations", {})
    if not isinstance(equations, dict):
        raise GridFileError(f"{path}: 'equations' must be an object")
    specs = {}
    for eq_id, spec in equations.items():
        try:
            specs[eq_id] = _coerce_equation(eq_id, spec)
        except (BenchmarkError, AttributeError, TypeError, ValueError) as exc:
            raise GridFileError(f"{path}: equations[{eq_id!r}]: {exc}") from None
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        raise GridFileError(f"{path}: 'defaults' must be an object")
    bad_defaults = set(defaults) - (_POINT_KEYS - {"equation", "method"})
    if bad_defaults:
        raise GridFileError(f"{path}: unknown keys in defaults: {sorted(bad_defaults)}")
    entries = raw.get("points")
    if not isinstance(entries, list) or not entries:
        raise GridFileError(f"{path}: 'points' must be a non-empty list")

    points: list[GridPoint] = []
    for i, entry in enumerate(entries):
        where = f"{path}: points[{i}]"
        if not isinstance(entry, dict):
            raise GridFileError(f"{where}: must be an object")
        unknown = set(entry) - _POINT_KEYS
        if unknown:
            raise GridFileError(f"{where}: unknown keys {sorted(unknown)}")
        merged = {**_POINT_DEFAULTS, **defaults, **entry}
        for key, annotation in _POINT_TYPES.items():
            if key not in merged:  # equation, method and n have no default
                raise GridFileError(f"{where}: missing required key {key!r}")
            _check_json_type(merged[key], annotation, f"{where}: {key}")
            if key in _POINT_MINIMA and merged[key] < _POINT_MINIMA[key]:
                raise GridFileError(f"{where}: {key} must be >= {_POINT_MINIMA[key]}")
        point = GridPoint(
            equation=merged["equation"],
            n=merged["n"],
            snr=_parse_snr(merged["snr"], where),
            s_copies=merged["S"],
            method=merged["method"],
            l_rep=merged["l_rep"],
            l_perm=merged["l_perm"],
            alpha=merged["alpha"],
            seed=merged["seed"],
            fit_overrides=_fit_overrides(merged["fit"], where),
        )
        for prefix, build in (("fit: ", point.fit_config), ("", point.run_config)):
            try:
                build()
            except ValueError as exc:
                raise GridFileError(f"{where}: {prefix}{exc}") from None
        if point.equation not in specs and point.equation not in REGISTRY:
            raise GridFileError(f"{where}: unknown equation {point.equation!r}")
        points += [replace(point, replicate=r) for r in range(merged["replicates"])]
    return points, specs


# -- trace binary ----------------------------------------------------------------


def _blocks(header: dict) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, little-endian dtype, shape) of each payload array, in file order."""
    n_kept, p, n_trees = header["n_kept"], header["p"], header["n_trees"]
    blocks = [
        ("draw_ptr", "<i8", (n_kept + 1,)),
        ("feature", "<i4", (header["nnz"],)),
        ("count", "<i4", (header["nnz"],)),
        ("sigma2_path", "<f8", (n_kept,)),
        ("insample_mean_path", "<f8", (n_kept,)),
        ("leaf_counts", "<i4", (n_kept, n_trees)),
    ]
    if header["has_alpha"]:
        blocks.append(("alpha_path", "<f8", (n_kept,)))
    if header["has_s"]:
        blocks.append(("s_path", "<f8", (n_kept, p)))
    if header["has_mi"]:
        blocks.append(("mi_sum", "<f8", (p,)))
    return blocks


@contextmanager
def _replacing(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing, in text mode as
    UTF-8 unless ``mode`` is binary. When the block ends it replaces
    ``path``, so a reader never sees a half-written file; if the block
    raises, it is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
    try:
        with tmp.open(mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace(trace: PosteriorTrace, path) -> None:
    """Write ``trace`` as a version-3 trace file (see the module docstring)."""
    header = {
        "n_kept": trace.n_kept,
        "p": int(trace.p),
        "n_trees": int(trace.leaf_counts.shape[1]),
        "seed": int(trace.seed),
        "config": trace.config_echo,
        "has_mi": trace.mi_sum is not None,
        "has_alpha": trace.alpha_path is not None,
        "has_s": trace.s_path is not None,
        "nnz": int(trace.count.size),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(TRACE_MAGIC)
        fh.write(bytes([TRACE_VERSION]))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name, dtype, _ in _blocks(header):
            fh.write(np.ascontiguousarray(getattr(trace, name), dtype=dtype))


_HEADER_KEYS = ("n_kept", "p", "n_trees", "seed", "config", "has_mi", "has_alpha", "has_s", "nnz")


def _check_header(header, path: Path) -> None:
    """Name what is wrong with a trace header before any payload is read."""
    if not isinstance(header, dict):
        raise TraceFormatError(f"{path}: header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise TraceFormatError(f"{path}: header lacks {', '.join(missing)}")
    for key in ("n_kept", "p", "n_trees", "nnz"):
        value = header[key]
        if type(value) is not int or value < 0:
            raise TraceFormatError(f"{path}: header {key} must be an integer >= 0, got {value!r}")
    if type(header["seed"]) is not int:
        raise TraceFormatError(f"{path}: header seed must be an integer, got {header['seed']!r}")


def _check_split_counts(trace: PosteriorTrace, path: Path) -> None:
    """The CSR invariants ``PosteriorTrace`` documents, as named errors."""
    ptr, feature, count = trace.draw_ptr, trace.feature, trace.count
    nnz = count.size
    if ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1]) or ptr[-1] != nnz:
        raise TraceFormatError(f"{path}: draw pointer must rise from 0 to nnz={nnz}")
    if nnz and not (feature.min() >= 0 and feature.max() < trace.p):
        raise TraceFormatError(f"{path}: split feature outside 0..{trace.p - 1}")
    draw_start = np.zeros(nnz + 1, dtype=bool)
    draw_start[ptr] = True
    if np.any((feature[1:] <= feature[:-1]) & ~draw_start[1:nnz]):
        raise TraceFormatError(f"{path}: split features do not ascend within a draw")
    if nnz and count.min() <= 0:
        raise TraceFormatError(f"{path}: split count <= 0")


def read_trace(path) -> PosteriorTrace:
    """Read a version-3 trace file, each array once and straight from the file."""
    path = Path(path)
    with path.open("rb") as fh:
        lead = fh.read(9)
        if len(lead) < 9 or lead[:4] != TRACE_MAGIC:
            raise TraceFormatError(f"{path}: not a trace file (bad magic)")
        version = lead[4]
        if version != TRACE_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported trace version {version}: only version {TRACE_VERSION} "
                "is read; refitting with the same data, seed and config rewrites the file"
            )
        (header_len,) = struct.unpack_from("<I", lead, 5)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(f"{path}: corrupt header: {exc}") from exc
        _check_header(header, path)
        blocks = _blocks(header)
        need = sum(np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in blocks)
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have < need:
            raise TraceFormatError(f"{path}: truncated payload: {have} of {need} bytes")
        if have > need:
            raise TraceFormatError(f"{path}: {have - need} trailing bytes")
        arrays = {}
        for name, dtype, shape in blocks:
            arrays[name] = arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr) != arr.nbytes:
                raise TraceFormatError(f"{path}: truncated payload in {name}")
    trace = PosteriorTrace(
        p=header["p"], seed=header["seed"], config_echo=header["config"], **arrays
    )
    _check_split_counts(trace, path)
    return trace


# -- results documents -------------------------------------------------------------


def _jsonify(value):
    """Map a value onto JSON-native types so documents round-trip exactly."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass
class ResultsDocument:
    """Everything one selection run produced, in JSON-native form."""

    method: str
    config: dict
    feature_names: list[str]
    importance: list[float]
    thresholds: list[float] | None
    selected_indices: list[int]
    selected_names: list[str]
    no_selection: bool
    diagnostics: dict
    summary_matrix: list[list[float]] | None
    metrics: dict | None
    fit_seeds: list[int]
    perm_seeds: list[int]
    runtime_s: float
    schema_version: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ResultsDocument":
        return cls(**d)

    def save(self, path) -> None:
        with _replacing(path) as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ResultsDocument":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def build_results_document(
    result: MethodResult,
    dataset: Dataset,
    metrics: MetricsRecord | None = None,
) -> ResultsDocument:
    sel = sorted(result.selection.selected)
    names = list(dataset.feature_names)
    method = result.config.method
    config = {
        "method": method,
        "l_rep": resolve_l_rep(method, result.config.l_rep),
        "l_perm": result.config.l_perm,
        "alpha": result.config.alpha,
        "seed": result.config.seed,
        "jobs": result.config.jobs,
        "fit": _jsonify(asdict(result.config.fit_config())),
        "n": dataset.n,
        "p": dataset.p,
    }
    thresholds = result.selection.thresholds
    return ResultsDocument(
        method=method,
        config=config,
        feature_names=names,
        importance=[float(v) for v in result.selection.importance],
        thresholds=None if thresholds is None else [float(v) for v in thresholds],
        selected_indices=[int(j) for j in sel],
        selected_names=[names[j - 1] for j in sel],
        no_selection=result.selection.no_selection,
        diagnostics=_jsonify(result.selection.diagnostics),
        summary_matrix=None if result.summary is None else _jsonify(result.summary.Z),
        metrics=None if metrics is None else _jsonify(asdict(metrics)),
        fit_seeds=[int(s) for s in result.fit_seeds],
        perm_seeds=[int(s) for s in result.perm_seeds],
        runtime_s=float(result.runtime_s),
    )


def write_importance_csv(path, document: ResultsDocument) -> None:
    """Per-feature importance table, one row per feature in column order."""
    has_thr = document.thresholds is not None
    selected = set(document.selected_indices)
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["index", "feature", "importance"]
        if has_thr:
            header.append("threshold")
        header.append("selected")
        writer.writerow(header)
        for j, name in enumerate(document.feature_names, start=1):
            row = [str(j), name, repr(document.importance[j - 1])]
            if has_thr:
                row.append(repr(document.thresholds[j - 1]))
            row.append("1" if j in selected else "0")
            writer.writerow(row)


# -- benchmark metrics CSVs ----------------------------------------------------------

METRICS_COLUMNS = [
    "index",
    "equation",
    "n",
    "snr",
    "S",
    "p",
    "method",
    "l_rep",
    "l_perm",
    "alpha",
    "seed",
    "replicate",
    "data_seed",
    "selected",
    "n_selected",
    "tp",
    "fp",
    "fn",
    "tn",
    "tpr",
    "fpr",
    "f1",
    "no_selection",
    "var_f",
    "noise_var",
    "error",
    "runtime_s",
    "fit",
]

KEY_COLUMNS = (
    "equation",
    "n",
    "snr",
    "S",
    "method",
    "l_rep",
    "l_perm",
    "alpha",
    "seed",
    "replicate",
    "fit",
)


def _fmt_snr(snr: float | None) -> str:
    return "noiseless" if snr is None else repr(float(snr))


def grid_row_to_record(row: GridRowResult) -> dict[str, str]:
    pt = row.point
    m = row.metrics
    rec = {
        "index": str(row.index),
        "equation": pt.equation,
        "n": str(pt.n),
        "snr": _fmt_snr(pt.snr),
        "S": str(pt.s_copies),
        "p": "" if row.p is None else str(row.p),
        "method": pt.method,
        "l_rep": "" if pt.l_rep is None else str(pt.l_rep),
        "l_perm": str(pt.l_perm),
        "alpha": repr(float(pt.alpha)),
        "seed": str(pt.seed),
        "replicate": str(pt.replicate),
        "data_seed": "" if row.data_seed is None else str(row.data_seed),
        "selected": "" if row.selected is None else ";".join(str(j) for j in row.selected),
        "n_selected": "" if row.selected is None else str(len(row.selected)),
        "tp": "" if m is None else str(m.tp),
        "fp": "" if m is None else str(m.fp),
        "fn": "" if m is None else str(m.fn),
        "tn": "" if m is None else str(m.tn),
        "tpr": "" if m is None else repr(m.tpr),
        "fpr": "" if m is None else repr(m.fpr),
        "f1": "" if m is None else repr(m.f1),
        "no_selection": "" if m is None else ("1" if m.no_selection else "0"),
        "var_f": "" if row.var_f is None else repr(row.var_f),
        "noise_var": "" if row.noise_var is None else repr(row.noise_var),
        "error": row.error or "",
        "runtime_s": "" if m is None else repr(m.runtime_s),
        "fit": json.dumps(dict(pt.fit_overrides), sort_keys=True, separators=(",", ":")),
    }
    return rec


def record_key(record: dict[str, str]) -> tuple[str, ...]:
    return tuple(record[c] for c in KEY_COLUMNS)


def write_metrics_csv(path, records: list[dict[str, str]]) -> None:
    with _replacing(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)


def read_metrics_csv(path) -> list[dict[str, str]]:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_COLUMNS:
            missing = [c for c in METRICS_COLUMNS if c not in (reader.fieldnames or ())]
            lacks = f" (missing {', '.join(missing)})" if missing else ""
            raise TraceFormatError(f"{path}: unexpected metrics CSV columns{lacks}")
        return [dict(row) for row in reader]


def aggregate_records(records: list[dict[str, str]]) -> list[dict[str, str]]:
    """Mean tpr/fpr/f1 per (method, n, snr) over successful rows."""
    groups: dict[tuple[str, str, str], list[dict[str, str]]] = {}
    for rec in records:
        if rec["error"]:
            continue
        groups.setdefault((rec["method"], rec["n"], rec["snr"]), []).append(rec)
    out = []
    for (method, n, snr) in sorted(groups):
        rows = groups[(method, n, snr)]
        mean = lambda col: repr(math.fsum(float(r[col]) for r in rows) / len(rows))  # noqa: E731
        out.append(
            {
                "method": method,
                "n": n,
                "snr": snr,
                "rows": str(len(rows)),
                "mean_tpr": mean("tpr"),
                "mean_fpr": mean("fpr"),
                "mean_f1": mean("f1"),
            }
        )
    return out


AGGREGATE_COLUMNS = ["method", "n", "snr", "rows", "mean_tpr", "mean_fpr", "mean_f1"]


def write_aggregate_csv(path, records: list[dict[str, str]]) -> None:
    with _replacing(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for rec in aggregate_records(records):
            writer.writerow(rec)
