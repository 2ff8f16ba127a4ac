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
file that breaks any of this. ``write_trace`` writes version 3 only;
``read_trace`` still reads the two earlier versions:

* Version 2 had the same layout, but in place of the MI sum it kept a
  per-draw MI log: a header list ``mi_sizes`` of each draw's internal-node
  count and two blocks, ``mi_features`` (int64) and ``mi_probs`` (float64),
  of sum(mi_sizes) entries each. ``read_trace`` folds the log into the sum
  through ``summaries.mi_term``, draw by draw, as the sampler adds it.
* Version 1 was version 2 with the counts stored dense, as an int64
  n_kept x p matrix followed by a uint8 n_kept x p inclusion matrix
  (counts > 0), and no nnz.

Timestamps are deliberately excluded so identical fits produce identical
bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .benchmark import GridPoint, GridRowResult, MetricsRecord
from .data import DataError, Dataset, FitConfig, PosteriorTrace, validate_dataset
from .methods import METHOD_SPECS, MethodResult, resolve_l_rep
from .summaries import mi_term

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
_FIT_FIELDS = set(FitConfig.__dataclass_fields__)
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


def _fit_overrides(raw: dict, where: str) -> tuple[tuple[str, object], ...]:
    if not isinstance(raw, dict):
        raise GridFileError(f"{where}: 'fit' must be an object")
    out = {}
    for key, value in raw.items():
        field_name = _FIT_ALIASES.get(key, key)
        if field_name not in _FIT_FIELDS:
            raise GridFileError(f"{where}: unknown fit option {key!r}")
        if field_name in _FIT_SET_ELSEWHERE:
            setter = _FIT_SET_ELSEWHERE[field_name]
            raise GridFileError(f"{where}: fit option {key!r} is set by {setter}")
        out[field_name] = value
    return tuple(sorted(out.items()))


def _parse_snr(value, where: str) -> float | None:
    if value is None:
        return None
    if isinstance(value, str):
        if value.strip().lower() == "noiseless":
            return None
        raise GridFileError(f"{where}: snr must be a positive number or \"noiseless\"")
    try:
        snr = float(value)
    except (TypeError, ValueError):
        raise GridFileError(f"{where}: snr must be a positive number or \"noiseless\"") from None
    if not snr > 0:
        raise GridFileError(f"{where}: snr must be positive")
    return snr


def load_grid_file(path) -> tuple[list[GridPoint], dict]:
    """Parse a benchmark grid file into expanded grid points.

    The file is JSON with optional "equations" (id -> {expression, ranges})
    and "defaults" sections plus a required "points" list. Each point names
    an equation and a method; n/snr/S/l_rep/l_perm/alpha/seed/fit fall back
    to the defaults section, and "replicates": R expands the point into R
    rows with replicate indices 0..R-1. "fit" may set any FitConfig field
    but prior_kind, seed and track_mi (see ``_FIT_SET_ELSEWHERE``).
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
        for required in ("equation", "method", "n"):
            if required not in merged:
                raise GridFileError(f"{where}: missing required key {required!r}")
        method = merged["method"]
        if method not in METHOD_SPECS:
            raise GridFileError(f"{where}: unknown method {method!r}")
        try:
            n = int(merged["n"])
            s_copies = int(merged["S"])
            l_rep = None if merged["l_rep"] is None else int(merged["l_rep"])
            l_perm = int(merged["l_perm"])
            alpha = float(merged["alpha"])
            seed = int(merged["seed"])
            replicates = int(merged["replicates"])
        except (TypeError, ValueError) as exc:
            raise GridFileError(f"{where}: {exc}") from None
        if replicates < 1:
            raise GridFileError(f"{where}: replicates must be >= 1")
        snr = _parse_snr(merged["snr"], where)
        overrides = _fit_overrides(merged["fit"], where)
        for r in range(replicates):
            points.append(
                GridPoint(
                    equation=str(merged["equation"]),
                    n=n,
                    snr=snr,
                    s_copies=s_copies,
                    method=method,
                    l_rep=l_rep,
                    l_perm=l_perm,
                    alpha=alpha,
                    seed=seed,
                    replicate=r,
                    fit_overrides=overrides,
                )
            )
    return points, equations


# -- trace binary ----------------------------------------------------------------


def _blocks(header: dict, version: int) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, little-endian dtype, shape) of each payload array, in file order."""
    n_kept, p, n_trees = header["n_kept"], header["p"], header["n_trees"]
    if version == 1:
        blocks = [("counts", "<i8", (n_kept, p)), ("inclusion", "u1", (n_kept, p))]
    else:
        blocks = [
            ("draw_ptr", "<i8", (n_kept + 1,)),
            ("feature", "<i4", (header["nnz"],)),
            ("count", "<i4", (header["nnz"],)),
        ]
    blocks += [
        ("sigma2_path", "<f8", (n_kept,)),
        ("insample_mean_path", "<f8", (n_kept,)),
        ("leaf_counts", "<i4", (n_kept, n_trees)),
    ]
    if header["has_alpha"]:
        blocks.append(("alpha_path", "<f8", (n_kept,)))
    if header["has_s"]:
        blocks.append(("s_path", "<f8", (n_kept, p)))
    if header["has_mi"]:
        if version == TRACE_VERSION:
            blocks.append(("mi_sum", "<f8", (p,)))
        else:
            total = sum(header["mi_sizes"])
            blocks += [("mi_features", "<i8", (total,)), ("mi_probs", "<f8", (total,))]
    return blocks


def write_trace(trace: PosteriorTrace, path) -> None:
    """Write ``trace`` as a version-3 trace file (see the module docstring)."""
    path = Path(path)
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
    with path.open("wb") as fh:
        fh.write(TRACE_MAGIC)
        fh.write(bytes([TRACE_VERSION]))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name, dtype, _ in _blocks(header, TRACE_VERSION):
            fh.write(np.ascontiguousarray(getattr(trace, name), dtype=dtype))


# the keys of every version's header; versions 2 and 3 add "nnz", and
# versions 1 and 2 add "mi_sizes"
_HEADER_KEYS = ("n_kept", "p", "n_trees", "seed", "config", "has_mi", "has_alpha", "has_s")


def _check_header(header, version: int, path: Path) -> None:
    """Name what is wrong with a trace header before any payload is read."""
    if not isinstance(header, dict):
        raise TraceFormatError(f"{path}: header is not a JSON object")
    extra = ("nnz",) if version >= 2 else ()
    old_mi = ("mi_sizes",) if version < 3 else ()
    missing = [key for key in _HEADER_KEYS + extra + old_mi if key not in header]
    if missing:
        raise TraceFormatError(f"{path}: header lacks {', '.join(missing)}")
    for key in ("n_kept", "p", "n_trees", *extra):
        value = header[key]
        if type(value) is not int or value < 0:
            raise TraceFormatError(f"{path}: header {key} must be an integer >= 0, got {value!r}")
    if type(header["seed"]) is not int:
        raise TraceFormatError(f"{path}: header seed must be an integer, got {header['seed']!r}")
    if old_mi and header["has_mi"]:
        sizes = header["mi_sizes"]
        if not (isinstance(sizes, list) and all(type(size) is int and size >= 0 for size in sizes)):
            raise TraceFormatError(f"{path}: header mi_sizes must be a list of integers >= 0")
        if len(sizes) != header["n_kept"]:
            raise TraceFormatError(f"{path}: MI size table has {len(sizes)} entries")


def _fold_mi_log(header: dict, features: np.ndarray, probs: np.ndarray, path: Path) -> np.ndarray:
    """The MI sum of a version 1 or 2 per-draw MI log."""
    p = header["p"]
    if features.size and not (features.min() >= 0 and features.max() < p):
        raise TraceFormatError(f"{path}: MI feature outside 0..{p - 1}")
    mi_sum = np.zeros(p)
    start = 0
    for size in header["mi_sizes"]:
        mi_sum += mi_term(features[start : start + size], probs[start : start + size], p)
        start += size
    return mi_sum


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
    """Read a trace file of version 1, 2 or 3. Each array is read once,
    straight from the file; a version-1 dense count matrix is checked against
    its inclusion block and converted to CSR, and the per-draw MI log of
    versions 1 and 2 is folded into the MI sum."""
    path = Path(path)
    with path.open("rb") as fh:
        lead = fh.read(9)
        if len(lead) < 9 or lead[:4] != TRACE_MAGIC:
            raise TraceFormatError(f"{path}: not a trace file (bad magic)")
        version = lead[4]
        if version not in (1, 2, TRACE_VERSION):
            raise TraceFormatError(f"{path}: unsupported trace version {version}")
        (header_len,) = struct.unpack_from("<I", lead, 5)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(f"{path}: corrupt header: {exc}") from exc
        _check_header(header, version, path)
        blocks = _blocks(header, version)
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
    if "mi_features" in arrays:
        arrays["mi_sum"] = _fold_mi_log(header, arrays["mi_features"], arrays["mi_probs"], path)
    rest = dict(
        sigma2_path=arrays["sigma2_path"],
        insample_mean_path=arrays["insample_mean_path"],
        leaf_counts=arrays["leaf_counts"],
        seed=header["seed"],
        config_echo=header["config"],
        mi_sum=arrays.get("mi_sum"),
        alpha_path=arrays.get("alpha_path"),
        s_path=arrays.get("s_path"),
    )
    if version == 1:
        counts = arrays["counts"]
        if not np.array_equal(arrays["inclusion"] != 0, counts > 0):
            raise TraceFormatError(f"{path}: inclusion matrix inconsistent with counts")
        if counts.size and counts.max() > np.iinfo(np.int32).max:
            raise TraceFormatError(f"{path}: split count above {np.iinfo(np.int32).max}")
        trace = PosteriorTrace.from_counts(counts, **rest)
    else:
        trace = PosteriorTrace(
            draw_ptr=arrays["draw_ptr"],
            feature=arrays["feature"],
            count=arrays["count"],
            p=header["p"],
            **rest,
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
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

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
    config = {
        "method": result.method,
        "l_rep": resolve_l_rep(result.method, result.config.l_rep),
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
        method=result.method,
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
    path = Path(path)
    has_thr = document.thresholds is not None
    selected = set(document.selected_indices)
    with path.open("w", newline="", encoding="utf-8") as fh:
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
    }
    return rec


def record_key(record: dict[str, str]) -> tuple[str, ...]:
    return tuple(record[c] for c in KEY_COLUMNS)


def write_metrics_csv(path, records: list[dict[str, str]]) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)


def read_metrics_csv(path) -> list[dict[str, str]]:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_COLUMNS:
            raise TraceFormatError(f"{path}: unexpected metrics CSV columns")
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
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for rec in aggregate_records(records):
            writer.writerow(rec)
