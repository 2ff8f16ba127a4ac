"""Tests for file formats (trace binary, CSVs, grid files, results JSON)
and the command-line interface built on them."""

import csv
import dataclasses
import errno
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_trace, random_mi_log, random_trace
import bartsel
from bartsel.benchmark import GridPoint, GridRowResult, compute_metrics
from bartsel.cli import _jobs_value, main
from bartsel.data import DataError, FitConfig, validate_dataset
from bartsel.methods import RunConfig, run_method
from bartsel.traceio import (
    AGGREGATE_COLUMNS,
    GridFileError,
    KEY_COLUMNS,
    METRICS_COLUMNS,
    ResultsDocument,
    TraceFormatError,
    aggregate_records,
    build_results_document,
    grid_row_to_record,
    load_grid_file,
    read_dataset_csv,
    read_metrics_csv,
    read_trace,
    record_key,
    write_aggregate_csv,
    write_importance_csv,
    write_metrics_csv,
    write_trace,
)

FIXTURES = Path(__file__).parent / "data"
FAST_FIT = FitConfig(n_trees=4, burn_in=30, n_draws=30)
FAST_FLAGS = ["--trees", "4", "--burnin", "30", "--draws", "30"]


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def signal_csv(tmp_path_factory):
    """Small dataset where y = x1*x2 plus noise and x3 is irrelevant."""
    rng = np.random.default_rng(5)
    n = 50
    x1, x2, x3 = (rng.uniform(1, 3, n) for _ in range(3))
    y = x1 * x2 + rng.normal(0, 0.1, n)
    path = tmp_path_factory.mktemp("data") / "signal.csv"
    return write_csv(path, ["y", "x1", "x2", "x3"], np.column_stack([y, x1, x2, x3]))


@pytest.fixture(scope="module")
def noise_csv(tmp_path_factory):
    """Pure-noise dataset: no feature carries signal."""
    rng = np.random.default_rng(77)
    n, p = 60, 4
    X = rng.uniform(0, 1, (n, p))
    y = rng.normal(0, 1, n)
    path = tmp_path_factory.mktemp("data") / "noise.csv"
    return write_csv(path, ["y"] + [f"x{j + 1}" for j in range(p)], np.column_stack([y, X]))


@pytest.fixture(scope="module")
def signal_dataset(signal_csv):
    return read_dataset_csv(signal_csv)


@pytest.fixture()
def runner():
    return CliRunner()


# -- trace binary -----------------------------------------------------------------


class TestTraceFile:
    def test_round_trip_with_all_optional_blocks(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, k=7, p=3, with_mi=True)
        k, p = trace.counts.shape
        trace = dataclasses.replace(
            trace,
            alpha_path=rng.uniform(0.1, 5.0, k),
            s_path=rng.dirichlet(np.ones(p), size=k),
        )
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_round_trip_minimal(self, tmp_path):
        trace = random_trace(np.random.default_rng(1), k=5, p=2)
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded == trace
        assert loaded.mi_sum is None and loaded.alpha_path is None
        assert loaded.counts.dtype == np.int64
        assert loaded.leaf_counts.dtype == np.int32

    def test_empty_mi_draw_round_trips(self, tmp_path):
        rng = np.random.default_rng(2)
        features, tags = random_mi_log(rng, 3, 2)
        features[1], tags[1] = np.zeros(0, dtype=np.int64), np.zeros(0)
        trace = make_trace(rng.integers(0, 5, size=(3, 2)), mi_features=features, mi_probs=tags)
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def write_valid(self, tmp_path):
        trace = random_trace(np.random.default_rng(3), k=4, p=2)
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_valid(tmp_path)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_trace(path)

    @pytest.mark.parametrize("version", [1, 2, 9])
    def test_unsupported_version(self, tmp_path, version):
        path = self.write_valid(tmp_path)
        buf = bytearray(path.read_bytes())
        buf[4] = version
        path.write_bytes(bytes(buf))
        message = (
            f"unsupported trace version {version}: only version 3 is read; "
            "refitting with the same data, seed and config rewrites the file"
        )
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            read_trace(path)

    def test_truncated_payload(self, tmp_path):
        path = self.write_valid(tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(TraceFormatError, match="truncated payload"):
            read_trace(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.write_valid(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            read_trace(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda header: {}, "header lacks n_kept, p, n_trees"),
            (lambda header: {**header, "n_kept": "a"}, "n_kept must be an integer >= 0, got 'a'"),
            (lambda header: list(header), "header is not a JSON object"),
            (lambda header: {**header, "n_kept": -1}, "n_kept must be an integer >= 0, got -1"),
            (lambda header: {**header, "seed": None}, "seed must be an integer, got None"),
        ],
    )
    def test_malformed_header_named(self, tmp_path, edit, message):
        path = self.write_valid(tmp_path)
        buf = path.read_bytes()
        header_len = int.from_bytes(buf[5:9], "little")
        header = edit(json.loads(buf[9 : 9 + header_len]))
        header_bytes = json.dumps(header).encode("utf-8")
        path.write_bytes(
            buf[:5] + len(header_bytes).to_bytes(4, "little") + header_bytes + buf[9 + header_len :]
        )
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            read_trace(path)


def fixture_fit():
    """The fit the committed trace fixture holds: DART with the MI sum and
    the s path, seed 4; its first kept draw has no splits."""
    rng = np.random.default_rng(2024)
    X = rng.uniform(size=(24, 4))
    y = X[:, 0] + rng.normal(0.0, 1.0, 24)
    config = FitConfig(
        n_trees=2, burn_in=5, n_draws=16, prior_kind="dart", seed=4,
        track_mi=True, track_s_path=True,
    )
    return bartsel.fit(validate_dataset(y, X), config)


def split_blocks(buf: bytes):
    """(lead and header, draw_ptr, feature, count, rest) of a trace file."""
    header_len = int.from_bytes(buf[5:9], "little")
    header = json.loads(buf[9 : 9 + header_len])
    pos = 9 + header_len
    out = [buf[:pos]]
    nnz = header["nnz"]
    for dtype, size in (("<i8", header["n_kept"] + 1), ("<i4", nnz), ("<i4", nnz)):
        arr = np.frombuffer(buf, dtype=dtype, count=size, offset=pos).copy()
        out.append(arr)
        pos += arr.nbytes
    return out + [buf[pos:]]


class TestTraceVersions:
    def test_version_3_fixture_reads_back(self):
        loaded = read_trace(FIXTURES / "trace-v3.bvc")
        assert loaded == fixture_fit()
        assert loaded.draw_ptr[1] == 0 and loaded.n_kept == 16 and loaded.p == 4

    def test_version_3_fixture_bytes_match_write_trace(self, tmp_path):
        # pins the byte layout: a change to write_trace must not go unseen
        path = tmp_path / "t.trace"
        write_trace(fixture_fit(), path)
        assert path.read_bytes() == (FIXTURES / "trace-v3.bvc").read_bytes()

    @pytest.mark.parametrize(
        "config",
        [
            FitConfig(n_trees=3, burn_in=10, n_draws=12, seed=1),
            FitConfig(
                n_trees=3, burn_in=10, n_draws=12, seed=1,
                prior_kind="dart", track_mi=True, track_s_path=True,
            ),
        ],
        ids=["bart", "dart-mi-s-path"],
    )
    def test_version_3_round_trips_a_fit(self, tmp_path, signal_dataset, config):
        trace = bartsel.fit(signal_dataset, config)
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace
        # the payload is the CSR arrays, the paths and the MI sum
        k, nnz, p = trace.n_kept, trace.count.size, trace.p
        payload = 8 * (k + 1) + 4 * nnz + 4 * nnz + 8 * k + 8 * k + 4 * k * config.n_trees
        if config.prior_kind == "dart":
            payload += 8 * k + 8 * k * p
        if config.track_mi:
            payload += 8 * p
        header_len = int.from_bytes(path.read_bytes()[5:9], "little")
        assert path.stat().st_size == 9 + header_len + payload

    def test_draws_without_splits_round_trip(self, tmp_path):
        for counts, nodes in (
            (np.zeros((3, 2), dtype=int), []),
            ([[0, 0, 0], [2, 0, 1], [0, 0, 0]], [0, 0, 2]),
        ):
            mi = {"mi_features": [[], nodes, []], "mi_probs": [[], [1.0, 0.5, 0.25][: len(nodes)], []]}
            trace = make_trace(counts, **mi)
            path = tmp_path / "t.trace"
            write_trace(trace, path)
            assert read_trace(path) == trace

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ptr, feature, count: ptr.__setitem__(0, 1), "draw pointer must rise from 0"),
            (lambda ptr, feature, count: ptr.__setitem__(1, 3), "draw pointer must rise from 0"),
            (lambda ptr, feature, count: ptr.__setitem__(-1, 3), "rise from 0 to nnz=4"),
            (lambda ptr, feature, count: feature.__setitem__(1, 3), "split feature outside 0..2"),
            (lambda ptr, feature, count: feature.__setitem__(0, -1), "split feature outside 0..2"),
            (lambda ptr, feature, count: feature.__setitem__(1, 0), "do not ascend within a draw"),
            (lambda ptr, feature, count: feature.__setitem__(3, 0), "do not ascend within a draw"),
            (lambda ptr, feature, count: count.__setitem__(2, 0), "split count <= 0"),
            (lambda ptr, feature, count: count.__setitem__(0, -2), "split count <= 0"),
        ],
    )
    def test_malformed_csr_named(self, tmp_path, edit, message):
        # draws: {0: 1, 2: 2}, {}, {0: 3, 1: 1}; pointer [0, 2, 2, 4]
        trace = make_trace([[1, 0, 2], [0, 0, 0], [3, 1, 0]])
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        head, ptr, feature, count, rest = split_blocks(path.read_bytes())
        edit(ptr, feature, count)
        path.write_bytes(head + ptr.tobytes() + feature.tobytes() + count.tobytes() + rest)
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            read_trace(path)


# -- dataset CSV ------------------------------------------------------------------


class TestReadDatasetCsv:
    def test_happy_path_with_response_mid_table(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", " y ", "b"], [[1, 10, 2], [3, 20, 4]])
        ds = read_dataset_csv(path)
        assert ds.n == 2 and ds.p == 2
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.y, [10, 20])
        np.testing.assert_array_equal(ds.X, [[1, 2], [3, 4]])

    def test_custom_response_name(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["out", "a"], [[1, 2], [3, 4]])
        ds = read_dataset_csv(path, response="out")
        np.testing.assert_array_equal(ds.y, [1, 3])

    def test_trailing_blank_line_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\n1,2\n3,4\n\n", encoding="utf-8")
        assert read_dataset_csv(path).n == 2

    def test_missing_response_lists_columns(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "b"], [[1, 2]])
        with pytest.raises(DataError, match="available columns: a, b"):
            read_dataset_csv(path, response="zzz")

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["y", "a"], [[1, 2], ["oops", 3]])
        with pytest.raises(DataError, match="line 3, column 'y'"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "rows, where",
        [
            ([[3, 1, 2], [6, 4, "nan"]], "line 3, column 'x2': non-finite value 'nan'"),
            ([["inf", 1, 2], [6, 4, 5]], "line 2, column 'y': non-finite value 'inf'"),
        ],
    )
    def test_non_finite_cell_names_line_and_column(self, tmp_path, rows, where):
        path = write_csv(tmp_path / "d.csv", ["y", "x1", "x2"], rows)
        with pytest.raises(DataError, match=re.escape(where)):
            read_dataset_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 2 fields, got 3"):
            read_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="file is empty"):
            read_dataset_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\n", encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            read_dataset_csv(path)

    def test_no_feature_columns(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["y"], [[1]])
        with pytest.raises(DataError, match="no feature columns"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "header, repeated", [(["y", "x1", "y"], "y"), (["y", "x1", "x2", "x1"], "x1")]
    )
    def test_repeated_column_named(self, tmp_path, header, repeated):
        path = write_csv(tmp_path / "d.csv", header, [list(range(len(header)))])
        with pytest.raises(DataError, match=f"column '{repeated}' appears more than once"):
            read_dataset_csv(path)


# -- grid files -------------------------------------------------------------------


def write_grid(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


GRID_PAYLOAD = {
    "equations": {"lin2": {"expression": "x1 + x2", "ranges": [[0, 1], [0, 1]]}},
    "defaults": {"n": 40, "snr": 5.0, "S": 1, "seed": 3, "fit": {"trees": 4, "burnin": 20, "draws": 20}},
    "points": [
        {"equation": "product2", "method": "dart-mpm", "replicates": 2},
        {"equation": "lin2", "method": "bart-vip-local", "n": 30, "snr": "noiseless", "l_perm": 7},
    ],
}


PRODUCT2_POINT = {"equation": "product2", "method": "dart-mpm", "n": 5}
# point values that used to load, and then failed at run time or ran coerced or truncated
BAD_POINT_VALUES = [
    ({"points": [{**PRODUCT2_POINT, "alpha": 2.0}]}, r"alpha must lie in \(0, 1\)"),
    ({"points": [{**PRODUCT2_POINT, "l_rep": 0}]}, "l_rep must be >= 1"),
    (
        {"points": [{**PRODUCT2_POINT, "method": "bart-vip-gmax", "l_perm": 0}]},
        "method 'bart-vip-gmax' needs l_perm >= 1",
    ),
    ({"points": [{**PRODUCT2_POINT, "n": 40.9}]}, "n must be an integer, got 40.9"),
    ({"points": [{**PRODUCT2_POINT, "n": 0}]}, "n must be >= 1"),
    ({"points": [{**PRODUCT2_POINT, "S": "2"}]}, "S must be an integer, got '2'"),
    ({"points": [{**PRODUCT2_POINT, "S": -1}]}, "S must be >= 0"),
    ({"points": [{**PRODUCT2_POINT, "seed": -1}]}, "seed must be >= 0"),
    (
        {"points": [{**PRODUCT2_POINT, "l_rep": True}]},
        "l_rep must be an integer or null, got True",
    ),
    ({"points": [{**PRODUCT2_POINT, "snr": True}]}, "snr must be a positive number"),
    (
        {"points": [{**PRODUCT2_POINT, "fit": {"track_s_path": "false"}}]},
        "fit option 'track_s_path' must be true or false, got 'false'",
    ),
    (
        {"points": [{**PRODUCT2_POINT, "fit": {"beta": True}}]},
        "fit option 'beta' must be a number, got True",
    ),
]


class TestGridFile:
    def test_expansion_defaults_and_aliases(self, tmp_path):
        points, equations = load_grid_file(write_grid(tmp_path / "g.json", GRID_PAYLOAD))
        assert "lin2" in equations
        assert len(points) == 3  # first entry expands into two replicates
        a, b, c = points
        assert (a.replicate, b.replicate, c.replicate) == (0, 1, 0)
        assert a.equation == "product2" and a.n == 40 and a.snr == 5.0
        assert a.s_copies == 1 and a.seed == 3
        assert dict(a.fit_overrides) == {"n_trees": 4, "burn_in": 20, "n_draws": 20}
        assert c.n == 30 and c.snr is None and c.l_perm == 7

    def test_point_overrides_beat_defaults(self, tmp_path):
        payload = {
            "defaults": {"n": 10, "alpha": 0.2},
            "points": [{"equation": "product2", "method": "dart-mpm", "n": 99}],
        }
        (pt,), _ = load_grid_file(write_grid(tmp_path / "g.json", payload))
        assert pt.n == 99 and pt.alpha == 0.2

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([1, 2], "top level must be a JSON object"),
            ({"points": [], "bogus": 1}, "unknown top-level keys"),
            ({"points": []}, "'points' must be a non-empty list"),
            ({"points": [7]}, r"points\[0\]: must be an object"),
            ({"points": [{"equation": "e", "method": "dart-mpm", "n": 5, "zzz": 1}]}, "unknown keys"),
            ({"points": [{"method": "dart-mpm", "n": 5}]}, "missing required key 'equation'"),
            ({"points": [{"equation": "e", "n": 5}]}, "missing required key 'method'"),
            ({"points": [{"equation": "e", "method": "dart-mpm"}]}, "missing required key 'n'"),
            ({"points": [{"equation": "e", "method": "nope", "n": 5}]}, "unknown method 'nope'"),
            (
                {"points": [{"equation": "e", "method": "dart-mpm", "n": 5, "replicates": 0}]},
                "replicates must be >= 1",
            ),
            (
                {"points": [{"equation": "e", "method": "dart-mpm", "n": 5, "snr": -1}]},
                "snr must be positive",
            ),
            (
                {"points": [{"equation": "e", "method": "dart-mpm", "n": 5, "snr": "loud"}]},
                "snr must be a positive number",
            ),
            (
                {"points": [{"equation": "e", "method": "dart-mpm", "n": 5, "fit": {"zz": 1}}]},
                "unknown fit option 'zz'",
            ),
            ({"defaults": {"method": "dart-mpm"}, "points": [{}]}, "unknown keys in defaults"),
            ({"defaults": 3, "points": [{}]}, "'defaults' must be an object"),
            ({"equations": 3, "points": [{}]}, "'equations' must be an object"),
            # fit keys that the method, the seed scheme and the method run set
            (
                {
                    "defaults": {"fit": {"prior_kind": "dart"}},
                    "points": [{"equation": "e", "method": "bart-vc-measure", "n": 5}],
                },
                "fit option 'prior_kind' is set by the method",
            ),
            (
                {
                    "defaults": {"fit": {"trees": 2, "seed": 99}},
                    "points": [{"equation": "e", "method": "dart-mpm", "n": 5}],
                },
                "fit option 'seed' is set by the seed scheme",
            ),
            (
                {
                    "defaults": {"fit": {"track_mi": False}},
                    "points": [{"equation": "e", "method": "dart-mpm", "n": 5}],
                },
                "fit option 'track_mi' is set by the method run",
            ),
            # mistakes that would otherwise fail every row at run time
            (
                {"points": [{**PRODUCT2_POINT, "fit": {"trees": 2.5}}]},
                r"points\[0\]: fit option 'trees' must be an integer, got 2.5",
            ),
            (
                {"points": [{**PRODUCT2_POINT, "fit": {"draws": "9"}}]},
                "fit option 'draws' must be an integer, got '9'",
            ),
            (
                {"points": [{**PRODUCT2_POINT, "fit": {"gamma": 2}}]},
                r"points\[0\]: fit: gamma must lie in \(0, 1\), got 2",
            ),
            (
                {
                    "equations": {"bad": {"expression": "x1 +", "ranges": [[0, 1]]}},
                    "points": [{"equation": "bad", "method": "dart-mpm", "n": 5}],
                },
                r"equations\['bad'\]: cannot parse expression 'x1 \+'",
            ),
            (
                {"equations": {"bad": {"ranges": [[0, 1]]}}, "points": [{}]},
                r"equations\['bad'\]: equation 'bad' is missing key 'expression'",
            ),
            (
                {"points": [{"equation": "e", "method": "dart-mpm", "n": 5}]},
                r"points\[0\]: unknown equation 'e'",
            ),
            *BAD_POINT_VALUES,
        ],
    )
    def test_bad_grid_rejected(self, tmp_path, payload, match):
        with pytest.raises(GridFileError, match=match):
            load_grid_file(write_grid(tmp_path / "g.json", payload))

    def test_json_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{\n  bad\n}", encoding="utf-8")
        with pytest.raises(GridFileError, match="line 2"):
            load_grid_file(path)


# -- results documents ----------------------------------------------------------


@pytest.fixture(scope="module")
def mpm_document(signal_dataset):
    result = run_method(signal_dataset, RunConfig(method="dart-mpm", fit=FAST_FIT, seed=2))
    return build_results_document(result, signal_dataset)


class TestResultsDocument:
    def test_save_load_round_trip(self, mpm_document, tmp_path):
        path = tmp_path / "results.json"
        mpm_document.save(path)
        loaded = ResultsDocument.load(path)
        assert loaded == mpm_document
        # re-saving a loaded document is byte-stable
        path2 = tmp_path / "again.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_config_block(self, mpm_document, signal_dataset):
        cfg = mpm_document.config
        assert cfg["n"] == signal_dataset.n and cfg["p"] == signal_dataset.p
        assert cfg["l_rep"] == 1 and cfg["seed"] == 2
        assert cfg["fit"]["n_trees"] == 4
        assert cfg["fit"]["prior_kind"] == "dart"

    def test_selected_names_match_indices(self, mpm_document):
        for idx, name in zip(mpm_document.selected_indices, mpm_document.selected_names):
            assert mpm_document.feature_names[idx - 1] == name

    def test_importance_csv_layout(self, mpm_document, tmp_path):
        path = tmp_path / "importance.csv"
        write_importance_csv(path, mpm_document)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "index,feature,importance,threshold,selected"
        assert len(lines) == 1 + len(mpm_document.feature_names)
        for j, line in enumerate(lines[1:], start=1):
            index, feature, importance, threshold, selected = line.split(",")
            assert int(index) == j
            assert feature == mpm_document.feature_names[j - 1]
            assert float(importance) == mpm_document.importance[j - 1]
            assert float(threshold) == mpm_document.thresholds[j - 1]
            assert selected == ("1" if j in mpm_document.selected_indices else "0")

    def test_importance_csv_without_thresholds(self, signal_dataset, tmp_path):
        result = run_method(
            signal_dataset, RunConfig(method="bart-vc-measure", fit=FAST_FIT, l_rep=2, seed=2)
        )
        document = build_results_document(result, signal_dataset)
        assert document.thresholds is None
        assert document.summary_matrix is not None
        path = tmp_path / "importance.csv"
        write_importance_csv(path, document)
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert header == "index,feature,importance,selected"


# -- metrics CSV helpers ----------------------------------------------------------


def sample_row(index=0, replicate=0, f1=0.8, tpr=1.0, fpr=0.01):
    pt = GridPoint("product2", 40, 5.0, 1, "dart-mpm", seed=3, replicate=replicate)
    metrics = compute_metrics({1, 2, 3}, {1, 2}, p=102, runtime_s=0.5)
    return GridRowResult(
        index=index,
        point=pt,
        p=102,
        data_seed=3 + 100_000 * replicate,
        selected=(1, 2, 3),
        metrics=metrics,
        var_f=2.0,
        noise_var=0.4,
    )


class TestMetricsCsv:
    def test_record_fields(self):
        rec = grid_row_to_record(sample_row())
        assert rec["equation"] == "product2" and rec["snr"] == "5.0"
        assert rec["selected"] == "1;2;3" and rec["n_selected"] == "3"
        assert rec["f1"] == "0.8" and rec["no_selection"] == "0"
        assert rec["l_rep"] == "" and rec["error"] == ""
        assert set(rec) == set(METRICS_COLUMNS)

    def test_error_row_blanks_metric_cells(self):
        pt = GridPoint("product2", 40, None, 1, "dart-mpm")
        rec = grid_row_to_record(GridRowResult(index=4, point=pt, error="Boom: nope"))
        assert rec["error"] == "Boom: nope"
        assert rec["snr"] == "noiseless"
        for col in ("p", "selected", "tp", "f1", "runtime_s", "var_f"):
            assert rec[col] == ""

    def test_write_read_round_trip(self, tmp_path):
        records = [grid_row_to_record(sample_row(i, replicate=i)) for i in range(3)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, records)
        assert read_metrics_csv(path) == records

    def test_read_rejects_foreign_columns(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="unexpected metrics CSV columns"):
            read_metrics_csv(path)

    def test_record_key_uses_key_columns(self):
        rec = grid_row_to_record(sample_row())
        assert record_key(rec) == tuple(rec[c] for c in KEY_COLUMNS)

    def test_fit_column_is_canonical_json(self):
        pt = dataclasses.replace(
            sample_row().point, fit_overrides=(("n_trees", 4), ("burn_in", 20))
        )
        assert grid_row_to_record(GridRowResult(0, pt))["fit"] == '{"burn_in":20,"n_trees":4}'
        assert grid_row_to_record(sample_row())["fit"] == "{}"

    def test_key_tells_apart_points_that_differ_in_any_field(self):
        base = sample_row().point
        changed = {
            "equation": "friedman1",
            "n": 41,
            "snr": None,
            "s_copies": 2,
            "method": "bart-vc-measure",
            "l_rep": 3,
            "l_perm": 7,
            "alpha": 0.1,
            "seed": 4,
            "replicate": 1,
            "fit_overrides": (("n_trees", 4),),
        }
        assert set(changed) == {f.name for f in dataclasses.fields(GridPoint)}

        def key(pt):
            return record_key(grid_row_to_record(GridRowResult(0, pt)))

        for name, value in changed.items():
            assert key(dataclasses.replace(base, **{name: value})) != key(base), name

    def test_aggregate_means_and_error_exclusion(self):
        rows = [grid_row_to_record(sample_row(i, replicate=i)) for i in range(2)]
        rows[1]["tpr"], rows[1]["fpr"], rows[1]["f1"] = "0.5", "0.03", "0.6"
        bad = grid_row_to_record(
            GridRowResult(index=2, point=sample_row().point, error="Boom")
        )
        out = aggregate_records(rows + [bad])
        assert len(out) == 1
        agg = out[0]
        assert agg["rows"] == "2"
        assert float(agg["mean_tpr"]) == pytest.approx((1.0 + 0.5) / 2)
        assert float(agg["mean_fpr"]) == pytest.approx((0.01 + 0.03) / 2)
        assert float(agg["mean_f1"]) == pytest.approx((0.8 + 0.6) / 2)
        assert list(agg) == AGGREGATE_COLUMNS

    def test_aggregate_groups_sorted_by_method_n_snr(self):
        rows = []
        for i, method in enumerate(["dart-mpm", "bart-vc-measure"]):
            row = sample_row(i)
            row = dataclasses.replace(row, point=dataclasses.replace(row.point, method=method))
            rows.append(grid_row_to_record(row))
        out = aggregate_records(rows)
        assert [r["method"] for r in out] == ["bart-vc-measure", "dart-mpm"]


# -- CLI: fit ---------------------------------------------------------------------


class _FillsUp:
    """A file on a disk with ``room`` bytes left: the write that would pass
    it raises ENOSPC, as on a full disk."""

    def __init__(self, fh, room: int):
        self._fh, self._room = fh, room

    def write(self, data):
        self._room -= len(data) if isinstance(data, (str, bytes)) else memoryview(data).nbytes
        if self._room < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


class TestAtomicWrites:
    """Each output writer replaces its file whole: a writer that fails
    mid-file leaves the previous file byte-equal and no temporary file."""

    @pytest.mark.parametrize(
        "name", ["trace.bvc", "results.json", "importance.csv", "metrics.csv", "aggregate.csv"]
    )
    def test_failed_write_keeps_the_previous_file(self, name, mpm_document, tmp_path, monkeypatch):
        trace = random_trace(np.random.default_rng(3), 6, 4)
        records = [grid_row_to_record(sample_row(i)) for i in range(3)]
        write = {
            "trace.bvc": lambda path: write_trace(trace, path),
            "results.json": mpm_document.save,
            "importance.csv": lambda path: write_importance_csv(path, mpm_document),
            "metrics.csv": lambda path: write_metrics_csv(path, records),
            "aggregate.csv": lambda path: write_aggregate_csv(path, records),
        }[name]
        path = tmp_path / name
        write(path)
        before = path.read_bytes()
        real_open = io.open
        # the disk fills up half way through the same write
        monkeypatch.setattr(io, "open", lambda *a, **k: _FillsUp(real_open(*a, **k), len(before) // 2))
        with pytest.raises(OSError, match="No space left"):
            write(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [name]


class TestCliFit:
    def test_fit_writes_readable_trace(self, runner, signal_csv, tmp_path):
        out = tmp_path / "nested" / "fit.trace"
        result = runner.invoke(
            main, ["fit", str(signal_csv), *FAST_FLAGS, "--seed", "1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "wrote" in result.output and "n=50 p=3" in result.output
        trace = read_trace(out)
        assert trace.counts.shape == (30, 3)
        assert trace.config_echo["n_trees"] == 4
        assert trace.alpha_path is None

    def test_same_seed_is_byte_identical(self, runner, signal_csv, tmp_path):
        paths = [tmp_path / "a.trace", tmp_path / "b.trace", tmp_path / "c.trace"]
        for path, seed in zip(paths, ["1", "1", "2"]):
            result = runner.invoke(
                main, ["fit", str(signal_csv), *FAST_FLAGS, "--seed", seed, "--out", str(path)]
            )
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_dart_prior_records_alpha_path(self, runner, signal_csv, tmp_path):
        out = tmp_path / "dart.trace"
        result = runner.invoke(
            main, ["fit", str(signal_csv), *FAST_FLAGS, "--prior", "dart", "--out", str(out)]
        )
        assert result.exit_code == 0
        trace = read_trace(out)
        assert trace.alpha_path is not None and np.all(trace.alpha_path > 0)

    def test_missing_response_is_runtime_error(self, runner, signal_csv, tmp_path):
        result = runner.invoke(
            main,
            ["fit", str(signal_csv), "--response", "zzz", "--out", str(tmp_path / "t")],
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr and "available columns: y, x1, x2, x3" in result.stderr

    def test_bad_flag_value_is_usage_error(self, runner, signal_csv, tmp_path):
        result = runner.invoke(
            main, ["fit", str(signal_csv), "--draws", "0", "--out", str(tmp_path / "t")]
        )
        assert result.exit_code == 2

    def test_negative_seed_is_usage_error(self, runner, signal_csv, tmp_path):
        out = tmp_path / "t"
        result = runner.invoke(main, ["fit", str(signal_csv), "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "seed must be >= 0" in result.stderr and not out.exists()

    def test_fit_keeps_mi_sum(self, runner, signal_csv, tmp_path):
        out = tmp_path / "fit.trace"
        result = runner.invoke(main, ["fit", str(signal_csv), *FAST_FLAGS, "--out", str(out)])
        assert result.exit_code == 0, result.output
        trace = read_trace(out)
        assert trace.mi_sum is not None and trace.mi_sum.shape == (3,)
        assert trace.config_echo["track_mi"] is True

    @pytest.mark.parametrize("flag", ["--mi", "--no-mi"])
    def test_mi_flag_is_usage_error(self, runner, signal_csv, tmp_path, flag):
        out = tmp_path / "fit.trace"
        result = runner.invoke(main, ["fit", str(signal_csv), *FAST_FLAGS, flag, "--out", str(out)])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and not out.exists()

    def test_missing_input_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", str(tmp_path / "no.csv"), "--out", str(tmp_path / "t")])
        assert result.exit_code == 2


# -- CLI: select ------------------------------------------------------------------


class TestCliSelect:
    def test_select_writes_results_and_importance(self, runner, signal_csv, tmp_path):
        out = tmp_path / "sel"
        result = runner.invoke(
            main,
            [
                "select",
                str(signal_csv),
                "--method",
                "dart-mpm",
                *FAST_FLAGS,
                "--seed",
                "2",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "dart-mpm" in result.output and "wrote" in result.output
        document = ResultsDocument.load(out / "results.json")
        assert document.method == "dart-mpm"
        assert document.config["n"] == 50 and document.config["p"] == 3
        assert document.selected_indices == sorted(document.selected_indices)
        lines = (out / "importance.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 3

    def test_empty_selection_exits_zero(self, runner, noise_csv, tmp_path):
        out = tmp_path / "sel"
        result = runner.invoke(
            main,
            [
                "select",
                str(noise_csv),
                "--method",
                "bart-vip-gmax",
                *FAST_FLAGS,
                "--lrep",
                "2",
                "--lperm",
                "5",
                "--seed",
                "0",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "no features selected" in result.output
        document = ResultsDocument.load(out / "results.json")
        assert document.no_selection and document.selected_indices == []

    def test_mi_method_enables_mi_tracking(self, runner, signal_csv, tmp_path):
        out = tmp_path / "sel"
        result = runner.invoke(
            main,
            [
                "select",
                str(signal_csv),
                "--method",
                "bart-mi-local",
                *FAST_FLAGS,
                "--lrep",
                "1",
                "--lperm",
                "2",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        document = ResultsDocument.load(out / "results.json")
        assert document.config["fit"]["track_mi"] is True
        assert len(document.perm_seeds) == 2

    def test_permutation_method_needs_lperm(self, runner, signal_csv, tmp_path):
        result = runner.invoke(
            main,
            [
                "select",
                str(signal_csv),
                "--method",
                "bart-vip-gse",
                "--lperm",
                "0",
                "--out",
                str(tmp_path / "sel"),
            ],
        )
        assert result.exit_code == 2
        assert "l_perm" in result.stderr

    def test_unknown_method_is_usage_error(self, runner, signal_csv, tmp_path):
        result = runner.invoke(
            main,
            ["select", str(signal_csv), "--method", "nope", "--out", str(tmp_path / "sel")],
        )
        assert result.exit_code == 2

    def test_bad_alpha_is_usage_error(self, runner, signal_csv, tmp_path):
        result = runner.invoke(
            main,
            [
                "select",
                str(signal_csv),
                "--method",
                "dart-mpm",
                "--alpha",
                "1.5",
                "--out",
                str(tmp_path / "sel"),
            ],
        )
        assert result.exit_code == 2
        assert "alpha" in result.stderr

    def test_negative_seed_is_usage_error(self, runner, signal_csv, tmp_path):
        out = tmp_path / "sel"
        result = runner.invoke(
            main,
            ["select", str(signal_csv), "--method", "dart-mpm", "--seed", "-1", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "seed must be >= 0" in result.stderr and not out.exists()


# -- CLI: benchmark and report ------------------------------------------------------


BENCH_PAYLOAD = {
    "defaults": {
        "n": 40,
        "snr": 5.0,
        "S": 1,
        "seed": 3,
        "fit": {"trees": 4, "burnin": 20, "draws": 20},
    },
    "points": [{"equation": "product2", "method": "dart-mpm", "replicates": 2}],
}


def _fit_only_point(trees):
    fit = {"trees": trees, "burnin": 20, "draws": 20}
    return {"equation": "product2", "method": "bart-vc-measure", "l_rep": 2, "fit": fit}


# three points that differ only in fit
FIT_GRID = {
    "defaults": {"n": 40, "snr": 1.0, "S": 1, "seed": 3},
    "points": [_fit_only_point(trees) for trees in (2, 4, 8)],
}


def run_benchmark(runner, tmp_path, name, payload):
    """Write ``payload`` to a grid file and run it into ``tmp_path / name``;
    returns the grid file and the output directory."""
    grid = write_grid(tmp_path / f"{name}.json", payload)
    out = tmp_path / name
    result = runner.invoke(main, ["benchmark", str(grid), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return grid, out


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    """One completed benchmark run shared by the benchmark/report tests."""
    root = tmp_path_factory.mktemp("bench")
    grid = write_grid(root / "grid.json", BENCH_PAYLOAD)
    out = root / "out"
    result = CliRunner().invoke(main, ["benchmark", str(grid), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return grid, out, result.output


class TestCliBenchmark:
    def test_rows_and_seeds(self, bench_out):
        _, out, output = bench_out
        assert "[1/2] dart-mpm product2" in output and "[2/2]" in output
        records = read_metrics_csv(out / "metrics.csv")
        assert [r["replicate"] for r in records] == ["0", "1"]
        assert [r["data_seed"] for r in records] == ["3", "100003"]
        assert all(r["error"] == "" for r in records)

    def test_aggregate_is_hand_mean(self, bench_out):
        _, out, _ = bench_out
        records = read_metrics_csv(out / "metrics.csv")
        lines = (out / "aggregate.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == ",".join(AGGREGATE_COLUMNS)
        assert len(lines) == 2
        agg = dict(zip(AGGREGATE_COLUMNS, lines[1].split(",")))
        assert agg["method"] == "dart-mpm" and agg["rows"] == "2"
        hand = np.mean([float(r["f1"]) for r in records])
        assert float(agg["mean_f1"]) == pytest.approx(hand, abs=1e-15)

    def test_resume_reuses_completed_rows(self, bench_out, runner, tmp_path):
        grid, out, _ = bench_out
        full = read_metrics_csv(out / "metrics.csv")
        part_dir = tmp_path / "resumed"
        part_dir.mkdir()
        # simulate an interrupted run that only finished the first row
        write_metrics_csv(part_dir / "metrics.csv", full[:1])
        result = runner.invoke(
            main, ["benchmark", str(grid), "--out", str(part_dir), "--resume"]
        )
        assert result.exit_code == 0, result.output
        assert "resume: keeping 1 of 2 rows" in result.output
        assert "[2/2]" in result.output and "[1/2]" not in result.output
        resumed = read_metrics_csv(part_dir / "metrics.csv")
        assert len(resumed) == 2
        for fresh, kept in zip(full, resumed):
            for col in METRICS_COLUMNS:
                if col != "runtime_s":
                    assert fresh[col] == kept[col]

    def test_resume_keeps_points_that_differ_only_in_fit(self, runner, tmp_path):
        grid, out = run_benchmark(runner, tmp_path, "o", FIT_GRID)
        before = (out / "metrics.csv").read_bytes()
        result = runner.invoke(main, ["benchmark", str(grid), "--out", str(out), "--resume"])
        assert result.exit_code == 0, result.output
        assert "resume: keeping 3 of 3 rows\n" in result.output
        assert "/3]" not in result.output  # no row ran
        assert (out / "metrics.csv").read_bytes() == before

    def test_resume_reruns_exactly_the_point_whose_fit_was_edited(self, runner, tmp_path):
        grid, out = run_benchmark(runner, tmp_path, "o", FIT_GRID)
        full = read_metrics_csv(out / "metrics.csv")
        edited = json.loads(json.dumps(FIT_GRID))
        edited["points"][1]["fit"]["trees"] = 6
        write_grid(grid, edited)
        result = runner.invoke(main, ["benchmark", str(grid), "--out", str(out), "--resume"])
        assert result.exit_code == 0, result.output
        assert "resume: keeping 2 of 3 rows" in result.output
        assert "[2/3]" in result.output
        assert "[1/3]" not in result.output and "[3/3]" not in result.output
        resumed = read_metrics_csv(out / "metrics.csv")
        _, fresh_out = run_benchmark(runner, tmp_path, "fresh", edited)
        fresh = read_metrics_csv(fresh_out / "metrics.csv")
        assert [resumed[0], resumed[2]] == [full[0], full[2]]
        assert resumed[1]["fit"] == '{"burn_in":20,"n_draws":20,"n_trees":6}'
        assert {**resumed[1], "runtime_s": ""} == {**fresh[1], "runtime_s": ""}

    def test_resume_key_follows_the_fit_config(self, runner, tmp_path):
        # "k_leaf": 2, 2.0 and no k_leaf at all are one FitConfig (2.0 is its default)
        spellings = {"int": 2, "float": 2.0, "absent": None}

        def payload(k_leaf):
            point = _fit_only_point(4)
            if k_leaf is not None:
                point["fit"]["k_leaf"] = k_leaf
            return {**FIT_GRID, "points": [point]}

        for first, k_leaf in spellings.items():
            grid, out = run_benchmark(runner, tmp_path, first, payload(k_leaf))
            before = (out / "metrics.csv").read_bytes()
            for other in spellings.values():
                write_grid(grid, payload(other))
                result = runner.invoke(
                    main, ["benchmark", str(grid), "--out", str(out), "--resume"]
                )
                assert result.exit_code == 0, result.output
                assert "resume: keeping 1 of 1 rows\n" in result.output, (first, other)
                assert (out / "metrics.csv").read_bytes() == before
        (pt,), _ = load_grid_file(write_grid(tmp_path / "k3.json", payload(3)))
        assert pt.fit_overrides == (("burn_in", 20), ("k_leaf", 3.0), ("n_draws", 20), ("n_trees", 4))
        assert type(dict(pt.fit_overrides)["k_leaf"]) is float

    def test_resume_keeps_identical_points(self, runner, tmp_path):
        payload = {**FIT_GRID, "points": [FIT_GRID["points"][0]] * 2}
        grid, out = run_benchmark(runner, tmp_path, "o", payload)
        full = read_metrics_csv(out / "metrics.csv")
        blank = dict.fromkeys(("index", "runtime_s"), "")
        assert {**full[0], **blank} == {**full[1], **blank}
        result = runner.invoke(main, ["benchmark", str(grid), "--out", str(out), "--resume"])
        assert result.exit_code == 0, result.output
        assert "resume: keeping 2 of 2 rows" in result.output
        assert "/2]" not in result.output
        resumed = read_metrics_csv(out / "metrics.csv")
        assert [rec["index"] for rec in resumed] == ["0", "1"]
        for kept in resumed:
            assert {**kept, **blank} == {**full[0], **blank}

    def test_metrics_csv_without_fit_column_is_runtime_error(self, bench_out, runner, tmp_path):
        grid, full_out, _ = bench_out
        out = tmp_path / "o"
        out.mkdir()
        with (full_out / "metrics.csv").open(newline="", encoding="utf-8") as fh:
            rows = [row[:-1] for row in csv.reader(fh)]  # fit is the last column
        assert rows[0][-1] == "runtime_s"
        with (out / "metrics.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        for args in (["benchmark", str(grid), "--out", str(out), "--resume"], ["report", str(out)]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, args
            assert isinstance(result.exception, SystemExit)  # no traceback
            assert "(missing fit)" in result.stderr
            assert "Traceback" not in result.output

    def test_resume_from_a_malformed_metrics_csv_is_runtime_error(self, bench_out, runner, tmp_path):
        grid, _, _ = bench_out
        out = tmp_path / "o"
        out.mkdir()
        (out / "metrics.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        result = runner.invoke(main, ["benchmark", str(grid), "--out", str(out), "--resume"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith("error: ")
        assert "unexpected metrics CSV columns" in result.stderr
        assert "Traceback" not in result.output

    def test_bad_grid_is_usage_error(self, runner, tmp_path):
        grid = write_grid(tmp_path / "g.json", {"points": [{"equation": "e", "method": "x", "n": 5}]})
        result = runner.invoke(main, ["benchmark", str(grid), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "unknown method" in result.stderr

    @pytest.mark.parametrize("payload, match", BAD_POINT_VALUES)
    def test_bad_point_value_is_usage_error_before_any_row(self, runner, tmp_path, payload, match):
        grid = write_grid(tmp_path / "g.json", payload)
        result = runner.invoke(main, ["benchmark", str(grid), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert re.search(match, result.stderr)
        assert not (tmp_path / "o").exists()

    def test_runtime_error_rows_do_not_fail_the_run(self, runner, tmp_path):
        # a valid file whose equation is non-finite everywhere fails at data generation
        payload = {
            "equations": {"nan1": {"expression": "log(x1 - 5)", "ranges": [[0, 1]]}},
            "points": [
                {
                    "equation": "nan1",
                    "method": "dart-mpm",
                    "n": 10,
                    "fit": {"trees": 2, "burnin": 5, "draws": 5},
                }
            ]
        }
        grid = write_grid(tmp_path / "g.json", payload)
        out = tmp_path / "o"
        result = runner.invoke(main, ["benchmark", str(grid), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "ERROR" in result.output and "1 errors" in result.output
        records = read_metrics_csv(out / "metrics.csv")
        assert "stayed non-finite" in records[0]["error"]


class TestCliReport:
    def test_report_on_benchmark_dir(self, bench_out, runner):
        _, out, _ = bench_out
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == 0, result.output
        assert "2 rows, 0 errors" in result.output
        assert "dart-mpm" in result.output and "method" in result.output

    def test_report_on_results_json(self, runner, mpm_document, tmp_path):
        path = tmp_path / "results.json"
        mpm_document.save(path)
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 0, result.output
        assert "method: dart-mpm" in result.output
        assert "top importances:" in result.output
        assert "runtime:" in result.output

    def test_report_lists_error_rows(self, runner, tmp_path):
        pt = GridPoint("product2", 40, 5.0, 1, "dart-mpm")
        records = [
            grid_row_to_record(sample_row()),
            grid_row_to_record(GridRowResult(index=1, point=pt, error="Boom: nope")),
        ]
        out = tmp_path / "o"
        out.mkdir()
        write_metrics_csv(out / "metrics.csv", records)
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == 0
        assert "2 rows, 1 errors" in result.output
        assert "row 1 (dart-mpm): Boom: nope" in result.output

    def test_report_writes_nothing(self, runner, tmp_path):
        write_metrics_csv(tmp_path / "metrics.csv", [grid_row_to_record(sample_row())])
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]

    def test_report_dir_without_metrics(self, runner, tmp_path):
        result = runner.invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 2
        assert "contains no metrics.csv" in result.stderr

    def test_report_on_non_document_json(self, runner, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"hello": 1}', encoding="utf-8")
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 1
        assert "not a results document" in result.stderr

    def test_report_missing_path(self, runner, tmp_path):
        result = runner.invoke(main, ["report", str(tmp_path / "nope")])
        assert result.exit_code == 2


# -- jobs resolution ----------------------------------------------------------------


class TestJobsValue:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("BARTSEL_JOBS", "7")
        assert _jobs_value(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("BARTSEL_JOBS", "7")
        assert _jobs_value(None) == 7

    def test_default_one(self, monkeypatch):
        monkeypatch.delenv("BARTSEL_JOBS", raising=False)
        assert _jobs_value(None) == 1

    def test_empty_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("BARTSEL_JOBS", "")
        assert _jobs_value(None) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_env_values(self, monkeypatch, value):
        monkeypatch.setenv("BARTSEL_JOBS", value)
        with pytest.raises(click.UsageError, match="BARTSEL_JOBS"):
            _jobs_value(None)

    def test_bad_env_jobs_is_usage_error(self, runner, signal_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("BARTSEL_JOBS", "0")
        grid = write_grid(tmp_path / "grid.json", BENCH_PAYLOAD)
        select = ["select", str(signal_csv), "--method", "dart-mpm", *FAST_FLAGS]
        for args in (
            select + ["--out", str(tmp_path / "s")],
            ["benchmark", str(grid), "--out", str(tmp_path / "b")],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert "BARTSEL_JOBS" in result.stderr
        assert not (tmp_path / "s").exists() and not (tmp_path / "b").exists()

    def test_zero_jobs_flag_is_usage_error(self, runner, signal_csv, tmp_path):
        grid = write_grid(tmp_path / "grid.json", BENCH_PAYLOAD)
        select = ["select", str(signal_csv), "--method", "dart-mpm", *FAST_FLAGS]
        for args in (
            select + ["--jobs", "0", "--out", str(tmp_path / "s")],
            ["benchmark", str(grid), "--jobs", "0", "--out", str(tmp_path / "b")],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert "--jobs" in result.stderr
        assert not (tmp_path / "s").exists() and not (tmp_path / "b").exists()


# -- console script -----------------------------------------------------------------


class TestConsoleScript:
    # the subprocesses import the same bartsel as this process, installed or not
    ENV = dict(os.environ)
    ENV["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(bartsel.__file__)), ENV.get("PYTHONPATH")])
    )

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "bartsel.cli", *args],
            capture_output=True,
            text=True,
            env=self.ENV,
        )

    def test_import_leaves_out_scipy_stats(self):
        # bartsel needs scipy.special only for a non-default noise prior;
        # scipy's distributions module would add about half a second and
        # 45 MB to every process.
        code = (
            "import bartsel, bartsel.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=self.ENV
        )
        assert proc.stdout.strip() == "[]"

    def test_default_fits_leave_out_scipy(self):
        # the default noise prior's quantile is a literal and the DART alpha
        # grid takes an in-house log-gamma, so default fits load no scipy
        # module; another nu loads scipy.special and keeps chi2.ppf's bits
        code = textwrap.dedent(
            """\
            import dataclasses, sys
            import numpy as np
            import bartsel, bartsel.cli
            from bartsel import FitConfig, RunConfig, calibrate_lambda, fit, run_method
            from bartsel import validate_dataset
            rng = np.random.default_rng(0)
            X = rng.uniform(size=(30, 3))
            data = validate_dataset(X[:, 0] + rng.normal(0.0, 0.1, 30), X)
            small = FitConfig(n_trees=2, burn_in=5, n_draws=5)
            fit(data, small)
            fit(data, dataclasses.replace(small, prior_kind="dart"))
            run_method(data, RunConfig(method="dart-vc-measure", fit=small, l_rep=2))
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
            y = rng.normal(size=20)
            lam = calibrate_lambda(y, nu=4.0)
            from scipy.stats import chi2
            print(lam == float(np.var(y, ddof=1)) * float(chi2.ppf(1.0 - 0.9, 4.0)) / 4.0)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=self.ENV
        )
        assert proc.stdout.split("\n")[:2] == ["[]", "True"]

    @pytest.mark.parametrize(
        "module", ["bartsel"] + [f"bartsel.{m.name}" for m in pkgutil.iter_modules(bartsel.__path__)]
    )
    def test_public_names_resolve_once(self, module):
        # a stale __all__ entry makes ``from <module> import *`` raise
        mod = importlib.import_module(module)
        names = getattr(mod, "__all__", [])
        assert len(names) == len(set(names))
        assert [n for n in names if not hasattr(mod, n)] == []

    def test_help_exits_zero(self):
        proc = self.run("--help")
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "select" in proc.stdout

    def test_usage_error_exits_two(self, tmp_path):
        proc = self.run("fit", str(tmp_path / "no.csv"), "--out", str(tmp_path / "t"))
        assert proc.returncode == 2

    def test_runtime_error_exits_one(self, tmp_path):
        csv_path = write_csv(tmp_path / "d.csv", ["y", "a"], [[1, 2], [3, 4]])
        proc = self.run(
            "fit", str(csv_path), "--response", "zzz", "--out", str(tmp_path / "t")
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
