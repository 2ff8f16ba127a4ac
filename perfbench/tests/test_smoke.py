"""Harness self-tests. They run every workload at smoke size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "0", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# fits requested, computed and recomputed per iteration: on the grid the
# caches save 9 of 27 fits and growing the gse null recomputes 3 rows
FIT_COUNTS = {"gmax-r1": (12, 12, 0), "fit-dart-r2": (1, 1, 0), "grid-r2": (27, 18, 3)}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    done = run_bench("--workload", workload, "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    counts = tuple(
        result["metrics"][f"benchmark.fits_{k}"]["value"] for k in ("requested", "computed", "recomputed")
    )
    assert counts == FIT_COUNTS[workload]
    spans = json.loads((HERE / "out" / f"{workload}-seed0-trace1-spans.json").read_text())
    assert spans["fields"] == list(tracing.SPAN_FIELDS) and spans["spans"]


def test_untraced_smoke_run_reports_every_end_to_end_metric():
    done = run_bench("--workload", "fit-dart-r2", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate" in done.stdout


def test_fails_without_the_library_sources():
    # a directory holding only BENCHMARK.json and the harness
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench("--workload", "gmax-r1", cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.begin_iteration()
    # parent 0..10 ms with children 1..4 ms and 5..7 ms
    tracer.spans = [
        ["methods", "run_method", -1, 0, 0, 10_000_000],
        ["sampler", "fit", 0, 0, 1_000_000, 4_000_000],
        ["sampler", "fit", 0, 0, 5_000_000, 7_000_000],
    ]
    table = tracer.layer_table(iterations=1)
    assert table["methods"] == {"self_ms": pytest.approx(5.0), "spans": 1}
    assert table["sampler"] == {"self_ms": pytest.approx(5.0), "spans": 2}


def test_install_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import bartsel
    from bartsel import methods, selection

    originals = (bartsel.vip, methods.vip, selection.vip, methods._THRESHOLD_RULES["gmax"])
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert bartsel.vip is methods.vip is selection.vip
        assert bartsel.vip is not originals[0]
        assert methods._THRESHOLD_RULES["gmax"] is selection.threshold_gmax
    assert (bartsel.vip, methods.vip, selection.vip, methods._THRESHOLD_RULES["gmax"]) == originals


def test_install_fails_on_a_missing_target_and_restores(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import bartsel  # noqa: F401
    from bartsel import selection

    original = selection.vip
    missing = tracing.TARGETS["summaries"] + [("bartsel.summaries", "no_such_function")]
    monkeypatch.setitem(tracing.TARGETS, "summaries", missing)
    with pytest.raises(LookupError, match="no_such_function"):
        with tracing.install(tracing.Tracer()):
            pass
    assert selection.vip is original
