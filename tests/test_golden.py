"""Golden-output test: fixed-seed CLI runs must reproduce committed bytes.

``bartsel benchmark`` on ``data/golden/grid.json`` (all ten methods) must
write ``metrics.csv`` equal to ``data/golden/metrics.csv`` once its
``runtime_s`` column is blanked, and ``bartsel select`` on
``data/golden/data.csv`` must write ``importance.csv`` equal to
``data/golden/importance-<method>.csv`` for the methods in
``SELECT_METHODS``. Both commands must write the same bytes at ``--jobs 1``
and ``--jobs 2``. A refactor keeps these bytes; a change that is meant to
alter them rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which rows changed and why.
"""

import csv
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from bartsel.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
SELECT_METHODS = ("bart-mi-local", "bart-vip-gse", "dart-vc-measure")
SELECT_FLAGS = [
    "--trees", "4", "--burnin", "20", "--draws", "20",
    "--lrep", "2", "--lperm", "5", "--alpha", "0.2", "--seed", "1",
]


def _invoke(args: list[str]) -> None:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def _blank_runtime(text: str) -> str:
    """``metrics.csv`` with every ``runtime_s`` cell emptied."""
    rows = list(csv.DictReader(io.StringIO(text)))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({**row, "runtime_s": ""})
    return out.getvalue()


def produce(out: Path, jobs: str = "1") -> dict[str, bytes]:
    """Run the golden commands under ``out`` with ``jobs`` workers; map
    golden file name to bytes."""
    _invoke(["benchmark", str(GOLDEN / "grid.json"), "--out", str(out / "bench"), "--jobs", jobs])
    metrics = (out / "bench" / "metrics.csv").read_text(encoding="utf-8")
    files = {"metrics.csv": _blank_runtime(metrics).encode("utf-8")}
    for method in SELECT_METHODS:
        sel = out / method
        _invoke([
            "select", str(GOLDEN / "data.csv"), "--method", method, *SELECT_FLAGS,
            "--jobs", jobs, "--out", str(sel),
        ])
        files[f"importance-{method}.csv"] = (sel / "importance.csv").read_bytes()
    return files


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def produced_at_two_jobs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden-jobs2"), jobs="2")


NAMES = ["metrics.csv", *(f"importance-{m}.csv" for m in SELECT_METHODS)]


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden_bytes(produced, name):
    assert produced[name] == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_output_at_two_jobs_matches_golden_bytes(produced_at_two_jobs, name):
    assert produced_at_two_jobs[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    scratch = Path(tempfile.mkdtemp())
    try:
        for name, data in produce(scratch).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch)
