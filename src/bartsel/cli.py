"""Command-line interface: fit, select, benchmark, report.

Exit codes: 0 on success (including an empty selection), 2 on usage errors
(bad flags, unparseable grid files), 1 on runtime failures. The default
number of parallel fit processes comes from the BARTSEL_JOBS environment
variable (1 when unset or empty; any other value below 1 or not a whole
number is a usage error); --jobs overrides it.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

import click

from .benchmark import BenchmarkError, GridRowResult, run_grid
from .data import DataError, FitConfig
from .methods import METHOD_NAMES, RunConfig, run_method
from .sampler import FitError, fit
from .traceio import (
    GridFileError,
    ResultsDocument,
    TraceFormatError,
    build_results_document,
    grid_row_to_record,
    load_grid_file,
    read_dataset_csv,
    read_metrics_csv,
    record_key,
    aggregate_records,
    write_aggregate_csv,
    write_importance_csv,
    write_metrics_csv,
    write_trace,
)

_RUNTIME_ERRORS = (
    DataError,
    FitError,
    TraceFormatError,
    BenchmarkError,
    OSError,
    ValueError,
    KeyError,
)


def _jobs_value(jobs: int | None) -> int:
    """``--jobs`` if given, else BARTSEL_JOBS, else 1. A BARTSEL_JOBS that is
    not a whole number >= 1 is a usage error, as ``--jobs 0`` is; an empty
    one counts as unset."""
    if jobs is not None:
        return jobs
    raw = os.environ.get("BARTSEL_JOBS") or "1"
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise click.UsageError(f"BARTSEL_JOBS must be an integer >= 1, got {raw!r}")
    return value


_jobs_option = click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=None,
    help="Parallel fit processes [BARTSEL_JOBS or 1].",
)


def _runtime_fail(exc: BaseException) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@click.group()
@click.version_option(package_name="bartsel")
def main() -> None:
    """Bayesian tree-ensemble regression with variable selection."""


@main.command(name="fit")
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--response", default="y", show_default=True, help="Response column name.")
@click.option("--trees", default=FitConfig.n_trees, show_default=True, help="Ensemble size T.")
@click.option("--burnin", default=FitConfig.burn_in, show_default=True, help="Burn-in sweeps.")
@click.option("--draws", default=FitConfig.n_draws, show_default=True, help="Kept posterior draws.")
@click.option(
    "--prior",
    type=click.Choice(["bart", "dart"]),
    default=FitConfig.prior_kind,
    show_default=True,
    help="Split-feature prior.",
)
@click.option("--seed", default=FitConfig.seed, show_default=True)
@click.option(
    "--out",
    type=click.Path(dir_okay=False, path_type=Path),
    required=True,
    help="Trace file to write.",
)
def cmd_fit(csv_path, response, trees, burnin, draws, prior, seed, out) -> None:
    """Fit one posterior on a CSV dataset and write a trace file."""
    try:
        config = FitConfig(
            n_trees=trees,
            burn_in=burnin,
            n_draws=draws,
            prior_kind=prior,
            track_mi=True,
            seed=seed,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        dataset = read_dataset_csv(csv_path, response=response)
        trace = fit(dataset, config)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_trace(trace, out)
    except _RUNTIME_ERRORS as exc:
        _runtime_fail(exc)
    click.echo(
        f"wrote {out}: n={dataset.n} p={dataset.p} trees={trees} "
        f"kept_draws={trace.n_kept} prior={prior}"
    )


@main.command(name="select")
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option(
    "--method", type=click.Choice(METHOD_NAMES), required=True, help="Selection method."
)
@click.option("--response", default="y", show_default=True)
@click.option("--trees", default=FitConfig.n_trees, show_default=True)
@click.option("--burnin", default=FitConfig.burn_in, show_default=True)
@click.option("--draws", default=FitConfig.n_draws, show_default=True)
@click.option("--lrep", type=int, default=None, help="Replicate fits [method default].")
@click.option("--lperm", default=RunConfig.l_perm, show_default=True, help="Permutation fits.")
@click.option("--alpha", type=float, default=RunConfig.alpha, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@_jobs_option
@click.option(
    "--out",
    type=click.Path(file_okay=False, path_type=Path),
    required=True,
    help="Output directory for results.json and importance.csv.",
)
def cmd_select(
    csv_path, method, response, trees, burnin, draws, lrep, lperm, alpha, seed, jobs, out
) -> None:
    """Run one variable-selection method end to end on a CSV dataset."""
    try:
        run_config = RunConfig(
            method=method,
            fit=FitConfig(n_trees=trees, burn_in=burnin, n_draws=draws),
            l_rep=lrep,
            l_perm=lperm,
            alpha=alpha,
            seed=seed,
            jobs=_jobs_value(jobs),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        dataset = read_dataset_csv(csv_path, response=response)
        result = run_method(dataset, run_config)
        document = build_results_document(result, dataset)
        out.mkdir(parents=True, exist_ok=True)
        document.save(out / "results.json")
        write_importance_csv(out / "importance.csv", document)
    except _RUNTIME_ERRORS as exc:
        _runtime_fail(exc)
    if document.no_selection:
        click.echo(f"{method}: no features selected (recorded in results)")
    else:
        names = ", ".join(document.selected_names)
        click.echo(f"{method}: selected {len(document.selected_indices)} feature(s): {names}")
    click.echo(f"wrote {out / 'results.json'} and {out / 'importance.csv'}")


@main.command(name="benchmark")
@click.argument("grid_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option(
    "--out",
    type=click.Path(file_okay=False, path_type=Path),
    required=True,
    help="Output directory for metrics.csv and aggregate.csv.",
)
@_jobs_option
@click.option("--resume", is_flag=True, help="Keep completed rows from an earlier metrics.csv.")
def cmd_benchmark(grid_file, out, jobs, resume) -> None:
    """Run a benchmark grid and write per-row metrics plus aggregates."""
    jobs = _jobs_value(jobs)
    try:
        points, equations = load_grid_file(grid_file)
    except GridFileError as exc:
        raise click.UsageError(str(exc)) from exc
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    prefilled: dict[int, dict[str, str]] = {}
    if resume and metrics_path.exists():
        try:
            earlier = read_metrics_csv(metrics_path)
        except _RUNTIME_ERRORS as exc:
            _runtime_fail(exc)
        completed = {record_key(rec): rec for rec in earlier if not rec["error"]}
        keys = [record_key(grid_row_to_record(GridRowResult(i, pt))) for i, pt in enumerate(points)]
        # the key leaves out fit, so points that share one are recomputed
        counts = Counter(keys)
        for index, key in enumerate(keys):
            if key in completed and counts[key] == 1:
                prefilled[index] = {**completed[key], "index": str(index)}
        shared = sum(n for n in counts.values() if n > 1)
        click.echo(
            f"resume: keeping {len(prefilled)} of {len(points)} rows; "
            f"recomputing {shared} whose key another point shares"
        )

    def progress(row: GridRowResult) -> None:
        pt = row.point
        if row.error:
            status = f"ERROR {row.error}"
        else:
            status = f"f1={row.metrics.f1:.3f} selected={len(row.selected)}"
        click.echo(f"[{row.index + 1}/{len(points)}] {pt.method} {pt.equation} {status}")

    try:
        rows = run_grid(
            points,
            equations,
            jobs=jobs,
            skip=lambda index, pt: index in prefilled,
            progress=progress,
        )
        computed = {row.index: grid_row_to_record(row) for row in rows}
        records = [
            prefilled[index] if index in prefilled else computed[index]
            for index in range(len(points))
        ]
        write_metrics_csv(metrics_path, records)
        write_aggregate_csv(out / "aggregate.csv", records)
    except _RUNTIME_ERRORS as exc:
        _runtime_fail(exc)
    n_err = sum(1 for rec in records if rec["error"])
    click.echo(f"wrote {metrics_path} ({len(records)} rows, {n_err} errors)")
    click.echo(f"wrote {out / 'aggregate.csv'}")


def _print_aggregate(records: list[dict[str, str]]) -> None:
    rows = aggregate_records(records)
    if not rows:
        click.echo("no successful rows to aggregate")
        return
    click.echo(f"{'method':<18} {'n':>6} {'snr':>10} {'rows':>5} {'tpr':>7} {'fpr':>7} {'f1':>7}")
    for rec in rows:
        click.echo(
            f"{rec['method']:<18} {rec['n']:>6} {rec['snr']:>10} {rec['rows']:>5} "
            f"{float(rec['mean_tpr']):>7.3f} {float(rec['mean_fpr']):>7.3f} "
            f"{float(rec['mean_f1']):>7.3f}"
        )


@main.command(name="report")
@click.argument("path", type=click.Path(exists=True, path_type=Path))
def cmd_report(path) -> None:
    """Summarize a results.json file or a benchmark output directory."""
    try:
        if path.is_dir():
            metrics_path = path / "metrics.csv"
            if not metrics_path.exists():
                raise click.UsageError(f"{path} contains no metrics.csv")
            records = read_metrics_csv(metrics_path)
            errors = [rec for rec in records if rec["error"]]
            click.echo(f"{len(records)} rows, {len(errors)} errors")
            _print_aggregate(records)
            for rec in errors:
                click.echo(f"row {rec['index']} ({rec['method']}): {rec['error']}")
        else:
            try:
                document = ResultsDocument.load(path)
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                raise TraceFormatError(f"{path}: not a results document: {exc}") from exc
            click.echo(f"method: {document.method}")
            click.echo(f"dataset: n={document.config['n']} p={document.config['p']}")
            click.echo(
                f"config: l_rep={document.config['l_rep']} l_perm={document.config['l_perm']} "
                f"alpha={document.config['alpha']} seed={document.config['seed']}"
            )
            if document.no_selection:
                click.echo("selected: (none)")
            else:
                picks = ", ".join(
                    f"{name} (#{idx})"
                    for name, idx in zip(document.selected_names, document.selected_indices)
                )
                click.echo(f"selected: {picks}")
            order = sorted(
                range(len(document.importance)),
                key=lambda j: -document.importance[j],
            )[:10]
            click.echo("top importances:")
            for j in order:
                click.echo(f"  {document.feature_names[j]:<20} {document.importance[j]:.6g}")
            click.echo(f"runtime: {document.runtime_s:.2f} s")
    except click.ClickException:
        raise
    except _RUNTIME_ERRORS as exc:
        _runtime_fail(exc)


if __name__ == "__main__":
    main()
