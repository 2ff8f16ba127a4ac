"""Layer probes: fixed calls into each module on a workload's dataset and
fit configuration, timed with wall-clock timers.

The traced run uses them for the per-layer figures that a workload's own
iterations cannot give, either because the layer runs inside pool workers or
because the workload never calls it. Each figure is a median over repeated
calls, so it is comparable between two commits on the same workload.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import tracing
from workloads import ALPHA, GRID_METHODS, S_COPIES, SNR

# (warm-up sweeps, timed sweeps, repeats of the fast calls, repeats of the slow calls)
FULL = (50, 1000, 200, 5)
SMOKE = (5, 50, 5, 1)


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_fit_s(bs, workload) -> float:
    """Wall time of one fit at the workload's configuration."""
    cfg = replace(workload.fit_config(), seed=workload.seed)
    return _median_s(lambda: bs.fit(workload.dataset, cfg), 1)


def probe_permutation_null_s(bs, workload) -> float:
    """Wall time of a one-row VIP permutation null at the workload's configuration."""
    cfg = workload.fit_config()
    return _median_s(
        lambda: bs.permutation_null(workload.dataset, "vip", 1, cfg, workload.seed), 1
    )


def run_probes(bs, workload, workdir: Path, smoke: bool) -> dict[str, float]:
    warm, sweeps, fast_reps, slow_reps = SMOKE if smoke else FULL
    ds = workload.dataset
    p = ds.p
    base = workload.fit_config()
    cfg = replace(base, burn_in=warm, n_draws=sweeps, track_mi=True, seed=workload.seed)
    out: dict[str, float] = {}

    # -- sampler: one chain of the workload's prior, every sweep timed
    out["sampler.init_ms"] = 1e3 * _median_s(lambda: bs.EnsembleSampler(ds, cfg), slow_reps)
    steps = tracing.Tracer()
    original = bs.EnsembleSampler.__dict__["step"]
    bs.EnsembleSampler.step = steps.wrap("sampler", "step", original)
    try:
        trace = bs.fit(ds, cfg)
    finally:
        bs.EnsembleSampler.step = original
    step_ms = 1e3 * np.asarray(steps.durations_s("step")[warm:])
    out["sampler.sweep_ms_p50"] = float(np.percentile(step_ms, 50))
    out["sampler.sweep_ms_p99"] = float(np.percentile(step_ms, 99))
    out["sampler.mean_leaves"] = float(trace.leaf_counts.mean())

    rng = np.random.default_rng(workload.seed)
    counts_total = trace.counts[-1]
    alpha = float(trace.alpha_path[-1]) if trace.alpha_path is not None else float(p)
    s = bs.update_split_probs(counts_total, alpha, rng)
    out["sampler.update_split_probs_us"] = 1e6 * _median_s(
        lambda: bs.update_split_probs(counts_total, alpha, rng), fast_reps
    )
    out["sampler.sample_alpha_us"] = 1e6 * _median_s(
        lambda: bs.sample_alpha(
            s, rng, a=base.dart_a, b=base.dart_b, rho=float(p),
            grid_size=base.alpha_grid_size, current=alpha,
        ),
        fast_reps,
    )
    lam = float(trace.config_echo["noise_prior_lambda"])
    sse = float(ds.n) * lam
    out["sampler.sample_sigma2_us"] = 1e6 * _median_s(
        lambda: bs.sample_sigma2(sse, ds.n, base.nu, lam, rng), fast_reps
    )

    # -- summaries on the probe trace
    for key, fn in (("vip", bs.vip), ("vc", bs.vc), ("mpvip", bs.mpvip), ("mi", bs.metropolis_importance)):
        out[f"summaries.{key}_ms"] = 1e3 * _median_s(lambda fn=fn: fn(trace), slow_reps)
    pair = [trace, trace]
    out["summaries.summary_matrix_ms"] = 1e3 * _median_s(
        lambda: bs.build_summary_matrix(pair, "vc-measure"), slow_reps
    )

    # -- selection: thresholds against a 10-row null cut from the draws
    totals = trace.counts.sum(axis=1, keepdims=True)
    props = np.divide(trace.counts, totals, out=np.zeros(trace.counts.shape), where=totals > 0)
    rows = 10 if props.shape[0] >= 10 else props.shape[0]
    null = props[: props.shape[0] // rows * rows].reshape(rows, -1, p).mean(axis=1)
    observed = bs.vip(trace).values

    def thresholds():
        bs.threshold_local(observed, null, ALPHA)
        bs.threshold_gse(observed, null, ALPHA)
        bs.threshold_gmax(observed, null, ALPHA)

    out["selection.threshold_ms"] = 1e3 * _median_s(thresholds, slow_reps)
    matrix = bs.build_summary_matrix(pair, "vc-measure")
    out["selection.cluster_ms"] = 1e3 * _median_s(lambda: bs.cluster_select(matrix), slow_reps)
    pi_hat = bs.mpvip(trace)
    out["selection.mpm_ms"] = 1e3 * _median_s(lambda: bs.mpm_select(pi_hat), fast_reps)

    # -- trace file and grid CSV I/O
    path = workdir / "probe.trace"
    out["traceio.write_trace_ms"] = 1e3 * _median_s(lambda: bs.write_trace(trace, path), slow_reps)
    out["traceio.read_trace_ms"] = 1e3 * _median_s(lambda: bs.read_trace(path), slow_reps)
    out["traceio.trace_file_bytes"] = float(path.stat().st_size)
    path.unlink()
    selected = tuple(sorted(bs.mpm_select(pi_hat).selected))
    truth = ds.truth or frozenset()
    grid_rows = [
        bs.GridRowResult(
            index=i,
            point=bs.GridPoint(
                equation=workload.equation, n=ds.n, snr=SNR, s_copies=S_COPIES, method=method,
                l_perm=l_perm, seed=workload.seed,
            ),
            p=p,
            data_seed=workload.seed,
            selected=selected,
            metrics=bs.compute_metrics(selected, truth, p),
        )
        for i, (method, l_perm) in enumerate(GRID_METHODS)
    ]

    def write_csvs():
        records = [bs.traceio.grid_row_to_record(row) for row in grid_rows]
        bs.traceio.write_metrics_csv(workdir / "probe-metrics.csv", records)
        bs.traceio.write_aggregate_csv(workdir / "probe-aggregate.csv", records)

    out["traceio.metrics_csv_ms"] = 1e3 * _median_s(write_csvs, slow_reps)
    return out
