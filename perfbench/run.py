"""Benchmark for bartsel: one workload per call, metrics as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gmax-r1 --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation; its
times are given at reference speed (see reference.py).
``--trace 1`` alternates untraced and traced iterations for ``--seconds``,
reports the difference of their medians as the tracing overhead, and adds
the per-layer metrics from the spans and the layer probes. ``--workload all``
runs the three workloads one after another. ``--smoke`` shrinks every sweep
count so that all paths run in seconds. See README.md beside this file.

The load is batch work from one closed-loop caller: the next iteration
starts when the previous one returns. The process runs at most two pool
workers, and BLAS and OpenMP are pinned to one thread each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("gmax-r1", "fit-dart-r2", "grid-r2")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5  # fresh-interpreter set-ups per run, spread evenly through it
REFERENCE_SLICE_S = 0.3  # reference reps timed between untraced iterations and set-ups

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "sweeps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "sampler.sweep_ms_p50": "ms",
    "sampler.sweep_ms_p99": "ms",
    "sampler.fit_s": "s",
    "sampler.init_ms": "ms",
    "sampler.update_split_probs_us": "us",
    "sampler.sample_alpha_us": "us",
    "sampler.sample_sigma2_us": "us",
    "sampler.mean_leaves": "count",
    "sampler.trace_bytes": "bytes",
    "summaries.vip_ms": "ms",
    "summaries.vc_ms": "ms",
    "summaries.mpvip_ms": "ms",
    "summaries.mi_ms": "ms",
    "summaries.summary_matrix_ms": "ms",
    "selection.permutation_null_s": "s",
    "selection.threshold_ms": "ms",
    "selection.cluster_ms": "ms",
    "selection.mpm_ms": "ms",
    "methods.fit_replicates_s": "s",
    "methods.select_ms": "ms",
    "methods.pool_speedup": "ratio",
    "benchmark.generate_ms": "ms",
    "benchmark.grid_row_s_p50": "s",
    "benchmark.fits_requested": "count",
    "benchmark.fits_computed": "count",
    "benchmark.fits_recomputed": "count",
    "traceio.write_trace_ms": "ms",
    "traceio.read_trace_ms": "ms",
    "traceio.trace_file_bytes": "bytes",
    "traceio.metrics_csv_ms": "ms",
    "harness.trace_overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sweep counts; every path in seconds")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def setup(name: str, seed: int, smoke: bool):
    """Import bartsel from the checkout and generate the workload's inputs.
    Returns (bartsel, workload, seconds taken)."""
    t0 = time.perf_counter()
    import bartsel

    from workloads import WORKLOADS

    workload = WORKLOADS[name](bartsel, seed, "smoke" if smoke else "full")
    workload.generate()
    elapsed = time.perf_counter() - t0
    if not Path(bartsel.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported bartsel from {bartsel.__file__}, not from {SRC}")
    return bartsel, workload, elapsed


def fresh_setup_s(name: str, seed: int) -> float:
    """Set-up time in a new interpreter, so the import is paid again."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key.replace(" ", "_")] = value.strip()
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    info["caches"] = caches
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def measure(workload, jobs: int, workdir: Path, tracer=None):
    """One iteration; returns its wall time and outcome."""
    from workloads import Outcome

    if tracer is not None:
        tracer.begin_iteration()
        span = tracer.open("harness", "iteration")
    t0 = time.perf_counter()
    try:
        out = workload.run(jobs, workdir)
    except Exception as exc:  # noqa: BLE001 - a raised fit is a failed operation
        ops = workload.operations
        out = Outcome(ops, ops, [f"{workload.name}: {type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    return wall, out


def _status_kb(pid, key: str) -> int:
    """A ``kB`` field of /proc/<pid>/status, 0 when it cannot be read."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def watch_pools() -> list[int]:
    """Record, for every ProcessPoolExecutor as it shuts down, the kB its
    workers' peak RSS exceeds this process's current RSS, summed over the
    workers. A forked worker's RSS includes the pages it shares with this
    process; subtracting them counts those pages once."""
    from concurrent.futures import ProcessPoolExecutor

    growth: list[int] = []
    original = ProcessPoolExecutor.shutdown

    def shutdown(self, *args, **kwargs):
        if self._processes:
            own = _status_kb("self", "VmRSS")
            growth.append(sum(max(0, _status_kb(pid, "VmHWM") - own) for pid in list(self._processes)))
        return original(self, *args, **kwargs)

    ProcessPoolExecutor.shutdown = shutdown
    return growth


def peak_rss_mb(pool_growth: list[int]) -> float:
    """Peak RSS of this process plus the largest pool's worker growth."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(pool_growth, default=0)) / 1024.0


def end_to_end(args, workload, setup_s: float, workdir: Path, pool_growth: list[int]):
    """The untraced loop for ``--seconds``, with a slice of reference reps
    before and after each iteration and fresh-interpreter set-ups spread
    evenly through the run. Each iteration and set-up is scaled to reference
    speed by the mean of the two slices around it, and the metrics are the
    medians of the scaled times. Returns the metrics, the raw figures, walls
    and outcomes."""
    import reference

    jobs = workload.default_jobs
    n_setups = 0 if args.smoke else SETUP_SAMPLES
    marks = [args.seconds * (k + 0.5) / n_setups for k in range(n_setups)]
    slices = [statistics.median(reference.sample(REFERENCE_SLICE_S))]
    walls, outcomes, setups, scaled_walls, scaled_setups = [], [], [], [], []

    def close_slice(times: list[float], scaled: list[float]) -> None:
        """End the stretch since the last slice with a new slice, and scale
        the times measured in it by the mean of the slices around it."""
        slices.append(statistics.median(reference.sample(REFERENCE_SLICE_S)))
        speed = reference.REFERENCE_S / ((slices[-2] + slices[-1]) / 2)
        scaled += [t * speed for t in times]

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, out = measure(workload, jobs, workdir)
        walls.append(wall)
        outcomes.append(out)
        close_slice([wall], scaled_walls)
        fresh = []
        while marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            fresh.append(fresh_setup_s(args.workload, args.seed))
        if fresh:
            close_slice(fresh, scaled_setups)
        setups += fresh
    if marks:
        fresh = [fresh_setup_s(args.workload, args.seed) for _ in marks]
        close_slice(fresh, scaled_setups)
        setups += fresh
    if not setups:  # smoke: the in-process set-up, scaled like the first iteration
        setups = [setup_s]
        scaled_setups = [setup_s * scaled_walls[0] / walls[0]]
    wall_s = statistics.median(scaled_walls)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "wall_s": wall_s,
        "sweeps_per_s": workload.fits_requested * workload.sweeps_per_fit / wall_s,
        "peak_rss_mb": peak_rss_mb(pool_growth),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "reference_slice_medians_s": slices,
        "setup_samples_s": setups,
    }
    return metrics, raw, walls, outcomes


def per_layer(args, bs, workload, workdir: Path, generate_ms: float):
    """Untraced and traced iterations in alternation for ``--seconds``, so
    both see the same machine; then one iteration at the other jobs value
    and the layer probes. Returns metrics, the source of each, the two wall
    lists, outcomes, extra failed checks and the tracer."""
    import probes
    import tracing

    jobs = workload.default_jobs
    tracer = tracing.Tracer()
    row_marks: list[tuple[int, int]] = []  # (iteration, time) of each finished grid row

    def on_row(row) -> None:
        row_marks.append((tracer.iteration, time.perf_counter_ns()))

    walls, traced_walls, outcomes = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, out = measure(workload, jobs, workdir)
        walls.append(wall)
        outcomes.append(out)
        workload.on_row = on_row
        with tracing.install(tracer):
            wall, out = measure(workload, jobs, workdir, tracer)
        workload.on_row = None
        traced_walls.append(wall)
        outcomes.append(out)
    alt_jobs = 2 if jobs == 1 else 1
    alt_wall, alt_out = measure(workload, alt_jobs, workdir)
    outcomes.append(alt_out)
    wall_by_jobs = {jobs: statistics.median(walls), alt_jobs: alt_wall}

    m = probes.run_probes(bs, workload, workdir, args.smoke)
    sources = dict.fromkeys(m, "probe")
    problems = []
    # a span figure where the workload makes the span in this process, else a probe
    for metric, span, probe in (
        ("sampler.fit_s", "fit", probes.probe_fit_s),
        ("selection.permutation_null_s", "permutation_null", probes.probe_permutation_null_s),
    ):
        durations = tracer.durations_s(span)
        if span in workload.parent_spans and durations:
            m[metric], sources[metric] = statistics.median(durations), "span"
        else:
            m[metric], sources[metric] = probe(bs, workload), "probe"
        if (span in workload.parent_spans) != bool(durations):
            problems.append(f"{workload.name}: {len(durations)} {span} spans in the traced loop")
    m["sampler.trace_bytes"] = float(statistics.median(tracer.trace_bytes))
    m["methods.fit_replicates_s"] = statistics.median(tracer.durations_s("fit_replicates"))
    m["methods.select_ms"] = 1e3 * statistics.median(tracer.durations_s("select_with_method"))
    m["methods.pool_speedup"] = wall_by_jobs[1] / wall_by_jobs[2]
    m["benchmark.generate_ms"] = generate_ms
    if row_marks:
        starts = {s[3]: s[4] for s in tracer.spans if s[1] == "run_grid"}
        rows, last = [], {}
        for iteration, t_ns in row_marks:
            rows.append((t_ns - last.get(iteration, starts[iteration])) * 1e-9)
            last[iteration] = t_ns
        m["benchmark.grid_row_s_p50"] = statistics.median(rows)
    else:
        m["benchmark.grid_row_s_p50"] = statistics.median(traced_walls)
    computed = [c for c, _ in tracer.fit_counts]
    recomputed = [r for _, r in tracer.fit_counts]
    m["benchmark.fits_requested"] = float(workload.fits_requested)
    m["benchmark.fits_computed"] = float(statistics.median(computed))
    m["benchmark.fits_recomputed"] = float(statistics.median(recomputed))
    m["harness.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    for metric in m:
        sources.setdefault(metric, "span")
    sources["methods.pool_speedup"] = "untraced loop"
    sources["benchmark.generate_ms"] = "set-up"
    sources["harness.trace_overhead_s"] = "untraced and traced loops"
    for metric in ("requested", "computed", "recomputed"):
        sources[f"benchmark.fits_{metric}"] = "count"
    if not row_marks:
        sources["benchmark.grid_row_s_p50"] = "traced loop"
    if len(set(computed)) > 1 or len(set(recomputed)) > 1:
        problems.append(f"fit counts differ between iterations: {tracer.fit_counts}")
    return m, sources, walls, traced_walls, outcomes, problems, tracer


def run_one(args) -> int:
    bs, workload, setup_s = setup(args.workload, args.seed, args.smoke)
    import tracing
    from workloads import WORKLOADS

    gen = []
    for _ in range(5):
        t0 = time.perf_counter()
        workload.generate()
        gen.append(time.perf_counter() - t0)
    generate_ms = 1e3 * statistics.median(gen)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pool_growth = watch_pools()
    try:
        # untimed warm-up: lazy imports, first pool start, allocator
        warm = WORKLOADS[args.workload](bs, args.seed, "warm")
        warm.dataset = workload.dataset
        _, warm_out = measure(warm, workload.default_jobs, workdir)
        if args.trace:
            metrics, sources, walls, traced_walls, outcomes, problems, tracer = per_layer(
                args, bs, workload, workdir, generate_ms
            )
            units = PER_LAYER_UNITS
            layers = tracer.layer_table(len(traced_walls))
            raw = {}
        else:
            metrics, raw, walls, outcomes = end_to_end(args, workload, setup_s, workdir, pool_growth)
            units = END_TO_END_UNITS
            traced_walls, problems, tracer, layers, sources = [], [], None, None, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {k: metrics[k] for k in units}

    attempted = sum(o.attempted for o in outcomes + [warm_out])
    failed = sum(o.failed for o in outcomes + [warm_out])
    problems += [p for o in outcomes for p in o.problems]
    # the warm-up is too short for the selection gates; only its errors count
    if warm_out.failed:
        problems += warm_out.problems
    digests = sorted({o.digest() for o in outcomes})
    if len(digests) > 1:
        problems.append(f"results differ between iterations: digests {digests}")
    correct = not problems and failed == 0

    info = machine_info()
    print(
        f"machine: nproc={info['nproc']} cpu={info.get('model_name', '?')!r} caches={info['caches']} "
        f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']} blas={info['blas']} "
        f"threads={info['thread_env']}"
    )
    print(
        f"workload {workload.name} seed={args.seed} jobs={workload.default_jobs} trace={args.trace}"
        f"{' smoke' if args.smoke else ''}: {len(walls)} untraced iterations"
        + (f", {len(traced_walls)} traced" if args.trace else "")
    )
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<32} {failed / attempted:>16.6g} ratio ({failed} failed of {attempted})")
    if raw:
        print(
            f"  times above are at reference speed; raw: setup_s {raw['setup_s']:.6g} s, "
            f"wall_s {raw['wall_s']:.6g} s, median reference rep "
            f"{1e3 * statistics.median(raw['reference_slice_medians_s']):.6g} ms"
        )
    for source in sorted(set(sources.values())):
        print(f"  from {source}: {', '.join(k for k, v in sources.items() if v == source)}")
    if args.trace:
        print(
            f"  untraced wall_s {statistics.median(walls):.6g} s, "
            f"traced wall_s {statistics.median(traced_walls):.6g} s"
        )
        print(f"  {'layer':<10} {'self_ms/iter':>14} {'spans/iter':>12}")
        for layer, row in layers.items():
            print(f"  {layer:<10} {row['self_ms']:>14.6g} {row['spans']:>12.6g}")
    print(f"digest {digests[0] if len(digests) == 1 else digests}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        machine=info,
        iteration_walls_s=walls,
        traced_iteration_walls_s=traced_walls,
        error_rate=failed / attempted,
        raw=raw,
        layer_sources=sources,
        layers=layers,
        digest=digests,
        problems=problems,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        spans = {"fields": list(tracing.SPAN_FIELDS), "spans": tracer.spans}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or done.returncode or (results[name] is None)
    print(json.dumps({"workloads": results}))
    return int(status)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bartsel" / "__init__.py").is_file():
        print(f"perfbench: no bartsel sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if args.setup_only:
        print(repr(setup(args.workload, args.seed, smoke=True)[2]))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
