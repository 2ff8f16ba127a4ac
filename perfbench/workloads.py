"""The three benchmark workloads, their inputs and their correctness gates.

All use T=20 trees on n=500 rows at SNR 10 with S=50 irrelevant copies per
relevant feature. Inputs come from ``--seed``; the library receives only the
generated datasets (for the grid, the grid points that generate them).

* ``gmax-r1``: ``bart-vip-gmax`` on product2 (p=102), 2 replicate plus 10
  permutation fits, jobs=1. Many short BART chains over one X; nearly all
  time is in the sampler, so kernel speed-ups and lockstep chain batching
  show here. It bypasses DART, the MI log, trace I/O and the process pool.
* ``fit-dart-r2``: one long DART fit on ii-11-17 (p=306) with the MI log and
  the s path, written and read back as a trace, then summarised. A single
  chain, so chain batching must show no change; it is the only workload
  with trace I/O and carries the per-sweep DART extras.
* ``grid-r2``: ``run_grid`` with jobs=2 over six points sharing one ii-11-17
  dataset, then metrics.csv and aggregate.csv. It exercises both pool
  dispatch sites, the trace and null caches (gmax and mpm are full cache
  hits, the larger gse l_perm recomputes the whole null), UPGMA clustering
  at p=306 and the threshold rules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_ROWS = 500
SNR = 10.0
S_COPIES = 50
N_TREES = 20
ALPHA = 0.05

# (burn_in, n_draws) per fit. Smoke sizes run every path in seconds and
# still pass the gates; the untimed warm-up only needs every path to run once.
SWEEPS = {
    "gmax-r1": {"full": (100, 50), "smoke": (60, 30), "warm": (2, 3)},
    "fit-dart-r2": {"full": (250, 1000), "smoke": (20, 60), "warm": (2, 3)},
    "grid-r2": {"full": (60, 60), "smoke": (6, 6), "warm": (2, 3)},
}

GMAX_L_REP, GMAX_L_PERM = 2, 10
GRID_L_REP, GRID_L_PERM, GRID_GSE_L_PERM = 2, 3, 6
# order matters: gmax reuses the local null, gse grows it, mpm reuses the
# dart-vc-measure replicate fits
GRID_METHODS = (
    ("bart-mi-local", GRID_L_PERM),
    ("bart-vip-local", GRID_L_PERM),
    ("bart-vip-gmax", GRID_L_PERM),
    ("bart-vip-gse", GRID_GSE_L_PERM),
    ("dart-vc-measure", GRID_L_PERM),
    ("dart-mpm", GRID_L_PERM),
)


@dataclass
class Outcome:
    """What one iteration did: operations attempted and failed, failed
    checks, and the values the digest covers."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest_parts: list[bytes] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(part)
        return h.hexdigest()[:16]


def _vec(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _ids(selected) -> bytes:
    return (",".join(str(j) for j in sorted(selected)) + ";").encode()


def _check_indices(label: str, selected, p: int) -> list[str]:
    bad = sorted(j for j in selected if not 1 <= int(j) <= p)
    return [f"{label}: selected indices outside 1..{p}: {bad}"] if bad else []


class Workload:
    name = ""
    equation = ""
    operations = 1  # operations one iteration attempts, for error counting
    default_jobs = 1
    # spans the traced loop records in this process: fits run here only when
    # jobs=1, and only the workloads that run a method build a null
    parent_spans: frozenset[str] = frozenset()

    def __init__(self, bartsel, seed: int, size: str) -> None:
        self.bs = bartsel
        self.seed = seed
        self.burn_in, self.n_draws = SWEEPS[self.name][size]
        self.dataset = None
        self.on_row = None  # run_grid progress callback, set by the traced run

    def generate(self):
        """Build the workload's dataset from the seed (the set-up step)."""
        bs = self.bs
        self.dataset = bs.generate_dataset(bs.REGISTRY[self.equation], N_ROWS, SNR, S_COPIES, self.seed)

    def fit_config(self):
        return self.bs.FitConfig(n_trees=N_TREES, burn_in=self.burn_in, n_draws=self.n_draws)

    @property
    def sweeps_per_fit(self) -> int:
        return self.burn_in + self.n_draws

    @property
    def fits_requested(self) -> int:
        raise NotImplementedError

    def run(self, jobs: int, workdir: Path) -> Outcome:
        raise NotImplementedError


class GmaxR1(Workload):
    name = "gmax-r1"
    equation = "product2"
    parent_spans = frozenset({"fit", "permutation_null"})

    @property
    def fits_requested(self) -> int:
        return GMAX_L_REP + GMAX_L_PERM

    def run(self, jobs: int, workdir: Path) -> Outcome:
        bs = self.bs
        config = bs.RunConfig(
            method="bart-vip-gmax",
            fit=self.fit_config(),
            l_rep=GMAX_L_REP,
            l_perm=GMAX_L_PERM,
            alpha=ALPHA,
            seed=self.seed,
            jobs=jobs,
        )
        result = bs.run_method(self.dataset, config)
        selected = set(result.selection.selected)
        out = Outcome(attempted=1, digest_parts=[_ids(selected), _vec(result.importance)])
        if selected != {1, 2}:
            out.problems.append(f"gmax-r1 selected {sorted(selected)}, expected [1, 2]")
        return out


class FitDartR2(Workload):
    name = "fit-dart-r2"
    equation = "ii-11-17"
    parent_spans = frozenset({"fit"})

    def fit_config(self):
        return self.bs.FitConfig(
            n_trees=N_TREES,
            burn_in=self.burn_in,
            n_draws=self.n_draws,
            prior_kind="dart",
            track_mi=True,
            track_s_path=True,
        )

    @property
    def fits_requested(self) -> int:
        return 1

    def run(self, jobs: int, workdir: Path) -> Outcome:
        bs = self.bs
        (trace,) = bs.fit_replicates(self.dataset, self.fit_config(), self.seed, 1, jobs=jobs)
        path = workdir / "posterior.trace"
        bs.write_trace(trace, path)
        back = bs.read_trace(path)
        vectors = [bs.vip(back), bs.vc(back), bs.mpvip(back), bs.metropolis_importance(back)]
        selection, _ = bs.select_with_method("dart-mpm", [back], None, ALPHA)
        out = Outcome(
            attempted=1,
            digest_parts=[_ids(selection.selected)] + [_vec(v.values) for v in vectors],
        )
        if not back == trace:
            out.problems.append("fit-dart-r2: read_trace(write_trace(t)) != t")
        # each draw with splits contributes a proportion vector summing to 1
        totals = trace.counts.sum(axis=1)
        with_splits = float(np.mean(totals > 0))
        vip_sum = float(vectors[0].values.sum())
        if abs(vip_sum - with_splits) > 1e-9 or np.any(vectors[0].values < 0):
            out.problems.append(
                f"fit-dart-r2: VIP sums to {vip_sum!r}, expected {with_splits!r} "
                "(share of draws with splits)"
            )
        out.problems += _check_indices("fit-dart-r2 mpm", selection.selected, self.dataset.p)
        return out


class GridR2(Workload):
    name = "grid-r2"
    equation = "ii-11-17"
    operations = len(GRID_METHODS)
    default_jobs = 2
    parent_spans = frozenset({"permutation_null"})

    def points(self):
        overrides = (("n_trees", N_TREES), ("burn_in", self.burn_in), ("n_draws", self.n_draws))
        return [
            self.bs.GridPoint(
                equation=self.equation,
                n=N_ROWS,
                snr=SNR,
                s_copies=S_COPIES,
                method=method,
                l_rep=GRID_L_REP,
                l_perm=l_perm,
                alpha=ALPHA,
                seed=self.seed,
                fit_overrides=overrides,
            )
            for method, l_perm in GRID_METHODS
        ]

    @property
    def fits_requested(self) -> int:
        specs = self.bs.METHOD_SPECS
        return sum(
            GRID_L_REP + (l_perm if specs[method].needs_null else 0) for method, l_perm in GRID_METHODS
        )

    def run(self, jobs: int, workdir: Path) -> Outcome:
        bs = self.bs
        rows = bs.run_grid(self.points(), jobs=jobs, progress=self.on_row)
        records = [bs.traceio.grid_row_to_record(row) for row in rows]
        bs.traceio.write_metrics_csv(workdir / "metrics.csv", records)
        bs.traceio.write_aggregate_csv(workdir / "aggregate.csv", records)
        errors = [row for row in rows if row.error]
        out = Outcome(attempted=self.operations, failed=len(errors))
        out.problems += [f"grid-r2 row {row.index} ({row.point.method}): {row.error}" for row in errors]
        if len(rows) != len(GRID_METHODS):
            out.problems.append(f"grid-r2 returned {len(rows)} rows, expected {len(GRID_METHODS)}")
        for row in rows:
            if row.selected is not None:
                out.digest_parts.append(_ids(row.selected))
                out.problems += _check_indices(f"grid-r2 row {row.index}", row.selected, row.p)
        return out


WORKLOADS = {cls.name: cls for cls in (GmaxR1, FitDartR2, GridR2)}
