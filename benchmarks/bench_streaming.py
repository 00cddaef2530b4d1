"""Warm cross-window shard workers vs cold per-window rebuilds.

The streaming estimator's claim is operational, not statistical: keeping
the shard worker processes, their transport connections, and their built
kernels warm across windows makes a window cheaper than rebuilding the
whole substrate per window, while producing estimates of exactly the
same quality (frozen windows are bitwise identical; see
``tests/test_streaming.py``).  This benchmark measures that directly on
one stream replayed twice:

* **warm** — the streaming design as shipped: one
  :class:`~repro.inference.shard.WarmShardWorkerPool` for the whole
  stream plus incremental re-partitioning, so shards away from the
  window edges adopt only fresh time arrays (``n_warm_shards`` reports
  how often that fired);
* **cold** — the rebuild baseline as it existed before streaming: one
  :func:`~repro.inference.stem.run_stem` per window on the window's
  sub-trace, each spawning and tearing down its own worker pool and
  partitioning from scratch.

The two modes are compared as whole designs, so the incremental
partitioner's (small) cost difference is part of the measurement; from
the second window on their partitions — and hence their exact draws —
legitimately differ, while every window of either mode targets the same
posterior (the per-window reference is pinned bitwise separately by
``tests/test_streaming.py``).

The acceptance assertion — warm wall clock strictly below cold — is what
the CI smoke step enforces, and the result is written to
``BENCH_streaming.json`` so the workflow can archive the perf trajectory
across PRs.
"""

import json
import os
import time

import numpy as np

from repro.events.subset import SubsetIndex, subset_trace
from repro.experiments import render_table
from repro.inference import run_stem
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import (
    EstimatorConfig,
    ReplayTraceStream,
    StreamingEstimator,
    task_fully_observed,
)
from repro.online.windowed import _entry_time_estimates
from repro.rng import spawn
from repro.simulate import simulate_network

from conftest import full_scale

#: Where the machine-readable result lands (uploaded as a CI artifact).
RESULT_PATH = "BENCH_streaming.json"


def make_trace(n_tasks: int, seed: int = 19):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=seed)
    horizon = float(np.nanmax(sim.events.departure))
    return sim, trace, horizon


#: Window geometry and per-window StEM length shared by both modes.
WINDOW_FRACTION, STEP_FRACTION, ITERATIONS, MIN_OBSERVED = 1 / 4, 1 / 12, 6, 3


def run_warm(trace, horizon, *, shards: int, workers: int, seed: int = 7):
    """One full pass over the stream; returns (seconds, window estimates)."""
    estimator = StreamingEstimator(
        ReplayTraceStream(trace), random_state=seed,
        config=EstimatorConfig(
            window=horizon * WINDOW_FRACTION, step=horizon * STEP_FRACTION,
            stem_iterations=ITERATIONS, min_observed_tasks=MIN_OBSERVED,
            shards=shards, shard_workers=workers,
        ),
    )
    t0 = time.perf_counter()
    windows = estimator.run()
    return time.perf_counter() - t0, windows


def run_cold(trace, horizon, *, shards: int, workers: int, seed: int = 7):
    """The same windows rebuilt from nothing: one ``run_stem`` per window,
    each with a dedicated shard pool and a from-scratch partition.

    Returns (seconds, [(n_shards, ok) per window]).
    """
    window, step = horizon * WINDOW_FRACTION, horizon * STEP_FRACTION
    t0 = time.perf_counter()
    entries = _entry_time_estimates(trace)
    index = SubsetIndex(trace.skeleton)
    starts = np.arange(0.0, max(entries.values()), step)
    windows = []
    for start, stream in zip(starts, spawn(seed, len(starts))):
        tasks = [k for k, t in entries.items() if start <= t < start + window]
        n_observed = sum(task_fully_observed(trace, k) for k in tasks)
        if len(tasks) < 2 or n_observed < MIN_OBSERVED:
            windows.append((1, False))
            continue
        run_stem(
            subset_trace(trace, tasks, index=index), n_iterations=ITERATIONS,
            init_method="heuristic", random_state=stream, shards=shards,
            persistent_workers=workers,
        )
        windows.append((min(shards, len(tasks)), True))
    return time.perf_counter() - t0, windows


def test_streaming_warm_beats_cold(benchmark):
    n_tasks = 700 if not full_scale() else 3000
    shards, workers = 4, 2
    sim, trace, horizon = make_trace(n_tasks)
    cpus = len(os.sched_getaffinity(0))

    def run():
        # Best-of-2 per mode, alternating, so one co-tenancy noise spike
        # on a shared CI runner cannot flip the strict warm < cold gate.
        warm_times, cold_times = [], []
        warm_windows = cold_windows = None
        for _ in range(2):
            seconds, warm_windows = run_warm(
                trace, horizon, shards=shards, workers=workers
            )
            warm_times.append(seconds)
            seconds, cold_windows = run_cold(
                trace, horizon, shards=shards, workers=workers
            )
            cold_times.append(seconds)
        return min(warm_times), min(cold_times), warm_windows, cold_windows

    warm_s, cold_s, warm_windows, cold_windows = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    ok_warm = [w for w in warm_windows if w.ok]
    sharded = [w for w in warm_windows if w.n_shards > 1]
    reused = sum(w.n_warm_shards for w in sharded)
    shipped = reused + sum(w.n_migrated_shards for w in sharded)
    rows = [
        ("warm (one pool, incremental partition)",
         f"{warm_s:.2f}", len(warm_windows), len(ok_warm),
         f"{reused}/{shipped}"),
        ("cold (pool + partition per window)",
         f"{cold_s:.2f}", len(cold_windows),
         sum(ok for _, ok in cold_windows), "0/"
         f"{sum(n for n, ok in cold_windows if ok and n > 1)}"),
    ]
    print(f"\n=== Streaming estimation: warm vs cold "
          f"({sim.events.n_events} events, {len(warm_windows)} windows, "
          f"shards={shards}, workers={workers}, {cpus} cpu) ===")
    print(render_table(
        ["mode", "wall s", "windows", "ok", "warm shards"],
        rows,
        title="statistically equivalent estimates (incremental vs cold "
        "partitions reorder the exact scan); warm drops the rebuild overhead",
    ))
    speedup = cold_s / warm_s
    print(f"warm speedup over cold rebuilds: {speedup:.2f}x")
    result = {
        "benchmark": "streaming_warm_vs_cold",
        "n_events": int(sim.events.n_events),
        "n_windows": len(warm_windows),
        "shards": shards,
        "workers": workers,
        "cpus": cpus,
        "warm_seconds": warm_s,
        "cold_seconds": cold_s,
        "speedup": speedup,
        "warm_shard_updates": int(reused),
        "shipped_shard_updates": int(shipped),
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(f"wrote {RESULT_PATH}")
    # Acceptance: estimates must exist, warm reuse must fire, and warm
    # windows must beat the cold rebuilds they replace.
    assert ok_warm, "no window produced an estimate"
    assert reused > 0, "incremental re-partitioning never reused a shard"
    assert warm_s < cold_s, (
        f"warm windows slower than cold rebuilds: {warm_s:.2f}s vs {cold_s:.2f}s"
    )
