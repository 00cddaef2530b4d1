"""Seeded inputs of the three workloads.

Each function takes the run's seed and its length in seconds and returns
plain data: the trace or records the generator ships and the settings
the system process is built with.  The seed only moves the simulated
traces, the observation draw and the estimator's random stream; every
size and setting is fixed by the workload (see ``tests``).
"""

from __future__ import annotations

import numpy as np

#: The paper's Section 5.2 webapp trace: 5,759 requests over 30 minutes
#: on 12 queues, 25% of the tasks observed.
OBSERVED_FRACTION = 0.25

#: StEM iterations per solve (offline) and per window (live-paced).
STEM_ITERATIONS = 40

#: Offline solves per run, per second of run length (~2 s per solve).
OFFLINE_SOLVES_PER_SECOND = 0.5

#: live-paced: the generator replays the trace at this multiple of its
#: clock and flushes once per wall interval, one estimator window per flush.
PACED_SPEEDUP = 60.0
PACED_INTERVAL_S = 0.5
PACED_WINDOW = PACED_SPEEDUP * PACED_INTERVAL_S  # 30 trace-seconds
PACED_RETAIN_WINDOWS = 2

#: backfill-smc: the paper's three-tier topology, 4 servers per tier at
#: arrival rate 10/s (load 0.5 per server), shipped 100 tasks per batch.
BACKFILL_TASKS_PER_SECOND = 500
BACKFILL_BATCH_TASKS = 100
BACKFILL_WINDOW = 50.0
BACKFILL_RETAIN_WINDOWS = 2


def seeds(seed: int, n: int) -> list[int]:
    """*n* independent integer seeds derived from the run's seed."""
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(n)]


def webapp_simulation(seed: int):
    """The ground-truth webapp simulation for *seed*."""
    from repro.webapp import WebAppConfig, generate_webapp_trace

    return generate_webapp_trace(WebAppConfig(), random_state=seeds(seed, 3)[0])


def true_mean_service(events) -> tuple[list[float], list[int]]:
    """Per-queue mean of the simulated service times, and visit counts."""
    service = events.service_times()
    means, counts = [], []
    for q in range(events.n_queues):
        mask = events.queue == q
        counts.append(int(mask.sum()))
        means.append(float(service[mask].mean()) if mask.any() else float("nan"))
    return means, counts


def offline_inputs(seed: int, seconds: int) -> dict:
    """``offline-webapp``: the ground-truth events (the system observes
    them itself) plus the observation and solver seeds."""
    sim = webapp_simulation(seed)
    _, observe_seed, stem_seed = seeds(seed, 3)
    means, counts = true_mean_service(sim.events)
    return {
        "events": sim.events,
        "observed": OBSERVED_FRACTION,
        "observe_seed": observe_seed,
        "stem_seed": stem_seed,
        "iterations": STEM_ITERATIONS,
        "solves": max(3, int(round(seconds * OFFLINE_SOLVES_PER_SECOND))),
        "true_means": means,
        "visits": counts,
    }


def _entry_times(events) -> dict[int, float]:
    """True entry time of every task (its queue-0 event's departure)."""
    entry = np.flatnonzero(events.queue == 0)
    return {
        int(t): float(d)
        for t, d in zip(events.task[entry], events.departure[entry])
    }


def paced_inputs(seed: int, seconds: int) -> dict:
    """``live-paced``: the webapp trace's first ``seconds / interval``
    windows, cut into one flush per window of estimated entry time."""
    from repro.events.subset import subset_trace
    from repro.live.records import replay_batches
    from repro.observation import TaskSampling

    sim = webapp_simulation(seed)
    _, observe_seed, stem_seed = seeds(seed, 3)
    n_flushes = max(4, int(round(seconds / PACED_INTERVAL_S)))
    cutoff = n_flushes * PACED_WINDOW
    full = TaskSampling(fraction=OBSERVED_FRACTION).observe(
        sim.events, random_state=observe_seed
    )
    keep = [t for t, e in _entry_times(sim.events).items() if e < cutoff]
    trace = subset_trace(full, keep)
    # One record batch per task in estimated entry order; a flush ships
    # the tasks whose entry estimate falls in its window, after moving
    # the watermark to the window's start (every measurement in this and
    # later flushes is no older than that, so nothing is a straggler).
    flushes = [[k * PACED_WINDOW, []] for k in range(n_flushes)]
    for entry, records in replay_batches(trace, batch_tasks=1):
        slot = min(int(entry // PACED_WINDOW), n_flushes - 1)
        flushes[slot][1].extend(records)
    return {
        "trace": trace,
        "flushes": [(w, records) for w, records in flushes],
        "interval_s": PACED_INTERVAL_S,
        "system": {
            "kind": "live",
            "n_queues": int(trace.skeleton.n_queues),
            "estimator": "stem",
            "seed": stem_seed,
            "retain": PACED_RETAIN_WINDOWS * PACED_WINDOW,
            "estimator_config": {
                "window": PACED_WINDOW,
                "stem_iterations": STEM_ITERATIONS,
            },
        },
    }


def backfill_inputs(seed: int, seconds: int) -> dict:
    """``backfill-smc``: a recorded three-tier trace shipped in batches."""
    from repro.live.records import replay_batches
    from repro.network import build_three_tier_network
    from repro.observation import TaskSampling
    from repro.simulate import simulate_network

    sim_seed, observe_seed, smc_seed = seeds(seed, 3)
    network = build_three_tier_network(
        arrival_rate=10.0, servers_per_tier=(4, 4, 4), service_rate=5.0
    )
    n_tasks = max(1000, int(seconds * BACKFILL_TASKS_PER_SECOND))
    sim = simulate_network(network, n_tasks=n_tasks, random_state=sim_seed)
    trace = TaskSampling(fraction=OBSERVED_FRACTION).observe(
        sim.events, random_state=observe_seed
    )
    return {
        "trace": trace,
        "flushes": replay_batches(trace, batch_tasks=BACKFILL_BATCH_TASKS),
        "system": {
            "kind": "live",
            "n_queues": int(trace.skeleton.n_queues),
            "estimator": "smc",
            "seed": smc_seed,
            "retain": BACKFILL_RETAIN_WINDOWS * BACKFILL_WINDOW,
            "estimator_config": {
                "window": BACKFILL_WINDOW,
                "stem_iterations": STEM_ITERATIONS,
            },
        },
    }
