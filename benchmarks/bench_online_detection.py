"""Extension bench: online windowed estimation + anomaly detection.

Paper Section 6 names "online, distributed inference" as future work and
the introduction motivates anomaly detection.  This benchmark injects a
4x service degradation into one queue, runs the sliding-window estimator
over a 25 %-observed trace, and measures (a) wall time per window and (b)
detection latency: how many windows after the fault the first flag lands.
"""

import numpy as np

from repro.experiments import render_table
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import (
    EstimatorConfig,
    ReplayTraceStream,
    StreamingEstimator,
    detect_anomalies,
)
from repro.simulate import RateChange, simulate_with_faults


def test_online_fault_detection(benchmark):
    net = build_tandem_network(4.0, [8.0, 10.0])
    n_tasks = 700
    fault_time = 0.55 * (n_tasks / 4.0)
    sim = simulate_with_faults(
        net, n_tasks, faults=[RateChange(queue=1, at=fault_time, rate=2.0)],
        random_state=404,
    )
    trace = TaskSampling(fraction=0.25).observe(sim.events, random_state=40)
    horizon = float(np.sort(sim.events.departure[sim.events.seq == 0])[-1])
    estimator = StreamingEstimator(
        ReplayTraceStream(trace),
        EstimatorConfig(window=horizon / 10, stem_iterations=30),
        random_state=41,
    )

    windows = benchmark.pedantic(estimator.run, rounds=1, iterations=1)
    reports = detect_anomalies(windows, threshold=4.0)
    assert reports, "injected fault not detected"
    q1_reports = [r for r in reports if r.queue == 1]
    assert q1_reports, "fault attributed to the wrong queue"
    first = min(q1_reports, key=lambda r: r.window_index)
    window_len = windows[0].t_end - windows[0].t_start
    latency_windows = max(0.0, (first.t_start - fault_time) / window_len) + 1.0

    print("\n=== Online detection (extension; paper §6 future work) ===")
    print(render_table(
        ["metric", "value"],
        [
            ("windows", str(len(windows))),
            ("windows with estimates", str(sum(w.ok for w in windows))),
            ("fault injected at", f"{fault_time:.0f}s"),
            ("first q1 flag at", f"{first.t_start:.0f}s"),
            ("detection latency", f"~{latency_windows:.0f} window(s)"),
            ("flag z-score", f"{first.z_score:.1f}"),
        ],
    ))
    # Detection within two windows of the fault.
    assert first.t_start <= fault_time + 2.0 * window_len
