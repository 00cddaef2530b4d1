"""Online anomaly detection: catching a degrading component from 25 % of a trace.

The paper's introduction lists "anomaly detection, and diagnosis of
performance bugs" among the applications of performance models.  This
example injects a fault — a backend whose service slows 4x midway through
the run (think: failing disk) — then slides a window over the censored
trace, re-estimates each window with StEM, and flags the change point with
a robust z-score detector.  Crucially the detector sees *service* times,
so it distinguishes the degradation from the load fluctuations that would
fool a latency-threshold alert.

Run:  python examples/anomaly_detection.py
"""

import numpy as np

from repro import TaskSampling
from repro.model_checking import posterior_predictive_check
from repro.inference import run_stem
from repro.network import build_tandem_network
from repro.online import (
    EstimatorConfig,
    ReplayTraceStream,
    StreamingEstimator,
    detect_anomalies,
)
from repro.simulate import RateChange, simulate_with_faults

SEED = 5


def main() -> None:
    net = build_tandem_network(4.0, [8.0, 10.0])
    n_tasks = 800
    fault_time = 0.55 * (n_tasks / 4.0)
    sim = simulate_with_faults(
        net, n_tasks,
        faults=[RateChange(queue=1, at=fault_time, rate=2.0)],  # 8.0 -> 2.0
        random_state=SEED,
    )
    events = sim.events
    horizon = float(np.sort(events.departure[events.seq == 0])[-1])
    print(f"simulated {events.n_tasks} tasks over {horizon:.0f}s;")
    print(f"queue 1's service degrades 4x at t = {fault_time:.0f}s\n")

    trace = TaskSampling(fraction=0.25).observe(events, random_state=SEED)
    print(trace.summary(), "\n")

    windows = StreamingEstimator(
        ReplayTraceStream(trace),
        EstimatorConfig(window=horizon / 10, stem_iterations=35),
        random_state=SEED,
    ).run()

    print(f"{'window':>14}{'tasks':>7}{'svc q1':>9}{'svc q2':>9}")
    for w in windows:
        q1 = f"{w.mean_service(1):.3f}" if w.ok else "--"
        q2 = f"{w.mean_service(2):.3f}" if w.ok else "--"
        print(f"[{w.t_start:5.0f},{w.t_end:5.0f}]{w.n_tasks:>7}{q1:>9}{q2:>9}")

    reports = detect_anomalies(windows, threshold=4.0)
    print("\n=== anomaly reports ===")
    if not reports:
        print("none")
    for r in reports:
        print(
            f"queue {r.queue} in window [{r.t_start:.0f}, {r.t_end:.0f}]: "
            f"service {r.value:.3f} vs baseline {r.baseline:.3f} "
            f"(z = {r.z_score:.1f})"
        )
    first = min(reports, key=lambda r: r.window_index)
    print(f"\nfirst detection at t ~ {first.t_start:.0f}s "
          f"(fault injected at {fault_time:.0f}s)")

    # Bonus: a whole-trace posterior predictive check also fails, because a
    # single stationary M/M/1 rate can't explain a mid-run regime change.
    net = build_tandem_network(4.0, [8.0, 10.0])
    stem = run_stem(trace, n_iterations=60, random_state=SEED)
    ppc = posterior_predictive_check(
        trace, net.with_rates(stem.rates), observe_fraction=0.25,
        n_replicates=15, random_state=SEED,
    )
    print("\nposterior predictive check on the stationary model:",
          "PASS" if ppc.ok else f"FAIL (flagged: {ppc.flagged()})")


if __name__ == "__main__":
    main()
