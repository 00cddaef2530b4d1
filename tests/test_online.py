"""Tests for sliding-window estimation over recorded traces and anomaly
detection."""

import numpy as np
import pytest

from repro.distributions import Exponential
from repro.errors import InferenceError
from repro.fsm import TaskPath
from repro.network import build_tandem_network
from repro.network.topology import QueueingNetwork
from repro.observation import TaskSampling
from repro.online import (
    EstimatorConfig,
    ReplayTraceStream,
    StreamingEstimator,
    detect_anomalies,
)
from repro.simulate import PoissonArrivals, simulate_tasks


def run_windows(trace, random_state, **config):
    """Sliding-window StEM over a recorded trace."""
    return StreamingEstimator(
        ReplayTraceStream(trace), EstimatorConfig(**config),
        random_state=random_state,
    ).run()


def simulate_with_degradation(n_tasks=600, fault_at=0.5, slow_factor=4.0, seed=0):
    """A tandem trace where q1's service degrades midway (fault injection)."""
    from repro.simulate import RateChange, simulate_with_faults

    net = build_tandem_network(4.0, [8.0, 10.0])
    horizon_estimate = n_tasks / 4.0
    fault_time = fault_at * horizon_estimate
    sim = simulate_with_faults(
        net, n_tasks,
        faults=[RateChange(queue=1, at=fault_time, rate=8.0 / slow_factor)],
        random_state=seed,
    )
    events = sim.events
    horizon = float(np.sort(events.departure[events.seq == 0])[-1])
    return events, horizon, fault_time


class TestWindowedEstimator:
    @pytest.fixture(scope="class")
    def windows(self):
        events, horizon, fault_time = simulate_with_degradation(seed=13)
        trace = TaskSampling(fraction=0.25).observe(events, random_state=1)
        results = run_windows(
            trace, 2, window=horizon / 8, stem_iterations=30,
            min_observed_tasks=3,
        )
        return results, horizon, fault_time

    def test_windows_cover_horizon(self, windows):
        results, horizon, _ = windows
        assert results[0].t_start == 0.0
        assert results[-1].t_end >= horizon

    def test_most_windows_estimate(self, windows):
        results, _, _ = windows
        ok = [w for w in results if w.ok]
        assert len(ok) >= len(results) - 2

    def test_degradation_visible_in_series(self, windows):
        results, _, fault_time = windows
        before = [w.mean_service(1) for w in results if w.ok and w.t_end <= fault_time]
        after = [w.mean_service(1) for w in results if w.ok and w.t_start >= fault_time]
        assert before and after
        # Mean service at q1 quadruples after the fault.
        assert np.median(after) > 2.0 * np.median(before)

    def test_healthy_queue_stable(self, windows):
        results, _, fault_time = windows
        before = [w.mean_service(2) for w in results if w.ok and w.t_end <= fault_time]
        after = [w.mean_service(2) for w in results if w.ok and w.t_start >= fault_time]
        assert np.median(after) < 2.0 * np.median(before)

    def test_validation(self):
        with pytest.raises(InferenceError, match="window must be positive"):
            EstimatorConfig(window=-1.0)
        with pytest.raises(InferenceError, match="step must be positive"):
            EstimatorConfig(window=1.0, step=0.0)
        with pytest.raises(InferenceError, match="at least one shard"):
            EstimatorConfig(window=1.0, shards=0)
        # A config error, not "all windows failed".
        with pytest.raises(InferenceError, match="at least one StEM iteration"):
            EstimatorConfig(window=1.0, stem_iterations=0)

    def test_sharded_windows_estimate(self, tandem_trace):
        """Sharded per-window StEM runs end to end; tiny windows clamp the
        shard count to their task count automatically."""
        horizon = float(np.nanmax(tandem_trace.skeleton.departure))
        results = run_windows(
            tandem_trace, 9, window=horizon / 2, stem_iterations=15, shards=3,
        )
        assert any(w.ok for w in results)
        for w in results:
            if w.ok:
                assert np.all(np.isfinite(w.rates))


def synthetic_single_queue_trace(entries, service=0.4):
    """A fully observed single-queue trace with exact, known entry times."""
    from repro.events import EventSet
    from repro.observation import ObservedTrace

    arrivals, departures, last_dep = [], [], 0.0
    for e in entries:
        begin = max(e, last_dep)
        last_dep = begin + service
        arrivals.append([e])
        departures.append([last_dep])
    events = EventSet.from_task_paths(
        entries=entries, paths=[[1]] * len(entries),
        arrivals=arrivals, departures=departures, n_queues=2,
    )
    return ObservedTrace.from_ground_truth(
        events,
        arrival_observed=np.ones(events.n_events, dtype=bool),
        departure_observed=events.pi_inv == -1,
    )


class TestWindowedEdgeCases:
    def test_task_entering_exactly_at_horizon_with_tumbling_windows(self):
        """When the horizon is an exact multiple of the step, the window
        predicate ``t0 <= t < t1`` leaves the horizon task in no window,
        and the grid stops short of a window starting at the horizon."""
        trace = synthetic_single_queue_trace([0.0, 1.0, 2.0, 3.0, 4.0])
        results = run_windows(trace, 0, window=2.0, min_observed_tasks=10**6)
        assert [(w.t_start, w.t_end) for w in results] == [(0.0, 2.0), (2.0, 4.0)]
        assert [w.n_tasks for w in results] == [2, 2]  # entry 4.0 in neither

    def test_task_at_horizon_included_when_windows_overhang(self):
        trace = synthetic_single_queue_trace([0.0, 1.0, 2.0, 3.0, 4.0])
        results = run_windows(
            trace, 0, window=3.0, step=2.0, min_observed_tasks=10**6
        )
        assert [(w.t_start, w.t_end) for w in results] == [(0.0, 3.0), (2.0, 5.0)]
        assert [w.n_tasks for w in results] == [3, 3]  # 4.0 lands in [2, 5)

    def test_overlapping_windows_cover_every_task_multiply(self):
        trace = synthetic_single_queue_trace([float(i) for i in range(8)])
        results = run_windows(
            trace, 0, window=4.0, step=2.0, min_observed_tasks=10**6
        )
        starts = [w.t_start for w in results]
        assert starts == [0.0, 2.0, 4.0, 6.0]
        # step < window: interior tasks are counted by two windows each.
        assert [w.n_tasks for w in results] == [4, 4, 4, 2]
        assert sum(w.n_tasks for w in results) > trace.skeleton.n_tasks

    def test_all_windows_skipped_path(self):
        trace = synthetic_single_queue_trace([0.0, 1.0, 2.0, 3.0])
        results = run_windows(trace, 0, window=2.0, min_observed_tasks=10**6)
        assert results and all(not w.ok for w in results)
        assert all(w.rates is None and w.failure is None for w in results)
        assert detect_anomalies(results) == []


class TestWindowedFailureHandling:
    """The `except Exception` bugfix: only InferenceError is window data."""

    def test_streaming_failure_handling_matches(self, tandem_trace, monkeypatch):
        import repro.online.streaming as streaming

        def boom(*args, **kwargs):
            raise InferenceError("stream window exploded")

        monkeypatch.setattr(streaming, "run_stem", boom)
        horizon = float(np.nanmax(tandem_trace.skeleton.departure))
        results = StreamingEstimator(
            ReplayTraceStream(tandem_trace), random_state=3,
            config=EstimatorConfig(
                window=horizon / 2, stem_iterations=5, min_observed_tasks=1,
            ),
        ).run()
        attempted = [w for w in results if w.failure is not None]
        assert attempted
        assert all(w.failure == "stream window exploded" for w in attempted)

        monkeypatch.setattr(
            streaming, "run_stem",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("bug")),
        )
        with pytest.raises(ValueError, match="bug"):
            StreamingEstimator(
                ReplayTraceStream(tandem_trace), random_state=3,
                config=EstimatorConfig(
                    window=horizon / 2, stem_iterations=5,
                    min_observed_tasks=1,
                ),
            ).run()


class TestAnomalyDetection:
    def test_fault_flagged_on_right_queue(self):
        events, horizon, fault_time = simulate_with_degradation(seed=29)
        trace = TaskSampling(fraction=0.25).observe(events, random_state=3)
        windows = run_windows(
            trace, 4, window=horizon / 8, stem_iterations=30
        )
        reports = detect_anomalies(windows, threshold=4.0)
        assert reports, "the injected degradation was not detected"
        flagged_queues = {r.queue for r in reports}
        assert 1 in flagged_queues
        # The first flag lands at or after the fault.
        first = min(
            (r for r in reports if r.queue == 1), key=lambda r: r.window_index
        )
        assert first.t_end >= fault_time * 0.8

    def test_no_flags_on_healthy_trace(self, tandem_sim):
        trace = TaskSampling(fraction=0.3).observe(tandem_sim.events, random_state=5)
        horizon = float(np.nanmax(tandem_sim.events.departure))
        windows = run_windows(
            trace, 6, window=horizon / 5, stem_iterations=30
        )
        reports = detect_anomalies(windows, threshold=6.0)
        assert reports == []

    def test_empty_windows(self):
        assert detect_anomalies([]) == []

    def test_threshold_validation(self):
        with pytest.raises(InferenceError):
            detect_anomalies([], threshold=0.0)
        with pytest.raises(InferenceError):
            detect_anomalies([], min_scale_frac=-0.1)


def _window(i, service, ok=True, n_queues=3):
    """A synthetic WindowEstimate with queue 1's mean service = *service*."""
    from repro.online.windowed import WindowEstimate

    rates = None
    if ok:
        rates = np.array([4.0] + [1.0 / service] + [10.0] * (n_queues - 2))
    return WindowEstimate(
        t_start=float(i), t_end=float(i + 1), n_tasks=20, n_observed_tasks=10,
        rates=rates,
    )


class TestAnomalyDetectionBranches:
    """Unit coverage of detect_anomalies' warm-up and noise-floor branches."""

    def test_no_flags_while_history_shorter_than_min_history(self):
        # A huge jump inside the warm-up must not be judged: with
        # min_history=3, windows 0-2 build history and only window 3+ can
        # flag.  Failed windows (ok=False) must not count as history.
        windows = [
            _window(0, 1.0),
            _window(1, ok=False, service=0.0),
            _window(2, 50.0),   # only 1 earlier success -> warm-up
            _window(3, 1.0),    # 2 earlier successes    -> warm-up
            _window(4, 60.0),   # 3 earlier successes    -> judged, flagged
        ]
        reports = detect_anomalies(windows, queues=[1], threshold=4.0,
                                   min_history=3)
        assert [r.window_index for r in reports] == [4]
        # With a warm-up longer than the series, nothing is ever judged.
        assert detect_anomalies(windows, queues=[1], min_history=10) == []

    def test_judgment_starts_exactly_at_min_history(self):
        windows = [_window(i, 1.0) for i in range(3)] + [_window(3, 30.0)]
        assert detect_anomalies(windows, queues=[1], min_history=3)
        assert detect_anomalies(windows, queues=[1], min_history=4) == []

    def test_mad_noise_floor_suppresses_estimator_jitter(self):
        # Near-identical history -> MAD ~ 0.  Without the noise floor the
        # z-score of ordinary ~20% jitter would explode; the floor clamps
        # the scale to min_scale_frac * baseline and keeps it quiet.
        windows = [
            _window(0, 1.0), _window(1, 1.0 + 1e-9), _window(2, 1.0 - 1e-9),
            _window(3, 1.25),
        ]
        assert detect_anomalies(windows, queues=[1], threshold=4.0,
                                min_scale_frac=0.1) == []
        # Dropping the floor exposes the raw-MAD behaviour (the 1e-3
        # relative fallback is the only remaining guard): now flagged.
        reports = detect_anomalies(windows, queues=[1], threshold=4.0,
                                   min_scale_frac=0.0)
        assert [r.window_index for r in reports] == [3]
        assert abs(reports[0].z_score) >= 4.0

    def test_every_window_at_noise_floor_real_shift_still_flags(self):
        # The floor must not mask a genuine regime change: a 3x shift is
        # ~20 floor-scaled sigmas.
        windows = [_window(i, 1.0) for i in range(4)] + [_window(4, 3.0)]
        reports = detect_anomalies(windows, queues=[1], threshold=4.0,
                                   min_scale_frac=0.1)
        assert [r.window_index for r in reports] == [4]
        report = reports[0]
        assert report.baseline == pytest.approx(1.0)
        # Scale was the clamped floor, 0.1 * baseline.
        assert report.z_score == pytest.approx((3.0 - 1.0) / 0.1, rel=1e-6)
