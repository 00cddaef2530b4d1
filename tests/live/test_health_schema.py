"""Contract tests for the versioned health schema and the metrics wire
command, parametrized over both serving front-ends (single
EstimatorService behind a LiveServer, and a shared-nothing IngestRouter
tier) so the two can never drift apart.
"""

import json
import time

import numpy as np
import pytest

from repro import telemetry
from repro.live import (
    EstimatorService,
    IngestRouter,
    LiveClient,
    LiveServer,
    LiveTraceStream,
    replay_batches,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.online import EstimatorConfig, StreamingEstimator
from repro.simulate import simulate_network

#: Sections every schema-1 health record must carry.
SECTIONS = ("service", "stream", "workers")


def make_trace(n_tasks=120, seed=3, fraction=0.4):
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=1)
    horizon = float(np.nanmax(sim.events.departure))
    return trace, horizon


def wait_finished(health_fn, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = health_fn()
        if health["service"]["status"] in ("finished", "failed"):
            return health
        time.sleep(0.05)
    raise AssertionError("service did not finish in time")


@pytest.fixture(scope="module")
def service_replies():
    """(health, metrics_fn) from a driven single-service instance."""
    trace, horizon = make_trace()
    with telemetry.isolated(enabled=True):
        stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
        estimator = StreamingEstimator(
            stream, random_state=5,
            config=EstimatorConfig(
                window=horizon / 2, stem_iterations=6, min_observed_tasks=2,
            ),
        )
        service = EstimatorService(estimator, poll_interval=0.02)
        service.start()
        try:
            for watermark, batch in replay_batches(trace, batch_tasks=32):
                service.advance_watermark(watermark)
                service.ingest(batch)
            service.seal()
            health = wait_finished(service.health)
            replies = {
                fmt: service.metrics_report(fmt)
                for fmt in ("snapshot", "json", "prometheus")
            }
        finally:
            service.stop()
    yield health, replies


@pytest.fixture(scope="module")
def router_replies():
    """(health, metrics replies) from a driven two-partition tier."""
    trace, horizon = make_trace()
    config = {
        "n_queues": trace.skeleton.n_queues,
        "window": horizon / 2,
        "stem_iterations": 6,
        "min_observed_tasks": 2,
        "random_state": 5,
        "poll_interval": 0.02,
    }
    with telemetry.isolated(enabled=True):
        with IngestRouter(2, config, block=8) as router:
            for watermark, batch in replay_batches(trace, batch_tasks=32):
                router.advance_watermark(watermark)
                router.ingest(batch)
            router.seal()
            health = wait_finished(router.health)
            replies = {
                fmt: router.metrics_report(fmt)
                for fmt in ("snapshot", "json", "prometheus")
            }
    yield health, replies


@pytest.fixture(scope="module", params=["service", "router"])
def replies(request, service_replies, router_replies):
    if request.param == "service":
        return service_replies
    return router_replies


class TestHealthSchema:
    def test_versioned_and_sectioned(self, replies):
        health, _ = replies
        assert health["schema"] == 1
        for section in SECTIONS:
            assert section in health
            assert health[section] is None or isinstance(
                health[section], dict
            )

    def test_service_section_contract(self, replies):
        health, _ = replies
        service = health["service"]
        for key in ("status", "error", "windows_published", "anomalies",
                    "horizon", "n_records_seen"):
            assert key in service
        assert service["status"] == "finished"
        assert service["windows_published"] >= 1

    def test_stream_section_contract(self, replies):
        health, _ = replies
        stream = health["stream"]
        for key in ("watermark", "sealed", "n_admitted", "n_duplicates",
                    "n_late", "n_stragglers", "n_dropped_tasks",
                    "n_revealed", "n_pending"):
            assert key in stream
        assert stream["sealed"] is True
        assert stream["n_admitted"] > 0


class TestRouterHealthExtras:
    def test_router_section(self, router_replies):
        health, _ = router_replies
        router = health["router"]
        for key in ("n_partitions", "n_records_routed", "n_parked",
                    "n_unroutable", "n_restarts", "spool_records",
                    "restarts_per_partition"):
            assert key in router
        assert router["n_records_routed"] > 0
        assert len(health["partitions"]) == 2

    def test_partitions_are_schema_1(self, router_replies):
        health, _ = router_replies
        for partition in health["partitions"]:
            assert partition["schema"] == 1
            assert partition["service"]["status"] == "finished"


class TestMetricsReplies:
    def test_snapshot_schema(self, replies):
        _, metrics = replies
        snap = metrics["snapshot"]
        assert snap["schema"] == 1
        names = {m["name"] for m in snap["metrics"]}
        assert "repro_window_phase_seconds" in names
        assert "repro_stream_records_admitted_total" in names
        assert "repro_kernel_sweeps_total" in names
        assert "repro_service_windows_published_total" in names
        assert len(snap["window_traces"]) >= 1

    def test_json_parses(self, replies):
        _, metrics = replies
        parsed = json.loads(metrics["json"])
        assert parsed["schema"] == 1
        assert parsed["metrics"]

    def test_prometheus_text(self, replies):
        _, metrics = replies
        text = metrics["prometheus"]
        assert "# TYPE repro_window_phase_seconds histogram" in text
        assert "repro_window_phase_seconds_bucket" in text
        assert "repro_stream_records_admitted_total" in text

    def test_router_partition_provenance(self, router_replies):
        _, metrics = router_replies
        snap = metrics["snapshot"]
        partitions = {
            m["labels"].get("partition")
            for m in snap["metrics"]
        }
        assert {"0", "1"} <= partitions
        assert None in partitions  # the router's own series
        names = {m["name"] for m in snap["metrics"]}
        assert "repro_router_records_routed_total" in names
        text = metrics["prometheus"]
        assert 'partition="0"' in text and 'partition="1"' in text


class TestWireRoundTrip:
    def test_metrics_command_over_tcp(self):
        trace, horizon = make_trace(n_tasks=80)
        with telemetry.isolated(enabled=True):
            stream = LiveTraceStream(n_queues=trace.skeleton.n_queues)
            estimator = StreamingEstimator(
                stream, random_state=5,
                config=EstimatorConfig(
                    window=horizon, stem_iterations=4, min_observed_tasks=2,
                ),
            )
            service = EstimatorService(estimator, poll_interval=0.02)
            with LiveServer(service) as server:
                service.start()
                try:
                    with LiveClient(server.address) as client:
                        for watermark, batch in replay_batches(
                            trace, batch_tasks=32
                        ):
                            client.advance_watermark(watermark)
                            client.ingest(batch)
                        client.seal()
                        wait_finished(client.health)
                        snap = client.metrics("snapshot")
                        assert snap["schema"] == 1
                        assert json.loads(client.metrics("json"))["metrics"]
                        text = client.metrics("prometheus")
                        assert "repro_window_phase_seconds_bucket" in text
                        # The wire layer counts its own dispatches.
                        names = {m["name"] for m in snap["metrics"]}
                        assert "repro_server_requests_total" in names
                finally:
                    service.stop()
