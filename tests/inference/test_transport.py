"""Tests for the pluggable worker transports (pipes vs sockets)."""

import socket
import threading

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.inference import (
    GibbsSampler,
    WarmShardWorkerPool,
    heuristic_initialize,
    run_stem,
)
from repro.inference.transport import (
    PipeTransport,
    SocketEndpoint,
    SocketTransport,
    serve_worker,
)
from repro.network import build_tandem_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network


@pytest.fixture(scope="module")
def transport_setup():
    net = build_tandem_network(4.0, [6.0, 8.0])
    sim = simulate_network(net, n_tasks=160, random_state=23)
    trace = TaskSampling(fraction=0.25).observe(sim.events, random_state=4)
    return sim, trace


def _echo_worker(conn, payload) -> None:
    """Module-level worker (picklable) speaking the pool protocol shape."""
    conn.send(("ready", payload))
    while True:
        msg = conn.recv()
        if msg[0] == "close":
            conn.close()
            return
        conn.send(("ok", {0: msg[1]}))


class TestEndpoints:
    def test_socket_endpoint_roundtrips_numpy_payloads(self):
        a, b = socket.socketpair()
        left, right = SocketEndpoint(a), SocketEndpoint(b)
        payload = {"x": np.arange(5000, dtype=np.int64), "y": ("nested", 1.5)}
        got = {}

        def reader():
            got["value"] = right.recv()

        t = threading.Thread(target=reader)
        t.start()
        left.send(payload)
        t.join(timeout=10.0)
        assert not t.is_alive()
        np.testing.assert_array_equal(got["value"]["x"], payload["x"])
        assert got["value"]["y"] == payload["y"]
        left.close()
        with pytest.raises(EOFError):
            right.recv()
        right.close()

    def test_undecodable_frame_surfaces_as_eoferror(self):
        """A frame that fails to unpickle (version-skewed peer) must hit
        the pools' dead-connection path, not escape as a raw exception."""
        import struct

        a, b = socket.socketpair()
        junk = b"\x80\x05not-a-pickle"
        a.sendall(struct.pack(">Q", len(junk)) + junk)
        endpoint = SocketEndpoint(b)
        with pytest.raises(EOFError, match="undecodable frame"):
            endpoint.recv()
        endpoint.close()
        a.close()

    @pytest.mark.parametrize("transport_cls", [PipeTransport, SocketTransport])
    def test_launch_ready_echo_close(self, transport_cls):
        transport = transport_cls()
        try:
            handle = transport.launch(_echo_worker, ["payload-item"])
            assert handle.recv() == ("ready", ["payload-item"])
            handle.send(("echo", 42))
            assert handle.recv() == ("ok", {0: 42})
            handle.send(("close",))
            handle.join(timeout=10.0)
            assert not handle.is_alive()
            handle.close_endpoint()
        finally:
            transport.close()

    def test_socket_accept_timeout_surfaces_as_inference_error(self):
        transport = SocketTransport(accept_timeout=0.2, spawn_local=False)
        try:
            with pytest.raises(InferenceError, match="no worker connected"):
                transport.launch(_echo_worker, [])
        finally:
            transport.close()

    def test_crashed_local_spawn_fails_fast_with_its_exit_code(self):
        """Regression: a locally spawned worker that died before dialing
        in (import error, OOM kill) used to leave launch() blocked for
        the whole accept window and then report a timeout that looked
        exactly like a network problem.  launch() must notice the dead
        child promptly and name its exit code."""
        import time as _time

        transport = SocketTransport(accept_timeout=20.0)
        # Point spawned workers at a dead address: the child's connect()
        # fails immediately and it exits nonzero before any handshake,
        # while the master keeps listening on its real socket.
        probe = socket.create_server(("127.0.0.1", 0))
        dead_address = probe.getsockname()[:2]
        probe.close()
        transport.address = dead_address
        t0 = _time.monotonic()
        try:
            with pytest.raises(
                InferenceError,
                match=r"exited with code .* before connecting",
            ):
                transport.launch(_echo_worker, [])
        finally:
            transport.close()
        # Fast fail: well inside the 20s accept window.
        assert _time.monotonic() - t0 < 10.0

    def test_serve_worker_joins_an_external_master(self):
        """The cross-machine entry point: a thread plays the remote host."""
        transport = SocketTransport(spawn_local=False, authkey=b"shared-secret")
        worker = threading.Thread(
            target=serve_worker,
            args=(transport.address, b"shared-secret"),
            daemon=True,
        )
        worker.start()
        try:
            handle = transport.launch(_echo_worker, ["remote"])
            assert handle.process is None  # nothing spawned locally
            assert handle.recv() == ("ready", ["remote"])
            handle.send(("echo", "hi"))
            assert handle.recv() == ("ok", {0: "hi"})
            handle.send(("close",))
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            handle.close_endpoint()
        finally:
            transport.close()

    def test_unauthenticated_connector_is_rejected(self):
        """A peer without the key never gets a pickle frame: the master
        drops it and keeps waiting for the real worker."""
        transport = SocketTransport(accept_timeout=1.0, spawn_local=False)
        received = {}

        def impostor():
            sock = socket.create_connection(transport.address)
            try:
                sock.recv(64)  # the master's nonce
                sock.sendall(b"\x00" * 64)  # garbage digest + nonce
                received["extra"] = sock.recv(4096)  # master must hang up
            finally:
                sock.close()

        thread = threading.Thread(target=impostor, daemon=True)
        thread.start()
        try:
            with pytest.raises(InferenceError, match="no worker connected"):
                transport.launch(_echo_worker, ["secret payload"])
            thread.join(timeout=10.0)
            assert received.get("extra") == b""  # closed, nothing leaked
        finally:
            transport.close()

    def test_wrong_authkey_is_named_in_the_master_error(self):
        """A key mismatch must be diagnosable from the launch error alone:
        'no worker connected' with zero context used to look exactly like
        a dead worker host."""
        transport = SocketTransport(
            accept_timeout=1.0, spawn_local=False, authkey=b"right-key"
        )
        worker_error = {}

        def mismatched_worker():
            try:
                serve_worker(transport.address, b"wrong-key")
            except InferenceError as exc:
                worker_error["exc"] = exc

        worker = threading.Thread(target=mismatched_worker, daemon=True)
        worker.start()
        try:
            with pytest.raises(
                InferenceError, match="failed the HMAC handshake"
            ):
                transport.launch(_echo_worker, [])
            worker.join(timeout=10.0)
            assert transport.n_rejected == 1
            # ... and the worker side names the same likely cause.
            assert "wrong authkey" in str(worker_error["exc"])
        finally:
            transport.close()

    def test_truncated_hello_is_counted_and_named(self):
        """A peer that closes mid-handshake (crash, wrong protocol) is
        counted as a handshake failure, not reported as silence."""
        transport = SocketTransport(accept_timeout=1.0, spawn_local=False)

        def flaky_peer():
            sock = socket.create_connection(transport.address)
            sock.recv(64)          # master nonce arrives ...
            sock.sendall(b"\x01" * 5)  # ... truncated reply, then vanish
            sock.close()

        thread = threading.Thread(target=flaky_peer, daemon=True)
        thread.start()
        try:
            with pytest.raises(
                InferenceError,
                match=r"no worker connected.*1 connection\(s\) .* failed",
            ):
                transport.launch(_echo_worker, [])
            thread.join(timeout=10.0)
            assert transport.n_rejected == 1
        finally:
            transport.close()

    def test_worker_gets_a_clear_error_for_a_truncated_master_hello(self):
        """The worker side of the same failure: a master that hangs up
        mid-handshake must raise InferenceError, not a bare EOFError."""
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]

        def rude_master():
            conn, _ = listener.accept()
            conn.sendall(b"\x02" * 5)  # truncated nonce, then hang up
            conn.close()

        thread = threading.Thread(target=rude_master, daemon=True)
        thread.start()
        try:
            with pytest.raises(
                InferenceError, match="during the handshake"
            ):
                serve_worker(address, b"any-key", handshake_timeout=5.0)
            thread.join(timeout=10.0)
        finally:
            listener.close()

    def test_worker_refuses_a_rogue_master(self):
        """serve_worker with the wrong key must not run the shipped main,
        and must fail loudly so a misconfiguration is diagnosable."""
        transport = SocketTransport(
            accept_timeout=1.0, spawn_local=False, authkey=b"right-key"
        )
        worker_error = {}

        def run_worker():
            try:
                serve_worker(transport.address, b"wrong-key")
            except InferenceError as exc:
                worker_error["exc"] = exc

        worker = threading.Thread(target=run_worker, daemon=True)
        worker.start()
        try:
            with pytest.raises(InferenceError, match="no worker connected"):
                transport.launch(_echo_worker, [])
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert "exc" in worker_error  # loud failure, not a silent exit
        finally:
            transport.close()


class TestSocketPools:
    def test_sharded_sweeps_identical_over_pipe_and_socket(self, transport_setup):
        """Acceptance: a SocketTransport loopback run matches PipeTransport
        bitwise — the transport carries messages, never touches draws."""
        sim, trace = transport_setup
        rates = sim.true_rates()
        results = {}
        for name, transport in (
            ("pipe", PipeTransport()),
            ("socket", SocketTransport()),
        ):
            state = heuristic_initialize(trace, rates)
            pool = WarmShardWorkerPool(2, transport=transport)
            sampler = GibbsSampler(
                trace, state, rates, random_state=7, shards=2,
                shard_pool=pool,
            )
            try:
                sampler.run(3)
                totals = sampler.service_totals()
                sampler.finish_shards()
                results[name] = (totals, state.arrival.copy(), state.departure.copy())
            finally:
                sampler.close()
                pool.close()
                transport.close()
        np.testing.assert_array_equal(results["pipe"][0], results["socket"][0])
        np.testing.assert_array_equal(results["pipe"][1], results["socket"][1])
        np.testing.assert_array_equal(results["pipe"][2], results["socket"][2])

    def test_run_stem_sharded_over_socket_matches_serial(self, transport_setup):
        """The distributed StEM path keeps its bitwise contract on sockets."""
        sim, trace = transport_setup
        kwargs = dict(n_iterations=20, random_state=13, init_method="heuristic")
        serial = run_stem(trace, shards=2, **kwargs)
        # Drive the socket path through the estimator-facing API: a warm
        # pool over a socket transport hosting one run's shards.
        transport = SocketTransport()
        pool = WarmShardWorkerPool(2, transport=transport)
        try:
            pooled = run_stem(trace, shards=2, shard_pool=pool, **kwargs)
        finally:
            pool.close()
            transport.close()
        np.testing.assert_array_equal(serial.rates_history, pooled.rates_history)
