"""Pluggable master↔worker message transports for the persistent pools.

Every worker pool in this package (:class:`~repro.inference.pool.PersistentChainPool`,
:class:`~repro.inference.shard.ShardWorkerPool`) speaks a tiny
request/reply protocol over a duplex *endpoint*: ``send(obj)``,
``recv() -> obj``, ``close()``.  Historically that endpoint was hardwired
to :func:`multiprocessing.Pipe`; this module factors it behind a
transport interface so the *same* worker functions — and therefore the
same algorithms, byte for byte — can run over any medium:

* :class:`PipeTransport` — the original design: a local daemon process
  per worker, connected by an OS pipe.  Zero configuration, lowest
  latency; the default everywhere.
* :class:`SocketTransport` — workers connect back to the master over TCP
  and *everything* (worker entry point, payload, every protocol message)
  crosses the socket as length-prefixed pickle frames.  By default the
  transport also spawns the worker processes locally, which makes the
  loopback path a complete integration test of the wire protocol; a
  remote machine instead runs :func:`serve_worker` pointed at the
  master's advertised address (``spawn_local=False``) and joins the pool
  with no algorithm changes — the isolate-first-then-share boundary
  the shard protocol already enforces (only boundary-region times and
  per-queue statistics cross the interface) is exactly what makes the
  swap mechanical.

Determinism is untouched by construction: a worker's draws are a pure
function of its shipped payload (recipes / shard residents carry their
own random streams), never of the medium that delivered it, so pipe and
socket runs of the same pool are bitwise identical —
``tests/inference/test_transport.py`` pins this.
"""

from __future__ import annotations

import hmac
import multiprocessing
import os
import pickle
import socket
import struct
import time
from dataclasses import dataclass

from repro.errors import InferenceError

#: Frame header: big-endian u64 payload length.
_HEADER = struct.Struct(">Q")

#: Byte length of handshake nonces and HMAC-SHA256 digests.
_NONCE_LEN = 32


def _recv_exact_from(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise EOFError("socket closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _hmac_digest(authkey: bytes, label: bytes, nonce: bytes) -> bytes:
    return hmac.new(authkey, label + nonce, digestmod="sha256").digest()


def _master_handshake(sock: socket.socket, authkey: bytes) -> bool:
    """Mutually authenticate a dialing worker before any pickle crosses.

    Both directions matter: the master must not unpickle frames from an
    unauthenticated connector (``pickle.loads`` on attacker bytes is
    arbitrary code execution), and the worker must not accept a
    ``worker_main`` from a rogue master.  Raw fixed-length byte exchanges
    only — no pickle until both sides proved knowledge of the key.
    """
    m_nonce = os.urandom(_NONCE_LEN)
    sock.sendall(m_nonce)
    reply = _recv_exact_from(sock, 2 * _NONCE_LEN)
    digest, w_nonce = reply[:_NONCE_LEN], reply[_NONCE_LEN:]
    if not hmac.compare_digest(digest, _hmac_digest(authkey, b"worker", m_nonce)):
        return False
    sock.sendall(_hmac_digest(authkey, b"master", w_nonce))
    return True


def _worker_handshake(sock: socket.socket, authkey: bytes) -> bool:
    """The worker-side mirror of :func:`_master_handshake`."""
    m_nonce = _recv_exact_from(sock, _NONCE_LEN)
    w_nonce = os.urandom(_NONCE_LEN)
    sock.sendall(_hmac_digest(authkey, b"worker", m_nonce) + w_nonce)
    digest = _recv_exact_from(sock, _NONCE_LEN)
    return hmac.compare_digest(digest, _hmac_digest(authkey, b"master", w_nonce))


@dataclass
class WorkerHandle:
    """One launched worker: its message endpoint plus (maybe) its process.

    ``process`` is ``None`` for workers the master did not spawn (a remote
    :func:`serve_worker` peer); lifecycle calls degrade to no-ops there —
    the pool can only close the conversation, not the remote host.
    """

    endpoint: object
    process: object | None = None

    def send(self, obj) -> None:
        """Ship one protocol message to the worker."""
        self.endpoint.send(obj)

    def recv(self):
        """Block for the worker's next reply."""
        return self.endpoint.recv()

    def close_endpoint(self) -> None:
        """Close the message channel; never raises."""
        try:
            self.endpoint.close()
        except OSError:
            pass

    def join(self, timeout: float | None = None) -> None:
        """Wait for a locally spawned worker process to exit."""
        if self.process is not None:
            self.process.join(timeout)

    def is_alive(self) -> bool:
        """Whether a locally spawned worker process is still running."""
        return self.process is not None and self.process.is_alive()

    def terminate(self) -> None:
        """Forcibly stop a locally spawned worker process."""
        if self.process is not None:
            self.process.terminate()


class WorkerTransport:
    """Interface every transport implements.

    :meth:`launch` starts (or admits) one worker running *worker_main*
    over *payload* and returns its :class:`WorkerHandle`.  Pools never
    construct processes or connections themselves — swapping the
    transport swaps the whole worker substrate.
    """

    #: Human-readable tag used in error messages.
    label = "abstract"

    def launch(self, worker_main, payload) -> WorkerHandle:
        """Start one worker; must deliver ``worker_main(endpoint, payload)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport-owned resources (listeners); idempotent."""

    def __enter__(self) -> "WorkerTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class PipeTransport(WorkerTransport):
    """Local daemon processes over :func:`multiprocessing.Pipe` (default)."""

    label = "pipe"

    def launch(self, worker_main, payload) -> WorkerHandle:
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main, args=(child_conn, payload), daemon=True
        )
        proc.start()
        child_conn.close()
        return WorkerHandle(endpoint=parent_conn, process=proc)


def _tune_tcp(sock: socket.socket) -> None:
    """Detect silently dead peers, and send small frames without delay.

    Protocol waits between sweeps are legitimately long, so a timeout
    would be wrong; TCP keepalive probes instead turn a vanished peer
    into a connection reset, which surfaces through the endpoints as the
    :class:`EOFError`/:class:`OSError` the pools already handle.

    ``TCP_NODELAY``: a frame leaves in two writes, and with Nagle on the
    payload waits for the header's ACK, which the peer delays — tens of
    milliseconds on every request/reply round trip.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for opt, value in (
        ("TCP_KEEPIDLE", 60),   # first probe after 60s idle
        ("TCP_KEEPINTVL", 15),  # then every 15s
        ("TCP_KEEPCNT", 4),     # give up after 4 misses
    ):
        if hasattr(socket, opt):
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, opt), value)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class SocketEndpoint:
    """Length-prefixed pickle frames over a stream socket.

    Mirrors the :class:`multiprocessing.connection.Connection` subset the
    worker protocol uses (``send``/``recv``/``close``), raising
    :class:`EOFError` on a peer that vanished mid-conversation — the same
    signal the pools already translate into a clean shutdown.  Keepalive
    probes are enabled so a peer that dies without a FIN (machine loss,
    network partition) eventually errors out instead of wedging a
    blocking ``recv`` forever; Nagle is off (see :func:`_tune_tcp`).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        try:
            _tune_tcp(sock)
        except OSError:  # not a TCP socket (tests use socketpair) — fine
            pass

    def send(self, obj) -> None:
        """Pickle *obj* and write it as one ``[length][payload]`` frame.

        Header and payload go out in separate ``sendall`` calls so a
        multi-megabyte frame (a full shard resident) is never copied a
        second time just to prepend eight bytes.
        """
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._sock.sendall(_HEADER.pack(len(data)))
        self._sock.sendall(data)

    def recv(self):
        """Read one frame and unpickle it; :class:`EOFError` if the peer closed.

        A frame that fails to unpickle (a peer running skewed package
        versions) also surfaces as :class:`EOFError`: the conversation is
        unusable either way, and the pools' dead-connection handling —
        close everything, raise :class:`~repro.errors.InferenceError` —
        is exactly the right response to both.
        """
        (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size))
        data = self._recv_exact(length)
        try:
            return pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 — any load failure kills the conversation
            raise EOFError(f"undecodable frame from peer: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        return _recv_exact_from(self._sock, n)

    def close(self) -> None:
        """Shut down and close the underlying socket; never raises.

        ``shutdown(SHUT_RDWR)`` comes first because a bare ``close()``
        does not reliably wake another thread blocked in ``recv`` on the
        same socket (Linux keeps the file description alive until its
        last user drops it, so the blocked reader sleeps on).  The
        shutdown sends the FIN and fails every pending ``recv`` with
        :class:`EOFError`/:class:`OSError` immediately — which is what
        lets a server drop an idle connection without waiting out a join
        timeout per handler thread.
        """
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected (peer closed first) — fine
        try:
            self._sock.close()
        except OSError:
            pass


def serve_worker(
    address: tuple[str, int], authkey: bytes, handshake_timeout: float = 30.0
) -> None:
    """Join a :class:`SocketTransport` pool from anywhere.

    Connects to the master's advertised *address*, proves knowledge of
    the shared *authkey* (and demands the same proof back — a worker
    must not run a ``worker_main`` shipped by a rogue master), then
    receives the worker entry point and its payload as the first frame
    and serves the protocol until the master hangs up.  This is the
    whole cross-machine story: a remote host runs exactly this function
    with the pool's key — the algorithm code it executes is the same
    module-level worker the pipe transport forks.

    *handshake_timeout* bounds the handshake and the first frame, so a
    master that dies mid-setup leaves no wedged worker behind; once the
    payload has arrived the socket reverts to blocking (protocol waits
    between sweeps are legitimately long).
    """
    sock = socket.create_connection(address, timeout=handshake_timeout)
    try:
        authenticated = _worker_handshake(sock, authkey)
    except (EOFError, OSError) as exc:
        sock.close()
        raise InferenceError(
            f"master at {address} closed the connection during the handshake "
            f"({exc}) — wrong authkey on one side (a master drops connectors "
            "that fail its challenge), a truncated hello, or a master that "
            "died mid-setup"
        ) from None
    if not authenticated:
        sock.close()
        raise InferenceError(
            f"handshake with {address} failed: wrong authkey, or the peer "
            "is not this pool's master"
        )
    endpoint = SocketEndpoint(sock)
    try:
        worker_main, payload = endpoint.recv()
    except (EOFError, OSError) as exc:
        endpoint.close()
        raise InferenceError(
            f"master at {address} hung up before shipping a payload ({exc})"
        ) from None
    sock.settimeout(None)
    worker_main(endpoint, payload)


def _local_socket_worker(address: tuple[str, int], authkey: bytes) -> None:
    """Entry point of a locally spawned socket worker (fork target)."""
    serve_worker(address, authkey)


class SocketTransport(WorkerTransport):
    """Workers over TCP: every message is a length-prefixed pickle frame.

    Parameters
    ----------
    host / port:
        Listen address for worker connections; port 0 (default) picks a
        free port — read it back from :attr:`address`.
    accept_timeout:
        Seconds to wait for a worker to dial in before
        :class:`~repro.errors.InferenceError` (a worker that died before
        connecting must not hang the master).
    spawn_local:
        ``True`` (default) spawns a local process per :meth:`launch` that
        runs :func:`serve_worker` against :attr:`address` — the loopback
        integration mode.  ``False`` spawns nothing and waits for an
        externally started :func:`serve_worker` (a remote machine) to
        connect.
    authkey:
        Shared secret for the mutual HMAC handshake every connection must
        pass before any pickle frame is exchanged (frames are unpickled,
        so an unauthenticated peer would mean arbitrary code execution —
        the same threat :mod:`multiprocessing.connection` guards with its
        challenge).  Defaults to a fresh random key, which locally
        spawned workers inherit automatically; remote deployments pass
        the same key to :func:`serve_worker`.
    """

    label = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        accept_timeout: float = 30.0,
        spawn_local: bool = True,
        authkey: bytes | None = None,
    ) -> None:
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(float(accept_timeout))
        self.spawn_local = bool(spawn_local)
        self.accept_timeout = float(accept_timeout)
        #: The shared handshake secret; hand to remote :func:`serve_worker`.
        self.authkey: bytes = authkey if authkey is not None else os.urandom(32)
        #: The ``(host, port)`` workers dial; pass to :func:`serve_worker`.
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        #: Connections dropped for failing the handshake, across every
        #: :meth:`launch` — a nonzero value with a "no worker connected"
        #: error means a key mismatch, not a dead worker host.
        self.n_rejected: int = 0

    def launch(self, worker_main, payload) -> WorkerHandle:
        proc = None
        if self.spawn_local:
            ctx = multiprocessing.get_context()
            proc = ctx.Process(
                target=_local_socket_worker,
                args=(self.address, self.authkey),
                daemon=True,
            )
            proc.start()
        # One deadline for the whole attempt: impostor connections are
        # dropped without restarting the clock, so a peer hammering the
        # port cannot keep launch() blocked past accept_timeout.
        deadline = time.monotonic() + self.accept_timeout
        n_rejected = 0

        def _no_worker(exc: Exception) -> InferenceError:
            if proc is not None:
                proc.terminate()
            # Say what actually happened: "nobody dialed in" and
            # "someone dialed in but failed the handshake" need very
            # different fixes (dead worker host vs. skewed authkey).
            detail = (
                f"; {n_rejected} connection(s) arrived but failed the "
                "HMAC handshake — wrong authkey on one side, or a "
                "peer that closed mid-hello"
                if n_rejected
                else ""
            )
            return InferenceError(
                f"no worker connected to {self.address} within the accept "
                f"timeout ({exc}){detail}"
            )

        while True:
            remaining = deadline - time.monotonic()
            if proc is not None and not proc.is_alive():
                # The locally spawned worker died before dialing in (an
                # import error in the fork target, an OOM kill): its exit
                # code says more than any timeout, and waiting out the
                # rest of the accept window would only delay the caller's
                # recovery path.
                proc.join()
                raise InferenceError(
                    f"locally spawned worker exited with code "
                    f"{proc.exitcode} before connecting to {self.address} — "
                    "it never reached the handshake (crash during startup)"
                )
            try:
                if remaining <= 0.0:
                    raise socket.timeout("authentication deadline passed")
                # Wake up at least every 100 ms to re-check the spawned
                # process, so a child that crashes before dialing in fails
                # the launch promptly instead of after accept_timeout.
                self._listener.settimeout(
                    min(remaining, 0.1) if proc is not None else remaining
                )
                conn, _ = self._listener.accept()
            except socket.timeout as exc:
                if proc is not None and time.monotonic() < deadline:
                    continue  # short poll tick, not the real deadline
                raise _no_worker(exc) from None
            except OSError as exc:
                raise _no_worker(exc) from None
            # Authenticate before any pickle crosses; an impostor's
            # connection is dropped and we keep waiting for the real
            # worker until the deadline ends the attempt.
            conn.settimeout(max(deadline - time.monotonic(), 0.001))
            try:
                authenticated = _master_handshake(conn, self.authkey)
            except (EOFError, OSError):
                authenticated = False
            if authenticated:
                conn.settimeout(None)
                break
            n_rejected += 1
            self.n_rejected += 1
            try:
                conn.close()
            except OSError:
                pass
        endpoint = SocketEndpoint(conn)
        # The worker entry point and its payload cross the wire too, so a
        # remote peer needs nothing beyond the installed package.
        endpoint.send((worker_main, payload))
        return WorkerHandle(endpoint=endpoint, process=proc)

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
