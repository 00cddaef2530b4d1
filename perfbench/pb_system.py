"""The system process of one benchmark launch.

``run.py`` starts ``python3 perfbench/pb_system.py <config-json>`` with
``src`` on ``PYTHONPATH`` and talks to it over stdin/stdout: the process
prints ``PB {"event": ...}`` lines (``ready``, ``done``, ``error``) and
reads one command per line (``go`` / ``finish`` / ``exit``).

* ``offline`` builds the observed trace from the events file and, on
  ``go``, solves it with ``run_stem`` repeatedly.
* ``live`` builds a ``LiveTraceStream``, the named estimator, an
  ``EstimatorService`` with checkpoints and a ``LiveServer``; the
  benchmark then drives it over the wire.  On ``finish`` (sent after the
  seal) it waits for the service to publish every window and reports
  what was published.

With ``"trace": true`` the span wrappers of :mod:`pb_spans` are installed
before anything is built, and the spans are written to ``spans_path``
on ``exit``.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

#: Shared secret of the benchmark's live connections.
AUTHKEY = b"perfbench"


def emit(event: str, **payload) -> None:
    sys.stdout.write("PB " + json.dumps({"event": event, **payload}) + "\n")
    sys.stdout.flush()


def command() -> str:
    return sys.stdin.readline().strip()


def run_offline(config: dict) -> None:
    from repro.events.serialization import load_jsonl
    from repro.inference import stem
    from repro.observation import TaskSampling

    events = load_jsonl(config["events_path"])
    trace = TaskSampling(fraction=config["observed"]).observe(
        events, random_state=config["observe_seed"]
    )
    emit("ready")
    if command() != "go":
        return
    solves = []
    for _ in range(config["solves"]):
        start = time.perf_counter()
        try:
            result = stem.run_stem(
                trace,
                n_iterations=config["iterations"],
                random_state=config["stem_seed"],
            )
        except Exception as exc:  # noqa: BLE001 — counted as a failed solve
            solves.append({"seconds": time.perf_counter() - start,
                           "rates": None, "error": repr(exc)})
            continue
        solves.append({"seconds": time.perf_counter() - start,
                       "rates": result.rates.tolist(), "error": None})
    emit("done", solves=solves)
    command()  # "exit": the benchmark reads /proc before this returns


def run_live(config: dict) -> None:
    from repro.live import EstimatorService, LiveServer, LiveTraceStream
    from repro.live.service import estimate_to_record
    from repro.online import EstimatorConfig, get_estimator

    stream = LiveTraceStream(n_queues=config["n_queues"], retain=config["retain"])
    estimator = get_estimator(config["estimator"])(
        stream,
        random_state=config["seed"],
        config=EstimatorConfig(**config["estimator_config"]),
    )
    service = EstimatorService(estimator, checkpoint_path=config["checkpoint_path"])
    with service, LiveServer(service, authkey=AUTHKEY) as server:
        emit("ready", port=server.address[1])
        if command() != "finish":
            return
        service.join(timeout=config["finish_timeout_s"])
        health = service.health()
        windows = service.windows()
        emit(
            "done",
            status=health["service"]["status"],
            error=health["service"]["error"],
            stream=health["stream"],
            server=server.stats(),
            published_at=list(service.published_at),
            publish_latency=list(service.publish_latency),
            windows=[estimate_to_record(w, i) for i, w in enumerate(windows)],
            checkpoint_bytes=service.last_checkpoint_bytes,
        )
        command()  # "exit"; the benchmark may query metrics until then


def main() -> int:
    config = json.loads(sys.argv[1])
    tracer = None
    if config["trace"]:
        import pb_spans

        tracer = pb_spans.Tracer()
        pb_spans.install(tracer)
    try:
        if config["kind"] == "offline":
            run_offline(config)
        else:
            run_live(config)
    except Exception:  # noqa: BLE001 — reported to the benchmark, then exit 1
        emit("error", message=traceback.format_exc())
        return 1
    if tracer is not None:
        with open(config["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
