"""Serialization of event sets to plain records and JSONL files.

Traces are exchanged as one flat record per event — the natural shape for
log shipping from an instrumented system — and reassembled into an
:class:`~repro.events.event_set.EventSet` with pointers rebuilt from the
``(task, seq)`` keys.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

from repro.errors import InvalidEventSetError
from repro.events.event_set import EventSet

#: Fields serialized per event, in column order.
RECORD_FIELDS = ("task", "seq", "queue", "state", "arrival", "departure")

#: Fields of one *incremental* measurement record (see
#: :func:`measurement_record`), the unit of live ingestion.
MEASUREMENT_FIELDS = (
    "task", "seq", "queue", "state", "counter", "arrival", "departure", "last"
)


def measurement_record(
    task: int,
    seq: int,
    queue: int,
    counter: int,
    state: int = -1,
    arrival: float | None = None,
    departure: float | None = None,
    last: bool = False,
) -> dict:
    """One event's measurement as a flat, JSON-serializable record.

    This is the unit an instrumented system ships to a live ingestion
    endpoint (:mod:`repro.live`): the event's identity (``task``/``seq``),
    its queue, and — crucially — the queue's event-**counter** value at
    its arrival, which pins the event's position in the frozen per-queue
    order without revealing any time.  Measured times are optional:
    ``arrival`` is ``None`` for an unmeasured (censored) arrival, and
    ``departure`` is only meaningful on a task's ``last`` event (inner
    departures are identical to the successor's arrival and are
    reconstructed, never shipped).
    """
    for name, value in (
        ("task", task), ("seq", seq), ("queue", queue), ("counter", counter)
    ):
        if isinstance(value, bool):
            raise InvalidEventSetError(f"{name} must be an integer, got {value}")
    if seq < 0:
        raise InvalidEventSetError(f"seq must be >= 0, got {seq}")
    if queue < 0:
        raise InvalidEventSetError(f"queue must be >= 0, got {queue}")
    if counter < 0:
        raise InvalidEventSetError(f"counter must be >= 0, got {counter}")
    if (seq == 0) != (queue == 0):
        raise InvalidEventSetError(
            f"queue 0 and seq 0 identify the initial event together; "
            f"got seq={seq}, queue={queue}"
        )
    if departure is not None and not last:
        raise InvalidEventSetError(
            "only a task's last event carries an independent departure; "
            "inner departures equal the successor's arrival"
        )
    arrival = _measured_time("arrival", arrival)
    departure = _measured_time("departure", departure)
    if arrival is not None and departure is not None and departure < arrival:
        raise InvalidEventSetError(
            f"departure ({departure}) precedes the arrival ({arrival})"
        )
    return {
        "task": int(task),
        "seq": int(seq),
        "queue": int(queue),
        "state": int(state),
        "counter": int(counter),
        "arrival": arrival,
        "departure": departure,
        "last": bool(last),
    }


def _measured_time(name: str, value) -> float | None:
    """A measured time as a float; rejected unless finite and >= 0."""
    if value is None:
        return None
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidEventSetError(f"{name} must be finite and >= 0, got {value}")
    return value


def validate_measurement_record(record: dict) -> dict:
    """Check an inbound record's shape; returns a normalized copy.

    Raises :class:`~repro.errors.InvalidEventSetError` with the missing or
    malformed field named, so a misbehaving reporter is diagnosable from
    the ingestion error alone.
    """
    if not isinstance(record, dict):
        raise InvalidEventSetError(
            f"measurement records are dicts, got {type(record).__name__}"
        )
    missing = [f for f in ("task", "seq", "queue", "counter") if f not in record]
    if missing:
        raise InvalidEventSetError(f"measurement record missing fields: {missing}")
    try:
        return measurement_record(
            task=record["task"],
            seq=record["seq"],
            queue=record["queue"],
            counter=record["counter"],
            state=record.get("state", -1),
            arrival=record.get("arrival"),
            departure=record.get("departure"),
            last=record.get("last", False),
        )
    except (TypeError, ValueError) as exc:
        raise InvalidEventSetError(f"malformed measurement record: {exc}") from None


def event_set_to_records(events: EventSet) -> list[dict]:
    """Flatten an event set into one dict per event (sorted by task, seq)."""
    records = []
    for task_id in events.task_ids:
        for e in events.events_of_task(task_id):
            records.append(
                {
                    "task": int(events.task[e]),
                    "seq": int(events.seq[e]),
                    "queue": int(events.queue[e]),
                    "state": int(events.state[e]),
                    "arrival": float(events.arrival[e]),
                    "departure": float(events.departure[e]),
                }
            )
    return records


def event_set_from_records(records: Iterable[dict], n_queues: int) -> EventSet:
    """Rebuild an event set from per-event records.

    Records may arrive in any order; pointers are reconstructed from the
    ``(task, seq)`` keys and the arrival order at each queue from the times.
    """
    records = list(records)
    if not records:
        raise InvalidEventSetError("no records to build an event set from")
    missing = [f for f in RECORD_FIELDS if f not in records[0] and f != "state"]
    if missing:
        raise InvalidEventSetError(f"records missing fields: {missing}")
    return EventSet.from_arrays(
        task=[r["task"] for r in records],
        seq=[r["seq"] for r in records],
        queue=[r["queue"] for r in records],
        arrival=[r["arrival"] for r in records],
        departure=[r["departure"] for r in records],
        state=[r.get("state", -1) for r in records],
        n_queues=n_queues,
    )


def save_jsonl(events: EventSet, path: str | Path) -> None:
    """Write an event set as JSON-lines with a leading header record."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {"kind": "repro-event-set", "version": 1, "n_queues": events.n_queues}
        fh.write(json.dumps(header) + "\n")
        for record in event_set_to_records(events):
            fh.write(json.dumps(record) + "\n")


def load_jsonl(path: str | Path) -> EventSet:
    """Read an event set written by :func:`save_jsonl`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise InvalidEventSetError(f"{path} is empty")
        header = json.loads(header_line)
        if header.get("kind") != "repro-event-set":
            raise InvalidEventSetError(f"{path} is not a repro event-set file")
        records = [json.loads(line) for line in fh if line.strip()]
    return event_set_from_records(records, n_queues=int(header["n_queues"]))
