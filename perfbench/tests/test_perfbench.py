"""Self-tests of the benchmark's own rules.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.  The
tests marked ``slow`` run each workload end to end at a tiny size.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import pb_inputs  # noqa: E402
import pb_stats  # noqa: E402
import run as bench  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles carry their sample counts.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 20, 40, 100, 401])
def test_tail_has_ten_samples_beyond_it(n):
    values = [float(v) for v in range(n)]
    value, pct, count = pb_stats.tail(reversed(values))
    assert count == n
    assert sum(v > value for v in values) == pb_stats.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - 10) / n)


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_no_tail_without_enough_samples(n):
    with pytest.raises(ValueError):
        pb_stats.tail(range(n))
    summary = pb_stats.timing_summary(range(n))
    assert summary["n"] == n
    assert summary["tail"] == 0.0 and summary["tail_pct"] == 0.0


def test_every_layer_timing_reports_its_count():
    names = bench.per_layer_names()
    for timing in bench.LAYER_TIMINGS:
        assert names[f"{timing}.p50"] == "ms"
        assert names[f"{timing}.tail"] == "ms"
        assert names[f"{timing}.n"] == "count"
    empty = {"spans": [], "live": None}
    metrics = bench.layer_metrics(empty)
    assert set(metrics) | {f"overhead.{m}" for m in bench.UNIVERSAL} == set(names)
    for timing in bench.LAYER_TIMINGS:
        assert metrics[f"{timing}.n"] == 0.0
        assert metrics[f"{timing}.tail"] == 0.0


# ----------------------------------------------------------------------
# No metric is reported twice under two names.
# ----------------------------------------------------------------------


def test_copies_are_found_across_units():
    assert pb_stats.find_copies({"solve_s": 1.25, "solve_ms": 1250.0}) == [
        ("solve_ms", "solve_s")
    ]
    assert pb_stats.find_copies({"a": 1.0, "b": 1.0, "c": 2.0}) == [("a", "b")]
    assert pb_stats.find_copies({"a": 1.0, "b": 1.5}) == []


# ----------------------------------------------------------------------
# An open loop that falls behind is invalid, not slow.
# ----------------------------------------------------------------------


def test_steady_paced_run_is_valid():
    lateness = [0.001, 0.002, 0.001, 0.003] * 10
    backlog = [0, 1, 0, 0] * 10
    assert pb_stats.paced_validity(lateness, backlog, 0.5) == []


def test_growing_lateness_is_invalid():
    lateness = [0.005 * k for k in range(40)]  # 0 -> 195 ms behind
    reasons = pb_stats.paced_validity(lateness, [0] * 40, 0.5)
    assert any("lateness grew" in r for r in reasons)


def test_lateness_of_a_whole_interval_is_invalid():
    lateness = [0.001] * 39 + [0.6]
    assert pb_stats.paced_validity(lateness, [0] * 40, 0.5)


def test_growing_backlog_is_invalid():
    backlog = [k // 4 for k in range(40)]
    reasons = pb_stats.paced_validity([0.001] * 40, backlog, 0.5)
    assert any("backlog grew" in r for r in reasons)


# ----------------------------------------------------------------------
# The generator: one thread, one connection.
# ----------------------------------------------------------------------


class RecordingClient:
    """Stands in for ``LiveClient``; notes the thread count per call."""

    def __init__(self):
        self.calls = []

    def _note(self, name, *args):
        self.calls.append((name, threading.active_count(),
                           threading.get_ident()))

    def advance_watermark(self, t):
        self._note("watermark", t)

    def ingest(self, records):
        self._note("ingest", len(records))

    def seal(self):
        self._note("seal")


@pytest.mark.parametrize("interval_s", [None, 0.01])
def test_generator_uses_one_thread_and_no_other_connection(monkeypatch, interval_s):
    def no_new_connections(*args, **kwargs):
        raise AssertionError("the generator opened a connection of its own")

    monkeypatch.setattr(socket, "create_connection", no_new_connections)
    monkeypatch.setattr(socket.socket, "connect", no_new_connections)
    flushes = [(float(k), [{"task": k}] * 3) for k in range(8)]
    client = RecordingClient()
    baseline = threading.active_count()
    log = bench.drive(client, flushes, interval_s, frame_bytes=True)
    assert [c[0] for c in client.calls] == ["watermark", "ingest"] * 8 + ["seal"]
    assert {c[1] for c in client.calls} == {baseline}
    assert {c[2] for c in client.calls} == {threading.get_ident()}
    assert len(log["ingest_rtt"]) == len(log["watermark_rtt"]) == 8
    assert not log["errors"]


# ----------------------------------------------------------------------
# The seed moves the inputs and nothing else.
# ----------------------------------------------------------------------


def _settings(inputs: dict) -> dict:
    """Everything an input function returns except what the seed may move."""
    system = dict(inputs.get("system", {}))
    system.pop("seed", None)
    return {
        "system": system,
        "interval_s": inputs.get("interval_s"),
        "n_flushes": len(inputs.get("flushes", ())),
        "scalars": {k: v for k, v in inputs.items()
                    if isinstance(v, (int, float, str)) and not k.endswith("seed")},
    }


@pytest.mark.parametrize("make_inputs", [pb_inputs.paced_inputs,
                                     pb_inputs.backfill_inputs])
def test_seed_changes_records_only(make_inputs):
    a1, a2, b = make_inputs(1, 2), make_inputs(1, 2), make_inputs(2, 2)
    assert json.dumps(a1["flushes"]) == json.dumps(a2["flushes"])
    assert a1["system"] == a2["system"]
    assert json.dumps(a1["flushes"]) != json.dumps(b["flushes"])
    assert a1["system"]["seed"] != b["system"]["seed"]
    assert _settings(a1) == _settings(b)


def test_seed_changes_offline_trace_only():
    a1, a2, b = (pb_inputs.offline_inputs(s, 2) for s in (1, 1, 2))
    assert a1["true_means"] == a2["true_means"]
    assert a1["observe_seed"] == a2["observe_seed"]
    assert a1["true_means"] != b["true_means"]
    assert (a1["observe_seed"], a1["stem_seed"]) != (b["observe_seed"], b["stem_seed"])
    assert _settings(a1) == _settings(b)


# ----------------------------------------------------------------------
# End to end, at a tiny size.
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_runs_correct_with_distinct_metrics(workload, capsys):
    assert bench.main(["--workload", workload, "--seed", "3",
                       "--seconds", "4", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(v > 0 for v in values.values())
    assert pb_stats.find_copies(values) == []
