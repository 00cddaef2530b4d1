"""Benchmark-side spans around the public calls of each layer.

The traced run's system process calls :func:`install` before building
anything: it replaces each layer's entry point with a wrapper that
records a span — name, start, end, parent span, window/solve key and a
small note taken from the result — in memory.  Nothing inside ``src/``
is touched; the untraced runs never import this module's wrappers.

Parent/child links come from a per-thread stack, so the service thread,
the server's connection threads and the offline solve loop each nest
their own spans.  A span's self time is its duration minus the
durations of its direct children (children on one thread never overlap).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, key, note]`` per span, in
        #: start order; ``parent_index`` is -1 for a root span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, key=None, note=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *key* maps the call's arguments to a window/solve id; *note* maps
        its result to a small JSON value kept with the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            if key is not None:
                span[4] = key(args)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.inference import gibbs, pool, stem
    from repro.live import service, stream
    from repro.online import smc, streaming

    solve_ids = itertools.count()
    # inference.stem: the offline workload calls it through the module,
    # the streaming estimator through its own imported name.
    for module in (stem, streaming):
        tracer.wrap(module, "run_stem", "stem.solve",
                    key=lambda args: next(solve_ids))
    # inference.init_heuristic / init_lp, behind the shared initializer.
    for module in (pool, smc):
        tracer.wrap(module, "initialize_state", "init")
    # inference.gibbs / inference.kernel: sampler (and kernel) build, sweeps.
    tracer.wrap(gibbs.GibbsSampler, "__init__", "gibbs.build")
    tracer.wrap(gibbs.GibbsSampler, "sweep", "gibbs.sweep",
                note=lambda stats: stats.n_moves)
    # inference.mstep, through the names StEM and SMC call it by.
    for module in (stem, smc):
        tracer.wrap(module, "mle_rates_from_stats", "mstep")
    # online.streaming (SMCEstimator inherits process_window).
    tracer.wrap(
        streaming.StreamingEstimator, "process_window", "streaming.window",
        key=lambda args: args[0].n_windows_done,
        note=lambda est: [
            int(est.n_tasks),
            "ok" if est.rates is not None
            else ("failed" if est.failure is not None else "skipped"),
        ],
    )
    # live.stream (live.records and events assembly run beneath these).
    for method in ("ingest", "poll", "subset", "compact"):
        tracer.wrap(stream.LiveTraceStream, method, f"stream.{method}")
    # live.service: ingest passthrough and per-window publish.
    tracer.wrap(service.EstimatorService, "ingest", "service.ingest")
    tracer.wrap(service.EstimatorService, "_publish", "service.publish")
    # live.server is timed from the client side (see run.py).


def spans_by_name(spans) -> dict[str, list]:
    """Group span records by name."""
    out: dict[str, list] = {}
    for span in spans:
        out.setdefault(span[0], []).append(span)
    return out


def durations_ms(spans) -> list[float]:
    """Wall duration of each span, in milliseconds."""
    return [(s[2] - s[1]) * 1e3 for s in spans]


def self_times_ms(spans, name: str) -> list[float]:
    """Self time of every span called *name*: its duration minus the
    durations of its direct children."""
    child_ms: dict[int, float] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_ms[parent] = child_ms.get(parent, 0.0) + (span[2] - span[1]) * 1e3
    return [
        (span[2] - span[1]) * 1e3 - child_ms.get(i, 0.0)
        for i, span in enumerate(spans)
        if span[0] == name
    ]
