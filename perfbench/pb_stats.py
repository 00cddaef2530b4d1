"""Summary statistics and run-validity rules shared by the benchmark.

Everything here is pure (lists of numbers in, numbers out) so the
self-tests in ``perfbench/tests`` can pin each rule without running a
workload.
"""

from __future__ import annotations

import statistics
import time

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, n)``.  The value is the sorted sample at
    0-based rank ``n - TAIL_BEYOND - 1``, so exactly ``TAIL_BEYOND``
    samples lie beyond it; its percentile rank is ``100 (n - 10) / n``.
    Raises ``ValueError`` when the sample is too small to have one.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}"
        )
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n


def timing_summary(values) -> dict:
    """Median, tail and count of a per-call timing sample.

    A sample too small for a statistic reports it as 0.0; ``n`` says
    which statistics are real (median: n >= 1, tail: n > 10).
    """
    values = list(values)
    out = {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": len(values)}
    if values:
        out["p50"] = median(values)
    if len(values) > TAIL_BEYOND:
        out["tail"], out["tail_pct"], _ = tail(values)
    return out


def host_probe() -> float:
    """Median milliseconds of a fixed pure-Python loop.

    Recorded at the start and end of every run so a reader can tell a
    slow host from a slow program; nothing is scaled by it.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def find_copies(metrics: dict) -> list[tuple[str, str]]:
    """Pairs of metrics whose values coincide, up to a power-of-1000 unit
    change (``s`` vs ``ms``) — a metric reported twice under two names."""
    names = sorted(metrics)
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            va, vb = float(metrics[a]), float(metrics[b])
            for scale in (1.0, 1e3, 1e-3, 1e6, 1e-6):
                if abs(va - vb * scale) <= 1e-9 * max(abs(va), abs(vb * scale)):
                    pairs.append((a, b))
                    break
    return pairs


def paced_validity(
    lateness_s: list[float], backlog: list[int], interval_s: float
) -> list[str]:
    """Why an open-loop run cannot be reported as latency (empty = valid).

    A paced run measures latency only while the system keeps up.  It is
    invalid when the generator fell a whole interval behind its schedule,
    when its lateness grew from the first quarter of the run to the last,
    or when the backlog of ready-but-unpublished windows grew.
    """
    reasons = []
    n = len(lateness_s)
    q = max(1, n // 4)
    if n and max(lateness_s) >= interval_s:
        reasons.append(
            f"generator fell {max(lateness_s) * 1e3:.0f} ms behind its "
            f"{interval_s * 1e3:.0f} ms schedule"
        )
    if n >= 4:
        grew = median(lateness_s[-q:]) - median(lateness_s[:q])
        if grew > 0.1 * interval_s:
            reasons.append(f"generator lateness grew by {grew * 1e3:.0f} ms")
    if backlog:
        q = max(1, len(backlog) // 4)
        first = sum(backlog[:q]) / q
        last = sum(backlog[-q:]) / q
        if last - first >= 1.0:
            reasons.append(
                f"window backlog grew from {first:.1f} to {last:.1f}"
            )
    return reasons
