"""Per-window building blocks of the sliding-window estimators, whose
driver is :class:`~repro.online.streaming.StreamingEstimator`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.observation import ObservedTrace


@dataclass
class WindowEstimate:
    """Per-window estimation result.

    Attributes
    ----------
    t_start / t_end:
        The window's clock interval.
    n_tasks / n_observed_tasks:
        Tasks whose (estimated) entry falls in the window, and how many of
        them are fully observed.
    rates:
        StEM rate estimate for the window (index 0 = arrival rate), or
        ``None`` when the window held too little observed data or its
        estimation failed.
    failure:
        Why estimation failed (the :class:`~repro.errors.ReproError`
        message), or ``None`` for successful and skipped windows alike.
    """

    t_start: float
    t_end: float
    n_tasks: int
    n_observed_tasks: int
    rates: np.ndarray | None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        """Whether this window produced an estimate."""
        return self.rates is not None

    def mean_service(self, q: int) -> float:
        """Window estimate of queue *q*'s mean service time (nan if absent)."""
        if self.rates is None:
            return float("nan")
        return float(1.0 / self.rates[q])


def _entry_time_estimates(trace: ObservedTrace) -> dict[int, float]:
    """Entry time per task; unobserved entries interpolated from the
    queue-0 order between observed neighbors (the counter information)."""
    skeleton = trace.skeleton
    order = skeleton.queue_order(0)  # initial events in entry order
    entries = np.full(order.size, np.nan)
    for i, e in enumerate(order):
        succ = skeleton.pi_inv[e]
        if succ >= 0 and trace.arrival_observed[succ]:
            entries[i] = skeleton.arrival[succ]
    # Interpolate nan gaps by position between known anchors.
    known = np.flatnonzero(~np.isnan(entries))
    if known.size == 0:
        raise InferenceError("no observed entries; cannot window the trace")
    positions = np.arange(order.size, dtype=float)
    entries = np.interp(positions, positions[known], entries[known])
    return {int(skeleton.task[e]): float(entries[i]) for i, e in enumerate(order)}


def task_fully_observed(trace: ObservedTrace, task_id: int) -> bool:
    """Whether every non-initial arrival of *task_id* was measured.

    The per-window "observed task" count every estimator flavor reports
    — one definition, so no two of them can disagree.
    """
    skeleton = trace.skeleton
    idx = skeleton.events_of_task(task_id)
    non_init = idx[skeleton.seq[idx] != 0]
    return bool(np.all(trace.arrival_observed[non_init]))
