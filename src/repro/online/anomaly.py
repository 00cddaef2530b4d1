"""Change-point detection on windowed rate series.

The paper's introduction motivates performance models with "anomaly
detection, and diagnosis of performance bugs".  Given the per-window
service-time series from
:meth:`StreamingEstimator.run <repro.online.streaming.StreamingEstimator.run>`,
this module flags windows where a queue's estimated mean service time
departs from its recent history — a robust z-score against the rolling
median/MAD, so a single faulty window or a genuine regime change is
flagged without being masked by earlier noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.online.windowed import WindowEstimate

#: MAD -> standard-deviation scale factor for normal data.
_MAD_SCALE = 1.4826


@dataclass(frozen=True)
class AnomalyReport:
    """One flagged (queue, window) cell.

    Attributes
    ----------
    queue:
        Queue index whose service estimate jumped.
    window_index:
        Index into the window list.
    t_start / t_end:
        The flagged window's interval.
    value:
        The window's estimated mean service time.
    baseline:
        Rolling median of the preceding windows.
    z_score:
        Robust z-score ``(value - baseline) / (MAD * 1.4826)``.
    """

    queue: int
    window_index: int
    t_start: float
    t_end: float
    value: float
    baseline: float
    z_score: float


def detect_anomalies(
    windows: list[WindowEstimate],
    queues: list[int] | None = None,
    threshold: float = 4.0,
    min_history: int = 3,
    min_scale_frac: float = 0.1,
) -> list[AnomalyReport]:
    """Flag service-time change points in a window series.

    Parameters
    ----------
    windows:
        Window estimates in time order, e.g. the output of
        :meth:`~repro.online.streaming.StreamingEstimator.run`.
    queues:
        Queue indices to monitor; defaults to every real queue.
    threshold:
        Robust z-score above which a window is flagged.
    min_history:
        Minimum number of earlier successful windows required before a
        window can be judged (no flags during warm-up).
    min_scale_frac:
        Noise floor for the z-score scale, as a fraction of the rolling
        baseline.  The MAD of the 3-5 window estimates a short history
        holds badly underestimates the per-window StEM noise (three nearly
        equal estimates give a near-zero MAD), which turns ordinary
        estimator jitter into huge z-scores; per-window estimates on tens
        of tasks carry ~10%+ relative noise, so scales below
        ``min_scale_frac * baseline`` are clamped up to it.

    Returns
    -------
    list[AnomalyReport]
        Flagged cells, ordered by window then queue.
    """
    if threshold <= 0.0:
        raise InferenceError(f"threshold must be positive, got {threshold}")
    if min_scale_frac < 0.0:
        raise InferenceError(
            f"min_scale_frac must be nonnegative, got {min_scale_frac}"
        )
    usable = [w for w in windows if w.ok]
    if not usable:
        return []
    n_queues = usable[0].rates.size
    if queues is None:
        queues = list(range(1, n_queues))
    reports: list[AnomalyReport] = []
    for q in queues:
        history: list[float] = []
        for i, w in enumerate(windows):
            if not w.ok:
                continue
            value = w.mean_service(q)
            if len(history) >= min_history:
                baseline = float(np.median(history))
                mad = float(np.median(np.abs(np.asarray(history) - baseline)))
                scale = max(
                    mad * _MAD_SCALE,
                    min_scale_frac * abs(baseline),
                    1e-3 * max(abs(baseline), 1e-12),
                )
                z = (value - baseline) / scale
                if abs(z) >= threshold:
                    reports.append(
                        AnomalyReport(
                            queue=q,
                            window_index=i,
                            t_start=w.t_start,
                            t_end=w.t_end,
                            value=value,
                            baseline=baseline,
                            z_score=float(z),
                        )
                    )
            history.append(value)
    reports.sort(key=lambda r: (r.window_index, r.queue))
    return reports
