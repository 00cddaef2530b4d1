"""Shared estimator configuration: one dataclass, every construction path.

``EstimatorConfig`` is the only code that knows the estimator settings:
estimators are constructed from one, checkpoints carry
``dataclasses.asdict(config)``, the router filters its ``service_config``
against :func:`estimator_config_keys`, and the CLI derives the
``stream``/``serve``/``route`` flags from its fields and hands the built
instance to whichever estimator the ``--estimator`` flag names.

Validation lives in ``__post_init__`` so every path — direct
construction, checkpoint restore, router service configs, CLI flags —
rejects bad values with the same messages.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Mapping

from repro.errors import InferenceError
from repro.inference.gibbs import BATCH_KERNELS, KERNELS


@dataclass
class EstimatorConfig:
    """Every estimator knob, in one validated place.

    ``window`` is the only required field.  The StEM fields
    (``stem_iterations``, ``shards``, ``shard_workers``) are ignored by
    the SMC estimator, which rejects sharding outright; the SMC fields
    (``n_particles``, ``ess_threshold``, ``rejuvenation_sweeps``) are
    ignored by StEM.
    Both estimators honor ``kernel``/``threads``/``worker_retries`` and
    the window geometry.

    Attributes
    ----------
    window:
        Window length, in trace clock units.
    step:
        Window start spacing; defaults to the window (tumbling windows).
        Smaller values overlap windows, which maximizes warm-shard reuse.
    stem_iterations:
        StEM iterations per window (also sizes SMC's rejuvenation
        burn-in, ``stem_iterations // 2``).
    min_observed_tasks:
        Windows with fewer fully observed tasks are skipped
        (``rates=None``).
    shards:
        Sharded sweeps per window, clamped to each window's task count.
        ``shards > 1`` requires kernel ``"array"`` or ``"native"``.
    shard_workers:
        With ``shards > 1``: host the shard sweeps on this many worker
        processes, kept warm for the whole stream.  Results are bitwise
        identical at any worker count.
    kernel:
        Sweep kernel for every window's E-step chains: ``"array"``, its
        JIT-compiled lowering ``"native"``, or the scalar ``"object"``
        reference.
    threads:
        Thread count for the batch kernels' chunked evaluation; draws
        are bitwise invariant to it.
    worker_retries:
        How many times a window whose worker pool died under it is re-run
        on a relaunched pool before its failure is recorded as data.  A
        retried window re-derives its draws from the same per-window seed
        child, so its estimate is bitwise the uninterrupted one.
    n_particles / ess_threshold / rejuvenation_sweeps:
        SMC population size; the fraction of it the effective sample
        size may fall to before a resample + rejuvenation pass; Gibbs
        sweeps per particle per pass.
    """

    window: float
    step: float | None = None
    stem_iterations: int = 40
    min_observed_tasks: int = 3
    shards: int = 1
    shard_workers: int | None = None
    kernel: str = "array"
    threads: int = 1
    worker_retries: int = 1
    n_particles: int = 16
    ess_threshold: float = 0.5
    rejuvenation_sweeps: int = 1

    def __post_init__(self) -> None:
        self.window = float(self.window)
        if self.window <= 0.0:
            raise InferenceError(f"window must be positive, got {self.window}")
        self.step = self.window if self.step is None else float(self.step)
        if self.step <= 0.0:
            raise InferenceError(f"step must be positive, got {self.step}")
        self.stem_iterations = int(self.stem_iterations)
        if self.stem_iterations < 1:
            # Rejected here, not per window: otherwise run_stem's own
            # validation error would be misread as every window failing.
            raise InferenceError(
                f"need at least one StEM iteration, got {self.stem_iterations}"
            )
        self.min_observed_tasks = int(self.min_observed_tasks)
        self.shards = int(self.shards)
        if self.shards < 1:
            raise InferenceError(f"need at least one shard, got {self.shards}")
        if self.kernel not in KERNELS:
            raise InferenceError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.shards > 1 and self.kernel not in BATCH_KERNELS:
            raise InferenceError(
                f"shards > 1 requires kernel 'array' or 'native', "
                f"got {self.kernel!r}"
            )
        self.threads = int(self.threads)
        if self.threads < 1:
            raise InferenceError(f"need at least one thread, got {self.threads}")
        if self.shard_workers is not None:
            self.shard_workers = int(self.shard_workers)
            if self.shard_workers < 1:
                raise InferenceError(
                    f"need at least one shard worker, got {self.shard_workers}"
                )
            if self.shards == 1:
                raise InferenceError(
                    "shard_workers requires shards > 1 — a single shard "
                    "sweeps in-process"
                )
        self.worker_retries = int(self.worker_retries)
        if self.worker_retries < 0:
            raise InferenceError(
                f"worker_retries must be >= 0, got {self.worker_retries}"
            )
        self.n_particles = int(self.n_particles)
        if self.n_particles < 2:
            raise InferenceError(
                f"need at least two particles, got {self.n_particles}"
            )
        self.ess_threshold = float(self.ess_threshold)
        if not 0.0 < self.ess_threshold <= 1.0:
            raise InferenceError(
                f"ess_threshold must be in (0, 1], got {self.ess_threshold}"
            )
        self.rejuvenation_sweeps = int(self.rejuvenation_sweeps)
        if self.rejuvenation_sweeps < 1:
            raise InferenceError(
                "need at least one rejuvenation sweep per trigger, "
                f"got {self.rejuvenation_sweeps}"
            )

    def as_dict(self) -> dict:
        """Plain-dict spelling, suitable for checkpoints (all JSON types)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_state(cls, config: Mapping) -> "EstimatorConfig":
        """Rebuild from a checkpoint's config mapping, any version.

        Older checkpoints predate some fields (v1 lacked ``kernel``/
        ``threads``; pre-SMC v2 lacked the particle knobs) — every
        missing field falls back to its dataclass default, which matches
        what those estimators actually ran with.  Retired keys are
        dropped — ``warm_workers`` never changed a draw — except a
        ``"cold"`` ``repartition`` with ``shards > 1``: that stream drew
        differently from the second window on, so it cannot resume.
        """
        state = dict(config)
        state.pop("warm_workers", None)
        repartition = state.pop("repartition", "incremental")
        if repartition != "incremental" and int(state.get("shards", 1)) > 1:
            raise InferenceError(
                f"checkpoint config key 'repartition'={repartition!r} "
                "with shards > 1 can no longer resume bitwise"
            )
        for field in fields(cls):
            if field.default is not dataclasses.MISSING:
                state.setdefault(field.name, field.default)
        unknown = set(state) - {field.name for field in fields(cls)}
        if unknown:
            raise InferenceError(
                f"unknown estimator config keys: {sorted(unknown)}"
            )
        return cls(**state)

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "EstimatorConfig":
        """Build from a loose mapping, ignoring keys that are not fields.

        The router's ``service_config`` mixes estimator, stream, and
        service keys in one flat dict; this picks out ours.
        """
        names = {field.name for field in fields(cls)}
        return cls(**{k: v for k, v in dict(mapping).items() if k in names})


def estimator_config_keys() -> tuple[str, ...]:
    """Field names of :class:`EstimatorConfig`, in declaration order."""
    return tuple(field.name for field in fields(EstimatorConfig))
