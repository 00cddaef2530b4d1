"""Stochastic EM (paper Section 4).

StEM alternates

* **E-step**: replace the unobserved times with the output of *one* Gibbs
  sweep at the current parameters (not a full posterior expectation), and
* **M-step**: the closed-form exponential MLE of :mod:`repro.inference.mstep`.

Unlike Monte-Carlo EM, the iterates do not converge pointwise — they
converge to a stationary *distribution* concentrated near the MLE — so the
returned point estimate averages the post-burn-in iterates, the standard
practice for SEM-type algorithms [Celeux & Diebolt 1985; Celeux 1992].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.telemetry import phase as _phase
from repro.inference.gibbs import GibbsSampler
from repro.inference.init_heuristic import initial_rates_from_observed
from repro.inference.mstep import mle_rates_from_stats
from repro.inference.pool import chain_pool, chain_recipes, initialize_state
from repro.observation import ObservedTrace
from repro.rng import RandomState

__all__ = ["StEMResult", "initialize_state", "run_stem"]


@dataclass
class StEMResult:
    """Output of a stochastic-EM run.

    Attributes
    ----------
    rates:
        The point estimate: post-burn-in average of the rate iterates
        (index 0 = arrival rate ``lambda``).
    rates_history:
        All iterates, shape ``(n_iterations + 1, n_queues)``; row 0 is the
        initialization.
    sampler:
        The Gibbs sampler in its final state — reusable for posterior
        summaries at the estimated parameters.
    burn_in:
        Number of leading iterates excluded from the average.
    samplers:
        All E-step chains (``samplers[0] is sampler``); more than one when
        the run pooled sufficient statistics across ``n_chains`` chains.
    """

    rates: np.ndarray
    rates_history: np.ndarray
    sampler: GibbsSampler
    burn_in: int
    samplers: list[GibbsSampler] | None = None

    @property
    def n_chains(self) -> int:
        """Number of parallel E-step chains the run used."""
        return len(self.samplers) if self.samplers else 1

    @property
    def arrival_rate(self) -> float:
        """Estimated system arrival rate ``lambda``."""
        return float(self.rates[0])

    def mean_service_times(self) -> np.ndarray:
        """Estimated mean service time per queue, ``1 / mu_q``."""
        return 1.0 / self.rates

    def iterate_std(self) -> np.ndarray:
        """Std of the post-burn-in iterates (a stability diagnostic)."""
        return self.rates_history[self.burn_in :].std(axis=0)


def run_stem(
    trace: ObservedTrace,
    n_iterations: int = 200,
    burn_in: int | None = None,
    initial_rates: np.ndarray | None = None,
    init_method: str = "auto",
    sweeps_per_iteration: int = 1,
    random_state: RandomState = None,
    shuffle: bool = True,
    n_chains: int = 1,
    jitter: float = 0.15,
    kernel: str = "array",
    persistent_workers: int | None = None,
    shards: int = 1,
    shard_pool=None,
    shard_partition=None,
    threads: int = 1,
) -> StEMResult:
    """Estimate ``lambda`` and all ``mu_q`` from an incomplete trace.

    Parameters
    ----------
    trace:
        The observed trace.
    n_iterations:
        Number of StEM iterations (each = E-sweep + M-step).
    burn_in:
        Iterates discarded before averaging; defaults to ``n_iterations // 2``.
    initial_rates:
        Starting rates; default derives them from observed responses via
        :func:`~repro.inference.init_heuristic.initial_rates_from_observed`.
    init_method:
        Latent-time initializer: ``"lp"``, ``"heuristic"``, or ``"auto"``.
    sweeps_per_iteration:
        Gibbs sweeps per E-step.  The paper's StEM uses 1; larger values
        interpolate toward Monte-Carlo EM.
    random_state, shuffle:
        Randomness controls (see :class:`~repro.inference.gibbs.GibbsSampler`).
    n_chains:
        Number of parallel E-step chains.  With more than one chain every
        M-step divides the shared event counts by the cross-chain *mean*
        of the sampled total service times
        (:func:`~repro.inference.mstep.mle_rates_pooled`), which damps the
        sweep-to-sweep noise of the rate iterates; chains beyond the first
        start from jittered initializations and independent seed-sequence
        spawns.  ``n_chains=1`` reproduces the historical single-chain
        stream exactly.
    jitter:
        Log-normal sigma of the extra chains' initializer-rate jitter.
    kernel:
        Sweep engine for every E-step chain (see
        :class:`~repro.inference.gibbs.GibbsSampler`).
    persistent_workers:
        ``None`` (default) hosts the E-step chains in this process.  A
        count ``W >= 1`` hosts them on ``W`` *persistent* worker processes
        (:func:`~repro.inference.pool.chain_pool`): chains stay resident
        in their worker across EM iterations and only rate vectors and
        per-queue sufficient statistics cross the process boundary each
        round.  Results are bitwise identical at any worker count.
    shards:
        With ``shards > 1`` every E-step chain's sweep itself is sharded
        (:mod:`repro.inference.shard`): the trace's tasks are partitioned,
        interior moves sweep per shard and only boundary events are
        exchanged between super-steps.  Combined with
        ``persistent_workers`` and a single chain, the chain stays
        in-process and its *shards* are distributed across the workers
        (sub-traces stay resident; only boundary times and per-queue
        statistics cross the process boundary) — bitwise identical to the
        in-process sharded run at any worker count.  With multiple
        chains, each worker hosts whole (sharded) chains as usual.
    shard_pool:
        An externally owned
        :class:`~repro.inference.shard.WarmShardWorkerPool` that hosts
        the (single) chain's shards for this run and stays alive
        afterwards — the streaming estimator's cross-window warm path.
        Requires ``n_chains == 1`` and is mutually exclusive with
        ``persistent_workers``; results are bitwise identical to every
        other execution mode at the same seed.
    shard_partition:
        Optional pre-computed task partition for the sharded sweeps (the
        incremental re-partition of :mod:`repro.online.streaming`);
        ``None`` partitions from scratch.
    threads:
        Threaded batch evaluation inside every chain's array/native sweep
        kernel (see :class:`~repro.inference.gibbs.GibbsSampler`); draws
        are bitwise invariant to the thread count.
    """
    if n_iterations < 1:
        raise InferenceError(f"need at least one iteration, got {n_iterations}")
    if n_chains < 1:
        raise InferenceError(f"need at least one chain, got {n_chains}")
    if shards < 1:
        raise InferenceError(f"need at least one shard, got {shards}")
    if shard_pool is not None and persistent_workers is not None:
        raise InferenceError(
            "pass either persistent_workers or an external shard_pool, not both"
        )
    if shard_pool is not None and n_chains != 1:
        raise InferenceError(
            "an external shard pool hosts exactly one chain's shards; "
            f"got n_chains={n_chains}"
        )
    if shard_pool is not None and shards == 1:
        raise InferenceError(
            "an external shard pool requires shards > 1 — with a single "
            "shard the sweep runs in-process and the pool would idle"
        )
    if burn_in is None:
        burn_in = n_iterations // 2
    if not 0 <= burn_in < n_iterations:
        raise InferenceError(
            f"burn_in must lie in [0, n_iterations), got {burn_in}/{n_iterations}"
        )
    rates = (
        np.asarray(initial_rates, dtype=float).copy()
        if initial_rates is not None
        else initial_rates_from_observed(trace)
    )
    recipes = chain_recipes(
        trace, rates, init_method, n_chains, jitter, random_state, shuffle, kernel,
        shards=shards, partition=shard_partition, threads=threads,
    )
    counts = trace.skeleton.events_per_queue().astype(float)
    history = np.empty((n_iterations + 1, trace.skeleton.n_queues))
    history[0] = rates
    workers, build = persistent_workers, {}
    if n_chains == 1 and shards > 1:
        # One sharded chain: the workers (or the external warm pool) host
        # its shards while the chain itself stays in-process.
        workers = None
        build = dict(shard_workers=persistent_workers, shard_pool=shard_pool)
    with chain_pool(recipes, workers, **build) as pool:
        for it in range(1, n_iterations + 1):
            with _phase("sweeps"):
                totals = pool.step(rates, n_keep=sweeps_per_iteration)
            with _phase("m-step"):
                rates = mle_rates_from_stats(counts, totals)
            history[it] = rates
        estimate = history[burn_in:].mean(axis=0)
        samplers = pool.finish(estimate)
    return StEMResult(
        rates=estimate,
        rates_history=history,
        sampler=samplers[0],
        burn_in=burn_in,
        samplers=samplers,
    )
