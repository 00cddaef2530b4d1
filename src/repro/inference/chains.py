"""Multi-chain Gibbs inference with cross-chain diagnostics.

Deterministic dependencies are "known to impair the performance of Gibbs
samplers" (paper Section 3).  The only credible way to detect the resulting
non-convergence — and the cheapest way to use more than one core — is to
run several independent chains from over-dispersed starting points and
compare them.  This module provides exactly that:

* :class:`MultiChainSampler` runs ``K`` independent
  :class:`~repro.inference.gibbs.GibbsSampler` chains, described as
  :class:`~repro.inference.pool.ChainRecipe` s and hosted by
  :func:`~repro.inference.pool.chain_pool` — in this process or on
  persistent worker processes;
* starting states are over-dispersed by construction — chain 0 starts from
  the heuristic initializer at the given rates, chain 1 from the LP
  initializer (when the trace is small enough for it), and every further
  chain from the heuristic initializer at multiplicatively *jittered*
  rates, which spreads the initial latent times while keeping every start
  feasible;
* every chain derives its generator from one
  :class:`numpy.random.SeedSequence` spawn tree
  (:func:`~repro.inference.pool.chain_seed_sequences`), so results are
  bitwise identical at any worker count — parallelism only changes
  scheduling;
* the result, :class:`MultiChainPosterior`, stacks the per-chain
  :class:`~repro.inference.gibbs.PosteriorSamples` and exposes per-queue
  split-R̂ and cross-chain ESS from :mod:`repro.inference.diagnostics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.inference.diagnostics import multichain_ess, split_r_hat
from repro.inference.gibbs import PosteriorSamples
from repro.inference.init_heuristic import initial_rates_from_observed
from repro.inference.pool import ChainRecipe, chain_pool, chain_seed_sequences
from repro.observation import ObservedTrace
from repro.rng import RandomState

#: Chain summaries R̂ / ESS can be computed over.
_KINDS = ("waiting", "service", "log_joint")


class MultiChainSampler:
    """Run ``K`` independent Gibbs chains and pool their posteriors.

    Parameters
    ----------
    trace:
        The observed trace (shared, read-only, by every chain).
    rates:
        Fixed rate vector all chains sample at (e.g. a StEM estimate).
        Defaults to the crude observed-response initialization.
    n_chains:
        Number of independent chains ``K``.
    random_state:
        Master seed; see
        :func:`~repro.inference.pool.chain_seed_sequences`.
    jitter:
        Log-normal sigma of the per-chain initializer-rate jitter used for
        the over-dispersed chains (chains 2+, and chain 1 when the trace
        is too large for the LP initializer).
    lp_size_limit:
        Largest trace (in events) for which chain 1 uses the exact LP
        initializer.
    shuffle:
        Passed to every :class:`~repro.inference.gibbs.GibbsSampler`.
    kernel:
        Sweep engine for every chain (see
        :class:`~repro.inference.gibbs.GibbsSampler`).
    shards:
        Sharded sweeps within every chain (see
        :mod:`repro.inference.shard`): each chain partitions the trace's
        tasks, sweeps shard interiors on restricted array kernels and
        resamples boundary moves in a master pass — same posterior, and
        ``shards=1`` is exactly the plain array kernel.
    """

    def __init__(
        self,
        trace: ObservedTrace,
        rates: np.ndarray | None = None,
        n_chains: int = 4,
        random_state: RandomState = None,
        jitter: float = 0.15,
        lp_size_limit: int = 6000,
        shuffle: bool = True,
        kernel: str = "array",
        shards: int = 1,
    ) -> None:
        if n_chains < 1:
            raise InferenceError(f"need at least one chain, got {n_chains}")
        if jitter < 0.0:
            raise InferenceError(f"jitter must be nonnegative, got {jitter}")
        self.trace = trace
        if rates is None:
            rates = initial_rates_from_observed(trace)
        self.rates = np.asarray(rates, dtype=float).copy()
        self.n_chains = int(n_chains)
        self.jitter = float(jitter)
        self.shuffle = shuffle
        self.kernel = kernel
        if shards < 1:
            raise InferenceError(f"need at least one shard, got {shards}")
        self.shards = int(shards)
        self.init_methods = [
            self._init_method_for(k, trace.skeleton.n_events, lp_size_limit)
            for k in range(self.n_chains)
        ]
        #: One recipe per chain; every chain samples at ``rates`` and only
        #: the jittered ones draw from their init stream.
        self.recipes = []
        for k, (init_seed, sweep_seed) in enumerate(
            chain_seed_sequences(random_state, self.n_chains)
        ):
            jittered = self.init_methods[k] == "heuristic-jitter"
            self.recipes.append(
                ChainRecipe(
                    index=k,
                    trace=trace,
                    rates=self.rates,
                    init_method="heuristic" if jittered else self.init_methods[k],
                    init_seed=init_seed if jittered else None,
                    sweep_state=sweep_seed,
                    jitter=self.jitter,
                    shuffle=shuffle,
                    kernel=kernel,
                    shards=self.shards,
                )
            )

    @staticmethod
    def _init_method_for(chain: int, n_events: int, lp_size_limit: int) -> str:
        if chain == 0:
            return "heuristic"
        if chain == 1 and n_events <= lp_size_limit:
            return "lp"
        return "heuristic-jitter"

    def collect(
        self,
        n_samples: int,
        thin: int = 1,
        burn_in: int = 0,
        workers: int | None = None,
    ) -> "MultiChainPosterior":
        """Run every chain and stack the results.

        Parameters
        ----------
        n_samples, thin, burn_in:
            Per-chain schedule (see :meth:`GibbsSampler.collect`).
        workers:
            ``None`` runs the chains in this process; a count ``N >= 1``
            hosts them on ``N`` worker processes (see
            :func:`~repro.inference.pool.chain_pool`).  The results are
            bitwise identical either way.
        """
        if n_samples < 1 or thin < 1 or burn_in < 0:
            raise InferenceError("need n_samples >= 1, thin >= 1, burn_in >= 0")
        with chain_pool(self.recipes, workers) as pool:
            chains = pool.collect(n_samples, thin=thin, burn_in=burn_in)
        return MultiChainPosterior(chains=chains, init_methods=list(self.init_methods))


@dataclass
class MultiChainPosterior:
    """Stacked posterior draws from ``K`` independent chains.

    Attributes
    ----------
    chains:
        One :class:`~repro.inference.gibbs.PosteriorSamples` per chain,
        all with the same schedule.
    init_methods:
        How each chain's starting state was built (diagnostic provenance).
    """

    chains: list[PosteriorSamples]
    init_methods: list[str]

    @property
    def n_chains(self) -> int:
        """Number of chains ``K``."""
        return len(self.chains)

    @property
    def n_samples(self) -> int:
        """Retained draws per chain."""
        return self.chains[0].n_samples

    @property
    def n_queues(self) -> int:
        """Number of queues (including the arrival pseudo-queue 0)."""
        return self.chains[0].mean_service.shape[1]

    def stacked(self, kind: str = "waiting") -> np.ndarray:
        """Per-chain draws as one array.

        Shape ``(K, n_samples, n_queues)`` for ``"waiting"``/``"service"``
        and ``(K, n_samples)`` for ``"log_joint"``.
        """
        if kind not in _KINDS:
            raise InferenceError(f"kind must be one of {_KINDS}, got {kind!r}")
        if kind == "log_joint":
            return np.stack([c.log_joint for c in self.chains])
        attr = "mean_waiting" if kind == "waiting" else "mean_service"
        return np.stack([getattr(c, attr) for c in self.chains])

    def pooled(self) -> PosteriorSamples:
        """All chains concatenated into one sample set (post-R̂ use only)."""
        return PosteriorSamples(
            mean_service=np.concatenate([c.mean_service for c in self.chains]),
            mean_waiting=np.concatenate([c.mean_waiting for c in self.chains]),
            total_service=np.concatenate([c.total_service for c in self.chains]),
            log_joint=np.concatenate([c.log_joint for c in self.chains]),
            events_per_queue=self.chains[0].events_per_queue,
        )

    def split_r_hat(self, kind: str = "waiting") -> np.ndarray:
        """Per-queue split-R̂ (scalar 0-d array for ``"log_joint"``)."""
        return self._per_queue(split_r_hat, kind)

    def ess(self, kind: str = "waiting") -> np.ndarray:
        """Per-queue cross-chain effective sample size."""
        return self._per_queue(multichain_ess, kind)

    def _per_queue(self, statistic, kind: str) -> np.ndarray:
        stacked = self.stacked(kind)
        if stacked.ndim == 2:
            return np.asarray(statistic(stacked))
        return np.array(
            [statistic(stacked[:, :, q]) for q in range(stacked.shape[2])]
        )

    def max_r_hat(self, kind: str = "waiting") -> float:
        """The worst finite per-queue split-R̂ (the headline statistic)."""
        values = np.atleast_1d(self.split_r_hat(kind))
        finite = values[np.isfinite(values)]
        return float(finite.max()) if finite.size else float("nan")

    def summary(self) -> str:
        """One-line convergence report across all chains."""
        ess = np.atleast_1d(self.ess("waiting"))
        finite_ess = ess[np.isfinite(ess)]
        min_ess = float(finite_ess.min()) if finite_ess.size else float("nan")
        return (
            f"MultiChainPosterior: {self.n_chains} chains x {self.n_samples} "
            f"samples, max split-R^hat(waiting) = {self.max_r_hat('waiting'):.4f}, "
            f"min ESS(waiting) = {min_ess:.1f}"
        )
