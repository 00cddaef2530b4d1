"""Chain hosts: the one place Gibbs chains are built and executed.

StEM and MCEM E-steps (:mod:`repro.inference.stem`,
:mod:`repro.inference.mcem`) and the posterior chains of
:class:`~repro.inference.chains.MultiChainSampler` all describe their
chains as :class:`ChainRecipe` s and run them through the pool that
:func:`chain_pool` returns:

* :class:`LocalChainPool` hosts the chains in this process;
* :class:`PersistentChainPool` hosts them in long-lived worker processes.
  Naive per-iteration pooling of E-steps loses: shipping every chain's
  full latent state to a fresh worker each round costs more than the
  sweep itself.  So the chain state is *resident*: each worker builds its
  chains once, keeps them warm across EM iterations, and per round
  receives only the current rate vector and returns only the per-queue
  sufficient statistics.  The evolved samplers (or collected posterior
  draws) are shipped back once, at the end.

Both hosts run the same per-chain command functions (:func:`step_chains`,
:func:`collect_chains`, :func:`finish_chains`), and a chain's trajectory
is a pure function of its recipe (trace, init method, seed material),
never of the host, so results are **bitwise identical** in-process and at
any worker count — ``tests/inference/test_pool.py`` pins this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.events import EventSet
from repro.inference.gibbs import GibbsSampler, PosteriorSamples
from repro.inference.init_heuristic import heuristic_initialize
from repro.inference.init_lp import lp_initialize
from repro.inference.transport import PipeTransport, WorkerTransport
from repro.observation import ObservedTrace
from repro.rng import RandomState, as_generator, as_seed_sequence


def chain_seed_sequences(
    random_state: RandomState, n_chains: int
) -> list[tuple[np.random.SeedSequence, np.random.SeedSequence]]:
    """Derive each chain's ``(init, sweep)`` seed pair from one master seed.

    The master seed spawns one child per chain and each child spawns an
    initialization stream (rate jitter) and a sweep stream (Gibbs moves).
    Everything any chain ever draws is a pure function of the master seed
    and the chain index, which is what makes multi-chain runs bitwise
    reproducible at any worker count.  A caller-supplied ``Generator`` is
    never drawn from (its seed sequence is spawned instead), so sharing
    one with other components leaves their streams untouched.
    """
    master = as_seed_sequence(random_state)
    return [tuple(child.spawn(2)) for child in master.spawn(n_chains)]


def jittered_rates(
    rates: np.ndarray, jitter: float, init_seed: np.random.SeedSequence
) -> np.ndarray:
    """The over-dispersed chains' initializer rates.

    Multiplies each rate by ``exp(jitter * N(0, 1))`` drawn from the
    chain's dedicated init stream — a different feasible corner of the
    constraint polytope per chain, shared by
    :class:`~repro.inference.chains.MultiChainSampler` and the StEM/MCEM
    multi-chain E-steps.
    """
    rng = np.random.Generator(np.random.PCG64(init_seed))
    return np.asarray(rates, dtype=float) * np.exp(
        jitter * rng.standard_normal(np.asarray(rates).size)
    )


def initialize_state(
    trace: ObservedTrace,
    rates: np.ndarray,
    method: str = "auto",
    lp_size_limit: int = 6000,
) -> EventSet:
    """Build a feasible starting state with the requested initializer.

    ``method`` is ``"lp"``, ``"heuristic"``, or ``"auto"`` (LP when the
    trace has at most *lp_size_limit* events, else the heuristic — the LP is
    exact but its solve time grows superlinearly).
    """
    if method == "auto":
        method = "lp" if trace.skeleton.n_events <= lp_size_limit else "heuristic"
    if method == "lp":
        return lp_initialize(trace, rates)
    if method == "heuristic":
        return heuristic_initialize(trace, rates)
    raise InferenceError(f"unknown initialization method {method!r}")


@dataclass
class ChainRecipe:
    """Everything needed to (re)build one chain, picklable.

    A recipe with ``init_seed=None`` initializes at the base rates (E-step
    chain 0, and posterior chains 0 and 1); the others jitter their
    initializer rates from that dedicated seed-sequence spawn.
    ``sweep_state`` seeds the chain's Gibbs moves.  ``shards`` selects the
    sharded sweep engine of :mod:`repro.inference.shard` for the chain's
    sweeps.
    """

    index: int
    trace: ObservedTrace
    rates: np.ndarray
    init_method: str
    init_seed: np.random.SeedSequence | None
    sweep_state: RandomState
    jitter: float
    shuffle: bool
    kernel: str
    shards: int = 1
    #: Threaded batch evaluation inside every array/native kernel the
    #: chain builds (bitwise invariant to the thread count).
    threads: int = 1
    #: Optional pre-computed task partition for the sharded engine (the
    #: streaming estimator's incremental re-partition path); ``None``
    #: lets the engine run :func:`~repro.inference.shard.partition_tasks`.
    partition: object | None = None


def chain_recipes(
    trace: ObservedTrace,
    rates: np.ndarray,
    init_method: str,
    n_chains: int,
    jitter: float,
    random_state: RandomState,
    shuffle: bool,
    kernel: str = "array",
    shards: int = 1,
    partition=None,
    threads: int = 1,
) -> list[ChainRecipe]:
    """One recipe per E-step chain, over-dispersed past chain 0.

    Chain 0's starting state (initialized at the given rates) and
    generator (exactly ``as_generator(random_state)``) match the
    historical single-chain run, so ``n_chains=1`` reproduces it
    bit-for-bit; extra chains initialize at jittered rates and sample from
    independent seed-sequence spawns that never draw from a
    caller-supplied generator.
    """
    seeds = [(None, as_generator(random_state))]
    if n_chains > 1:
        seeds += chain_seed_sequences(random_state, n_chains)[1:]
    return [
        ChainRecipe(
            index=k,
            trace=trace,
            rates=rates,
            init_method=init_method,
            init_seed=init_seed,
            sweep_state=sweep_state,
            jitter=jitter,
            shuffle=shuffle,
            kernel=kernel,
            shards=shards,
            partition=partition,
            threads=threads,
        )
        for k, (init_seed, sweep_state) in enumerate(seeds)
    ]


def build_chain_sampler(
    recipe: ChainRecipe,
    shard_workers: int | None = None,
    shard_pool=None,
    shard_transport: WorkerTransport | None = None,
) -> GibbsSampler:
    """Materialize one warm chain from its recipe.

    *shard_workers* optionally attaches a shard worker pool to a sharded
    chain (``recipe.shards > 1``) — the distributed-sweep path of
    :func:`~repro.inference.stem.run_stem` — and *shard_transport* selects
    that pool's worker transport.  *shard_pool* instead adopts an
    externally owned warm pool
    (:class:`~repro.inference.shard.WarmShardWorkerPool`) whose processes
    outlive this chain — the streaming estimator's cross-window path.
    """
    if recipe.init_seed is None:
        init_rates = recipe.rates
    else:
        init_rates = jittered_rates(recipe.rates, recipe.jitter, recipe.init_seed)
    state = initialize_state(recipe.trace, init_rates, method=recipe.init_method)
    return GibbsSampler(
        recipe.trace,
        state,
        recipe.rates,
        random_state=recipe.sweep_state,
        shuffle=recipe.shuffle,
        kernel=recipe.kernel,
        shards=recipe.shards,
        shard_workers=shard_workers if recipe.shards > 1 else None,
        shard_partition=recipe.partition,
        shard_pool=shard_pool if recipe.shards > 1 else None,
        shard_transport=shard_transport if recipe.shards > 1 else None,
        threads=recipe.threads,
    )


# ----------------------------------------------------------------------
# Chain commands: the per-chain bodies both hosts run.
# ----------------------------------------------------------------------


def step_chains(
    samplers: dict[int, GibbsSampler],
    rates: np.ndarray,
    burn_in: int,
    n_keep: int,
    accumulate: bool,
) -> dict[int, np.ndarray]:
    """One E-step round on every chain: set rates, burn in, keep sweeps.

    Returns ``{chain index: stats}`` where stats is the ``(n_keep,
    n_queues)`` stack of per-sweep totals (*accumulate*) or the
    final-state totals.
    """
    out = {}
    for index in sorted(samplers):
        sampler = samplers[index]
        sampler.set_rates(rates)
        sampler.run(burn_in)
        if accumulate:
            kept = np.empty((n_keep, sampler.state.n_queues))
            for i in range(n_keep):
                sampler.sweep()
                kept[i] = sampler.state.total_service_by_queue()
            out[index] = kept
        else:
            sampler.run(n_keep)
            # Sharded chains sum per-shard partials in shard order, the
            # same in-process and on shard workers.
            out[index] = sampler.service_totals()
    return out


def collect_chains(
    samplers: dict[int, GibbsSampler], n_samples: int, thin: int, burn_in: int
) -> dict[int, PosteriorSamples]:
    """Posterior draws from every chain (:meth:`GibbsSampler.collect`)."""
    return {
        index: samplers[index].collect(n_samples, thin=thin, burn_in=burn_in)
        for index in sorted(samplers)
    }


def finish_chains(
    samplers: dict[int, GibbsSampler], rates: np.ndarray
) -> dict[int, GibbsSampler]:
    """Set the final rates and make every chain self-contained.

    Shard-worker state is pulled home, so each returned sampler holds its
    complete stitched chain and owns no processes.
    """
    for sampler in samplers.values():
        sampler.set_rates(rates)
        sampler.finish_shards()
    return samplers


_CHAIN_COMMANDS = {
    "step": step_chains,
    "collect": collect_chains,
    "finish": finish_chains,
}


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pool_worker_main(conn, recipes: list[ChainRecipe]) -> None:
    """Entry point of one persistent worker: build chains, then serve.

    Messages are tuples ``(command, *args)``: ``"step"``, ``"collect"``
    and ``"finish"`` run the chain command of that name on the resident
    chains and reply ``("ok", {chain_index: result})`` (the worker exits
    after ``"finish"``); ``("close",)`` exits.

    Any exception is reported as ``("error", description)`` and ends the
    worker, so the master can shut the pool down cleanly.
    """
    try:
        samplers = {r.index: build_chain_sampler(r) for r in recipes}
        conn.send(("ready", sorted(samplers)))
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe
        conn.send(("error", _describe_error(exc)))
        conn.close()
        return
    try:
        while True:
            cmd, *args = conn.recv()
            if cmd == "close":
                return
            conn.send(("ok", _CHAIN_COMMANDS[cmd](samplers, *args)))
            if cmd == "finish":
                return
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe
        try:
            conn.send(("error", _describe_error(exc)))
        except OSError:
            pass
    finally:
        conn.close()


class PersistentWorkerPool:
    """Worker-lifecycle core shared by the chain and shard worker pools.

    Payload items (chain recipes, shard residents) are assigned to worker
    processes round-robin at construction and never migrate, so the
    hosting worker is always an implementation detail.  Workers are
    started through a :class:`~repro.inference.transport.WorkerTransport`
    (OS pipes by default, sockets for cross-machine pools) — the message
    protocol is transport-agnostic.  With ``items=None`` the pool starts
    *empty* workers that wait for payloads shipped later over the
    protocol (the warm cross-window pools of
    :mod:`repro.online.streaming`).  Use as a context manager; on error
    or exit every worker is joined (and terminated if it does not exit
    promptly).
    """

    #: Prefix of surfaced worker failures; subclasses override.
    _failure_label = "persistent worker"

    def __init__(
        self,
        items: list | None,
        workers: int | None,
        worker_main,
        transport: WorkerTransport | None = None,
    ) -> None:
        if items is None:
            if workers is None or int(workers) < 1:
                raise InferenceError(
                    f"an empty (warm) pool needs an explicit worker count, got {workers}"
                )
            n_workers = int(workers)
            payloads: list[list] = [[] for _ in range(n_workers)]
        else:
            if not items:
                raise InferenceError("need at least one worker payload")
            n_workers = len(items) if workers is None else int(workers)
            if n_workers < 1:
                raise InferenceError(f"need at least one worker, got {workers}")
            n_workers = min(n_workers, len(items))
            payloads = [items[w::n_workers] for w in range(n_workers)]
        self.n_workers = n_workers
        self.transport = transport if transport is not None else PipeTransport()
        self._handles = []
        self._closed = False
        try:
            for payload in payloads:
                self._handles.append(self.transport.launch(worker_main, payload))
            for handle in self._handles:
                self._expect_ok(handle.recv())
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Protocol plumbing.
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the pool has been shut down (voluntarily or on error)."""
        return self._closed

    def worker_pids(self) -> list[int | None]:
        """PID per worker (``None`` for remote peers the master never
        spawned) — what a supervisor's liveness probe, or a fault-injection
        test picking a victim, needs to see."""
        return [
            getattr(handle.process, "pid", None) for handle in self._handles
        ]

    def n_alive(self) -> int:
        """Locally spawned worker processes still running.

        A remote peer (``process is None``) is not counted — its liveness
        is only observable through the conversation (keepalive turns a
        vanished peer into an :class:`EOFError` on the next exchange).
        """
        return sum(1 for handle in self._handles if handle.is_alive())

    def _expect_ok(self, reply):
        if reply[0] == "error":
            self.close()
            raise InferenceError(f"{self._failure_label} failed: {reply[1]}")
        return reply[1]

    def _exchange(self, messages: list) -> list:
        """Send one message *per worker*; merge keyed replies in order.

        Any worker-side error (or a dead connection) shuts the whole pool
        down and surfaces as :class:`~repro.errors.InferenceError`.
        """
        if self._closed:
            raise InferenceError("the worker pool is closed")
        merged: dict[int, object] = {}
        failure: str | None = None
        delivered = []
        for handle, message in zip(self._handles, messages, strict=True):
            try:
                handle.send(message)
            except (BrokenPipeError, EOFError, OSError):
                failure = failure or "worker connection died before the request"
                continue
            delivered.append(handle)
        for handle in delivered:
            try:
                reply = handle.recv()
            except (EOFError, OSError):
                failure = failure or "worker exited without replying"
                continue
            if reply[0] == "error":
                failure = failure or reply[1]
            else:
                merged.update(reply[1])
        if failure is not None:
            self.close()
            raise InferenceError(f"{self._failure_label} failed: {failure}")
        return [merged[index] for index in sorted(merged)]

    def _broadcast(self, message) -> list:
        """Send the same message to every worker; merge keyed replies."""
        return self._exchange([message] * len(self._handles))

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.send(("close",))
            except (BrokenPipeError, EOFError, OSError):
                pass
        for handle in self._handles:
            handle.join(timeout=5.0)
            if handle.is_alive():
                handle.terminate()
                handle.join(timeout=5.0)
        for handle in self._handles:
            handle.close_endpoint()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _ChainHost:
    """The chain-pool API over one primitive, ``_run(command, *args)``:
    run the named chain command on every chain, results in chain order."""

    def step(
        self,
        rates: np.ndarray,
        burn_in: int = 0,
        n_keep: int = 1,
        accumulate: bool = False,
    ) -> list[np.ndarray]:
        """One E-step round on every chain; returns per-chain statistics.

        With ``accumulate=False`` each chain runs ``burn_in + n_keep``
        sweeps and returns its final-state per-queue totals (the StEM
        E-step).  With ``accumulate=True`` it returns the ``(n_keep,
        n_queues)`` stack of post-burn-in per-sweep totals (the MCEM
        E-step), letting the caller reduce them in chain-major order.
        """
        rates = np.asarray(rates, dtype=float)
        return self._run("step", rates, int(burn_in), int(n_keep), accumulate)

    def collect(
        self, n_samples: int, thin: int = 1, burn_in: int = 0
    ) -> list[PosteriorSamples]:
        """Posterior draws from every chain (see :meth:`GibbsSampler.collect`)."""
        return self._run("collect", int(n_samples), int(thin), int(burn_in))

    def finish(self, rates: np.ndarray) -> list[GibbsSampler]:
        """Set the final rates and hand the evolved samplers over, once;
        the pool is closed afterwards."""
        samplers = self._run("finish", np.asarray(rates, dtype=float))
        self.close()
        return samplers

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LocalChainPool(_ChainHost):
    """The chains hosted in this process, behind the worker pools' API.

    *build_kwargs* go to :func:`build_chain_sampler` — the shard worker
    count (and transport) or the external warm shard pool of a single
    sharded chain.
    """

    def __init__(self, recipes: list[ChainRecipe], **build_kwargs) -> None:
        self._samplers: dict[int, GibbsSampler] | None = {}
        try:
            for recipe in recipes:
                self._samplers[recipe.index] = build_chain_sampler(
                    recipe, **build_kwargs
                )
        except BaseException:
            self.close()
            raise

    @property
    def closed(self) -> bool:
        """Whether the pool has been closed (or has handed its chains over)."""
        return self._samplers is None

    def _run(self, command: str, *args) -> list:
        if self._samplers is None:
            raise InferenceError("the chain pool is closed")
        out = _CHAIN_COMMANDS[command](self._samplers, *args)
        return [out[index] for index in sorted(out)]

    def close(self) -> None:
        """Release the chains' shard workers and thread pools; idempotent."""
        samplers, self._samplers = self._samplers, None
        for sampler in (samplers or {}).values():
            sampler.close()


class PersistentChainPool(_ChainHost, PersistentWorkerPool):
    """Long-lived worker processes holding warm chains.

    Chains never migrate between workers, so results are bitwise identical
    at any ``workers`` count and to :class:`LocalChainPool`.

    Parameters
    ----------
    recipes:
        The chains' recipes (e.g. :func:`chain_recipes`).
    workers:
        Worker process count; clamped to the number of chains.  Defaults
        to one worker per chain.
    transport:
        Worker transport (see :mod:`repro.inference.transport`); defaults
        to local processes over OS pipes.
    """

    _failure_label = "persistent E-step worker"

    def __init__(
        self,
        recipes: list[ChainRecipe],
        workers: int | None = None,
        transport: WorkerTransport | None = None,
    ) -> None:
        super().__init__(recipes, workers, _pool_worker_main, transport)

    def _run(self, command: str, *args) -> list:
        return self._broadcast((command, *args))


def chain_pool(
    recipes: list[ChainRecipe], workers: int | None = None, **build_kwargs
) -> LocalChainPool | PersistentChainPool:
    """The host for *recipes*' chains — the one way chains are executed.

    ``workers=None`` hosts them in this process (:class:`LocalChainPool`,
    which alone takes *build_kwargs*); a count ``N >= 1`` hosts them on
    ``N`` worker processes (:class:`PersistentChainPool`); anything lower
    raises :class:`~repro.errors.InferenceError`.  Results are bitwise
    identical whichever host runs them.
    """
    if workers is None:
        return LocalChainPool(recipes, **build_kwargs)
    return PersistentChainPool(recipes, workers, **build_kwargs)
