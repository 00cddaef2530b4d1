"""Sharded single-chain sweeps: partition a trace, exchange only boundaries.

The paper names online, distributed inference as its most useful future
direction; the scaling gap it leaves open is that a *single chain's* sweep
is bounded by one process even though the conflict-free batches of
:mod:`repro.inference.kernel` are embarrassingly parallel.  This module
closes that gap with the "isolate first, then share" decomposition of
datacenter-scale systems: partition the state into isolated units and let
them interact only through a narrow boundary interface.

Decomposition
-------------
* :func:`partition_tasks` splits the tasks into ``S`` shards — contiguous
  blocks in system-entry order, refined by a min-cut-flavored greedy pass
  over the task-interaction graph (tasks interact when their events are
  within-queue neighbors, the only coupling the Markov blankets of paper
  Figure 2 create).  The residual coupling is reported as ``cut_size``.
* :func:`build_shard_plan` classifies every latent move:

  - **interior** — its Markov blanket lies entirely inside one shard.
    Interior moves of *different* shards never read or write a common
    time, so whole shards can sweep concurrently (across worker
    processes, or batch-threaded within one) while remaining exactly
    equivalent to some sequential scan.
  - **boundary** — its blanket crosses a shard cut.  Boundary moves are
    frozen while shards sweep and are resampled by a scalar master pass
    between super-steps, reading times that the shards exchange.

  Every move still draws from its exact full conditional, so the stitched
  chain targets *the same posterior* as an unsharded sweep; sharding only
  reorders the scan.  With ``S=1`` there are no boundary moves and the
  engine reduces bitwise to the plain array kernel.

Execution modes
---------------
:class:`ShardedSweepEngine` runs the sharded scan either **in-process**
(per-shard restricted array kernels over the full state — the default for
``GibbsSampler(shards=S)``) or **on persistent workers**
(:class:`ShardWorkerPool`): each worker holds its shards' sub-traces
(built by the generalized :func:`~repro.events.subset.subset_tasks`, plus
frozen *ghost* tasks that carry cross-shard ``rho`` neighbors) resident
across super-steps, and only boundary-region times plus per-queue
sufficient statistics cross the process boundary.  The two modes are
bitwise identical at any worker count because every shard's draws are a
pure function of its spawned random stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InferenceError
from repro.events import EventSet
from repro.events.subset import subset_tasks
from repro.inference.conditional import (
    ArrivalBlanketCache,
    DepartureBlanketCache,
    arrival_conditional_cached,
    final_departure_conditional_cached,
)
from repro.inference.kernel import ArraySweepKernel
from repro.inference.native import make_sweep_kernel
from repro.inference.pool import PersistentWorkerPool
from repro.inference.transport import WorkerTransport
from repro.observation import ObservedTrace
from repro.rng import RandomState, as_seed_sequence

#: Feasibility tolerance shared with the M-step statistics.
_SERVICE_ATOL = -1e-9


# ----------------------------------------------------------------------
# Task partitioning.
# ----------------------------------------------------------------------


def task_interaction_graph(events: EventSet) -> dict[tuple[int, int], int]:
    """Weighted task-interaction graph from within-queue adjacency.

    Two tasks interact exactly when some queue's frozen arrival order
    places their events next to each other — the only way one task's times
    enter another task's Markov blankets.  The weight counts the adjacent
    event pairs; a partition's cut size is the total weight of cross-shard
    interactions.
    """
    weights: dict[tuple[int, int], int] = {}
    for q in range(events.n_queues):
        order = events.queue_order(q)
        if order.size < 2:
            continue
        t = events.task[order]
        for a, b in zip(t[:-1].tolist(), t[1:].tolist()):
            if a != b:
                key = (a, b) if a < b else (b, a)
                weights[key] = weights.get(key, 0) + 1
    return weights


@dataclass(frozen=True)
class TaskPartition:
    """A disjoint assignment of tasks to shards.

    Attributes
    ----------
    shards:
        Sorted task ids per shard; every task appears in exactly one.
    assignment:
        ``task id -> shard`` map (the same information, keyed).
    cut_size:
        Total weight of task interactions crossing a shard cut — the
        min-cut objective the greedy refinement minimizes, and a direct
        upper bound on how many moves can be boundary moves.
    """

    shards: tuple[tuple[int, ...], ...]
    assignment: dict[int, int]
    cut_size: int

    @property
    def n_shards(self) -> int:
        """Number of (non-empty) shards."""
        return len(self.shards)

    def event_shards(self, events: EventSet) -> np.ndarray:
        """Per-event shard index under this partition."""
        lookup = np.full(int(events.task.max()) + 1, -1, dtype=np.int64)
        for task, shard in self.assignment.items():
            lookup[task] = shard
        sv = lookup[events.task]
        if np.any(sv < 0):
            raise InferenceError("partition does not cover every task of the trace")
        return sv


def partition_tasks(
    events: EventSet,
    n_shards: int,
    balance: float = 0.3,
    refine_passes: int = 2,
) -> TaskPartition:
    """Partition tasks into shards, greedily minimizing the interaction cut.

    Starts from contiguous blocks in system-entry order (tasks that enter
    the system far apart rarely share queue neighbors, so entry-contiguous
    blocks already cut little) and runs *refine_passes* greedy passes over
    the task→queue interaction graph: a task moves to the neighboring
    shard holding most of its interaction weight whenever that strictly
    shrinks the cut and keeps every shard within ``±balance`` of the even
    size.  Deterministic: ties break toward the lower shard index.

    ``n_shards`` is clamped to the number of tasks.
    """
    if n_shards < 1:
        raise InferenceError(f"need at least one shard, got {n_shards}")
    if not 0.0 <= balance < 1.0:
        raise InferenceError(f"balance must lie in [0, 1), got {balance}")
    # Tasks in system-entry order = queue 0's frozen order.
    entry_tasks = [int(events.task[e]) for e in events.queue_order(0)]
    n = len(entry_tasks)
    n_shards = max(1, min(int(n_shards), n))
    assignment: dict[int, int] = {}
    for s, block in enumerate(np.array_split(np.arange(n), n_shards)):
        for i in block.tolist():
            assignment[entry_tasks[i]] = s
    weights = task_interaction_graph(events)
    if n_shards > 1 and refine_passes > 0 and weights:
        neighbors = _neighbor_lists(weights)
        sizes = np.zeros(n_shards, dtype=np.int64)
        for s in assignment.values():
            sizes[s] += 1
        lo, hi = _balance_bounds(n, n_shards, balance)
        _refine_assignment(
            entry_tasks, assignment, neighbors, sizes, n_shards, lo, hi,
            refine_passes,
        )
    cut = sum(
        w for (a, b), w in weights.items() if assignment[a] != assignment[b]
    )
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    for task in sorted(assignment):
        shards[assignment[task]].append(task)
    shards = [block for block in shards if block]  # drop emptied shards
    assignment = {t: s for s, block in enumerate(shards) for t in block}
    return TaskPartition(
        shards=tuple(tuple(block) for block in shards),
        assignment=assignment,
        cut_size=int(cut),
    )


def _neighbor_lists(
    weights: dict[tuple[int, int], int]
) -> dict[int, list[tuple[int, int]]]:
    """Adjacency lists of the task-interaction graph."""
    neighbors: dict[int, list[tuple[int, int]]] = {}
    for (a, b), w in weights.items():
        neighbors.setdefault(a, []).append((b, w))
        neighbors.setdefault(b, []).append((a, w))
    return neighbors


def _balance_bounds(n: int, n_shards: int, balance: float) -> tuple[int, int]:
    """Allowed shard sizes ``±balance`` around the even split."""
    lo = max(1, int(np.floor((1.0 - balance) * n / n_shards)))
    hi = max(lo, int(np.ceil((1.0 + balance) * n / n_shards)))
    return lo, hi


def _refine_assignment(
    entry_tasks: list[int],
    assignment: dict[int, int],
    neighbors: dict[int, list[tuple[int, int]]],
    sizes: np.ndarray,
    n_shards: int,
    lo: int,
    hi: int,
    refine_passes: int,
) -> None:
    """Greedy min-cut passes over *assignment*, in place.

    A task moves to the shard holding most of its interaction weight
    whenever that strictly shrinks the cut and keeps every shard within
    the ``[lo, hi]`` size band.  Deterministic: ties break toward the
    lower shard index.  Shared by the cold partitioner
    (:func:`partition_tasks`) and the incremental one
    (:func:`refresh_partition`).
    """
    for _ in range(refine_passes):
        moved = False
        for task in entry_tasks:
            s = assignment[task]
            if sizes[s] <= lo:
                continue
            pull = np.zeros(n_shards)
            for other, w in neighbors.get(task, ()):
                pull[assignment[other]] += w
            best, best_gain = s, 0.0
            for r in range(n_shards):
                if r == s or sizes[r] >= hi:
                    continue
                gain = pull[r] - pull[s]
                if gain > best_gain:
                    best, best_gain = r, gain
            if best != s:
                assignment[task] = best
                sizes[s] -= 1
                sizes[best] += 1
                moved = True
        if not moved:
            break


def refresh_partition(
    events: EventSet,
    assignment: dict[int, int],
    n_shards: int,
    balance: float = 0.3,
    refine_passes: int = 1,
) -> TaskPartition:
    """Incrementally update a previous task partition to cover *events*.

    The streaming estimator's re-partition step: instead of rebuilding
    entry-contiguous blocks from scratch (which shifts *every* shard as
    the window slides), surviving tasks keep their previous shard, aged-out
    tasks are dropped, and newly arrived tasks join the shard holding most
    of their interaction weight (falling back to the entry-order
    predecessor's shard, the contiguity heuristic).  A bounded greedy
    refinement then migrates only tasks whose interaction pull moved —
    the "diff the interaction graph against the previous plan" step — so
    shards away from the window edges keep identical task sets and their
    worker residents can be reused wholesale.

    Shard *indices* are stable by construction (an emptied shard is
    refilled from the largest one rather than renumbered), because warm
    worker residency is keyed by shard index.  The result targets the
    same posterior as any other partition — sharding only reorders the
    Gibbs scan — so this is a performance choice, never a correctness
    one.

    Parameters
    ----------
    events:
        The new window's event set (its frozen queue orders define the
        interaction graph).
    assignment:
        The previous window's ``task id -> shard`` map (not mutated).
        Tasks mapped to shards ``>= n_shards`` are treated as new.
    n_shards:
        Shard count; clamped to the task count.
    balance / refine_passes:
        As in :func:`partition_tasks`.
    """
    if n_shards < 1:
        raise InferenceError(f"need at least one shard, got {n_shards}")
    if not 0.0 <= balance < 1.0:
        raise InferenceError(f"balance must lie in [0, 1), got {balance}")
    entry_tasks = [int(events.task[e]) for e in events.queue_order(0)]
    n = len(entry_tasks)
    n_shards = max(1, min(int(n_shards), n))
    current = set(entry_tasks)
    weights = task_interaction_graph(events)
    neighbors = _neighbor_lists(weights)
    new_assignment: dict[int, int] = {
        t: s for t, s in assignment.items() if t in current and 0 <= s < n_shards
    }
    sizes = np.zeros(n_shards, dtype=np.int64)
    for s in new_assignment.values():
        sizes[s] += 1
    lo, hi = _balance_bounds(n, n_shards, balance)
    last_shard = 0
    for task in entry_tasks:
        if task in new_assignment:
            last_shard = new_assignment[task]
            continue
        pull = np.zeros(n_shards)
        for other, w in neighbors.get(task, ()):
            s = new_assignment.get(other)
            if s is not None:
                pull[s] += w
        best: int | None = None
        if pull.any():
            # Most-attached shard with room; ties toward the lower index.
            for s in np.argsort(-pull, kind="stable"):
                if sizes[s] < hi:
                    best = int(s)
                    break
        elif sizes[last_shard] < hi:
            best = last_shard
        if best is None:
            best = int(np.argmin(sizes))
        new_assignment[task] = best
        sizes[best] += 1
        last_shard = best
    # A shard whose tasks all aged out must stay live (worker residency is
    # keyed by shard index): refill it from the largest shard.
    for s in range(n_shards):
        while sizes[s] == 0:
            donor = int(np.argmax(sizes))
            for task in reversed(entry_tasks):
                if new_assignment[task] == donor:
                    new_assignment[task] = s
                    sizes[donor] -= 1
                    sizes[s] += 1
                    break
    if n_shards > 1 and refine_passes > 0 and weights:
        _refine_assignment(
            entry_tasks, new_assignment, neighbors, sizes, n_shards, lo, hi,
            refine_passes,
        )
    cut = sum(
        w for (a, b), w in weights.items()
        if new_assignment[a] != new_assignment[b]
    )
    blocks: list[list[int]] = [[] for _ in range(n_shards)]
    for task in sorted(new_assignment):
        blocks[new_assignment[task]].append(task)
    return TaskPartition(
        shards=tuple(tuple(block) for block in blocks),
        assignment=dict(new_assignment),
        cut_size=int(cut),
    )


def boundary_event_sets(
    events: EventSet, partition: TaskPartition
) -> dict[tuple[int, int], np.ndarray]:
    """Events of shard *a* that are within-queue neighbors of shard *b*.

    The queue-neighbor relation is symmetric, so the boundary is too: an
    event appears in the ``(a, b)`` set exactly when one of its neighbors
    appears in ``(b, a)`` — the property the hypothesis suite pins.
    """
    sv = partition.event_shards(events)
    pairs: dict[tuple[int, int], set[int]] = {}
    for q in range(events.n_queues):
        order = events.queue_order(q)
        if order.size < 2:
            continue
        for e, f in zip(order[:-1].tolist(), order[1:].tolist()):
            a, b = int(sv[e]), int(sv[f])
            if a != b:
                pairs.setdefault((a, b), set()).add(e)
                pairs.setdefault((b, a), set()).add(f)
    return {
        key: np.array(sorted(members), dtype=np.int64)
        for key, members in sorted(pairs.items())
    }


# ----------------------------------------------------------------------
# Move classification.
# ----------------------------------------------------------------------


@dataclass
class ShardPlan:
    """Every latent move of a trace, classified under a task partition.

    Interior moves are grouped per shard (preserving the trace's move
    order, which keeps shard kernels deterministic); boundary moves are
    kept in trace order for the master pass.  ``boundary_reads`` /
    ``boundary_writes`` are the full-trace event indices whose times the
    boundary pass reads / may rewrite — exactly the state that crosses
    the master↔shard interface each super-step.
    """

    partition: TaskPartition
    shard_of_event: np.ndarray
    interior_arrivals: list[np.ndarray]
    interior_departures: list[np.ndarray]
    boundary_arrivals: np.ndarray
    boundary_departures: np.ndarray
    boundary_reads: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    boundary_writes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def n_shards(self) -> int:
        """Number of shards the plan covers."""
        return len(self.interior_arrivals)

    @property
    def n_interior(self) -> int:
        """Latent moves whose blankets stay inside one shard."""
        return sum(a.size for a in self.interior_arrivals) + sum(
            d.size for d in self.interior_departures
        )

    @property
    def n_boundary(self) -> int:
        """Latent moves whose blankets cross a shard cut."""
        return self.boundary_arrivals.size + self.boundary_departures.size

    def frontier(self, shard: int) -> np.ndarray:
        """Shard-owned events whose times the master must see post-sweep."""
        reads = self.boundary_reads
        return reads[self.shard_of_event[reads] == shard]


def _same_shard_mask(
    sv: np.ndarray, moves: np.ndarray, partners: list[np.ndarray]
) -> np.ndarray:
    """True where every existing partner shares the move's shard."""
    ok = np.ones(moves.size, dtype=bool)
    own = sv[moves]
    for partner in partners:
        exists = partner >= 0
        same = sv[np.maximum(partner, 0)] == own
        ok &= ~exists | same
    return ok


def build_shard_plan(
    trace: ObservedTrace, state: EventSet, partition: TaskPartition
) -> ShardPlan:
    """Classify every latent move of *trace* against *partition*.

    The classification reads the *current* structure of ``state`` (its
    ``rho`` pointers move under path-MH queue reassignment), so the plan
    must be rebuilt whenever ``state.structure_version`` moves — the
    engine does this automatically.
    """
    sv = partition.event_shards(state)
    n_shards = partition.n_shards
    la = trace.latent_arrival_events
    pa = state.pi[la]
    a_partners = [
        state.rho[la],
        state.rho_inv[la],
        state.rho[pa],
        state.rho_inv[pa],
    ]
    a_interior = _same_shard_mask(sv, la, a_partners)
    ld = trace.latent_departure_events
    d_partners = [state.rho[ld], state.rho_inv[ld]]
    d_interior = _same_shard_mask(sv, ld, d_partners)
    interior_arrivals = [
        la[a_interior & (sv[la] == s)] for s in range(n_shards)
    ]
    interior_departures = [
        ld[d_interior & (sv[ld] == s)] for s in range(n_shards)
    ]
    ba = la[~a_interior]
    bd = ld[~d_interior]
    bp = state.pi[ba]
    read_members = [
        ba, bp, state.rho[ba], state.rho_inv[ba], state.rho[bp], state.rho_inv[bp],
        bd, state.rho[bd], state.rho_inv[bd],
    ]
    reads = np.concatenate(read_members) if read_members else np.empty(0, np.int64)
    reads = np.unique(reads[reads >= 0])
    writes = np.unique(np.concatenate([ba, bp, bd])) if ba.size + bd.size else (
        np.empty(0, dtype=np.int64)
    )
    return ShardPlan(
        partition=partition,
        shard_of_event=sv,
        interior_arrivals=interior_arrivals,
        interior_departures=interior_departures,
        boundary_arrivals=ba,
        boundary_departures=bd,
        boundary_reads=reads.astype(np.int64),
        boundary_writes=writes.astype(np.int64),
    )


# ----------------------------------------------------------------------
# Shard residents (the worker-side unit).
# ----------------------------------------------------------------------


@dataclass
class ShardResident:
    """Everything one worker needs to host one shard, picklable.

    ``sub_state`` is the shard's sub-trace: its own tasks plus frozen
    *ghost* tasks carrying the cross-shard within-queue ``rho`` neighbors
    its service times depend on.  All index columns are in sub-trace
    coordinates; ``own_rows`` selects the shard's own events (ghosts are
    never swept and never counted in statistics).
    """

    shard: int
    sub_state: EventSet
    interior_arrivals: np.ndarray
    interior_departures: np.ndarray
    own_rows: np.ndarray
    inbound: np.ndarray
    frontier: np.ndarray
    rates: np.ndarray
    rng: np.random.Generator
    shuffle: bool
    threads: int
    #: Batch sweep engine for the shard's interior moves: ``"array"`` or
    #: its compiled lowering ``"native"`` (default keeps old pickles and
    #: call sites working).
    kernel: str = "array"


def _validate_rates(rates: np.ndarray, n_queues: int) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (n_queues,):
        raise InferenceError(
            f"expected {n_queues} rates, got shape {rates.shape}"
        )
    if np.any(~np.isfinite(rates)) or np.any(rates <= 0.0):
        raise InferenceError("all rates must be positive and finite")
    return rates


def _own_service_totals(
    state: EventSet, services: np.ndarray, own_rows: np.ndarray, label: str
) -> np.ndarray:
    """Clamped per-queue service totals over one shard's own events."""
    svc = services[own_rows]
    if svc.size and np.any(svc < _SERVICE_ATOL):
        raise InferenceError(
            f"{label} became infeasible (min service {svc.min():.3e})"
        )
    totals = np.zeros(state.n_queues)
    np.add.at(totals, state.queue[own_rows], np.maximum(svc, 0.0))
    return totals


def _build_resident(r: ShardResident):
    """Build one shard's worker-side unit: caches plus the batch kernel."""
    acache = ArrivalBlanketCache(r.sub_state, r.interior_arrivals, r.rates)
    dcache = DepartureBlanketCache(r.sub_state, r.interior_departures, r.rates)
    kernel = make_sweep_kernel(
        r.kernel, r.sub_state, acache, dcache, r.rates, threads=r.threads
    )
    return (r, kernel, acache, dcache)


def same_shard_structure(a: ShardResident, b: ShardResident) -> bool:
    """Whether two residents for the same shard share every *static* input.

    The blanket caches and the array kernel's conflict-free batches are
    pure functions of the sub-trace structure, the move lists, and the
    threading/shuffle flags — times are read live from the state arrays
    and rates are re-synced on every sweep command.  When this returns
    True a warm worker can keep its built kernel and adopt only the new
    window's time arrays and random stream, producing bitwise the draws a
    cold rebuild would.
    """
    if a.shuffle != b.shuffle or a.threads != b.threads or a.kernel != b.kernel:
        return False
    sa, sb = a.sub_state, b.sub_state
    if sa.n_events != sb.n_events or sa.n_queues != sb.n_queues:
        return False
    if not (
        np.array_equal(sa.task, sb.task)
        and np.array_equal(sa.seq, sb.seq)
        and np.array_equal(sa.queue, sb.queue)
    ):
        return False
    for q in range(sa.n_queues):
        if not np.array_equal(sa.queue_order(q), sb.queue_order(q)):
            return False
    for x, y in (
        (a.interior_arrivals, b.interior_arrivals),
        (a.interior_departures, b.interior_departures),
        (a.own_rows, b.own_rows),
        (a.inbound, b.inbound),
        (a.frontier, b.frontier),
    ):
        if not np.array_equal(x, y):
            return False
    return True


def _shard_worker_main(conn, residents: list[ShardResident]) -> None:
    """Entry point of one shard worker: build kernels, then serve sweeps.

    Messages (tuples, first element is the command):

    * ``("sweep", rates, n_sweeps, inbound)`` — per resident shard: apply
      the master's boundary-region time updates, refresh rates, run
      *n_sweeps* interior sweeps on the resident array kernel, and reply
      with the frontier times, the shard's per-queue service totals, and
      the move counts.
    * ``("adopt", updates)`` — replace / refresh resident shards for a new
      estimation window while the process stays warm.  Per shard the
      payload is ``("resident", r)`` (full rebuild: new structure),
      ``("times", arrivals, departures, rng)`` (same structure: overwrite
      the time arrays in place, adopt the new stream, keep the built
      kernel and caches), or ``("drop",)``.
    * ``("recall",)`` — ship every shard's own times and its evolved
      random stream back but *stay alive* with the residents in place
      (cross-window warm pools); the next ``adopt`` supersedes them.
    * ``("finish",)`` — ship every shard's own times and its evolved
      random stream back, then exit.
    * ``("close",)`` — exit.

    Any exception is reported as ``("error", description)`` and ends the
    worker so the master can shut the pool down cleanly.
    """
    try:
        built = {r.shard: _build_resident(r) for r in residents}
        conn.send(("ready", sorted(built)))
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "sweep":
                _, rates, n_sweeps, inbound = msg
                out = {}
                for shard in sorted(built):
                    r, kernel, acache, dcache = built[shard]
                    rates = _validate_rates(rates, r.sub_state.n_queues)
                    arr_in, dep_in = inbound[shard]
                    r.sub_state.arrival[r.inbound] = arr_in
                    r.sub_state.departure[r.inbound] = dep_in
                    acache.refresh_rates(r.sub_state, rates)
                    dcache.refresh_rates(r.sub_state, rates)
                    kernel.refresh_rates(rates)
                    moves = skipped = 0
                    for _ in range(int(n_sweeps)):
                        m, k = kernel.sweep(r.sub_state, r.rng, shuffle=r.shuffle)
                        moves += m
                        skipped += k
                    totals = _own_service_totals(
                        r.sub_state,
                        r.sub_state.service_times(),
                        r.own_rows,
                        f"shard {shard}",
                    )
                    out[shard] = (
                        r.sub_state.arrival[r.frontier].copy(),
                        r.sub_state.departure[r.frontier].copy(),
                        totals,
                        moves,
                        skipped,
                    )
                conn.send(("ok", out))
            elif cmd == "adopt":
                _, updates = msg
                out = {}
                for shard, payload in updates.items():
                    kind = payload[0]
                    if kind == "resident":
                        superseded = built.get(shard)
                        built[shard] = _build_resident(payload[1])
                        if superseded is not None:
                            # The replaced kernel's thread pool must not
                            # outlive it — rebuilds used to leak threads.
                            superseded[1].close()
                    elif kind == "times":
                        r = built[shard][0]
                        _, arr, dep, rng = payload
                        # In place: the built kernel and caches alias these
                        # arrays.
                        r.sub_state.arrival[:] = arr
                        r.sub_state.departure[:] = dep
                        r.rng = rng
                    else:  # "drop"
                        dropped = built.pop(shard, None)
                        if dropped is not None:
                            dropped[1].close()
                    out[shard] = kind
                conn.send(("ok", out))
            elif cmd in ("finish", "recall"):
                out = {
                    shard: (
                        r.sub_state.arrival[r.own_rows].copy(),
                        r.sub_state.departure[r.own_rows].copy(),
                        r.rng,
                    )
                    for shard, (r, _, _, _) in built.items()
                }
                conn.send(("ok", out))
                if cmd == "finish":
                    return
                # Recalled residents may idle until the next window's
                # adopt; park their kernels' thread pools (the kernels
                # stay built — a later sweep respawns threads lazily).
                for unit in built.values():
                    unit[1].close()
            else:  # "close"
                return
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        for unit in built.values():
            unit[1].close()
        conn.close()


class ShardWorkerPool(PersistentWorkerPool):
    """Persistent worker processes holding resident shard sub-traces.

    Shards are assigned to workers round-robin and never migrate within a
    window; a shard's draws are a pure function of its resident random
    stream, so results are bitwise identical at any worker count and over
    any transport (including the in-process engine built from the same
    plan and streams).
    """

    _failure_label = "shard sweep worker"

    def __init__(
        self,
        residents: list[ShardResident] | None,
        workers: int | None = None,
        transport: WorkerTransport | None = None,
    ):
        super().__init__(residents, workers, _shard_worker_main, transport)

    def sweep(self, rates: np.ndarray, n_sweeps: int, inbound: dict) -> list:
        """One super-step on every shard; returns per-shard replies.

        *inbound* maps shard → ``(arrival_values, departure_values)`` for
        that shard's boundary-region events (the master's writes since the
        last exchange).  Replies are ``(frontier_arrivals,
        frontier_departures, service_totals, n_moves, n_skipped)`` in
        shard order.
        """
        return self._broadcast(
            ("sweep", np.asarray(rates, dtype=float), int(n_sweeps), inbound)
        )

    def finish(self) -> list:
        """Retrieve every shard's own times and random stream, then close."""
        replies = self._broadcast(("finish",))
        self.close()
        return replies


class WarmShardWorkerPool(ShardWorkerPool):
    """A shard worker pool that stays warm *across* estimation windows.

    The streaming estimator's cross-window substrate: worker processes
    (and their transport connections) are spawned once and then serve a
    sequence of windows.  Per window the engine hands the pool its freshly
    built residents via :meth:`adopt`; the pool diffs each shard against
    what its worker currently hosts and ships the minimal update — shards
    whose structure is unchanged (the common case away from the window
    edges under incremental re-partitioning) receive only new time arrays
    and a new random stream, keeping their built blanket caches and
    conflict-free kernel batches.  Because the adopted state is identical
    either way, warm windows are bitwise indistinguishable from cold
    rebuilds — only faster.

    Parameters
    ----------
    workers:
        Worker process count (fixed for the pool's lifetime; shards are
        hosted by worker ``shard % workers``).
    transport:
        Worker transport; defaults to local processes over OS pipes.
    """

    def __init__(self, workers: int, transport: WorkerTransport | None = None):
        super().__init__(None, workers, transport)
        self._hosted: dict[int, ShardResident] = {}
        #: Per-shard update kind shipped by the last :meth:`adopt`
        #: (``"resident"`` = full rebuild, ``"times"`` = warm reuse).
        self.last_adoption: dict[int, str] = {}

    def adopt(self, residents: list[ShardResident]) -> dict[int, str]:
        """Install a new window's residents, shipping only what changed."""
        updates: list[dict[int, tuple]] = [{} for _ in range(self.n_workers)]
        kinds: dict[int, str] = {}
        hosted: dict[int, ShardResident] = {}
        for r in residents:
            worker = r.shard % self.n_workers
            prev = self._hosted.get(r.shard)
            if prev is not None and same_shard_structure(prev, r):
                updates[worker][r.shard] = (
                    "times",
                    r.sub_state.arrival,
                    r.sub_state.departure,
                    r.rng,
                )
                kinds[r.shard] = "times"
            else:
                updates[worker][r.shard] = ("resident", r)
                kinds[r.shard] = "resident"
            hosted[r.shard] = r
        for shard in self._hosted:
            if shard not in hosted:
                updates[shard % self.n_workers][shard] = ("drop",)
        self._hosted = hosted
        self._exchange([("adopt", u) for u in updates])
        self.last_adoption = kinds
        return kinds

    def recall(self) -> list:
        """Pull every shard's own times and stream home; workers stay warm.

        Residents remain hosted so the next window's :meth:`adopt` can
        still diff against them (a tumbling window over a stable region
        reuses everything).
        """
        return self._broadcast(("recall",))

    def probe(self) -> dict:
        """Liveness snapshot of the pool's worker peers.

        The supervision hook for an always-on deployment: a periodic
        probe that sees ``n_alive < n_workers`` on an open pool knows a
        worker was killed before the next sweep trips over the dead
        connection, and the pids let an operator (or a fault-injection
        test) name the victim.
        """
        return {
            "closed": self.closed,
            "n_workers": self.n_workers,
            "n_alive": self.n_alive(),
            "pids": self.worker_pids(),
            "n_hosted_shards": len(self._hosted),
        }

    def close(self) -> None:
        """Shut the pool down and forget hosted residents; idempotent."""
        super().close()
        self._hosted = {}


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


class ShardedSweepEngine:
    """The sharded systematic scan: boundary pass, then per-shard kernels.

    A sweep is the exact-Gibbs scan ``[boundary moves (scalar master
    pass), shard 0 interior (array kernel), ..., shard S-1 interior]``.
    Interior moves of different shards touch disjoint times, so the shard
    segments may execute concurrently (worker processes) without changing
    any draw; with ``n_shards == 1`` the scan *is* the plain array-kernel
    sweep, driven by the caller's generator for bitwise equivalence.

    Parameters
    ----------
    trace / state / rates:
        As in :class:`~repro.inference.gibbs.GibbsSampler`; the engine
        mutates ``state`` in place (in worker mode, only its boundary
        region — see :meth:`finish_workers`).
    n_shards:
        Requested shard count; clamped to the task count by the
        partitioner.
    random_state:
        Seed material for the boundary stream and the per-shard streams
        (spawned, never drawn from).  Unused when the effective shard
        count is 1.
    kernel:
        Batch kernel for every shard's interior sweep: ``"array"``
        (default) or its JIT-compiled lowering ``"native"`` (see
        :mod:`repro.inference.native`); shipped to workers with each
        resident.
    threads:
        Thread count for every shard kernel's batch evaluation; draws
        are bitwise invariant to it.
    workers:
        ``None`` runs shards in-process; a positive count attaches a
        :class:`ShardWorkerPool` over that many processes.
    pool:
        An externally owned :class:`WarmShardWorkerPool` to adopt the
        shards instead of spawning a dedicated pool — the streaming
        estimator's cross-window path.  The engine never closes an
        external pool; :meth:`finish_workers` recalls state and leaves
        the workers warm for the next window.  Ignored when the effective
        shard count is 1 (tiny windows fall back to the plain kernel).
        This is also how shards reach workers over any transport other
        than the dedicated pool's local pipes.
    """

    def __init__(
        self,
        trace: ObservedTrace,
        state: EventSet,
        rates: np.ndarray,
        n_shards: int,
        random_state: RandomState = None,
        shuffle: bool = True,
        kernel: str = "array",
        threads: int = 1,
        workers: int | None = None,
        partition: TaskPartition | None = None,
        pool: "WarmShardWorkerPool | None" = None,
    ) -> None:
        self.trace = trace
        self.shuffle = bool(shuffle)
        self.kernel = str(kernel)
        self.threads = int(threads)
        self._rates = np.asarray(rates, dtype=float).copy()
        if partition is None:
            partition = partition_tasks(state, n_shards)
        self.partition = partition
        self.n_shards = partition.n_shards
        self.plan = build_shard_plan(trace, state, partition)
        self.structure_version = state.structure_version
        if self.n_shards == 1:
            # Bitwise passthrough: the single shard consumes the caller's
            # generator exactly like the plain array kernel would.
            self._boundary_rng = None
            self._shard_rngs = None
        else:
            children = as_seed_sequence(random_state).spawn(self.n_shards + 1)
            self._boundary_rng = np.random.Generator(np.random.PCG64(children[0]))
            self._shard_rngs = [
                np.random.Generator(np.random.PCG64(child)) for child in children[1:]
            ]
        self._own_full = [
            np.flatnonzero(self.plan.shard_of_event == s)
            for s in range(self.n_shards)
        ]
        self._pool: ShardWorkerPool | None = None
        self._owns_pool = True
        self._last_shard_totals: np.ndarray | None = None
        #: Per-shard adoption kinds when attached to an external warm pool
        #: (``"times"`` entries mark shards whose kernels were reused).
        self.adoption: dict[int, str] = {}
        if pool is not None and self.n_shards > 1:
            self._build_master(state, build_kernels=False)
            self._pool = pool
            self._owns_pool = False
            self.adoption = pool.adopt(self._build_residents(state))
        elif workers is not None and self.n_shards > 1:
            self._build_master(state, build_kernels=False)
            self._pool = ShardWorkerPool(
                self._build_residents(state), workers=int(workers)
            )
        else:
            self._build_master(state, build_kernels=True)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _build_master(self, state: EventSet, build_kernels: bool) -> None:
        """Boundary caches always; per-shard kernels for in-process mode."""
        plan = self.plan
        self._boundary_acache = ArrivalBlanketCache(
            state, plan.boundary_arrivals, self._rates
        )
        self._boundary_dcache = DepartureBlanketCache(
            state, plan.boundary_departures, self._rates
        )
        self._ba_slots = np.arange(plan.boundary_arrivals.size)
        self._bd_slots = np.arange(plan.boundary_departures.size)
        old = getattr(self, "_kernels", None)
        if old is not None:
            for kernel in old:
                kernel.close()
        self._kernels: list[ArraySweepKernel] | None = None
        if build_kernels:
            self._build_shard_kernels(state)

    def _build_shard_kernels(self, state: EventSet) -> None:
        """Per-shard restricted caches + batch kernels (in-process sweeps)."""
        plan = self.plan
        self._kernels = []
        for s in range(self.n_shards):
            acache = ArrivalBlanketCache(
                state, plan.interior_arrivals[s], self._rates
            )
            dcache = DepartureBlanketCache(
                state, plan.interior_departures[s], self._rates
            )
            self._kernels.append(
                make_sweep_kernel(
                    self.kernel, state, acache, dcache, self._rates,
                    threads=self.threads,
                )
            )

    def _ghost_tasks(self, state: EventSet, shard: int) -> set[int]:
        """Foreign tasks whose events are ``rho`` predecessors of own events.

        A shard's own service times read ``d_rho(e)``; keeping these
        cross-shard predecessors around as frozen ghost tasks makes the
        sub-trace's restricted ``rho`` pointers agree with the full trace
        on every own event, so worker-side statistics are exact.
        """
        own = self._own_full[shard]
        preds = state.rho[own]
        preds = preds[preds >= 0]
        foreign = preds[self.plan.shard_of_event[preds] != shard]
        return {int(t) for t in state.task[foreign]}

    def _build_residents(self, state: EventSet) -> list[ShardResident]:
        """One picklable resident per shard, plus the master's index maps."""
        plan = self.plan
        residents = []
        self._frontier_full = []
        self._inbound_full = []
        for s in range(self.n_shards):
            own_tasks = set(plan.partition.shards[s])
            tasks = sorted(own_tasks | self._ghost_tasks(state, s))
            sub_state, kept = subset_tasks(state, tasks)
            submap = np.full(state.n_events, -1, dtype=np.int64)
            submap[kept] = np.arange(kept.size)
            frontier_full = plan.frontier(s)
            inbound_full = np.intersect1d(plan.boundary_writes, kept)
            self._frontier_full.append(frontier_full)
            self._inbound_full.append(inbound_full)
            residents.append(
                ShardResident(
                    shard=s,
                    sub_state=sub_state,
                    interior_arrivals=submap[plan.interior_arrivals[s]],
                    interior_departures=submap[plan.interior_departures[s]],
                    own_rows=submap[self._own_full[s]],
                    inbound=submap[inbound_full],
                    frontier=submap[frontier_full],
                    rates=self._rates.copy(),
                    rng=self._shard_rngs[s],
                    shuffle=self.shuffle,
                    threads=self.threads,
                    kernel=self.kernel,
                )
            )
        # The masters' copies of the shard streams go stale the moment the
        # workers draw from theirs; finish_workers() restores them.
        self._shard_rngs = None
        return residents

    # ------------------------------------------------------------------
    # Parameters and structure.
    # ------------------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Whether shard workers are currently attached."""
        return self._pool is not None

    def refresh_rates(self, state: EventSet, rates: np.ndarray) -> None:
        """Adopt a new rate vector (the StEM M-step hook)."""
        self._rates = np.asarray(rates, dtype=float).copy()
        self._boundary_acache.refresh_rates(state, self._rates)
        self._boundary_dcache.refresh_rates(state, self._rates)
        if self._kernels is not None:
            for kernel in self._kernels:
                kernel.refresh_rates(self._rates)
        # Workers receive the rates with the next sweep command.

    def _ensure_fresh(self, state: EventSet) -> None:
        if state.structure_version == self.structure_version:
            return
        if self.pooled:
            raise InferenceError(
                "event-set structure changed while shard workers were "
                "attached; path-MH moves require the in-process engine"
            )
        self.plan = build_shard_plan(self.trace, state, self.partition)
        self._own_full = [
            np.flatnonzero(self.plan.shard_of_event == s)
            for s in range(self.n_shards)
        ]
        self._build_master(state, build_kernels=True)
        self.structure_version = state.structure_version

    # ------------------------------------------------------------------
    # Sweeping.
    # ------------------------------------------------------------------

    def sweep(self, state: EventSet, rng: np.random.Generator) -> tuple[int, int]:
        """One full systematic scan; returns ``(n_moves, n_skipped)``.

        *rng* drives the scan only when ``n_shards == 1`` (the bitwise
        passthrough); otherwise the boundary and shard streams spawned at
        construction are used, which makes the scan deterministic at a
        fixed seed for any shard count and any worker count.
        """
        self._ensure_fresh(state)
        if self.pooled:
            return self._pooled_sweep(state)
        return self._serial_sweep(state, rng)

    def _ensure_kernels(self, state: EventSet) -> None:
        """Build the per-shard master kernels on first in-process use.

        :meth:`finish_workers` defers this: a streaming window ends with
        a finish but never sweeps in-process again, so eagerly rebuilding
        every shard's caches and conflict-free batches there would pay
        the exact cost the warm workers just avoided.
        """
        if self._kernels is None:
            self._build_shard_kernels(state)

    def _serial_sweep(
        self, state: EventSet, rng: np.random.Generator
    ) -> tuple[int, int]:
        self._ensure_kernels(state)
        moves, skipped = self._boundary_pass(state, self._boundary_rng or rng)
        for s in range(self.n_shards):
            shard_rng = self._shard_rngs[s] if self._shard_rngs is not None else rng
            m, k = self._kernels[s].sweep(state, shard_rng, shuffle=self.shuffle)
            moves += m
            skipped += k
        return moves, skipped

    def _pooled_sweep(self, state: EventSet) -> tuple[int, int]:
        moves, skipped = self._boundary_pass(state, self._boundary_rng)
        inbound = {
            s: (
                state.arrival[self._inbound_full[s]].copy(),
                state.departure[self._inbound_full[s]].copy(),
            )
            for s in range(self.n_shards)
        }
        replies = self._pool.sweep(self._rates, 1, inbound)
        totals = np.zeros(state.n_queues)
        for s, (f_arr, f_dep, part, m, k) in enumerate(replies):
            idx = self._frontier_full[s]
            state.arrival[idx] = f_arr
            state.departure[idx] = f_dep
            totals = totals + part
            moves += m
            skipped += k
        self._last_shard_totals = totals
        return moves, skipped

    def _boundary_pass(
        self, state: EventSet, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Resample every boundary move from its exact full conditional.

        The scalar mirror of the blanket-cached object sweep: arrival
        moves first, then task-final departures, each slot order shuffled
        by the boundary stream when *shuffle* is set.
        """
        if self._ba_slots.size == 0 and self._bd_slots.size == 0:
            return 0, 0
        moves = skipped = 0
        arrival = state.arrival
        departure = state.departure
        a_order = self._ba_slots
        d_order = self._bd_slots
        if self.shuffle:
            a_order = rng.permutation(a_order)
            d_order = rng.permutation(d_order)
        acache = self._boundary_acache
        dcache = self._boundary_dcache
        for i in a_order:
            dist = arrival_conditional_cached(arrival, departure, acache, int(i))
            if dist is None:
                skipped += 1
                continue
            state.set_arrival(acache.events[i], dist.sample(rng))
            moves += 1
        for i in d_order:
            dist = final_departure_conditional_cached(
                arrival, departure, dcache, int(i)
            )
            if dist is None:
                skipped += 1
                continue
            departure[dcache.events[i]] = dist.sample(rng)
            moves += 1
        return moves, skipped

    def profile_sweep(
        self, state: EventSet, rng: np.random.Generator
    ) -> dict[str, object]:
        """One in-process sweep with a wall-clock breakdown.

        Returns ``{"boundary": seconds, "shards": [seconds, ...]}`` for
        the scan segments that an attached worker pool would overlap —
        ``boundary + max(shards)`` is the critical path of a perfectly
        parallel super-step, the quantity
        ``benchmarks/bench_shard_scaling.py`` reports as the modeled
        parallel speedup.
        """
        if self.pooled:
            raise InferenceError("profiling runs on the in-process engine")
        self._ensure_fresh(state)
        self._ensure_kernels(state)
        t0 = time.perf_counter()
        self._boundary_pass(state, self._boundary_rng or rng)
        boundary = time.perf_counter() - t0
        shard_times = []
        for s in range(self.n_shards):
            shard_rng = self._shard_rngs[s] if self._shard_rngs is not None else rng
            t0 = time.perf_counter()
            self._kernels[s].sweep(state, shard_rng, shuffle=self.shuffle)
            shard_times.append(time.perf_counter() - t0)
        return {"boundary": boundary, "shards": shard_times}

    # ------------------------------------------------------------------
    # Statistics and lifecycle.
    # ------------------------------------------------------------------

    def service_totals(self, state: EventSet) -> np.ndarray:
        """Per-queue service totals, accumulated shard by shard.

        In-process: computed from the full state with the same per-shard
        association (partial sums in shard order) the worker pool uses, so
        the two modes agree bitwise.  Pooled: the totals shipped with the
        last super-step's replies.
        """
        if self.pooled:
            if self._last_shard_totals is None:
                raise InferenceError(
                    "no shard statistics yet; run at least one sweep"
                )
            return self._last_shard_totals.copy()
        services = state.service_times()
        totals = np.zeros(state.n_queues)
        for s in range(self.n_shards):
            totals = totals + _own_service_totals(
                state, services, self._own_full[s], f"shard {s}"
            )
        return totals

    def finish_workers(self, state: EventSet) -> None:
        """Pull worker state back, detach the pool, go in-process.

        Every shard's own times are scattered into ``state`` (making it
        the complete stitched chain state) and the evolved per-shard
        generators are adopted, so subsequent in-process sweeps continue
        the exact random streams — a pooled run followed by
        ``finish_workers`` is bitwise indistinguishable from a run that
        was in-process all along.  A dedicated pool is closed; an external
        warm pool is only *recalled* — its processes stay alive for the
        next window.
        """
        if not self.pooled:
            return
        if self._owns_pool:
            replies = self._pool.finish()
        else:
            replies = self._pool.recall()
        self._pool = None
        rngs = []
        for s, (arr, dep, rng) in enumerate(replies):
            own = self._own_full[s]
            state.arrival[own] = arr
            state.departure[own] = dep
            rngs.append(rng)
        self._shard_rngs = rngs
        self._last_shard_totals = None
        # Boundary caches are rebuilt now (cheap, and needed by any
        # subsequent set_rates); the per-shard kernels are deferred to the
        # first in-process sweep — a streaming window that finishes and is
        # discarded never pays for them.
        self._build_master(state, build_kernels=False)

    def close(self) -> None:
        """Drop any attached workers without syncing state; idempotent.

        Never closes an externally owned warm pool — its owner decides
        when the cross-window workers die.  In-process shard kernels shut
        down their thread pools so repeated engine rebuilds cannot leak
        executor threads.
        """
        if self._pool is not None:
            if self._owns_pool:
                self._pool.close()
            self._pool = None
        kernels = getattr(self, "_kernels", None)
        if kernels is not None:
            for kernel in kernels:
                kernel.close()
