"""Command-line interface: ``python -m repro`` or ``repro-queueing``.

Subcommands
-----------
simulate
    Simulate a built-in topology and write the ground-truth trace as JSONL.
infer
    Load a trace, censor it to a task-sampled observation rate, run StEM +
    Gibbs, and print parameter estimates plus a bottleneck report.
stream
    Replay a trace as an online stream: sliding-window StEM with warm
    cross-window shard workers, printing the per-window rate series and
    any anomalies it reveals.
serve
    Run the live estimation service: a TCP ingestion + query server
    feeding a LiveTraceStream into the streaming estimator, publishing
    window estimates and anomaly flags, with optional checkpointing.
ingest
    Replay a recorded trace into a running `repro serve` instance at a
    configurable speedup — the two-terminal live demo, and the reference
    for what a real reporting agent would ship.
top
    Live ops console for a running `repro serve` or `repro route`
    instance: rate/utilization sparklines, phase-latency bars, worker
    liveness, and stream counters, refreshed in place.
experiment
    Run a reduced-scale version of one of the paper's experiments
    (fig4 / fig5 / variance) and print the result tables.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields

import numpy as np

from repro.errors import InferenceError, IngestError
from repro.events import load_jsonl, save_jsonl
from repro.experiments import (
    quick_fig4_config,
    quick_fig5_config,
    run_fig4,
    run_fig5,
    run_variance_comparison,
    render_table,
)
from repro.inference import (
    MultiChainSampler,
    PosteriorSummary,
    estimate_posterior,
    run_stem,
)
from repro.inference.gibbs import KERNELS
from repro.inference.transport import PipeTransport, SocketTransport
from repro.localization import rank_bottlenecks, render_report
from repro.network import build_tandem_network, build_three_tier_network
from repro.observation import TaskSampling
from repro.online import (
    ESTIMATORS,
    EstimatorConfig,
    ReplayTraceStream,
    detect_anomalies,
    get_estimator,
)
from repro.simulate import simulate_network
from repro.webapp import WebAppConfig, generate_webapp_trace

#: The estimator flags of ``stream``/``serve``/``route``, one row per
#: :class:`~repro.online.EstimatorConfig` field: ``(flag, field, type or
#: choices, help)``.  The one field that is not a flag, ``window``, is set
#: per command.
_ESTIMATOR_FLAGS = (
    ("--step", "step", float,
     "window start spacing (default: the window length; smaller values "
     "overlap windows, which maximizes warm-shard reuse)"),
    ("--iterations", "stem_iterations", int, "StEM iterations per window"),
    ("--min-observed", "min_observed_tasks", int,
     "windows with fewer fully observed tasks are skipped"),
    ("--shards", "shards", int,
     "sharded sweeps per window (clamped to each window's task count)"),
    ("--shard-workers", "shard_workers", int,
     "host the shard sweeps on this many worker processes, kept warm "
     "across windows (results identical at any worker count)"),
    ("--kernel", "kernel", KERNELS,
     "sweep kernel for every window's E-step chains ('native' falls back "
     "to 'array' when numba is unavailable)"),
    ("--threads", "threads", int,
     "threads for the batch kernels' chunked evaluation (results are "
     "bitwise identical at any thread count)"),
    ("--worker-retries", "worker_retries", int,
     "times a window whose shard worker pool died is re-run on a "
     "relaunched pool before its failure is recorded as data"),
    ("--particles", "n_particles", int,
     "SMC particle count (--estimator smc only)"),
    ("--ess-threshold", "ess_threshold", float,
     "resample + rejuvenate when the effective sample size falls below "
     "this fraction of the particle count (--estimator smc only)"),
    ("--rejuvenation-sweeps", "rejuvenation_sweeps", int,
     "Gibbs sweeps per particle per rejuvenation trigger "
     "(--estimator smc only)"),
)

#: Where the CLI's documented default differs from the dataclass default.
_CLI_DEFAULTS = {"stem_iterations": 30}

#: ``serve`` flags a checkpoint freezes besides the estimator table.
_RESTORE_FROZEN = (
    "--queues", "--window", "--seed", "--lateness", "--max-pending",
    "--retain", "--estimator",
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    """Add ``--estimator`` and the table's flags, all defaulting to None
    so "not passed" is distinguishable (``serve --restore`` needs it)."""
    p.add_argument(
        "--estimator", choices=tuple(ESTIMATORS), default=None,
        help="estimator flavor: 'stem' reruns windowed StEM per window "
        "(default); 'smc' advances a particle population per poll "
        "batch with ESS-triggered Gibbs rejuvenation — O(arrivals) "
        "between triggers, the win under heavy window overlap",
    )
    defaults = {f.name: f.default for f in fields(EstimatorConfig)}
    defaults.update(_CLI_DEFAULTS)
    for flag, field, kind, text in _ESTIMATOR_FLAGS:
        default = defaults[field]
        check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        p.add_argument(
            flag, default=None, **check,
            help=text if default is None else f"{text} (default: {default})",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-queueing",
        description="Probabilistic inference in queueing networks (Sutton & Jordan 2008).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a topology to a JSONL trace")
    sim.add_argument(
        "--topology",
        choices=["three-tier", "tandem", "webapp"],
        default="three-tier",
    )
    sim.add_argument("--tasks", type=int, default=1000)
    sim.add_argument("--arrival-rate", type=float, default=10.0)
    sim.add_argument("--service-rate", type=float, default=5.0)
    sim.add_argument(
        "--servers", type=int, nargs="+", default=[1, 2, 4],
        help="servers per tier (three-tier) or station count (tandem)",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output JSONL path")

    inf = sub.add_parser("infer", help="run StEM + Gibbs on a censored trace")
    inf.add_argument("trace", help="JSONL trace written by `simulate`")
    inf.add_argument("--observe", type=float, default=0.1, help="observed task fraction")
    inf.add_argument("--iterations", type=int, default=100)
    inf.add_argument("--seed", type=int, default=0)
    inf.add_argument(
        "--chains", type=int, default=1,
        help="independent Gibbs chains for the E-steps and the posterior; "
        "more than one adds split-R^hat / ESS convergence diagnostics",
    )
    inf.add_argument(
        "--workers", type=int, default=None,
        help="worker processes hosting the chains — the StEM E-step chains, "
        "kept resident across EM iterations, and the posterior chains; with "
        "a single chain and --shards > 1, the chain's shards (default: "
        "in-process; results are bitwise identical at any worker count)",
    )
    inf.add_argument(
        "--kernel", choices=KERNELS, default="array",
        help="Gibbs sweep engine: 'array' (vectorized conflict-free "
        "batches, the fast default), 'native' (the array sweep with "
        "JIT-compiled piecewise loops; falls back to 'array' when numba "
        "is unavailable), or 'object' (the per-move scalar reference "
        "path)",
    )
    inf.add_argument(
        "--threads", type=int, default=1,
        help="threads for the batch kernels' chunked evaluation "
        "(results are bitwise identical at any thread count)",
    )
    inf.add_argument(
        "--shards", type=int, default=1,
        help="partition each chain's sweep across this many task shards "
        "(interior moves sweep per shard, only boundary events are "
        "exchanged between super-steps; same posterior, shards=1 is the "
        "plain kernel); combine with --workers to distribute one chain's "
        "shards across worker processes",
    )

    stream = sub.add_parser(
        "stream",
        help="sliding-window estimation over a replayed trace "
        "(StEM with warm shard workers, or the SMC particle filter)",
    )
    stream.add_argument("trace", help="JSONL trace written by `simulate`")
    stream.add_argument(
        "--observe", type=float, default=0.2, help="observed task fraction"
    )
    stream.add_argument(
        "--windows", type=int, default=8,
        help="number of tumbling windows the trace horizon is split into "
        "(ignored when --window is given)",
    )
    stream.add_argument(
        "--window", type=float, default=None,
        help="window length in trace clock units (overrides --windows)",
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--transport", choices=["pipe", "socket"], default="pipe",
        help="worker transport: OS pipes (default) or loopback TCP "
        "sockets — the same wire protocol remote workers would speak",
    )
    stream.add_argument(
        "--anomaly-threshold", type=float, default=4.0,
        help="robust z-score above which a window's rate shift is flagged",
    )
    _add_estimator_flags(stream)

    serve = sub.add_parser(
        "serve",
        help="run the live estimation service (ingestion server + estimator)",
        description=(
            "Start an always-on estimation service: a TCP server accepts "
            "measurement records, a LiveTraceStream assembles them, and the "
            "streaming estimator publishes per-window rate estimates with "
            "anomaly flags, queryable over the same connection. "
            "Example: `repro serve --queues 3 --window 15 --port 7577 "
            "--authkey secret` then, in another terminal, `repro ingest "
            "trace.jsonl --connect 127.0.0.1:7577 --authkey secret --wait`."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one, printed on start)")
    serve.add_argument(
        "--authkey", default=None,
        help="shared handshake secret clients must present "
        "(default: a development-only key; set your own for anything "
        "reachable from an untrusted network)",
    )
    serve.add_argument(
        "--queues", type=int, default=None,
        help="queue count of the monitored network, including entry queue 0 "
        "(required unless --restore)",
    )
    serve.add_argument(
        "--window", type=float, default=None,
        help="estimation window length in trace clock units "
        "(required unless --restore)",
    )
    # Stream and service flags default to None so the --restore branch
    # can tell "explicitly passed" from "defaulted" — a checkpoint freezes
    # them, and silently ignoring an explicit value would mislead the
    # operator.  Real defaults are applied in _cmd_serve.
    serve.add_argument("--seed", type=int, default=None,
                       help="estimation seed (default: 0)")
    serve.add_argument(
        "--lateness", type=float, default=None,
        help="grace interval behind the watermark within which measurements "
        "are still admitted; older ones are dropped as stragglers "
        "(default: 0)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help="buffered-record bound before ingestion backpressure "
        "(default: 100000)",
    )
    serve.add_argument(
        "--retain", type=float, default=None,
        help="retention horizon in trace clock units: finished tasks older "
        "than watermark minus this (and out of reach of every future "
        "window) are folded into summary statistics and evicted, bounding "
        "memory and checkpoint size (default: keep full history)",
    )
    serve.add_argument("--checkpoint", default=None,
                       help="snapshot service state to this path")
    serve.add_argument("--checkpoint-every", type=int, default=None,
                       help="published windows between snapshots (default: 1)")
    serve.add_argument(
        "--restore", default=None,
        help="resume from a checkpoint written by a previous serve run "
        "(ingestion clients replay the tail; duplicates are ignored)",
    )
    serve.add_argument("--anomaly-threshold", type=float, default=None,
                       help="robust z-score flagging threshold (default: 4)")
    _add_estimator_flags(serve)

    ing = sub.add_parser(
        "ingest",
        help="replay a recorded trace into a running `repro serve` instance",
        description=(
            "Censor a recorded ground-truth trace to an observed fraction "
            "and ship it to a live server as measurement records, in entry "
            "order with the watermark advanced alongside — at a wall-clock "
            "speedup, or as fast as the server admits. Example: `repro "
            "ingest trace.jsonl --connect 127.0.0.1:7577 --authkey secret "
            "--speedup 20 --wait`."
        ),
    )
    ing.add_argument("trace", help="JSONL trace written by `simulate`")
    ing.add_argument("--connect", default="127.0.0.1:7577",
                     help="host:port of the running server")
    ing.add_argument("--authkey", default=None,
                     help="shared handshake secret (must match the server's)")
    ing.add_argument("--observe", type=float, default=0.2,
                     help="observed task fraction")
    ing.add_argument("--seed", type=int, default=0,
                     help="observation-sampling seed")
    ing.add_argument(
        "--speedup", type=float, default=0.0,
        help="replay trace clock this many times faster than real time "
        "(0 = no pacing, ship as fast as the server admits)",
    )
    ing.add_argument("--batch", type=int, default=32,
                     help="tasks per ingestion batch")
    ing.add_argument("--no-seal", action="store_true",
                     help="leave the stream open after the replay ends")
    ing.add_argument(
        "--wait", action="store_true",
        help="after sealing, block until the service finishes and print "
        "the published window estimates",
    )
    ing.add_argument(
        "--shutdown", action="store_true",
        help="ask the serving process to exit once this client is done",
    )

    top = sub.add_parser(
        "top",
        help="live ops console for a running serve/route instance",
        description=(
            "Poll a running `repro serve` (or a router tier's front "
            "server) and redraw a terminal dashboard each interval: "
            "per-queue rate and utilization sparklines with anomaly "
            "flags, pipeline phase-latency bars, worker liveness, and "
            "stream admission counters. Example: `repro top --connect "
            "127.0.0.1:7577 --authkey secret`."
        ),
    )
    top.add_argument("--connect", default="127.0.0.1:7577",
                     help="host:port of the running server")
    top.add_argument("--authkey", default=None,
                     help="shared handshake secret (must match the server's)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen clear)")
    top.add_argument("--windows", type=int, default=64,
                     help="recent windows to chart in the sparklines")

    route = sub.add_parser(
        "route",
        help="run a multi-service estimation tier behind one ingest router",
        description=(
            "Start a shared-nothing estimation tier: N independent "
            "estimator services in their own processes, fronted by an "
            "ingest router that stripes the entry keyspace across them, "
            "merges estimates/anomalies/health, and supervises the "
            "services (a killed service restarts from its checkpoint and "
            "the router replays its spooled tail). Clients speak the "
            "ordinary live protocol — `repro ingest` works unchanged. "
            "Example: `repro route --services 4 --queues 3 --window 15 "
            "--checkpoint-dir ckpts --port 7577 --authkey secret`."
        ),
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one, printed on start)")
    route.add_argument(
        "--authkey", default=None,
        help="shared handshake secret, used both by clients of the router "
        "and on the router's internal links to its partition services",
    )
    route.add_argument("--services", type=int, default=2,
                       help="independent estimator services to run")
    route.add_argument("--queues", type=int, required=True,
                       help="queue count of the monitored network, "
                       "including entry queue 0")
    route.add_argument("--window", type=float, required=True,
                       help="estimation window length in trace clock units")
    route.add_argument("--seed", type=int, default=0,
                       help="estimation seed (each service derives its own "
                       "child seed from it)")
    route.add_argument(
        "--lateness", type=float, default=0.0,
        help="grace interval behind the watermark within which measurements "
        "are still admitted; older ones are dropped as stragglers",
    )
    route.add_argument("--max-pending", type=int, default=100_000,
                       help="per-service buffered-record bound before "
                       "ingestion backpressure")
    route.add_argument(
        "--retain", type=float, default=None,
        help="per-service retention horizon in trace clock units "
        "(default: keep full history)",
    )
    route.add_argument(
        "--block", type=int, default=None,
        help="entry slots per stripe block; tasks entering within one "
        "block land on the same service (default: 32)",
    )
    route.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for per-service snapshots (partition-N.ckpt); "
        "required for crash recovery of a killed service",
    )
    route.add_argument("--checkpoint-every", type=int, default=1,
                       help="published windows between snapshots")
    route.add_argument(
        "--max-spool", type=int, default=100_000,
        help="acked-but-uncheckpointed records the router retains per "
        "service for crash replay before evicting the oldest",
    )
    route.add_argument(
        "--probe-interval", type=float, default=1.0,
        help="seconds between supervisor liveness probes of each service",
    )
    route.add_argument("--anomaly-threshold", type=float, default=4.0,
                       help="robust z-score flagging threshold")
    _add_estimator_flags(route)

    exp = sub.add_parser("experiment", help="run a reduced-scale paper experiment")
    exp.add_argument("which", choices=["fig4", "fig5", "variance"])
    exp.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.topology == "three-tier":
        network = build_three_tier_network(
            arrival_rate=args.arrival_rate,
            servers_per_tier=tuple(args.servers),
            service_rate=args.service_rate,
        )
        sim = simulate_network(network, args.tasks, random_state=args.seed)
    elif args.topology == "tandem":
        network = build_tandem_network(
            arrival_rate=args.arrival_rate,
            service_rates=[args.service_rate] * len(args.servers),
        )
        sim = simulate_network(network, args.tasks, random_state=args.seed)
    else:
        sim = generate_webapp_trace(
            WebAppConfig(n_requests=args.tasks), random_state=args.seed
        )
    save_jsonl(sim.events, args.out)
    print(f"wrote {sim.events.n_events} events ({sim.events.n_tasks} tasks) to {args.out}")
    print(sim.network.describe())
    return 0


#: ``infer``'s sampler flags, each with the word a library error about
#: its value contains; such an error exits naming the flag.
_INFER_FLAGS = (
    ("--chains", "chain"), ("--workers", "worker"), ("--shards", "shard"),
    ("--threads", "thread"), ("--kernel", "kernel"),
)


def _cmd_infer(args: argparse.Namespace) -> int:
    try:
        return _infer(args)
    except InferenceError as exc:
        text = str(exc)
        for flag, word in _INFER_FLAGS:
            if re.search(rf"\b{word}s?\b", text):
                raise SystemExit(f"{flag}: {text}")
        raise SystemExit(text)


def _infer(args: argparse.Namespace) -> int:
    events = load_jsonl(args.trace)
    trace = TaskSampling(fraction=args.observe).observe(events, random_state=args.seed)
    print(trace.summary())
    if args.workers and args.chains == 1 and args.shards == 1:
        print(
            "note: --workers with a single unsharded chain moves the one "
            "chain into a worker process (no speedup expected)",
            file=sys.stderr,
        )
    stem = run_stem(
        trace, n_iterations=args.iterations, random_state=args.seed,
        init_method="heuristic", n_chains=args.chains, kernel=args.kernel,
        persistent_workers=args.workers, shards=args.shards,
        threads=args.threads,
    )
    print(f"\nestimated arrival rate lambda = {stem.arrival_rate:.4g}")
    if args.chains > 1:
        multi = MultiChainSampler(
            trace, rates=stem.rates, n_chains=args.chains,
            random_state=args.seed + 1, kernel=args.kernel,
            shards=args.shards,
        ).collect(n_samples=25, thin=1, burn_in=10, workers=args.workers)
        posterior = PosteriorSummary.from_samples(stem.rates, multi.pooled())
        r_hat = multi.split_r_hat("waiting")
        ess = multi.ess("waiting")
        rows = [
            (q, f"{stem.rates[q]:.4g}", f"{1.0 / stem.rates[q]:.4g}",
             f"{posterior.waiting_mean[q]:.4g}", f"{r_hat[q]:.3f}", f"{ess[q]:.0f}")
            for q in range(1, events.n_queues)
        ]
        print(render_table(
            ["queue", "mu-hat", "service", "waiting", "split-Rhat", "ESS"],
            rows, title=f"\nper-queue estimates ({args.chains} chains)",
        ))
        print(f"\n{multi.summary()}")
    else:
        posterior = estimate_posterior(
            trace, rates=stem.rates, n_samples=25, burn_in=10,
            state=stem.sampler.state, random_state=args.seed + 1,
            kernel=args.kernel,
        )
        rows = [
            (q, f"{stem.rates[q]:.4g}", f"{1.0 / stem.rates[q]:.4g}",
             f"{posterior.waiting_mean[q]:.4g}")
            for q in range(1, events.n_queues)
        ]
        print(render_table(
            ["queue", "mu-hat", "service", "waiting"], rows,
            title="\nper-queue estimates",
        ))
    print("\nbottleneck ranking:")
    print(render_report(rank_bottlenecks(posterior)))
    return 0


def _estimator_config(args, window) -> EstimatorConfig:
    """Build the config from the table's flags (unpassed ones keep the
    CLI defaults); a rejected value exits naming its flag."""
    kwargs = {"window": window, **_CLI_DEFAULTS}
    flag, field = "--window", "window"
    try:
        config = EstimatorConfig(**kwargs)
        # One flag at a time, in table order, so the error names the flag
        # whose value the config rejects.
        for flag, field, _, _ in _ESTIMATOR_FLAGS:
            value = getattr(args, _dest(flag))
            if value is not None:
                kwargs[field] = value
                config = EstimatorConfig(**kwargs)
    except InferenceError as exc:
        text = re.sub(rf"\b{field}\b", flag, str(exc))
        raise SystemExit(text if flag in text else f"{flag}: {text}")
    return config


def _build_estimator(name, stream, *, random_state, config, transport=None):
    try:
        return get_estimator(name or "stem")(
            stream, config, random_state=random_state, transport=transport
        )
    except InferenceError as exc:
        if transport is not None:
            transport.close()
        raise SystemExit(str(exc))


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.transport != "pipe" and args.shard_workers is None:
        raise SystemExit(
            "--transport selects the worker transport; pass --shard-workers "
            "(with --shards > 1) or drop it"
        )
    if args.windows < 1:
        raise SystemExit("--windows must be at least 1")
    events = load_jsonl(args.trace)
    trace = TaskSampling(fraction=args.observe).observe(events, random_state=args.seed)
    print(trace.summary())
    source = ReplayTraceStream(trace)
    window = (
        args.window if args.window is not None else source.horizon / args.windows
    )
    config = _estimator_config(args, window)
    transport = SocketTransport() if args.transport == "socket" else PipeTransport()
    estimator = _build_estimator(
        args.estimator, source,
        random_state=args.seed, config=config, transport=transport,
    )
    windows = estimator.run()  # closes the pool and the owned transport
    rows = []
    for i, est in enumerate(windows):
        services = (
            " ".join(f"{est.mean_service(q):.4g}" for q in range(1, events.n_queues))
            if est.ok
            else (est.failure or "skipped")
        )
        rows.append((
            i, f"{est.t_start:.1f}", f"{est.t_end:.1f}", est.n_tasks,
            est.n_observed_tasks, est.n_shards,
            f"{est.n_warm_shards}/{est.n_warm_shards + est.n_migrated_shards}",
            services,
        ))
    print(render_table(
        ["win", "t0", "t1", "tasks", "obs", "shards", "warm", "mean service (q1..)"],
        rows, title="\nstreaming window estimates",
    ))
    reports = detect_anomalies(windows, threshold=args.anomaly_threshold)
    if reports:
        print("\nanomalies:")
        for r in reports:
            print(
                f"  window {r.window_index} [{r.t_start:.1f}, {r.t_end:.1f}) "
                f"queue {r.queue}: mean service {r.value:.4g} vs baseline "
                f"{r.baseline:.4g} (z={r.z_score:.1f})"
            )
    else:
        print("\nno anomalies flagged")
    return 0


def _authkey(value: str | None) -> bytes:
    from repro.live import DEFAULT_AUTHKEY

    return DEFAULT_AUTHKEY if value is None else value.encode("utf-8")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.live import EstimatorService, LiveServer, LiveTraceStream

    if args.restore is not None:
        # Resuming replays the checkpoint's exact configuration; accepting
        # these flags and then ignoring them would let an operator believe
        # the resumed service runs with e.g. different sharding.  The
        # parser defaults them to None, so "explicitly passed" is detected
        # even when the passed value equals the documented default.
        rejected = [
            flag
            for flag in _RESTORE_FROZEN + tuple(f[0] for f in _ESTIMATOR_FLAGS)
            if getattr(args, _dest(flag)) is not None
        ]
        if rejected:
            raise SystemExit(
                "--restore resumes the checkpoint's configuration; drop "
                + "/".join(rejected)
            )
        # Service-level options stay overridable on resume — but only when
        # the operator actually passed them; defaults must not clobber the
        # checkpointed values.
        overrides = {}
        if args.anomaly_threshold is not None:
            overrides["anomaly_threshold"] = args.anomaly_threshold
        if args.checkpoint_every is not None:
            overrides["checkpoint_every"] = args.checkpoint_every
        try:
            service = EstimatorService.from_checkpoint(
                args.restore,
                checkpoint_path=args.checkpoint,
                **overrides,
            )
        except (OSError, IngestError) as exc:
            raise SystemExit(f"cannot restore from {args.restore}: {exc}")
        print(f"restored from {args.restore}: "
              f"{len(service.windows())} windows already published")
    else:
        if args.queues is None or args.window is None:
            raise SystemExit("--queues and --window are required (or --restore)")
        config = _estimator_config(args, args.window)
        stream = LiveTraceStream(
            n_queues=args.queues,
            lateness=0.0 if args.lateness is None else args.lateness,
            max_pending=(
                100_000 if args.max_pending is None else args.max_pending
            ),
            retain=args.retain,
        )
        estimator = _build_estimator(
            args.estimator, stream,
            random_state=0 if args.seed is None else args.seed,
            config=config,
        )
        service = EstimatorService(
            estimator,
            checkpoint_path=args.checkpoint,
            checkpoint_every=(
                1 if args.checkpoint_every is None else args.checkpoint_every
            ),
            anomaly_threshold=(
                4.0 if args.anomaly_threshold is None else args.anomaly_threshold
            ),
        )
    server = LiveServer(
        service, host=args.host, port=args.port, authkey=_authkey(args.authkey)
    )
    service.start()
    server.start()
    host, port = server.address
    print(f"repro live service listening on {host}:{port}")
    print("ingest with: repro ingest TRACE.jsonl "
          f"--connect {host}:{port}" +
          (" --authkey <key>" if args.authkey else ""))
    try:
        server.wait_for_shutdown()
        print("shutdown requested; draining")
    except KeyboardInterrupt:
        print("\ninterrupted; draining")
    finally:
        server.close()
        service.stop()
    health = service.health()["service"]
    print(f"served {health['windows_published']} windows "
          f"({health['anomalies']} anomaly flags); status: {health['status']}")
    if health["status"] == "failed":
        print(f"estimator error: {health['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.live import DEFAULT_BLOCK, IngestRouter, LiveServer

    if args.services < 1:
        raise SystemExit("--services must be at least 1")
    config = _estimator_config(args, args.window)
    service_config = {
        "n_queues": args.queues,
        "estimator": args.estimator or "stem",
        "random_state": args.seed,
        **config.as_dict(),
        "lateness": args.lateness,
        "max_pending": args.max_pending,
        "checkpoint_every": args.checkpoint_every,
        "anomaly_threshold": args.anomaly_threshold,
    }
    if args.retain is not None:
        service_config["retain"] = args.retain
    router = IngestRouter(
        args.services,
        service_config,
        block=DEFAULT_BLOCK if args.block is None else args.block,
        checkpoint_dir=args.checkpoint_dir,
        authkey=_authkey(args.authkey),
        max_spool_records=args.max_spool,
        probe_interval=args.probe_interval,
    )
    print(f"starting {args.services} partition services ...")
    try:
        router.start()
    except IngestError as exc:
        raise SystemExit(f"cannot start the routing tier: {exc}")
    # The router implements the full service command surface, so the
    # stock LiveServer fronts the whole tier unchanged.
    server = LiveServer(
        router, host=args.host, port=args.port, authkey=_authkey(args.authkey)
    )
    server.start()
    host, port = server.address
    print(f"repro routing tier ({args.services} services) "
          f"listening on {host}:{port}")
    print("ingest with: repro ingest TRACE.jsonl "
          f"--connect {host}:{port}" +
          (" --authkey <key>" if args.authkey else ""))
    try:
        server.wait_for_shutdown()
        print("shutdown requested; draining")
    except KeyboardInterrupt:
        print("\ninterrupted; draining")
    finally:
        server.close()
        health = router.health()
        router.close()
    service = health["service"]
    print(f"served {service['windows_published']} windows "
          f"({service['anomalies']} anomaly flags) across "
          f"{health['router']['n_partitions']} services; "
          f"status: {service['status']}; "
          f"service restarts: {health['router']['n_restarts']}")
    if service["status"] == "failed":
        print(f"estimator error: {service['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from repro.live import LiveClient, replay_batches

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect must be host:port, got {args.connect!r}")
    if args.speedup < 0.0:
        raise SystemExit("--speedup must be >= 0")
    if args.batch < 1:
        raise SystemExit("--batch must be at least 1")
    events = load_jsonl(args.trace)
    trace = TaskSampling(fraction=args.observe).observe(events, random_state=args.seed)
    print(trace.summary())
    try:
        batches = replay_batches(trace, batch_tasks=args.batch)
    except InferenceError as exc:
        raise SystemExit(f"cannot schedule the replay: {exc}")
    try:
        client = LiveClient((host, int(port)), authkey=_authkey(args.authkey))
    except (IngestError, OSError) as exc:
        raise SystemExit(f"cannot connect to {args.connect}: {exc}")
    n_shipped = 0
    t_wall0 = time.perf_counter()
    t_clock0 = batches[0][0]
    with client:
        for watermark, batch in batches:
            if args.speedup > 0.0:
                due = t_wall0 + (watermark - t_clock0) / args.speedup
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            client.advance_watermark(watermark)
            while True:
                try:
                    summary = client.ingest(batch)
                    break
                except IngestError as exc:
                    if "backpressure" not in str(exc):
                        raise SystemExit(f"ingestion refused: {exc}")
                    time.sleep(0.05)  # bounded buffer is draining; retry
            n_shipped += summary["admitted"]
        elapsed = time.perf_counter() - t_wall0
        print(f"shipped {n_shipped} records in {elapsed:.2f}s "
              f"({n_shipped / max(elapsed, 1e-9):.0f} records/s)")
        if not args.no_seal:
            client.seal()
        if args.wait:
            if args.no_seal:
                raise SystemExit("--wait needs the stream sealed; drop --no-seal")
            while True:
                health = client.health()["service"]
                if health["status"] in ("finished", "failed", "stopped"):
                    break
                time.sleep(0.2)
            if health["status"] != "finished":
                print(f"service did not finish: {health['status']} "
                      f"({health.get('error')})")
                return 1
            rows = []
            for est in client.estimates():
                services = (
                    " ".join(
                        f"{1.0 / r:.4g}" for r in est["rates"][1:]
                    )
                    if est["rates"] is not None
                    else (est["failure"] or "skipped")
                )
                flags = (
                    ",".join(str(q) for q in est["anomalous_queues"]) or "-"
                )
                rows.append((
                    est["index"], f"{est['t_start']:.1f}", f"{est['t_end']:.1f}",
                    est["n_tasks"], est["n_observed_tasks"], flags, services,
                ))
            print(render_table(
                ["win", "t0", "t1", "tasks", "obs", "anom", "mean service (q1..)"],
                rows, title="\npublished window estimates",
            ))
        if args.shutdown:
            client.shutdown()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.live import LiveClient
    from repro.telemetry.console import render_top

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect must be host:port, got {args.connect!r}")
    if args.interval <= 0.0:
        raise SystemExit("--interval must be > 0")
    try:
        client = LiveClient((host, int(port)), authkey=_authkey(args.authkey))
    except (IngestError, OSError) as exc:
        raise SystemExit(f"cannot connect to {args.connect}: {exc}")
    with client:
        while True:
            try:
                health = client.health()
                estimates = client.estimates()
                report = client.metrics("snapshot")
                anomalies = client.anomalies()
            except (IngestError, OSError) as exc:
                raise SystemExit(f"lost the server at {args.connect}: {exc}")
            frame = render_top(
                health, estimates[-args.windows:], report, anomalies
            )
            if args.once:
                print(frame)
                return 0
            # Clear + home, then one frame: a flicker-free in-place redraw.
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.which == "fig4":
        result = run_fig4(quick_fig4_config(), random_state=args.seed)
        for kind in ("service", "waiting"):
            rows = [
                (f"{frac:.0%}", *(f"{v:.4g}" for v in row.values()))
                for frac, row in result.panel_quartiles(kind).items()
            ]
            print(render_table(
                ["observed", "min", "q1", "median", "q3", "max"],
                rows, title=f"\nFigure 4 ({kind} abs error)",
            ))
    elif args.which == "fig5":
        result = run_fig5(quick_fig5_config(), random_state=args.seed)
        headers = ["queue", *(f"{f:.0%}" for f in result.fractions), "truth"]
        rows = [
            (result.queue_names[q],
             *(f"{result.service[f][q]:.4g}" for f in result.fractions),
             f"{result.true_service[q]:.4g}")
            for q in range(1, len(result.queue_names))
        ]
        print(render_table(headers, rows, title="\nFigure 5 (service estimates)"))
    else:
        comparison = run_variance_comparison(quick_fig4_config(), random_state=args.seed)
        print(render_table(
            ["estimator", "variance", "mean abs error"],
            [
                ("StEM", f"{comparison.stem_variance:.3e}", f"{comparison.stem_mean_error:.4g}"),
                ("observed-mean", f"{comparison.baseline_variance:.3e}",
                 f"{comparison.baseline_mean_error:.4g}"),
            ],
            title="\nSection 5.1 estimator comparison",
        ))
        print(f"variance ratio (StEM / baseline): {comparison.variance_ratio:.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "infer":
        return _cmd_infer(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "top":
        return _cmd_top(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
