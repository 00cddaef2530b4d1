"""Multi-chain throughput: sweep engines and the chain hosts.

Three measurements back the multi-chain engine:

* the per-sweep speedup of the blanket-cached object sweep over the
  derive-everything-per-move reference sweep, plus the vectorized array
  kernel head to head;
* multi-chain wall-clock vs chain count and worker count (in-process, or
  persistent worker processes via ``chain_pool``), with a bitwise
  determinism check that the host never changes the draws;
* persistent-pool StEM E-step scaling vs worker count, with a bitwise
  check against the in-process run.

On a single-core host the worker processes add overhead instead of speed
— the tables still show throughput per configuration, and the
determinism assertions are the part that must hold everywhere.
"""

import os
import time

import numpy as np

from repro.experiments import render_table
from repro.inference import GibbsSampler, MultiChainSampler, heuristic_initialize
from repro.network import build_three_tier_network
from repro.observation import TaskSampling
from repro.simulate import simulate_network

from conftest import full_scale


def make_trace(n_tasks: int, seed: int = 17):
    net = build_three_tier_network(10.0, (1, 2, 4))
    sim = simulate_network(net, n_tasks, random_state=seed)
    trace = TaskSampling(fraction=0.1).observe(sim.events, random_state=seed)
    return trace, sim.true_rates()


def sweep_rate(trace, rates, n_sweeps=8, **kwargs):
    sampler = GibbsSampler(
        trace, heuristic_initialize(trace, rates), rates, random_state=3, **kwargs
    )
    sampler.sweep()  # warm-up
    t0 = time.perf_counter()
    sampler.run(n_sweeps)
    elapsed = (time.perf_counter() - t0) / n_sweeps
    return elapsed, sampler.n_latent


def test_blanket_cache_speedup(benchmark):
    """Cached sweeps must never be slower than the reference sweep."""
    n_tasks = 2000 if full_scale() else 500
    trace, rates = make_trace(n_tasks)

    def run():
        return {
            "uncached": sweep_rate(
                trace, rates, cache_blankets=False, kernel="object"
            ),
            "cached": sweep_rate(
                trace, rates, cache_blankets=True, kernel="object"
            ),
            "array": sweep_rate(trace, rates, kernel="array"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results["uncached"][0]
    rows = [
        (label, latent, f"{sec * 1e3:.1f}", f"{sec / latent * 1e6:.1f}",
         f"{base / sec:.2f}x")
        for label, (sec, latent) in results.items()
    ]
    print("\n=== Sweep throughput: blanket cache ===")
    print(render_table(
        ["sweep", "latent vars", "ms / sweep", "us / latent", "speedup"],
        rows, title="static blankets precomputed once vs re-derived per move",
    ))
    # Generous bound: the point is catching a real regression (cached
    # sweeps ~1.3-1.8x faster locally), not failing CI on a noisy runner.
    assert results["cached"][0] < base * 1.5
    # The vectorized kernel must beat every object-path variant outright.
    assert results["array"][0] < base


def test_chain_worker_scaling(benchmark):
    """Wall-clock vs chain/worker count, plus bitwise worker invariance."""
    n_tasks = 800 if full_scale() else 200
    trace, rates = make_trace(n_tasks)
    n_samples = 10 if full_scale() else 5
    cpu = os.cpu_count() or 1
    configs = [(1, None), (2, None), (4, None), (4, 2), (4, min(4, cpu))]

    def run():
        out = []
        for n_chains, workers in configs:
            mc = MultiChainSampler(trace, rates, n_chains=n_chains, random_state=29)
            t0 = time.perf_counter()
            post = mc.collect(n_samples=n_samples, burn_in=2, workers=workers)
            out.append((n_chains, workers, time.perf_counter() - t0, post))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    total_sweeps = n_samples + 2
    rows = [
        (k, w if w else "in-process", f"{sec:.2f}",
         f"{k * total_sweeps / sec:.1f}",
         f"{post.max_r_hat('waiting'):.3f}")
        for k, w, sec, post in results
    ]
    print("\n=== Multi-chain scaling: chains x workers ===")
    print(render_table(
        ["chains", "workers", "seconds", "chain-sweeps / s", "max split-Rhat"],
        rows, title=f"{trace.n_latent} latent vars, {n_samples} samples/chain",
    ))
    # Determinism across worker counts: all 4-chain runs drew identically.
    four_chain = [post for k, _, _, post in results if k == 4]
    for other in four_chain[1:]:
        for a, b in zip(four_chain[0].chains, other.chains):
            np.testing.assert_array_equal(a.mean_waiting, b.mean_waiting)
            np.testing.assert_array_equal(a.log_joint, b.log_joint)


def test_persistent_stem_worker_scaling(benchmark):
    """Persistent-pool StEM E-steps: wall clock vs worker count + bitwise check.

    Chains stay resident in their workers across EM iterations; only rate
    vectors and per-queue sufficient statistics cross the process boundary
    each round, so multi-core hosts approach linear E-step scaling.  On a
    single-core host the pool is pure overhead — the part that must hold
    everywhere is that every configuration reproduces the in-process rate
    history bitwise.
    """
    from repro.inference import run_stem

    n_tasks = 600 if full_scale() else 150
    trace, _ = make_trace(n_tasks)
    cpu = os.cpu_count() or 1
    n_chains = 4
    n_iterations = 30 if full_scale() else 12
    worker_counts = [None, 1, 2]
    if cpu > 2:
        worker_counts.append(min(4, cpu))

    def run():
        out = []
        for workers in worker_counts:
            t0 = time.perf_counter()
            result = run_stem(
                trace, n_iterations=n_iterations, random_state=23,
                init_method="heuristic", n_chains=n_chains,
                persistent_workers=workers,
            )
            out.append((workers, time.perf_counter() - t0, result))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    serial_time = results[0][1]
    rows = [
        (w if w else "in-process", f"{sec:.2f}",
         f"{n_chains * n_iterations / sec:.1f}", f"{serial_time / sec:.2f}x")
        for w, sec, _ in results
    ]
    print("\n=== Persistent-pool StEM: E-step scaling vs worker count ===")
    print(render_table(
        ["workers", "seconds", "chain-iters / s", "vs in-process"],
        rows, title=f"{trace.n_latent} latent vars, {n_chains} chains x "
        f"{n_iterations} iterations ({cpu} cores)",
    ))
    reference = results[0][2]
    for _, _, result in results[1:]:
        np.testing.assert_array_equal(
            reference.rates_history, result.rates_history
        )
