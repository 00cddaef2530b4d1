"""Tests for the Gibbs sampler."""

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.inference import GibbsSampler, heuristic_initialize
from repro.observation import TaskSampling
from repro.network import build_tandem_network
from repro.simulate import simulate_network


def make_sampler(sim, fraction=0.3, seed=0):
    trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=seed)
    rates = sim.true_rates()
    state = heuristic_initialize(trace, rates)
    return GibbsSampler(trace, state, rates, random_state=seed), trace


class TestMechanics:
    def test_sweep_counts_moves(self, tandem_sim):
        sampler, trace = make_sampler(tandem_sim)
        stats = sampler.sweep()
        assert stats.n_attempted == trace.n_latent
        assert stats.n_moves > 0
        assert sampler.n_sweeps_done == 1

    def test_observed_values_never_move(self, tandem_sim):
        sampler, trace = make_sampler(tandem_sim)
        obs = np.flatnonzero(trace.arrival_observed & (trace.skeleton.seq != 0))
        before = sampler.state.arrival[obs].copy()
        sampler.run(10)
        np.testing.assert_array_equal(sampler.state.arrival[obs], before)

    def test_state_remains_valid(self, three_tier_sim):
        sampler, _ = make_sampler(three_tier_sim, fraction=0.15)
        for _ in range(5):
            sampler.sweep()
            sampler.state.validate()

    def test_latent_values_actually_move(self, tandem_sim):
        sampler, trace = make_sampler(tandem_sim)
        lat = trace.latent_arrival_events
        before = sampler.state.arrival[lat].copy()
        sampler.run(3)
        assert np.mean(sampler.state.arrival[lat] != before) > 0.9

    def test_reproducible_with_seed(self, tandem_sim):
        a, _ = make_sampler(tandem_sim, seed=5)
        b, _ = make_sampler(tandem_sim, seed=5)
        a.run(5)
        b.run(5)
        np.testing.assert_array_equal(a.state.arrival, b.state.arrival)

    def test_rejects_nan_state(self, tandem_sim):
        trace = TaskSampling(fraction=0.3).observe(tandem_sim.events, random_state=0)
        with pytest.raises(InferenceError):
            GibbsSampler(trace, trace.skeleton, tandem_sim.true_rates())

    def test_rejects_bad_rates(self, tandem_sim):
        sampler, trace = make_sampler(tandem_sim)
        with pytest.raises(InferenceError):
            sampler.set_rates(np.array([1.0, -1.0, 2.0]))
        with pytest.raises(InferenceError):
            GibbsSampler(
                trace, sampler.state, np.array([1.0, 2.0]), random_state=0
            )

    def test_deterministic_scan_option(self, tandem_sim):
        trace = TaskSampling(fraction=0.3).observe(tandem_sim.events, random_state=0)
        rates = tandem_sim.true_rates()
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(trace, state, rates, random_state=0, shuffle=False)
        sampler.sweep()
        state.validate()


class TestBlanketCache:
    """The cached sweep must reproduce the uncached one draw for draw."""

    @staticmethod
    def _pair(sim, fraction=0.2, seed=9):
        # kernel="object" pins the scalar reference path: the bitwise
        # cached-vs-uncached claim is about that path, and the array kernel
        # would make both sides trivially identical.
        trace = TaskSampling(fraction=fraction).observe(sim.events, random_state=seed)
        rates = sim.true_rates()
        ref = GibbsSampler(
            trace, heuristic_initialize(trace, rates), rates,
            random_state=seed, cache_blankets=False, kernel="object",
        )
        cached = GibbsSampler(
            trace, heuristic_initialize(trace, rates), rates,
            random_state=seed, cache_blankets=True, kernel="object",
        )
        return ref, cached

    def test_cached_sweep_bitwise_identical(self, tandem_sim):
        ref, cached = self._pair(tandem_sim)
        for _ in range(8):
            s_ref, s_cached = ref.sweep(), cached.sweep()
            assert (s_ref.n_moves, s_ref.n_skipped) == (
                s_cached.n_moves, s_cached.n_skipped
            )
        np.testing.assert_array_equal(ref.state.arrival, cached.state.arrival)
        np.testing.assert_array_equal(ref.state.departure, cached.state.departure)

    def test_cached_sweep_bitwise_identical_three_tier(self, three_tier_sim):
        ref, cached = self._pair(three_tier_sim, fraction=0.15, seed=13)
        ref.run(5)
        cached.run(5)
        np.testing.assert_array_equal(ref.state.arrival, cached.state.arrival)
        np.testing.assert_array_equal(ref.state.departure, cached.state.departure)

    def test_cached_sweep_identical_after_rate_update(self, tandem_sim):
        """set_rates must refresh the cached per-move rate lookups."""
        ref, cached = self._pair(tandem_sim)
        new_rates = tandem_sim.true_rates() * 1.7
        for sampler in (ref, cached):
            sampler.run(2)
            sampler.set_rates(new_rates)
            sampler.run(3)
        np.testing.assert_array_equal(ref.state.arrival, cached.state.arrival)
        np.testing.assert_array_equal(ref.state.departure, cached.state.departure)

    def test_cache_rebuilds_after_queue_reassignment(self, three_tier_sim):
        """Interleaved path-MH moves must invalidate the blanket cache."""
        trace = TaskSampling(fraction=0.15).observe(
            three_tier_sim.events, random_state=13
        )
        rates = three_tier_sim.true_rates()
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(trace, state, rates, random_state=13)
        sampler.sweep()
        version = state.structure_version
        # Move one latent event to a sibling queue of its tier, as the
        # path resampler would.
        tier2 = [
            e for e in trace.latent_arrival_events
            if 2 <= int(state.queue[e]) <= 3
        ]
        moved = False
        for e in map(int, tier2):
            target = 3 if int(state.queue[e]) == 2 else 2
            old = int(state.queue[e])
            state.reassign_queue(e, target)
            if state.is_valid():
                moved = True
                break
            state.reassign_queue(e, old)  # reject, as the path MH would
        assert moved
        assert state.structure_version > version
        sampler.sweep()
        state.validate()
        assert sampler._arrival_cache.structure_version == state.structure_version


class TestCollect:
    def test_shapes(self, tandem_sim):
        sampler, _ = make_sampler(tandem_sim)
        samples = sampler.collect(n_samples=6, thin=2, burn_in=3)
        n_queues = tandem_sim.events.n_queues
        assert samples.mean_service.shape == (6, n_queues)
        assert samples.mean_waiting.shape == (6, n_queues)
        assert samples.log_joint.shape == (6,)
        assert samples.n_samples == 6
        assert sampler.n_sweeps_done == 3 + 6 * 2

    def test_posterior_summaries_finite(self, tandem_sim):
        sampler, _ = make_sampler(tandem_sim)
        samples = sampler.collect(n_samples=5, burn_in=2)
        assert np.all(np.isfinite(samples.posterior_mean_service()))
        assert np.all(np.isfinite(samples.posterior_mean_waiting()))
        assert np.all(samples.posterior_std_service() >= 0.0)

    def test_invalid_schedule_rejected(self, tandem_sim):
        sampler, _ = make_sampler(tandem_sim)
        with pytest.raises(InferenceError):
            sampler.collect(n_samples=0)


class TestFullObservationDegenerate:
    def test_no_moves_with_full_data(self, tandem_sim):
        sampler, trace = make_sampler(tandem_sim, fraction=1.0)
        assert sampler.n_latent == 0
        stats = sampler.sweep()
        assert stats.n_attempted == 0
        np.testing.assert_allclose(
            sampler.state.arrival, tandem_sim.events.arrival
        )


class TestPosteriorQuality:
    """With true rates fixed, posterior means must track ground truth."""

    def test_service_recovery_under_load(self):
        net = build_tandem_network(4.5, [5.0, 6.0])  # rho 0.9, 0.75
        sim = simulate_network(net, 300, random_state=51)
        trace = TaskSampling(fraction=0.15).observe(sim.events, random_state=1)
        rates = sim.true_rates()
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(trace, state, rates, random_state=2)
        samples = sampler.collect(n_samples=30, burn_in=30)
        est = samples.posterior_mean_service()
        true = sim.events.mean_service_by_queue()
        # Within 25% on every queue at 15% observation.
        np.testing.assert_allclose(est[1:], true[1:], rtol=0.25)

    def test_waiting_recovery_under_overload(self, three_tier_sim):
        trace = TaskSampling(fraction=0.15).observe(
            three_tier_sim.events, random_state=3
        )
        rates = three_tier_sim.true_rates()
        state = heuristic_initialize(trace, rates)
        sampler = GibbsSampler(trace, state, rates, random_state=4)
        samples = sampler.collect(n_samples=20, burn_in=20)
        est = samples.posterior_mean_waiting()
        true = three_tier_sim.events.mean_waiting_by_queue()
        # The overloaded queue's (large) waiting time is recovered well.
        assert est[1] == pytest.approx(true[1], rel=0.2)
