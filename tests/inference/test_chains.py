"""Tests for the parallel multi-chain inference engine."""

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.inference import (
    GibbsSampler,
    MultiChainSampler,
    build_chain_sampler,
    chain_seed_sequences,
    heuristic_initialize,
)


class TestSeeding:
    def test_one_pair_per_chain(self):
        pairs = chain_seed_sequences(123, 5)
        assert len(pairs) == 5
        assert all(len(p) == 2 for p in pairs)

    def test_same_master_same_children(self):
        a = chain_seed_sequences(9, 3)
        b = chain_seed_sequences(9, 3)
        for (ai, asw), (bi, bsw) in zip(a, b):
            assert ai.generate_state(4).tolist() == bi.generate_state(4).tolist()
            assert asw.generate_state(4).tolist() == bsw.generate_state(4).tolist()

    def test_chains_are_distinct(self):
        pairs = chain_seed_sequences(9, 3)
        states = [tuple(sweep.generate_state(4).tolist()) for _, sweep in pairs]
        assert len(set(states)) == 3

    def test_generator_stream_not_consumed(self):
        """Deriving chain seeds must not perturb a caller's generator."""
        shared = np.random.default_rng(5)
        expected = np.random.default_rng(5).random(3)
        chain_seed_sequences(shared, 4)
        np.testing.assert_array_equal(shared.random(3), expected)


class TestMultiChainSampler:
    def test_rejects_bad_config(self, tandem_sim, tandem_trace):
        with pytest.raises(InferenceError):
            MultiChainSampler(tandem_trace, tandem_sim.true_rates(), n_chains=0)
        with pytest.raises(InferenceError):
            MultiChainSampler(
                tandem_trace, tandem_sim.true_rates(), n_chains=2, jitter=-1.0
            )

    def test_overdispersed_init_methods(self, tandem_sim, tandem_trace):
        mc = MultiChainSampler(
            tandem_trace, tandem_sim.true_rates(), n_chains=4, random_state=0
        )
        assert mc.init_methods == [
            "heuristic", "lp", "heuristic-jitter", "heuristic-jitter",
        ]

    def test_lp_skipped_on_large_traces(self, tandem_sim, tandem_trace):
        mc = MultiChainSampler(
            tandem_trace, tandem_sim.true_rates(), n_chains=3,
            random_state=0, lp_size_limit=1,
        )
        assert mc.init_methods == [
            "heuristic", "heuristic-jitter", "heuristic-jitter",
        ]

    def test_shapes_and_pooling(self, tandem_sim, tandem_trace):
        mc = MultiChainSampler(
            tandem_trace, tandem_sim.true_rates(), n_chains=3, random_state=1
        )
        post = mc.collect(n_samples=8, burn_in=4)
        n_queues = tandem_trace.skeleton.n_queues
        assert post.n_chains == 3
        assert post.n_samples == 8
        assert post.stacked("waiting").shape == (3, 8, n_queues)
        assert post.stacked("log_joint").shape == (3, 8)
        pooled = post.pooled()
        assert pooled.n_samples == 24
        assert np.all(np.isfinite(pooled.posterior_mean_waiting()))

    def test_same_seed_different_workers_identical(self, tandem_sim, tandem_trace):
        """Bit-reproducibility at any worker count (the seeding contract)."""
        rates = tandem_sim.true_rates()
        serial = MultiChainSampler(
            tandem_trace, rates, n_chains=3, random_state=42
        ).collect(n_samples=5, burn_in=3, workers=None)
        pooled2 = MultiChainSampler(
            tandem_trace, rates, n_chains=3, random_state=42
        ).collect(n_samples=5, burn_in=3, workers=2)
        pooled3 = MultiChainSampler(
            tandem_trace, rates, n_chains=3, random_state=42
        ).collect(n_samples=5, burn_in=3, workers=3)
        for other in (pooled2, pooled3):
            for a, b in zip(serial.chains, other.chains):
                np.testing.assert_array_equal(a.mean_service, b.mean_service)
                np.testing.assert_array_equal(a.mean_waiting, b.mean_waiting)
                np.testing.assert_array_equal(a.log_joint, b.log_joint)

    def test_single_chain_matches_gibbs_collect(self, tandem_sim, tandem_trace):
        """K=1 is exactly one GibbsSampler.collect run at the spawned seed."""
        rates = tandem_sim.true_rates()
        mc = MultiChainSampler(
            tandem_trace, rates, n_chains=1, random_state=7
        )
        post = mc.collect(n_samples=6, thin=2, burn_in=3)
        _, sweep_seed = chain_seed_sequences(7, 1)[0]
        reference = GibbsSampler(
            tandem_trace,
            heuristic_initialize(tandem_trace, rates),
            rates,
            random_state=sweep_seed,
        ).collect(n_samples=6, thin=2, burn_in=3)
        np.testing.assert_array_equal(
            post.chains[0].mean_service, reference.mean_service
        )
        np.testing.assert_array_equal(
            post.chains[0].mean_waiting, reference.mean_waiting
        )
        np.testing.assert_array_equal(post.chains[0].log_joint, reference.log_joint)

    def test_jittered_chains_start_apart_but_agree_eventually(
        self, tandem_sim, tandem_trace
    ):
        """Over-dispersion: chains start from different latent states."""
        rates = tandem_sim.true_rates()
        mc = MultiChainSampler(tandem_trace, rates, n_chains=3, random_state=3)
        states = [build_chain_sampler(recipe).state for recipe in mc.recipes]
        lat = tandem_trace.latent_arrival_events
        assert not np.array_equal(states[0].arrival[lat], states[2].arrival[lat])

    def test_diagnostics_per_queue(self, tandem_sim, tandem_trace):
        mc = MultiChainSampler(
            tandem_trace, tandem_sim.true_rates(), n_chains=3, random_state=5
        )
        post = mc.collect(n_samples=20, burn_in=10)
        r_hat = post.split_r_hat("waiting")
        ess = post.ess("waiting")
        n_queues = tandem_trace.skeleton.n_queues
        assert r_hat.shape == (n_queues,)
        assert ess.shape == (n_queues,)
        # Real queues have events; diagnostics must come out finite.
        assert np.all(np.isfinite(r_hat[1:]))
        assert np.all(ess[1:] >= 1.0)
        assert np.isfinite(post.max_r_hat("waiting"))
        assert "split-R^hat" in post.summary()

    def test_chain_recipe_is_self_contained(self, tandem_sim, tandem_trace):
        """A chain runs from its pickled recipe alone (what a worker gets)."""
        import pickle

        mc = MultiChainSampler(
            tandem_trace, tandem_sim.true_rates(), n_chains=2, random_state=8
        )
        recipe = mc.recipes[1]
        clone = pickle.loads(pickle.dumps(recipe))
        a = build_chain_sampler(recipe).collect(n_samples=3, burn_in=1)
        b = build_chain_sampler(clone).collect(n_samples=3, burn_in=1)
        np.testing.assert_array_equal(a.mean_waiting, b.mean_waiting)
