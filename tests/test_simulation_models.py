"""Tests for the engine's placements of the AE lattice, RS stripes and replication."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parameters import AEParameters
from repro.core.rules import input_index, output_index
from repro.exceptions import InvalidParametersError
from repro.simulation.engine import (
    build_simulation,
    vectorised_input_indices,
    vectorised_output_indices,
)
from repro.storage.maintenance import MaintenancePolicy

MINIMAL = MaintenancePolicy.MINIMAL


class TestVectorisedRules:
    @given(st.sampled_from([(1, 1, 0), (2, 2, 5), (3, 2, 5), (3, 5, 5), (3, 1, 4), (3, 3, 4)]))
    @settings(max_examples=12, deadline=None)
    def test_vectorised_rules_match_scalar_rules(self, spec):
        params = AEParameters(*spec)
        n = 200
        inputs = vectorised_input_indices(params, n)
        outputs = vectorised_output_indices(params, n)
        for index in range(1, n + 1):
            for position, strand_class in enumerate(params.strand_classes):
                assert inputs[index - 1, position] == max(
                    input_index(index, strand_class, params), 0
                )
                assert outputs[index - 1, position] == output_index(
                    index, strand_class, params
                )


class TestLatticeSimulation:
    def test_shapes_and_counts(self):
        sim = build_simulation("ae-3-2-5", 1000, location_count=50, seed=1)
        assert sim.data_blocks == 1000
        assert sim.parity_blocks == 3000
        assert sim.total_blocks == 4000
        assert sim.blocks_per_location().sum() == 4000

    def test_no_disaster_means_no_loss(self):
        sim = build_simulation("ae-3-2-5", 2000, seed=2)
        outcome = sim.run_repair(np.array([], dtype=np.int64))
        assert outcome.data_loss == 0
        assert outcome.rounds == 0
        assert outcome.vulnerable_data == 0

    def test_total_location_failure_loses_everything(self):
        sim = build_simulation("ae-3-2-5", 2000, location_count=20, seed=3)
        outcome = sim.run_repair(np.arange(20))
        assert outcome.data_loss == 2000

    def test_small_disasters_are_fully_repaired(self):
        sim = build_simulation("ae-3-2-5", 20_000, location_count=100, seed=4)
        outcome = sim.run_repair(np.arange(10))  # 10% disaster
        assert outcome.data_loss == 0
        assert outcome.repaired_data == outcome.initially_missing_data
        assert outcome.rounds >= 1

    def test_minimal_maintenance_repairs_no_parities(self):
        sim = build_simulation("ae-3-2-5", 20_000, location_count=100, seed=5)
        outcome = sim.run_repair(np.arange(20), policy=MINIMAL)
        assert outcome.repaired_redundancy == 0
        assert outcome.vulnerable_data > 0

    def test_higher_alpha_loses_less_data(self):
        disaster = np.arange(40)  # 40% of 100 locations
        losses = {}
        for scheme_id in ("ae-1", "ae-2-2-5", "ae-3-2-5"):
            sim = build_simulation(scheme_id, 30_000, location_count=100, seed=6)
            losses[sim.params.alpha] = sim.run_repair(disaster).data_loss
        assert losses[3] <= losses[2] <= losses[1]
        assert losses[1] > 0

    def test_invalid_construction(self):
        with pytest.raises(InvalidParametersError):
            build_simulation("ae-1", 0)
        with pytest.raises(InvalidParametersError):
            build_simulation("ae-1", 10, location_count=0)


class TestReedSolomonStripes:
    def test_stripe_counts_match_paper_examples(self):
        """RS(10,4) on 1M blocks -> 400k encoded; RS(8,2) -> 250k; RS(5,5) -> 200k stripes."""
        assert build_simulation("rs-10-4", 1_000_000, seed=1).encoded_blocks == 400_000
        assert build_simulation("rs-8-2", 1_000_000, seed=1).encoded_blocks == 250_000
        assert build_simulation("rs-8-2", 1_000_000, seed=1).stripes == 125_000
        assert build_simulation("rs-5-5", 1_000_000, seed=1).stripes == 200_000

    def test_no_disaster_no_loss(self):
        sim = build_simulation("rs-10-4", 10_000, seed=2)
        outcome = sim.run_repair(np.array([], dtype=np.int64), policy=MINIMAL)
        assert outcome.data_loss == 0
        assert outcome.vulnerable_data == 0

    def test_total_failure_loses_everything(self):
        sim = build_simulation("rs-10-4", 10_000, location_count=20, seed=3)
        outcome = sim.run_repair(np.arange(20), policy=MINIMAL)
        assert outcome.data_loss == 10_000

    def test_more_parities_lose_less(self):
        disaster = np.arange(30)
        weak = build_simulation("rs-8-2", 50_000, seed=4).run_repair(disaster, policy=MINIMAL)
        strong = build_simulation("rs-4-12", 50_000, seed=4).run_repair(disaster, policy=MINIMAL)
        assert strong.data_loss < weak.data_loss

    def test_single_failure_fraction_decreases_with_disaster_size(self):
        """Fig. 13: RS repair efficiency improves (fewer single failures) for
        larger disasters."""
        sim = build_simulation("rs-4-12", 50_000, seed=5)
        small = sim.run_repair(np.arange(10), policy=MINIMAL).single_failure_fraction
        large = sim.run_repair(np.arange(40), policy=MINIMAL).single_failure_fraction
        assert small > large

    def test_placement_skew_observation(self):
        """Only a fraction of RS(10,4) stripes spread their 14 blocks over 14
        distinct locations when n = 100 (Sec. V-C reports 38,429 of 100,000)."""
        sim = build_simulation("rs-10-4", 100_000, location_count=100, seed=6)
        spread = sim.stripes_fully_spread()
        assert 0.30 * sim.stripes < spread < 0.48 * sim.stripes

    def test_repair_bandwidth_is_k_per_stripe(self):
        sim = build_simulation("rs-5-5", 5_000, seed=7)
        outcome = sim.run_repair(np.arange(10), policy=MINIMAL)
        assert outcome.blocks_read % 5 == 0


class TestReplication:
    def test_loss_requires_all_copies_down(self):
        sim = build_simulation("rep-3", 20_000, location_count=100, seed=8)
        outcome = sim.run_repair(np.arange(10), policy=MINIMAL)
        expected_rate = 0.1**3
        assert outcome.data_loss <= 3 * expected_rate * 20_000 + 20

    def test_more_copies_lose_less(self):
        disaster = np.arange(40)
        two = build_simulation("rep-2", 50_000, seed=9).run_repair(disaster, policy=MINIMAL)
        four = build_simulation("rep-4", 50_000, seed=9).run_repair(disaster, policy=MINIMAL)
        assert four.data_loss < two.data_loss
        assert four.vulnerable_data < two.vulnerable_data

    def test_invalid_construction(self):
        with pytest.raises(InvalidParametersError):
            build_simulation("rep-1", 100)
