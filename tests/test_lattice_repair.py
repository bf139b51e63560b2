"""Tests for the one lattice repair loop, ``EntanglementScheme.repair``.

Single-block reads (a repair batch of one), the ring step that reaches past
unreachable tuple members, round-based repair after disasters, and service
repair over a cluster.  The recursive decoder the loop replaced survives in
``tests/repair_oracles.py`` as the oracle of a Hypothesis property test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.schemes as schemes
from repro.codes.entanglement import MAX_REPAIR_RINGS, EntanglementScheme
from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.core.xor import payloads_equal
from repro.exceptions import RepairFailedError
from repro.storage.cluster import StorageCluster
from repro.storage.placement import RandomPlacement
from repro.system.service import StorageService

from tests.conftest import make_payload
from tests.repair_oracles import DEFAULT_RECURSION_DEPTH, Decoder

BLOCK_SIZE = 32


def build_store(params: AEParameters, count: int):
    """Encode ``count`` blocks; returns (scheme, payload map of every block)."""
    scheme = EntanglementScheme(params, BLOCK_SIZE)
    part = scheme.encode([make_payload(index, BLOCK_SIZE) for index in range(1, count + 1)])
    return scheme, dict(part.blocks)


def counting(store):
    """A fetcher over ``store`` plus the list of blocks it served."""
    reads = []

    def source(block_id):
        payload = store.get(block_id)
        if payload is not None:
            reads.append(block_id)
        return payload

    return source, reads


class TestSingleRepairs:
    def test_repair_data_block_via_any_strand(self, any_params):
        scheme, store = build_store(any_params, 60)
        original = store.pop(DataId(30))
        assert payloads_equal(scheme.read_block(DataId(30), store.get), original)

    def test_repair_parity_block_both_directions(self, hec_params):
        scheme, store = build_store(hec_params, 60)
        for parity_id in [ParityId(30, StrandClass.HORIZONTAL), ParityId(30, StrandClass.LEFT_HANDED)]:
            original = store.pop(parity_id)
            assert payloads_equal(scheme.read_block(parity_id, store.get), original)
            store[parity_id] = original

    def test_read_fetches_before_repairing(self, hec_params):
        scheme, store = build_store(hec_params, 10)
        source, calls = counting(store)
        payload = scheme.read_block(DataId(5), source)
        assert payloads_equal(payload, store[DataId(5)])
        assert calls == [DataId(5)]

    def test_single_failure_costs_two_blocks(self, hec_params):
        """Any single failure is repaired by XORing exactly two blocks."""
        scheme, store = build_store(hec_params, 60)
        original = store.pop(DataId(30))
        source, reads = counting(store)
        outcome = scheme.repair({DataId(30)}, source)
        assert payloads_equal(outcome.recovered[DataId(30)], original)
        assert outcome.blocks_read == 2
        assert len(reads) == 2
        assert outcome.rounds == 1

    def test_unrepairable_when_everything_is_gone(self, hec_params):
        scheme, _ = build_store(hec_params, 30)
        with pytest.raises(RepairFailedError):
            scheme.read_block(DataId(15), lambda block_id: None)

    def test_blocks_outside_the_lattice_are_unrecovered(self, hec_params):
        scheme, store = build_store(hec_params, 10)
        outcome = scheme.repair({DataId(11)}, store.get)
        assert outcome.unrecovered == [DataId(11)]
        with pytest.raises(RepairFailedError):
            scheme.read_block(DataId(11), store.get)

    def test_recovery_paths_enumerate_alpha_options(self, hec_params):
        scheme, _ = build_store(hec_params, 30)
        paths = [option.required_blocks() for option in scheme.lattice.data_repair_options(20)]
        assert len(paths) == hec_params.alpha
        assert all(len(path) == 2 for path in paths)


class TestRingRepair:
    def test_repair_through_missing_parity(self, hec_params):
        """When both adjacent parities of one strand are gone, the ring step
        rebuilds the parity from its dp-tuple first (Fig. 2)."""
        scheme, store = build_store(hec_params, 80)
        target = DataId(40)
        original = store.pop(target)
        # Remove one parity of every strand except the horizontal output,
        # forcing at least one ring.
        removed = [
            ParityId(40, StrandClass.RIGHT_HANDED),
            ParityId(40, StrandClass.LEFT_HANDED),
            scheme.lattice.input_parity(40, StrandClass.HORIZONTAL),
        ]
        for parity in removed:
            store.pop(parity, None)
        assert payloads_equal(scheme.read_block(target, store.get), original)
        # The rebuilt intermediate parity is used, never returned.
        outcome = scheme.repair({target}, store.get)
        assert set(outcome.recovered) == {target}
        assert not outcome.unrecovered

    def test_every_input_parity_missing(self, hec_params):
        scheme, store = build_store(hec_params, 80)
        target = DataId(40)
        original = store.pop(target)
        for strand_class in hec_params.strand_classes:
            store.pop(scheme.lattice.input_parity(40, strand_class), None)
        assert payloads_equal(scheme.read_block(target, store.get), original)

    @pytest.mark.parametrize("rings", [MAX_REPAIR_RINGS, MAX_REPAIR_RINGS + 1])
    def test_ring_limit_matches_the_recursion_depth(self, rings):
        """AE(1): losing ``d30`` and the parity run ``p30 .. p(29 + rings)``
        leaves one path, ``rings`` rings deep; six rings is the limit."""
        assert MAX_REPAIR_RINGS == DEFAULT_RECURSION_DEPTH == 6
        scheme, store = build_store(AEParameters.single(), 60)
        target = DataId(30)
        original = store.pop(target)
        for index in range(30, 30 + rings):
            store.pop(ParityId(index, StrandClass.HORIZONTAL))
        oracle = Decoder(scheme.lattice, store.get, BLOCK_SIZE)
        if rings <= MAX_REPAIR_RINGS:
            assert payloads_equal(scheme.read_block(target, store.get), original)
            assert payloads_equal(oracle.get(target), original)
        else:
            with pytest.raises(RepairFailedError):
                scheme.read_block(target, store.get)
            with pytest.raises(RepairFailedError):
                oracle.get(target)


class TestRoundRepair:
    @given(
        st.sampled_from([(1, 1, 0), (2, 2, 5), (3, 2, 5)]),
        st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_scattered_data_failures_recover_in_one_round(self, spec, victims):
        params = AEParameters(*spec)
        scheme, store = build_store(params, 60)
        originals = {DataId(index): store.pop(DataId(index)) for index in victims}
        outcome = scheme.repair(set(originals), store.get)
        assert not outcome.unrecovered
        assert outcome.rounds == 1
        for block_id, payload in originals.items():
            assert payloads_equal(outcome.recovered[block_id], payload)

    def test_mixed_failures_need_multiple_rounds(self, hec_params):
        scheme, store = build_store(hec_params, 100)
        originals = {}
        # Remove a contiguous region: data and all their parities.
        for index in range(40, 44):
            for block_id in [DataId(index)] + scheme.lattice.output_parities(index):
                originals[block_id] = store.pop(block_id)
        outcome = scheme.repair(set(originals), store.get)
        assert not outcome.unrecovered
        assert outcome.rounds >= 1
        for block_id, payload in originals.items():
            assert payloads_equal(outcome.recovered[block_id], payload)

    def test_caller_chooses_the_targets(self, hec_params):
        """Only asked-for blocks come back; a lost parity nobody asked for
        stays out of the outcome."""
        scheme, store = build_store(hec_params, 60)
        data_victim = DataId(30)
        parity_victim = ParityId(20, StrandClass.HORIZONTAL)
        original = store.pop(data_victim)
        store.pop(parity_victim)
        outcome = scheme.repair({data_victim}, store.get)
        assert payloads_equal(outcome.recovered[data_victim], original)
        assert parity_victim not in outcome.recovered

    def test_outcome_counts(self, hec_params):
        scheme, store = build_store(hec_params, 30)
        store.pop(DataId(10))
        outcome = scheme.repair({DataId(10)}, store.get)
        assert outcome.repaired_count == 1
        assert outcome.rounds == 1


def entangled_service(params: AEParameters, blocks: int, locations: int, seed: int = 5):
    """``blocks`` payloads on a fresh cluster behind a service; returns
    (service, originals)."""
    scheme = EntanglementScheme(params, BLOCK_SIZE)
    cluster = StorageCluster(locations, RandomPlacement(locations, seed=seed))
    part = scheme.encode([make_payload(index, BLOCK_SIZE) for index in range(1, blocks + 1)])
    cluster.put_many(part.blocks)
    return StorageService(scheme, cluster), dict(part.blocks)


class TestClusterRepair:
    def test_full_repair_restores_all_blocks(self, hec_params):
        service, originals = entangled_service(hec_params, 60, 25)
        cluster = service.cluster
        cluster.fail_locations(range(5))
        missing_before = cluster.unavailable_blocks()
        assert missing_before
        report = service.repair()
        assert report.data_loss == 0
        assert not report.unrecovered
        assert set(report.repaired) == missing_before
        for block_id in missing_before:
            assert payloads_equal(cluster.get_block(block_id), originals[block_id])
            assert cluster.location_of(block_id) >= 5

    def test_single_block_read_reads_two_blocks(self, hec_params):
        service, originals = entangled_service(hec_params, 60, 30)
        cluster = service.cluster
        victim = DataId(30)
        cluster.fail_locations([cluster.location_of(victim)])
        before = sum(store.read_count for store in cluster.locations())
        payload = service.get_block(victim)
        reads = sum(store.read_count for store in cluster.locations()) - before
        assert payloads_equal(payload, originals[victim])
        assert reads <= 2 * hec_params.alpha  # at most alpha attempts of 2 reads

    def test_report_summary_and_rounds(self, hec_params):
        service, _ = entangled_service(hec_params, 60, 25)
        service.fail_locations(range(5))
        report = service.repair()
        assert report.rounds >= 1
        assert report.summary().startswith("[ae-3-2-5]")
        assert "data loss 0" in report.summary()


#: Small lattices of every AE shape the property sweeps, plus a punctured
#: code whose never-stored parities the ring step must regenerate.
PROPERTY_SCHEMES = ["ae-1", "ae-2-2-5", "ae-3-2-5", "ae-3-2-5-p75"]
PROPERTY_BLOCK = 16


@given(
    scheme_id=st.sampled_from(PROPERTY_SCHEMES),
    seed=st.integers(min_value=0, max_value=2**16),
    erasure=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_read_block_agrees_with_the_recursive_oracle(scheme_id, seed, erasure):
    """Byte-exact wherever the oracle recovers; a typed failure only where it
    fails too; and never wrong bytes."""
    scheme = schemes.get(scheme_id, block_size=PROPERTY_BLOCK)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(48, PROPERTY_BLOCK), dtype=np.uint8)
    part = scheme.encode(data)
    survivors = {
        block_id: payload
        for block_id, payload in part.blocks
        if rng.random() >= erasure
    }
    oracle = Decoder(scheme.lattice, survivors.get, PROPERTY_BLOCK)
    for row, data_id in enumerate(part.data_ids):
        try:
            oracle.get(data_id)
            oracle_recovers = True
        except RepairFailedError:
            oracle_recovers = False
        try:
            payload = scheme.read_block(data_id, survivors.get)
        except RepairFailedError:
            assert not oracle_recovers, f"{scheme_id}: oracle rebuilds {data_id!r}"
            continue
        assert np.array_equal(payload, data[row])


class TestRestoreState:
    """Strand heads the fetch cannot supply come from one repair call."""

    @staticmethod
    def restored(scheme_id: str, drop=()):
        """Reopen a 40-block lattice; returns (its strand heads, scheme,
        the repair calls the reopen made)."""
        scheme = schemes.get(scheme_id, block_size=PROPERTY_BLOCK)
        rng = np.random.default_rng(3)
        store = dict(
            scheme.encode(rng.integers(0, 256, size=(40, PROPERTY_BLOCK), dtype=np.uint8)).blocks
        )
        heads = set(scheme.entangler.strand_head_ids())
        for block_id in drop:
            store.pop(block_id)
        fresh = schemes.get(scheme_id, block_size=PROPERTY_BLOCK)
        calls = []
        repair = fresh.repair

        def counted(missing, fetch):
            calls.append(set(missing))
            return repair(missing, fetch)

        fresh.repair = counted
        fresh.restore_state(scheme.state(), store.get)
        more = rng.integers(0, 256, size=(8, PROPERTY_BLOCK), dtype=np.uint8)
        expected = scheme.encode(more).blocks
        got = fresh.encode(more).blocks
        assert [block_id for block_id, _ in got] == [block_id for block_id, _ in expected]
        for (_, want), (_, have) in zip(expected, got):
            assert np.array_equal(want, have)
        return heads, scheme, calls

    def test_punctured_heads_regenerate_in_one_repair(self):
        heads, scheme, calls = self.restored("ae-3-2-5-p50")
        punctured_heads = {
            head for head in heads if scheme.punctured_code.is_punctured(head)
        }
        assert punctured_heads
        assert calls == [punctured_heads]

    def test_lost_head_is_rebuilt(self):
        head = ParityId(40, StrandClass.HORIZONTAL)
        heads, _, calls = self.restored("ae-3-2-5", drop=[head])
        assert head in heads
        assert calls == [{head}]

    def test_complete_heads_need_no_repair(self):
        _, _, calls = self.restored("ae-3-2-5")
        assert calls == []
