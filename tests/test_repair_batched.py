"""Equivalence and accounting tests for the batched repair pipeline.

Service repair (``StorageService.repair``: ``EntanglementScheme.repair`` over
a ``ClusterBlockSource``, then one grouped ``relocate_many``) plans each
round, bulk-fetches the surviving inputs and rebuilds every target in one
matrix XOR pass.  These tests pin the contract that makes the speedup safe
to ship:

* batched repair and the per-block reference loop
  (``tests/repair_oracles.repair_sequential``) recover bit-identical payloads
  onto identical locations, across code settings, seeds and failure patterns
  (including a whole ``site:0`` disaster under ``spread-domains`` placement);
* the read accounting matches the analytic costs of
  :mod:`repro.analysis.repair_cost`, and a surviving block feeding several
  dependent repairs is fetched and counted once per run;
* segment-log bulk reads stay zero-copy (mmap-backed views), and a torn log
  tail still round-trips documents through the degraded read path after
  reopen.
"""

from __future__ import annotations

import glob
import mmap
import os

import numpy as np
import pytest

from repro.analysis.repair_cost import repair_model_for
from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import DataId
from repro.core.parameters import AEParameters
from repro.core.xor import payloads_equal
from repro.storage.backends import SegmentLogBackend
from repro.storage.block_store import BlockStore
from repro.storage.cluster import StorageCluster
from repro.storage.failures import disaster_for_target
from repro.storage.placement import RandomPlacement
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload
from tests.repair_oracles import repair_sequential
from tests.test_schemes import REQUIRED_IDS

BLOCK_SIZE = 64


def entangled_service(params: AEParameters, blocks: int, locations: int, seed: int):
    """Encode ``blocks`` payloads onto a fresh cluster behind a service;
    returns (service, originals)."""
    scheme = EntanglementScheme(params, BLOCK_SIZE)
    cluster = StorageCluster(locations, RandomPlacement(locations, seed=seed))
    originals = {}
    for index in range(1, blocks + 1):
        encoded = scheme.entangler.entangle(make_payload(index, BLOCK_SIZE))
        for block in encoded.all_blocks():
            originals[block.block_id] = block.payload
            cluster.put_block(block)
    return StorageService(scheme, cluster), originals


def batched_and_sequential(params: AEParameters, blocks: int, locations: int, seed: int, failed):
    """Run the same disaster through service repair and the per-block oracle.

    Returns ``(batched, sequential)``, each ``(cluster, missing, report)``.
    """
    runs = []
    for batched in (True, False):
        service, _ = entangled_service(params, blocks, locations, seed=seed)
        cluster = service.cluster
        cluster.fail_locations(failed)
        missing = cluster.unavailable_blocks()
        report = (
            service.repair()
            if batched
            else repair_sequential(service.scheme.lattice, cluster, BLOCK_SIZE)
        )
        runs.append((cluster, missing, report))
    return runs[0], runs[1]


class TestBatchedSequentialEquivalence:
    """Service repair must be indistinguishable from the per-block loop."""

    @pytest.mark.parametrize("spec", ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_identical_payloads_and_locations(self, spec, seed):
        params = AEParameters.parse(spec)
        _, originals = entangled_service(params, 80, 24, seed=seed)
        (bat_cluster, bat_missing, bat_report), (seq_cluster, missing, seq_report) = (
            batched_and_sequential(params, 80, 24, seed, range(4))
        )

        # Same placement seed, same disaster: both paths saw the same work
        # list and must agree on what was recoverable.
        assert bat_missing == missing
        assert set(bat_report.repaired) == seq_report.repaired
        assert bat_report.unrecovered == seq_report.unrecovered

        for block_id in bat_report.repaired:
            assert payloads_equal(bat_cluster.get_block(block_id), originals[block_id])
            assert payloads_equal(seq_cluster.get_block(block_id), originals[block_id])
            # Relocation targets are a pure function of the block and the
            # healthy candidate set, so the paths land on the same location.
            assert bat_cluster.location_of(block_id) == seq_cluster.location_of(block_id)

        # Deduplicated bulk fetches can only reduce the read bill.
        assert bat_report.blocks_read <= seq_report.blocks_read

    def test_agreement_on_unrecoverable_blocks(self):
        """A disaster beyond the code's strength: both paths report the same loss."""
        (_, _, batched), (_, _, sequential) = batched_and_sequential(
            AEParameters.single(), 60, 10, 13, range(6)
        )
        assert batched.unrecovered == sequential.unrecovered
        assert set(batched.repaired) == sequential.repaired
        assert batched.data_loss == sequential.data_loss
        assert batched.data_loss > 0


class TestServiceRepairAcrossSchemes:
    """The batched fetch/relocate path behind ``StorageService.repair``."""

    @staticmethod
    def document(block_size: int, blocks: int = 24) -> bytes:
        return bytes((7 * i + 3) % 251 for i in range(block_size * blocks))

    @pytest.mark.parametrize("scheme_id", REQUIRED_IDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_single_location_disaster_round_trip(self, scheme_id, seed):
        service = StorageService.open(
            StorageConfig(
                scheme=scheme_id,
                location_count=20,
                block_size=256,
                # Never co-locate a stripe's blocks: one lost location then
                # costs every stripe at most one position, which every
                # registered code tolerates.
                placement="spread-domains",
                seed=seed,
            )
        )
        payload = self.document(256)
        service.put("doc", payload)
        service.fail_locations([0])
        report = service.repair()
        assert report.data_loss == 0
        assert service.status().unavailable_blocks == 0
        assert service.get("doc") == payload

    #: One setting per family that provably survives the loss of one of
    #: seven sites when every stripe (or AE neighbourhood) is spread across
    #: domains: each site holds at most ceil(width / 7) blocks per stripe,
    #: within every code's parity budget.
    SITE_LOSS_SCHEMES = ["ae-2-2-5", "ae-3-2-5", "rs-10-4", "rs-8-2", "lrc-azure", "rep-3", "xor-raid5-5"]

    @pytest.mark.parametrize("scheme_id", SITE_LOSS_SCHEMES)
    def test_site_zero_loss_under_spread_domains(self, scheme_id):
        service = StorageService.open(
            StorageConfig(
                scheme=scheme_id,
                block_size=256,
                topology="sites=7,racks=2,nodes=2",
                placement="spread-domains",
                seed=5,
            )
        )
        payload = self.document(256)
        service.put("doc", payload)
        disaster = disaster_for_target(service.topology, "site:0")
        service.fail_locations(disaster.failed_locations)
        report = service.repair()
        assert report.data_loss == 0, f"{scheme_id}: site loss must not lose data"
        assert service.status().unavailable_blocks == 0
        assert service.get("doc") == payload

    @pytest.mark.parametrize("scheme_id", ["ae-3-2-5", "rs-10-4"])
    def test_degraded_read_without_repair(self, scheme_id):
        service = StorageService.open(
            StorageConfig(scheme=scheme_id, location_count=20, block_size=256, seed=9)
        )
        payload = self.document(256)
        service.put("doc", payload)
        service.fail_locations([0, 1])
        # No repair: the read path reconstructs the missing blocks in flight.
        assert service.get("doc") == payload
        assert b"".join(service.get_stream("doc")) == payload


class TestReadAccounting:
    """Measured reads versus the analytic model of ``analysis.repair_cost``."""

    @staticmethod
    def isolated_block_service(params: AEParameters, victims, blocks=60, locations=12):
        """A service whose cluster holds exactly ``victims`` at location 0."""
        scheme = EntanglementScheme(params, BLOCK_SIZE)
        cluster = StorageCluster(locations, RandomPlacement(locations, seed=2))
        spot = 1
        for index in range(1, blocks + 1):
            encoded = scheme.entangler.entangle(make_payload(index, BLOCK_SIZE))
            for block in encoded.all_blocks():
                if block.block_id in victims:
                    cluster.put_block(block, location_id=0)
                else:
                    cluster.put_block(block, location_id=1 + spot % (locations - 1))
                    spot += 1
        cluster.fail_locations([0])
        return StorageService(scheme, cluster)

    def test_single_failure_reads_match_analytic_cost(self):
        params = AEParameters.triple(2, 5)
        victim = DataId(30)
        service = self.isolated_block_service(params, {victim})
        cluster = service.cluster
        assert cluster.unavailable_blocks() == {victim}

        before = sum(store.read_count for store in cluster.locations())
        report = service.repair()
        after = sum(store.read_count for store in cluster.locations())

        analytic = repair_model_for("ae-3-2-5").single_failure_cost(BLOCK_SIZE).blocks_read
        assert analytic == 2
        assert report.blocks_read == analytic
        # The report's read bill is exactly what the stores served.
        assert after - before == report.blocks_read

    def test_shared_input_is_fetched_once(self):
        """AE(1): d2 and d3 both consume p(2,3); batched repair reads it once.

        Per-block repair pays ``2 + 2`` reads (each target re-fetches its own
        inputs); the batched round gathers the union ``{p(1,2), p(2,3),
        p(3,4)}`` in one bulk read.
        """
        params = AEParameters.single()
        victims = {DataId(2), DataId(3)}
        service = self.isolated_block_service(params, victims, blocks=40)
        # The same layout again for the per-block reference.
        reference = self.isolated_block_service(params, victims, blocks=40)
        sequential_cluster = reference.cluster

        batched_report = service.repair()
        sequential_report = repair_sequential(
            reference.scheme.lattice, sequential_cluster, BLOCK_SIZE
        )

        assert set(batched_report.repaired) == victims
        assert sequential_report.repaired == victims
        per_block = repair_model_for("ae-1").single_failure_cost(BLOCK_SIZE).blocks_read
        assert sequential_report.blocks_read == per_block * len(victims)
        # The shared parity p(2,3) is counted once, so one read is saved.
        assert batched_report.blocks_read == per_block * len(victims) - 1
        for block_id in victims:
            assert payloads_equal(
                service.cluster.get_block(block_id), sequential_cluster.get_block(block_id)
            )


class TestSegmentLogZeroCopy:
    """Bulk segment-log reads hand out mmap-backed views, not copies."""

    def test_get_many_returns_mmap_backed_views(self, tmp_path):
        store = BlockStore(0, backend=SegmentLogBackend(str(tmp_path)), cache_blocks=0)
        blocks = {DataId(i): make_payload(i, 256) for i in range(1, 9)}
        store.put_many(blocks.items())

        def backing_map(payload: np.ndarray) -> mmap.mmap:
            base = payload.base
            if isinstance(base, memoryview):
                base = base.obj
            assert isinstance(base, mmap.mmap)
            return base

        payloads = store.get_many(list(blocks))
        for block_id, payload in zip(blocks, payloads):
            assert isinstance(payload, np.ndarray)
            assert not payload.flags.owndata
            assert not payload.flags.writeable
            backing_map(payload)
            assert payload.tobytes() == blocks[block_id]
        # All eight records landed in the same segment: one shared map.
        assert len({id(backing_map(payload)) for payload in payloads}) == 1

        # The batched-repair entry point rides the same zero-copy path.
        maybe = store.try_get_many([DataId(1), DataId(99)])
        assert backing_map(maybe[0]) is backing_map(payloads[0])
        assert maybe[1] is None
        store.close()

    def test_torn_tail_reopen_round_trips_via_batched_repair(self, tmp_path):
        config = StorageConfig(
            scheme="ae-3-2-5",
            location_count=12,
            block_size=512,
            backend="segment",
            data_dir=str(tmp_path),
            seed=7,
        )
        payload = bytes((5 * i + 1) % 251 for i in range(512 * 30))
        service = StorageService.open(config)
        service.put("doc", payload)
        blocks_before = sum(len(store) for store in service.cluster.locations())
        service.close()

        # Simulate a crash mid-append: tear the tail record of one location's
        # newest segment.  Recovery must drop exactly that record.
        logs = sorted(glob.glob(os.path.join(str(tmp_path), "loc-*", "segments", "*.log")))
        victim_log = max(logs, key=os.path.getsize)
        with open(victim_log, "r+b") as handle:
            handle.truncate(os.path.getsize(victim_log) - 3)

        reopened = StorageService.open(config)
        blocks_after = sum(len(store) for store in reopened.cluster.locations())
        assert blocks_after == blocks_before - 1
        # The torn block is rebuilt in flight by the batched degraded-read
        # path; the document stays byte-exact.
        assert reopened.get("doc") == payload
        assert b"".join(reopened.get_stream("doc")) == payload
        # The service keeps accepting writes after recovery.
        reopened.put("more", payload[:1024])
        assert reopened.get("more") == payload[:1024]
        reopened.close()


def test_required_ids_cover_every_family():
    """The equivalence matrix spans all registered scheme families."""
    families = {scheme_id.split("-", 1)[0] for scheme_id in REQUIRED_IDS}
    assert {"ae", "rs", "lrc", "rep", "xor"} <= families
