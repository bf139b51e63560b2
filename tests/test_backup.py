"""Integration tests for the geo-replicated cooperative backup use case (Sec. IV-A)."""

from __future__ import annotations

import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import RepairFailedError, UnknownBlockError
from repro.system.backup import CooperativeBackupNetwork

from tests.conftest import make_payload


def small_network(nodes: int = 12) -> CooperativeBackupNetwork:
    return CooperativeBackupNetwork(nodes, AEParameters.triple(5, 5), block_size=64)


class TestBackupUpload:
    def test_data_stays_local_parities_go_remote(self):
        network = small_network()
        payload = make_payload(1, 2000)
        document = network.backup(0, "photos.tar", payload)
        owner_node = network.node(0)
        assert all(
            (document.owner, data_id) in owner_node.local_blocks
            for data_id in document.data_ids
        )
        # Parities were uploaded to other nodes.
        lattice = network.lattice_of(document.owner)
        for parity in lattice.parity_ids():
            location = network.parity_location(document.owner, parity)
            assert location != 0
        assert owner_node.hosted.block_count == 0

    def test_multiple_users_have_independent_lattices(self):
        network = small_network()
        doc_a = network.backup(0, "a", make_payload(1, 500))
        doc_b = network.backup(1, "b", make_payload(2, 500))
        assert network.lattice_of(doc_a.owner).size == len(doc_a.data_ids)
        assert network.lattice_of(doc_b.owner).size == len(doc_b.data_ids)

    def test_unknown_backup_raises(self):
        network = small_network()
        with pytest.raises(UnknownBlockError):
            network.restore_file(0, "missing")


class TestFailureModeAndRepair:
    def test_restore_after_local_data_loss(self):
        network = small_network()
        payload = make_payload(3, 3000)
        network.backup(0, "notes", payload)
        network.node(0).lose_local_data()
        assert network.restore_file(0, "notes") == payload

    def test_restore_despite_remote_failures(self):
        network = small_network()
        payload = make_payload(4, 3000)
        network.backup(0, "notes", payload)
        network.node(0).lose_local_data()
        network.fail_nodes([2, 3, 4])
        assert network.restore_file(0, "notes") == payload

    def test_restore_fails_typed_when_nothing_survives(self):
        network = small_network()
        network.backup(0, "notes", make_payload(6, 3000))
        network.node(0).lose_local_data()
        network.fail_nodes(range(1, 12))
        with pytest.raises(RepairFailedError):
            network.restore_file(0, "notes")

    def test_parity_repair_follows_table_three_steps(self):
        """The regenerated parity walkthrough of Table III."""
        network = small_network()
        network.backup(0, "notes", make_payload(5, 4000))
        owner = network.owner_name(0)
        lattice = network.lattice_of(owner)
        # Pick a parity hosted on a node we will fail.
        parity = next(iter(lattice.parity_ids()))
        victim = network.parity_location(owner, parity)
        network.fail_nodes([victim])
        trace = network.repair_parity(0, parity)
        assert trace.succeeded
        descriptions = [step.description for step in trace.steps]
        assert descriptions[:2] == ["Obtain dp-tuple id", "Choose p-block id"]
        assert "Repair block" in descriptions
        assert "Store repaired block" in descriptions
        # The repaired parity now lives on an available node.
        new_home = network.parity_location(owner, parity)
        assert network.node(new_home).available

    def test_repair_lattice_regenerates_all_parities_on_failed_nodes(self):
        network = small_network()
        network.backup(0, "notes", make_payload(6, 5000))
        network.fail_nodes([1, 2])
        traces = network.repair_lattice(0)
        assert traces, "some parities should have lived on the failed nodes"
        assert all(trace.succeeded for trace in traces)

    def test_redundancy_report_degrades_with_failures(self):
        network = small_network()
        network.backup(0, "notes", make_payload(7, 6000))
        healthy = network.redundancy_report(0)
        assert healthy.degraded_blocks() == 0
        network.fail_nodes([2, 3, 4, 5])
        degraded = network.redundancy_report(0)
        assert degraded.degraded_blocks() > 0
        assert degraded.complete < healthy.complete
