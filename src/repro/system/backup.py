"""Use case 1: a geo-replicated cooperative backup network (paper, Sec. IV-A).

A community shares storage and bandwidth: every participant keeps its own data
locally and uploads *parity* blocks to remote nodes.  The system is two
tiered: storage nodes host p-blocks for other users, broker nodes encode and
decode; in the simplest deployment (modelled here) every node plays both
roles.  Each user manages its own entanglement lattice, so multiple lattices
-- possibly with different settings -- coexist in the network.

The module reproduces the failure-mode walkthrough of Fig. 5 and the repair
steps of Table III: when nodes become unavailable, each lattice degrades
differently; a parity stored on a faulty node is regenerated from a complete
dp-tuple fetched from the surviving nodes.  Each user's lattice is an
:class:`~repro.codes.entanglement.EntanglementScheme`, so restoring a file is
one call of the scheme's lattice repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, cast

from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import Block, BlockId, DataId, ParityId, join_blocks
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.core.xor import Payload, xor_payloads, zero_payload
from repro.exceptions import RepairFailedError, UnknownBlockError
from repro.storage.block_store import BlockStore
from repro.system.keys import BlockKey, derive_key, location_for_block
from repro.system.sharding import ShardRing


@dataclass
class BackupDocument:
    """A file backed up by one user: its d-blocks stay local, parities go remote."""

    owner: str
    name: str
    data_ids: List[DataId]
    length: int


@dataclass
class RepairStep:
    """One row of the Table III walkthrough."""

    number: int
    description: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.number}. {self.description}: {self.detail}"


@dataclass
class ParityRepairTrace:
    """The full Table III procedure for regenerating one parity block."""

    parity: ParityId
    steps: List[RepairStep] = field(default_factory=list)
    payload: Optional[Payload] = None

    @property
    def succeeded(self) -> bool:
        return self.payload is not None


@dataclass
class RedundancyDegradation:
    """Per-lattice redundancy state after node failures (paper, Fig. 5)."""

    owner: str
    complete: int = 0
    missing_one_tuple: int = 0
    missing_two_tuples: int = 0
    missing_three_tuples: int = 0
    unavailable_data: int = 0

    def degraded_blocks(self) -> int:
        return (
            self.missing_one_tuple + self.missing_two_tuples + self.missing_three_tuples
        )


class BackupNode:
    """One participant: local user data plus hosted parities of other users."""

    def __init__(self, node_id: int, name: Optional[str] = None) -> None:
        self.node_id = node_id
        self.name = name or f"node-{node_id}"
        self.available = True
        #: Local user data blocks (never uploaded).
        self.local_blocks: Dict[Tuple[str, DataId], Payload] = {}
        #: Remote parities hosted on behalf of other users.
        self.hosted = BlockStore(node_id)

    def fail(self) -> None:
        self.available = False
        self.hosted.fail()

    def recover(self) -> None:
        self.available = True
        self.hosted.restore()

    def lose_local_data(self) -> None:
        """Simulate a local disk crash: the user's own blocks disappear."""
        self.local_blocks.clear()


class CooperativeBackupNetwork:
    """A loosely connected cluster of backup nodes with per-user lattices."""

    def __init__(
        self,
        node_count: int,
        params: AEParameters = AEParameters.triple(5, 5),
        block_size: int = 1024,
    ) -> None:
        self._params = params
        self._block_size = block_size
        self.nodes: List[BackupNode] = [BackupNode(node_id) for node_id in range(node_count)]
        self._schemes: Dict[str, EntanglementScheme] = {}
        self._documents: Dict[Tuple[str, str], BackupDocument] = {}
        #: Where each user's parity blocks were uploaded.
        self._parity_locations: Dict[Tuple[str, ParityId], int] = {}

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def params(self) -> AEParameters:
        return self._params

    def node(self, node_id: int) -> BackupNode:
        return self.nodes[node_id]

    def owner_name(self, node_id: int) -> str:
        return self.nodes[node_id].name

    def fail_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.nodes[node_id].fail()

    def recover_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.nodes[node_id].recover()

    def _scheme_for(self, owner: str) -> EntanglementScheme:
        if owner not in self._schemes:
            self._schemes[owner] = EntanglementScheme(self._params, self._block_size)
        return self._schemes[owner]

    def lattice_of(self, owner: str) -> HelicalLattice:
        return self._scheme_for(owner).lattice

    # ------------------------------------------------------------------
    # Backup (upload) path
    # ------------------------------------------------------------------
    def backup(self, node_id: int, filename: str, data: bytes) -> BackupDocument:
        """Encode a file on ``node_id`` and upload its parities to remote nodes."""
        owner = self.owner_name(node_id)
        encoder = self._scheme_for(owner).entangler
        owner_node = self.nodes[node_id]
        encoded_blocks, length = encoder.encode_bytes(data)
        data_ids: List[DataId] = []
        for encoded in encoded_blocks:
            data_ids.append(encoded.data_id)
            owner_node.local_blocks[(owner, encoded.data_id)] = encoded.data.payload
            for parity in encoded.parities:
                self._upload_parity(owner, node_id, parity)
        document = BackupDocument(owner=owner, name=filename, data_ids=data_ids, length=length)
        self._documents[(owner, filename)] = document
        return document

    def _upload_parity(self, owner: str, owner_node_id: int, parity: Block) -> int:
        target = location_for_block(
            owner, parity.block_id, len(self.nodes), exclude=owner_node_id
        )
        # Hosted blocks are keyed by (owner, block id): several users' lattices
        # share block identifiers, so the owner must be part of the key.
        self.nodes[target].hosted.put((owner, parity.block_id), parity.payload)
        self._parity_locations[(owner, parity.block_id)] = target
        return target

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def parity_location(self, owner: str, parity: ParityId) -> int:
        key = (owner, parity)
        if key not in self._parity_locations:
            raise UnknownBlockError(f"{parity!r} of {owner} was never uploaded")
        return self._parity_locations[key]

    def parity_key(self, owner: str, parity: ParityId) -> BlockKey:
        return derive_key(owner, parity)

    def _fetch(self, owner: str, owner_node_id: int, block_id: BlockId) -> Optional[Payload]:
        """Fetch a block of ``owner``'s lattice from wherever it lives."""
        if isinstance(block_id, DataId):
            owner_node = self.nodes[owner_node_id]
            if not owner_node.available:
                return None
            return owner_node.local_blocks.get((owner, block_id))
        location = self._parity_locations.get((owner, block_id))
        if location is None:
            return None
        return self.nodes[location].hosted.try_get((owner, block_id))

    # ------------------------------------------------------------------
    # Restore / repair paths
    # ------------------------------------------------------------------
    def restore_file(self, node_id: int, filename: str) -> bytes:
        """Rebuild a user's file from remote parities (local d-blocks may be gone)."""
        owner = self.owner_name(node_id)
        document = self._documents.get((owner, filename))
        if document is None:
            raise UnknownBlockError(f"{owner} has no backup named {filename!r}")

        def fetch(block_id: object) -> Optional[Payload]:
            return self._fetch(owner, node_id, cast(BlockId, block_id))

        # Direct fetches first; every lost block is rebuilt in one repair call.
        fetched = [fetch(data_id) for data_id in document.data_ids]
        missing: Set[object] = {
            data_id
            for data_id, payload in zip(document.data_ids, fetched)
            if payload is None
        }
        recovered = self._scheme_for(owner).repair(missing, fetch).recovered
        payloads: List[Payload] = []
        for data_id, payload in zip(document.data_ids, fetched):
            if payload is None:
                if data_id not in recovered:
                    raise RepairFailedError(data_id, "no available recovery path")
                payload = recovered[data_id]
            payloads.append(payload)
        # Re-populate the user's local store so later repairs can use the data.
        owner_node = self.nodes[node_id]
        if owner_node.available:
            for data_id, payload in zip(document.data_ids, payloads):
                owner_node.local_blocks[(owner, data_id)] = payload
        return join_blocks(payloads, document.length)

    def repair_parity(self, node_id: int, parity: ParityId) -> ParityRepairTrace:
        """Regenerate one missing parity following the Table III procedure."""
        owner = self.owner_name(node_id)
        lattice = self.lattice_of(owner)
        trace = ParityRepairTrace(parity=parity)
        options = lattice.parity_repair_options(parity)
        dp_tuples = [
            (option.data, option.parity)
            for option in options
        ]
        trace.steps.append(
            RepairStep(
                1,
                "Obtain dp-tuple id",
                ", ".join(
                    "{" + f"{self.parity_key(owner, parity).short()}: "
                    f"({data.label()}, {helper.label() if helper else 'zero'})" + "}"
                    for data, helper in dp_tuples
                ),
            )
        )
        chosen: Optional[Tuple[DataId, Optional[ParityId]]] = None
        for data, helper in dp_tuples:
            data_payload = self._fetch(owner, node_id, data)
            helper_payload = (
                zero_payload(self._block_size)
                if helper is None
                else self._fetch(owner, node_id, helper)
            )
            if data_payload is not None and helper_payload is not None:
                chosen = (data, helper)
                break
        if chosen is None:
            trace.steps.append(
                RepairStep(2, "Choose p-block id", "no complete dp-tuple available")
            )
            return trace
        data, helper = chosen
        helper_label = helper.label() if helper is not None else "virtual zero parity"
        trace.steps.append(RepairStep(2, "Choose p-block id", helper_label))
        if helper is not None:
            helper_location = self.parity_location(owner, helper)
            trace.steps.append(
                RepairStep(3, "Compute location key", f"n{helper_location}")
            )
            helper_payload = self.nodes[helper_location].hosted.try_get((owner, helper))
            trace.steps.append(RepairStep(4, "Get block", helper.label()))
        else:
            helper_payload = zero_payload(self._block_size)
            trace.steps.append(RepairStep(3, "Compute location key", "local"))
            trace.steps.append(RepairStep(4, "Get block", "virtual zero parity"))
        data_payload = self._fetch(owner, node_id, data)
        if data_payload is None or helper_payload is None:
            return trace
        trace.payload = xor_payloads(data_payload, helper_payload)
        trace.steps.append(RepairStep(5, "Repair block", parity.label()))
        # Store the regenerated parity on an available node.
        target = self._reupload_parity(owner, node_id, parity, trace.payload)
        trace.steps.append(
            RepairStep(6, "Store repaired block", f"n{target}")
        )
        return trace

    def _reupload_parity(
        self, owner: str, owner_node_id: int, parity: ParityId, payload: Payload
    ) -> int:
        key = derive_key(owner, parity)
        target = ShardRing.digest_index(key.digest, len(self.nodes))
        attempts = 0
        while (
            not self.nodes[target].available or target == owner_node_id
        ) and attempts < len(self.nodes):
            target = (target + 1) % len(self.nodes)
            attempts += 1
        self.nodes[target].hosted.put((owner, parity), payload)
        self._parity_locations[(owner, parity)] = target
        return target

    def repair_lattice(self, node_id: int) -> List[ParityRepairTrace]:
        """Regenerate every parity of a user's lattice hosted on failed nodes."""
        owner = self.owner_name(node_id)
        traces: List[ParityRepairTrace] = []
        lattice = self.lattice_of(owner)
        for parity in lattice.parity_ids():
            location = self._parity_locations.get((owner, parity))
            if location is None:
                continue
            if self.nodes[location].available and self.nodes[location].hosted.contains(
                (owner, parity)
            ):
                continue
            traces.append(self.repair_parity(node_id, parity))
        return traces

    # ------------------------------------------------------------------
    # Redundancy accounting (Fig. 5)
    # ------------------------------------------------------------------
    def redundancy_report(self, node_id: int) -> RedundancyDegradation:
        """Count how many pp-tuples of each local d-block are incomplete."""
        owner = self.owner_name(node_id)
        lattice = self.lattice_of(owner)
        report = RedundancyDegradation(owner=owner)
        owner_node = self.nodes[node_id]
        for data_id in lattice.data_ids():
            if (owner, data_id) not in owner_node.local_blocks or not owner_node.available:
                report.unavailable_data += 1
            broken_tuples = 0
            for option in lattice.data_repair_options(data_id.index):
                for parity in option.required_blocks():
                    if self._fetch(owner, node_id, parity) is None:
                        broken_tuples += 1
                        break
            if broken_tuples == 0:
                report.complete += 1
            elif broken_tuples == 1:
                report.missing_one_tuple += 1
            elif broken_tuples == 2:
                report.missing_two_tuples += 1
            else:
                report.missing_three_tuples += 1
        return report
