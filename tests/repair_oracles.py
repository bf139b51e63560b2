"""Reference repair paths, kept as test and benchmark oracles.

The library repairs lattice blocks in exactly one place,
:meth:`repro.codes.entanglement.EntanglementScheme.repair`.  The two
implementations it replaced live on here, unchanged in behaviour, so the
tests can check the batched loop against them and the repair benchmark can
time it against the per-block loop:

* :class:`Decoder` -- the recursive single-block decoder: a missing data
  block is rebuilt from a pp-tuple, a missing parity from a dp-tuple, and a
  missing tuple member is itself repaired recursively along the strand (the
  concentric paths of Fig. 2), up to ``max_depth`` levels;
* :func:`repair_sequential` -- the per-block cluster repair loop: one
  depth-0 decoder call per target per round, blocks rebuilt in one round
  feeding the next (Sec. V-C4), each rebuilt block relocated as soon as it
  is repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.blocks import BlockId, DataId, ParityId, is_data
from repro.core.lattice import HelicalLattice
from repro.core.xor import Payload, as_payload, xor_payloads, zero_payload
from repro.exceptions import RepairFailedError
from repro.storage.cluster import StorageCluster

#: A block source returns the payload of a block or ``None`` when unavailable.
BlockSource = Callable[[BlockId], Optional[Payload]]

DEFAULT_RECURSION_DEPTH = 6


def block_sort_key(block_id: BlockId) -> Tuple[int, int, str]:
    if is_data(block_id):
        return (block_id.index, 0, "")
    return (block_id.index, 1, block_id.strand_class.value)


class Decoder:
    """Repairs individual blocks against a :data:`BlockSource`, recursively."""

    def __init__(
        self,
        lattice: HelicalLattice,
        source: BlockSource,
        block_size: int,
        max_depth: int = DEFAULT_RECURSION_DEPTH,
    ) -> None:
        self._lattice = lattice
        self._source = source
        self._block_size = block_size
        self._max_depth = max_depth

    def get(self, block_id: BlockId) -> Payload:
        """Return the payload of ``block_id``, repairing it if necessary."""
        payload = self._source(block_id)
        if payload is not None:
            return as_payload(payload, self._block_size)
        return self.repair(block_id)

    def repair(self, block_id: BlockId) -> Payload:
        """Rebuild a missing block, recursing along strands when needed."""
        payload = self._attempt(block_id, depth=0, visited=set())
        if payload is None:
            raise RepairFailedError(block_id, "no available recovery path")
        return payload

    def _fetch(self, block_id: BlockId) -> Optional[Payload]:
        payload = self._source(block_id)
        if payload is None:
            return None
        return as_payload(payload, self._block_size)

    def _attempt(
        self, block_id: BlockId, depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        if block_id in visited or not self._lattice.has_block(block_id):
            return None
        visited = visited | {block_id}
        if is_data(block_id):
            return self._attempt_data(block_id, depth, visited)
        return self._attempt_parity(block_id, depth, visited)

    def _resolve(
        self, block_id: Optional[BlockId], depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        """Fetch a block, or repair it recursively when depth allows.

        ``None`` stands for the virtual zero parity at strand extremities.
        """
        if block_id is None:
            return zero_payload(self._block_size)
        payload = self._fetch(block_id)
        if payload is not None:
            return payload
        if depth >= self._max_depth:
            return None
        return self._attempt(block_id, depth + 1, visited)

    def _attempt_data(
        self, data_id: DataId, depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        for option in self._lattice.data_repair_options(data_id.index):
            output_payload = self._resolve(option.output_parity, depth, visited)
            if output_payload is None:
                continue
            input_payload = self._resolve(option.input_parity, depth, visited)
            if input_payload is None:
                continue
            return xor_payloads(input_payload, output_payload)
        return None

    def _attempt_parity(
        self, parity: ParityId, depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        i = parity.index
        strand_class = parity.strand_class
        # Left option: p_{i,j} = d_i XOR p_{h,i}.
        left_data = self._resolve(DataId(i), depth, visited)
        if left_data is not None:
            left_parity = self._resolve(
                self._lattice.input_parity(i, strand_class), depth, visited
            )
            if left_parity is not None:
                return xor_payloads(left_data, left_parity)
        # Right option: p_{i,j} = d_j XOR p_{j,k} (only if node j exists).
        _, j = self._lattice.edge_endpoints(parity)
        if j <= self._lattice.size:
            right_data = self._resolve(DataId(j), depth, visited)
            if right_data is not None:
                right_parity = self._resolve(
                    self._lattice.output_parity(j, strand_class), depth, visited
                )
                if right_parity is not None:
                    return xor_payloads(right_data, right_parity)
        return None


@dataclass
class SequentialRepairReport:
    """Outcome of :func:`repair_sequential`: per-round repaired blocks."""

    rounds: List[List[BlockId]] = field(default_factory=list)
    blocks_read: int = 0
    unrecovered: List[BlockId] = field(default_factory=list)

    @property
    def repaired(self) -> Set[BlockId]:
        return {block_id for round_ in self.rounds for block_id in round_}

    @property
    def repaired_count(self) -> int:
        return sum(len(round_) for round_ in self.rounds)

    @property
    def data_loss(self) -> int:
        return sum(1 for block_id in self.unrecovered if is_data(block_id))


def repair_sequential(
    lattice: HelicalLattice,
    cluster: StorageCluster,
    block_size: int,
    max_rounds: int = 1000,
) -> SequentialRepairReport:
    """The per-block cluster repair loop (one decoder call per target).

    Every unreachable lattice block is a target.  Within a round the decoder
    only sees blocks available before the round started; each repaired
    payload is written to a healthy location at once.  ``blocks_read``
    counts every payload each decoder call fetched, so a surviving block
    feeding several repairs is counted once per repair.
    """
    report = SequentialRepairReport()
    pending = {
        block_id
        for block_id in cluster.unavailable_blocks()
        if lattice.has_block(block_id)
    }
    repaired_overlay: Dict[BlockId, Payload] = {}
    avoid = tuple(cluster.unavailable_locations())
    round_number = 0
    while pending and round_number < max_rounds:
        round_number += 1
        overlay_snapshot = dict(repaired_overlay)
        reads = [0]

        def source(
            block_id: BlockId,
            _snapshot: Dict[BlockId, Payload] = overlay_snapshot,
            _reads: List[int] = reads,
        ) -> Optional[Payload]:
            if _snapshot.get(block_id) is not None:
                _reads[0] += 1
                return _snapshot[block_id]
            payload = cluster.try_get_block(block_id)
            if payload is not None:
                _reads[0] += 1
            return payload

        decoder = Decoder(lattice, source, block_size, max_depth=0)
        repaired: List[BlockId] = []
        for block_id in sorted(pending, key=block_sort_key):
            try:
                payload = decoder.repair(block_id)
            except RepairFailedError:
                continue
            cluster.relocate(block_id, payload, avoid=avoid)
            repaired_overlay[block_id] = payload
            repaired.append(block_id)
        if not repaired:
            break
        report.blocks_read += reads[0]
        pending.difference_update(repaired)
        report.rounds.append(repaired)
    report.unrecovered = sorted(pending, key=block_sort_key)
    return report
