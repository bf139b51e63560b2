"""Alpha entanglement behind the scheme-agnostic redundancy protocol.

:class:`EntanglementScheme` wraps the helical-lattice machinery -- the
vectorised :class:`~repro.core.encoder.BatchEntangler` on the write path and
the round-based :meth:`EntanglementScheme.repair` loop on the read/repair
path -- behind the :class:`~repro.schemes.base.RedundancyScheme` interface,
so the storage front-end can drive AE codes and the stripe-code baselines
through the same verbs.  :meth:`~EntanglementScheme.repair` is the one place
that picks a pp-/dp-tuple and rebuilds a lattice block: degraded reads,
service repair, RAID-AE rebuilds, scrubbing and punctured strand heads all
go through it.

The scheme is *streaming*: the lattice grows with every encoded batch,
parities chain across documents, and blocks are never physically deleted
(paper, Sec. III-B: deletions happen only at the beginning of the mesh).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.batch_repair import execute_plan, plan_inputs, plan_round
from repro.core.blocks import BlockId, ParityId, is_data
from repro.core.encoder import DEFAULT_BLOCK_SIZE, BatchEntangler, latest_strand_creators
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.core.puncturing import PuncturedCode, puncture_rate
from repro.core.xor import Payload, PayloadBatch, as_payload
from repro.exceptions import InvalidParametersError, RepairFailedError
from repro.schemes.base import (
    BlockFetcher,
    EncodedPart,
    RedundancyScheme,
    SchemeCapabilities,
    SchemeRepairOutcome,
)

__all__ = [
    "EntanglementScheme",
    "MAX_REPAIR_RINGS",
    "PuncturedEntanglementScheme",
    "ae_scheme_id",
    "punctured_scheme_id",
]


#: How far a stuck repair reaches beyond its targets: each ring adds the
#: unreachable members of the pending blocks' tuples as intermediate targets
#: (the concentric recovery paths of Fig. 2).
MAX_REPAIR_RINGS = 6


def _sort_key(block_id: BlockId) -> Tuple[int, int, str]:
    if is_data(block_id):
        return (block_id.index, 0, "")
    return (block_id.index, 1, block_id.strand_class.value)


def ae_scheme_id(params: AEParameters) -> str:
    """The registry identifier of an AE setting, e.g. ``"ae-3-2-5"``."""
    if params.is_single:
        return "ae-1"
    return f"ae-{params.alpha}-{params.s}-{params.p}"


def punctured_scheme_id(params: AEParameters, keep_fraction: float) -> str:
    """The registry identifier of a rate-punctured AE setting.

    ``ae-3-2-5-p75`` keeps 75% of the parities of AE(3,2,5); the stored
    overhead drops from ``alpha`` towards ``alpha * keep_fraction``.
    """
    return f"{ae_scheme_id(params)}-p{int(round(keep_fraction * 100))}"


class EntanglementScheme(RedundancyScheme):
    """AE(alpha, s, p) entanglement as a pluggable redundancy scheme."""

    def __init__(
        self,
        params: AEParameters,
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheme_id: Optional[str] = None,
    ) -> None:
        super().__init__(scheme_id or ae_scheme_id(params), block_size)
        self._entangler = BatchEntangler(params, block_size)

    @property
    def params(self) -> AEParameters:
        return self._entangler.params

    @property
    def lattice(self) -> HelicalLattice:
        return self._entangler.lattice

    @property
    def entangler(self) -> BatchEntangler:
        return self._entangler

    def capabilities(self) -> SchemeCapabilities:
        params = self.params
        return SchemeCapabilities(
            scheme_id=self.scheme_id,
            name=params.spec(),
            kind="ae",
            storage_overhead=params.storage_overhead,
            single_failure_reads=params.single_failure_cost,
            streaming=True,
            erasable=False,
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def encode(self, payloads: PayloadBatch) -> EncodedPart:
        batch = self._entangler.entangle_batch(payloads)
        return EncodedPart(
            data_ids=list(batch.data_ids), blocks=list(batch.iter_blocks())
        )

    # ------------------------------------------------------------------
    # Read / repair path
    # ------------------------------------------------------------------
    def read_block(self, block_id: object, fetch: BlockFetcher) -> Payload:
        """Fetch one block; on a miss, rebuild it as a repair batch of one."""
        payload = fetch(block_id)
        if payload is not None:
            return as_payload(payload, self._block_size)
        recovered = self.repair({block_id}, fetch).recovered
        if block_id not in recovered:
            raise RepairFailedError(block_id, "no available recovery path")
        return recovered[block_id]

    def repair(self, missing: Set[object], fetch: BlockFetcher) -> SchemeRepairOutcome:
        """Round-based lattice repair (paper, Sec. V-C4), executed in bulk.

        Each round is planned against an availability view frozen at the
        round start (:func:`~repro.core.batch_repair.plan_round` picks, per
        target, the first complete pp-tuple of a data block or dp-tuple of a
        parity), the plan's inputs are fetched in one bulk call when the
        fetcher advertises ``try_get_many`` (a
        :class:`~repro.storage.cluster.ClusterBlockSource`), and every target
        of the round is rebuilt in a single matrix XOR pass.  Blocks repaired
        in one round become inputs of the next.

        When a round can plan none of the pending blocks, the unreachable
        members of their tuples join as intermediate targets, one ring at a
        time for at most :data:`MAX_REPAIR_RINGS` rings.  Intermediates feed
        later rounds but are never returned: a punctured parity is simply a
        block that is never stored, and a degraded read does not write back
        the redundancy it had to rebuild on the way.

        ``blocks_read`` counts the *distinct* payloads the run obtained --
        from the source or from the overlay of earlier rounds -- so a
        surviving block feeding several dependent repairs is accounted once.
        """
        outcome = SchemeRepairOutcome()
        lattice = self.lattice
        pending = {block_id for block_id in missing if lattice.has_block(block_id)}
        outcome.unrecovered = sorted(
            (block_id for block_id in missing if block_id not in pending),
            key=_sort_key,
        )
        overlay: Dict[BlockId, Payload] = {}
        # Source payloads already obtained (``None`` = probed and absent).
        cache: Dict[BlockId, Optional[Payload]] = {}
        consumed: Set[BlockId] = set()
        intermediates: Set[BlockId] = set()
        rings = 0
        oracle = getattr(fetch, "is_available", None)
        bulk = getattr(fetch, "try_get_many", None)

        def probed(block_id: BlockId) -> Optional[Payload]:
            """Memoised source fetch: availability probe without an oracle."""
            if block_id not in cache:
                cache[block_id] = fetch(block_id)
            return cache[block_id]

        while pending:
            snapshot = dict(overlay)
            if oracle is not None:

                def available(
                    block_id: BlockId, _snapshot: Dict[BlockId, Payload] = snapshot
                ) -> bool:
                    if block_id in _snapshot:
                        return True
                    if block_id in cache:
                        return cache[block_id] is not None
                    return bool(oracle(block_id))

            else:

                def available(
                    block_id: BlockId, _snapshot: Dict[BlockId, Payload] = snapshot
                ) -> bool:
                    return block_id in _snapshot or probed(block_id) is not None

            steps = plan_round(lattice, sorted(pending, key=_sort_key), available)
            if oracle is not None:
                # The oracle answered the planner without moving payloads;
                # fetch the chosen inputs now, in one grouped call.
                wanted = [
                    block_id
                    for block_id in plan_inputs(steps)
                    if block_id not in snapshot and block_id not in cache
                ]
                if wanted:
                    payloads = (
                        bulk(wanted)
                        if bulk is not None
                        else [fetch(block_id) for block_id in wanted]
                    )
                    cache.update(zip(wanted, payloads))
                # A source dying between the plan and the fetch can leave a
                # step without inputs; its target waits for a later round.
                steps = [
                    step
                    for step in steps
                    if all(
                        block_id in snapshot or cache.get(block_id) is not None
                        for block_id in step.inputs()
                    )
                ]
            if not steps:
                if rings == MAX_REPAIR_RINGS:
                    break
                ring = {
                    member
                    for block_id in pending
                    for option in lattice.repair_dependencies(block_id)
                    for member in option.required_blocks()
                    if member not in pending and not available(member)
                }
                if not ring:
                    break
                rings += 1
                pending |= ring
                intermediates |= ring
                continue

            def payload_of(
                block_id: BlockId, _snapshot: Dict[BlockId, Payload] = snapshot
            ) -> Payload:
                payload = _snapshot.get(block_id)
                return payload if payload is not None else cache[block_id]

            recovered = execute_plan(steps, payload_of, self._block_size)
            for step in steps:
                consumed.update(step.inputs())
            overlay.update(recovered)
            pending.difference_update(recovered)
            outcome.rounds += 1
        outcome.recovered = {
            block_id: payload
            for block_id, payload in overlay.items()
            if block_id not in intermediates
        }
        obtained = {
            block_id for block_id, payload in cache.items() if payload is not None
        }
        outcome.blocks_read = len(consumed | obtained)
        outcome.unrecovered.extend(sorted(pending - intermediates, key=_sort_key))
        return outcome

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """The lattice write position; strand heads are rebuilt from storage."""
        return {"blocks_encoded": self._entangler.blocks_encoded}

    def restore_state(self, state: Dict[str, object], fetch: BlockFetcher) -> None:
        """Regrow the lattice and refetch the strand-head parities.

        This is the paper's broker crash recovery (Sec. IV-A): the encoder
        only needs the head parity of each strand, all of which live in
        remote storage, so a durable reopen can continue entangling exactly
        where the closed service stopped.  Heads the fetch cannot supply --
        punctured ones, or ones on failed locations -- are rebuilt through
        one :meth:`repair` call.
        """
        size = int(state.get("blocks_encoded", 0))
        heads: Dict[object, Optional[Payload]] = {}
        for strand, creator in latest_strand_creators(self.params, size).items():
            head = ParityId(creator, strand.strand_class)
            heads[head] = fetch(head)
        lost = {head for head, payload in heads.items() if payload is None}
        if lost:
            # Repair plans over the lattice, so regrow it to the stored size.
            self._entangler.restore(0, fetch)
            self.lattice.grow(size)
            heads.update(self.repair(lost, fetch).recovered)
        self._entangler.restore(size, heads.get)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def is_data_block(self, block_id: object) -> bool:
        return is_data(block_id)

    def document_blocks(self, data_ids: Sequence[object]) -> List[object]:
        # Parities are shared lattice state and must survive document
        # deletion; only the data handles belong to the document.
        return list(data_ids)


class PuncturedEntanglementScheme(EntanglementScheme):
    """A rate-punctured AE code: some parities are computed but never stored.

    Puncturing (paper, Sec. III-B, "Reducing Storage Overhead") trades fault
    tolerance for intermediate code rates between the ``alpha`` steps: the
    deterministic :func:`~repro.core.puncturing.puncture_rate` policy decides
    per parity identity whether the block is stored, so readers, writers and
    repair agree on the punctured set without extra metadata.  A punctured
    parity is just a block that is never stored: repair regenerates it as an
    intermediate target when a read or a rebuild needs it, and never returns
    it for writing back.
    """

    def __init__(
        self,
        params: AEParameters,
        keep_fraction: float,
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheme_id: Optional[str] = None,
    ) -> None:
        if params.is_single:
            raise InvalidParametersError(
                "ae-1 has a single parity chain; puncturing it is data loss, "
                "not a rate change"
            )
        super().__init__(
            params,
            block_size=block_size,
            scheme_id=scheme_id or punctured_scheme_id(params, keep_fraction),
        )
        self._code: PuncturedCode = puncture_rate(params, keep_fraction)
        self._keep_fraction = float(keep_fraction)

    @property
    def punctured_code(self) -> PuncturedCode:
        return self._code

    @property
    def keep_fraction(self) -> float:
        return self._keep_fraction

    def capabilities(self) -> SchemeCapabilities:
        params = self.params
        return SchemeCapabilities(
            scheme_id=self.scheme_id,
            name=f"{params.spec()} p{int(round(self._keep_fraction * 100))}",
            kind="ae",
            # The stored overhead after puncturing; the wiring (and the
            # 2-read single-failure repair of an unpunctured neighbourhood)
            # is unchanged.
            storage_overhead=self._code.effective_overhead(),
            single_failure_reads=params.single_failure_cost,
            streaming=True,
            erasable=False,
        )

    def punctured_parities(self) -> Iterator[ParityId]:
        """Every punctured parity of the lattice encoded so far."""
        for index in range(1, self._entangler.blocks_encoded + 1):
            for strand_class in self.params.strand_classes:
                parity = ParityId(index, strand_class)
                if self._code.is_punctured(parity):
                    yield parity

    # ------------------------------------------------------------------
    # Write path: drop the punctured parities after computing them
    # ------------------------------------------------------------------
    def encode(self, payloads: PayloadBatch) -> EncodedPart:
        part = super().encode(payloads)
        part.blocks = [
            (block_id, payload)
            for block_id, payload in part.blocks
            if is_data(block_id) or not self._code.is_punctured(block_id)
        ]
        return part
