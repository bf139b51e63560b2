"""Vectorised round planning for lattice repair.

Rebuilding one block at a time -- fetch the two tuple inputs, XOR them,
return -- costs thousands of tiny Python round trips per repair round over
payloads that are already sitting in memory.  This module splits a round
into two phases so the storage layer and the XOR kernels each see one bulk
operation; :meth:`repro.codes.entanglement.EntanglementScheme.repair` drives
them round after round:

* :func:`plan_round` walks the pending blocks and, against a cheap
  availability oracle, picks one pp-/dp-tuple per repairable block -- one
  :class:`RepairPlanStep` each, none for blocks no surviving tuple can
  rebuild this round;
* :func:`execute_plan` gathers every step's two inputs into two payload
  matrices and reconstructs all targets in a single in-place
  :func:`~repro.core.xor.xor_into` matrix pass.

Both tuple forms reduce to ``target = first XOR second`` with ``None``
standing for the virtual zero parity at strand extremities, so a round is
exactly one matrix XOR regardless of how data and parity targets mix.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.core.blocks import BlockId, DataId, ParityId, is_data
from repro.core.lattice import HelicalLattice
from repro.core.rules import input_index, output_index
from repro.core.xor import Payload, gather_payload_matrix, xor_into

__all__ = ["RepairPlanStep", "plan_round", "execute_plan", "plan_inputs"]

#: Availability oracle: ``True`` when the block's payload can be produced
#: without repairing it (it is stored, or an earlier round rebuilt it).
AvailabilityProbe = Callable[[BlockId], bool]


class RepairPlanStep(NamedTuple):
    """One planned reconstruction: ``target = first XOR second``.

    ``None`` inputs stand for the virtual zero block at a strand extremity
    (a data block at a strand start equals its output parity alone).
    """

    target: BlockId
    first: Optional[BlockId]
    second: Optional[BlockId]

    def inputs(self) -> List[BlockId]:
        return [block_id for block_id in (self.first, self.second) if block_id is not None]


def plan_round(
    lattice: HelicalLattice,
    pending: Iterable[BlockId],
    available: AvailabilityProbe,
) -> List[RepairPlanStep]:
    """Plan one repair round over ``pending`` blocks.

    Data blocks try their alpha pp-tuples in strand-class order, parities
    try the left dp-tuple before the right one.  Blocks without a fully
    available tuple are simply absent from the plan (they wait for a later
    round).  ``pending`` must not be treated as available
    by the probe: within a round every input comes from blocks that existed
    before the round started.
    """
    # Ids are built lazily, option by option, instead of materialising the
    # lattice's option lists: a round plans hundreds of blocks and usually
    # commits to the first viable tuple, so eager construction is pure waste.
    params = lattice.params
    classes = params.strand_classes
    size = lattice.size
    steps: List[RepairPlanStep] = []
    for block_id in pending:
        if not lattice.has_block(block_id):
            continue
        if is_data(block_id):
            index = block_id.index
            for strand_class in classes:
                output_parity = ParityId(index, strand_class)
                if not available(output_parity):
                    continue
                h = input_index(index, strand_class, params)
                input_parity = ParityId(h, strand_class) if h >= 1 else None
                if input_parity is not None and not available(input_parity):
                    continue
                steps.append(RepairPlanStep(block_id, input_parity, output_parity))
                break
        else:
            index = block_id.index
            strand_class = block_id.strand_class
            # Left dp-tuple: p_{i,j} = d_i XOR p_{h,i} (virtual zero input at
            # a strand start).
            data = DataId(index)
            if available(data):
                h = input_index(index, strand_class, params)
                parity = ParityId(h, strand_class) if h >= 1 else None
                if parity is None or available(parity):
                    steps.append(RepairPlanStep(block_id, data, parity))
                    continue
            # Right dp-tuple: p_{i,j} = d_j XOR p_{j,k}, once node j exists.
            j = output_index(index, strand_class, params)
            if j <= size:
                data = DataId(j)
                if available(data):
                    parity = ParityId(j, strand_class)
                    if available(parity):
                        steps.append(RepairPlanStep(block_id, data, parity))
    return steps


def plan_inputs(steps: Iterable[RepairPlanStep]) -> List[BlockId]:
    """The unique input blocks a plan consumes, in first-use order."""
    seen: Dict[BlockId, None] = {}
    setdefault = seen.setdefault
    for step in steps:
        if step.first is not None:
            setdefault(step.first, None)
        if step.second is not None:
            setdefault(step.second, None)
    return list(seen)


def execute_plan(
    steps: List[RepairPlanStep],
    payload_of: Callable[[BlockId], Payload],
    block_size: int,
) -> Dict[BlockId, Payload]:
    """Reconstruct every planned target in one matrix XOR pass.

    ``payload_of`` must return the payload of every input named by the plan
    (the caller bulk-fetched them).  Returns ``{target: payload}``; each
    payload is a row of the freshly allocated result matrix, so inputs --
    including read-only zero-copy views from mmap-backed backends -- are
    never mutated.
    """
    if not steps:
        return {}
    firsts = gather_payload_matrix(
        [None if step.first is None else payload_of(step.first) for step in steps],
        block_size,
    )
    seconds = gather_payload_matrix(
        [None if step.second is None else payload_of(step.second) for step in steps],
        block_size,
    )
    xor_into(firsts, seconds)
    return {step.target: firsts[row] for row, step in enumerate(steps)}

