#!/usr/bin/env python3
"""Quickstart: encode a document, lose blocks, repair everything.

This walks through the primary API of the library:

1. pick a code setting AE(alpha, s, p);
2. entangle a document into data and parity blocks;
3. simulate failures by dropping blocks;
4. repair them in one call of the lattice repair loop (two-block XORs per
   lost block) and read the document back.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import AEParameters, DataId, ParityId
from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import join_blocks


def main() -> None:
    # AE(3,2,5) is the paper's flagship setting (the 5-HEC code): three
    # parities per block, two horizontal strands, five helical strands.
    params = AEParameters.triple(s=2, p=5)
    print(f"code setting      : {params.spec()}")
    print(f"storage overhead  : {params.storage_overhead:.0%}")
    print(f"code rate         : {params.code_rate}")
    print(f"strands           : {params.strand_count}")
    print(f"single-failure fix: XOR of {params.single_failure_cost} blocks\n")

    # ------------------------------------------------------------------
    # 1. Encode a document.
    # ------------------------------------------------------------------
    document = ("All along the helical lattice, every new block is tangled "
                "with old parities, weaving a mesh of interdependent content. "
                * 40).encode()
    scheme = EntanglementScheme(params, block_size=256)
    part = scheme.encode(document)
    print(f"document bytes    : {len(document)}")
    print(f"data blocks       : {len(part.data_ids)}")
    print(f"parity blocks     : {part.block_count - len(part.data_ids)}")

    # A flat payload store stands in for real storage devices.
    store = dict(part.blocks)

    # ------------------------------------------------------------------
    # 2. Damage the archive: drop several data blocks and some parities.
    # ------------------------------------------------------------------
    victims = [DataId(3), DataId(4), DataId(11)]
    for victim in victims:
        del store[victim]
    # Drop one parity too, to show parities are repaired the same way.
    some_parity = ParityId(part.data_ids[5].index, params.strand_classes[0])
    del store[some_parity]
    print(f"\ndropped blocks    : {victims + [some_parity]}")

    # ------------------------------------------------------------------
    # 3. Repair through the lattice.
    # ------------------------------------------------------------------
    outcome = scheme.repair(set(victims + [some_parity]), store.get)
    assert not outcome.unrecovered
    store.update(outcome.recovered)
    for victim in victims + [some_parity]:
        print(f"repaired          : {victim}")
    print(f"repair cost       : {outcome.blocks_read} block reads, "
          f"{outcome.rounds} round(s)")

    # ------------------------------------------------------------------
    # 4. Read the document back and verify it.
    # ------------------------------------------------------------------
    payloads = [store[data_id] for data_id in part.data_ids]
    recovered = join_blocks(payloads, len(document))
    assert recovered == document
    print("\ndocument recovered bit-for-bit: OK")


if __name__ == "__main__":
    main()
