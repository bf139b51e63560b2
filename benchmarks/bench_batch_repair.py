"""Batched vs. per-block repair throughput, with a recorded perf trajectory.

The repair counterpart of ``bench_batch_ingest``: after a disaster a cluster
can either rebuild blocks one decoder call at a time (the per-block loop
``repair_sequential``, kept in ``tests/repair_oracles.py`` as the reference)
or go through ``EntanglementScheme.repair`` -- plan each round, bulk-read the
surviving inputs, reconstruct every target of the round in one matrix XOR
pass -- and write the rebuilt blocks back with one ``relocate_many``.  Both
paths must produce bit-identical payloads; the batched one must be at least
3x faster at 4 KiB blocks.

Measured numbers are recorded into ``BENCH_repair.json`` through
:mod:`perf_record`; CI gates fresh snapshots against the committed baseline
(see ``docs/benchmarks.md``).

Run from the repository root (the reference loop is imported from
``tests``) with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_repair.py -q -s

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from perf_record import record_entry
from repro.codes.entanglement import EntanglementScheme
from repro.core.parameters import AEParameters
from repro.core.xor import payloads_equal
from repro.storage.cluster import StorageCluster
from repro.storage.failures import disaster_for_target
from repro.storage.placement import RandomPlacement
from repro.system.service import StorageConfig, StorageService
from tests.repair_oracles import repair_sequential

BLOCK_SIZE = 4096
SEED = 7
_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
DATA_BLOCKS = 120 if _SMOKE else 400
REPEAT = 2 if _SMOKE else 4
# A wide cluster, as in the paper's disaster simulations: the per-block
# reference pays the candidate scan and placement bookkeeping once per
# repaired block, the batched path once per round.
LOCATIONS = 160
FAILED_LOCATIONS = 32


def _entangled_cluster():
    """AE(3,2,5) lattice stored on a fresh cluster; returns the pieces."""
    scheme = EntanglementScheme(AEParameters.triple(2, 5), block_size=BLOCK_SIZE)
    cluster = StorageCluster(LOCATIONS, RandomPlacement(LOCATIONS, seed=SEED))
    rng = np.random.default_rng(SEED)
    data = rng.integers(0, 256, size=(DATA_BLOCKS, BLOCK_SIZE), dtype=np.uint8)
    originals = {}
    for row in data:
        encoded = scheme.entangler.entangle(row)
        for block in encoded.all_blocks():
            originals[block.block_id] = block.payload
            cluster.put_block(block)
    return scheme, cluster, originals


def _batched_repair(scheme: EntanglementScheme, cluster: StorageCluster):
    """``scheme.repair`` over the cluster, then one grouped relocation."""
    outcome = scheme.repair(cluster.unavailable_blocks(), cluster.block_source())
    cluster.relocate_many(
        outcome.recovered.items(), avoid=tuple(cluster.unavailable_locations())
    )
    return outcome.repaired_count, outcome.unrecovered


def _sequential_repair(scheme: EntanglementScheme, cluster: StorageCluster):
    """The per-block reference loop."""
    report = repair_sequential(scheme.lattice, cluster, BLOCK_SIZE)
    return report.repaired_count, report.unrecovered


def _timed_repair(batched: bool):
    """Best-of-N wall time of one full repair run (fresh disaster each time)."""
    repair = _batched_repair if batched else _sequential_repair
    best = float("inf")
    repaired_bytes = 0
    for _ in range(REPEAT):
        scheme, cluster, originals = _entangled_cluster()
        cluster.fail_locations(range(FAILED_LOCATIONS))
        missing = cluster.unavailable_blocks()
        started = time.perf_counter()
        repaired_count, unrecovered = repair(scheme, cluster)
        best = min(best, time.perf_counter() - started)
        assert not unrecovered
        repaired_bytes = repaired_count * BLOCK_SIZE
        for block_id in missing:
            assert payloads_equal(cluster.get_block(block_id), originals[block_id])
    return best, repaired_bytes


def test_batch_repair_speedup_at_4k(print_tables):
    """Acceptance gate: >= 3x repair throughput at 4 KiB, bit-identical bytes."""
    t_sequential, repaired_bytes = _timed_repair(batched=False)
    t_batched, _ = _timed_repair(batched=True)
    speedup = t_sequential / t_batched
    mb = repaired_bytes / 1e6
    if print_tables:
        print(
            f"\nAE(3,2,5) repair @ 4 KiB ({repaired_bytes // BLOCK_SIZE} blocks): "
            f"sequential {mb / t_sequential:7.1f} MB/s, "
            f"batched {mb / t_batched:7.1f} MB/s, speedup {speedup:.1f}x"
        )
    record_entry(
        "repair",
        "ae-3-2-5/batch-speedup@4096",
        scheme="ae-3-2-5",
        block_size=BLOCK_SIZE,
        seed=SEED,
        metrics={
            "speedup": speedup,
            "batched_mb_s": mb / t_batched,
            "sequential_mb_s": mb / t_sequential,
            "repaired_blocks": repaired_bytes / BLOCK_SIZE,
        },
        gates=["speedup"],
    )
    # The acceptance floor holds at full scale; the shrunken smoke workload
    # keeps a looser floor (its regression gate is the BENCH_*.json compare).
    floor = 2.0 if _SMOKE else 3.0
    assert speedup >= floor, f"batched repair only {speedup:.2f}x faster than per-block"


def test_whole_site_disaster_recovery(print_tables):
    """Whole-domain reconstruction: lose ``site:0``, rebuild with zero data loss.

    Exercises the batched repair path end to end at the service level
    (scheme repair over a ``ClusterBlockSource`` + grouped relocation) under
    the ``spread-domains`` placement, for entanglement and the RS baseline.
    """
    rng = np.random.default_rng(SEED)
    payload = rng.integers(0, 256, size=DATA_BLOCKS * BLOCK_SIZE, dtype=np.uint8).tobytes()
    for scheme_id in ("ae-3-2-5", "rs-10-4"):
        service = StorageService.open(
            StorageConfig(
                scheme=scheme_id,
                block_size=BLOCK_SIZE,
                # 7 sites x 4 nodes: losing one site removes at most two of a
                # 14-position RS(10,4) stripe, within the parity budget.
                topology="sites=7,racks=2,nodes=2",
                placement="spread-domains",
                seed=SEED,
            )
        )
        service.put("doc", payload)
        disaster = disaster_for_target(service.topology, "site:0")
        service.fail_locations(disaster.failed_locations)
        started = time.perf_counter()
        report = service.repair()
        elapsed = time.perf_counter() - started
        assert report.data_loss == 0, f"{scheme_id}: lost data in a site disaster"
        assert service.status().unavailable_blocks == 0
        assert service.get("doc") == payload
        mb = report.repaired_count * BLOCK_SIZE / 1e6
        if print_tables:
            print(
                f"site:0 disaster [{scheme_id}]: {report.repaired_count} blocks "
                f"rebuilt in {report.rounds} rounds at {mb / elapsed:7.1f} MB/s"
            )
        record_entry(
            "repair",
            f"{scheme_id}/site-disaster@4096",
            scheme=scheme_id,
            block_size=BLOCK_SIZE,
            seed=SEED,
            metrics={
                "data_loss": float(report.data_loss),
                "repaired_blocks": float(report.repaired_count),
                "repair_mb_s": mb / elapsed,
            },
            gates=["data_loss"],
        )
